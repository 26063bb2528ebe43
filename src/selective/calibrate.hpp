// Threshold calibration: choose the abstention cut on g so that a desired
// fraction of a validation set is selected. This realises the paper's usage
// where the engineer dials a coverage budget (Section IV-D, resource
// allocation).
//
// Two entry points: calibrate_threshold() runs the net over a labeled
// dataset (offline calibration after training), refit_threshold() works on
// raw g-scores already in hand — the drift-adaptation path re-fits from the
// serving layer's sliding sample buffer without touching the model.
#pragma once

#include <span>

#include "selective/selective_net.hpp"
#include "wafermap/dataset.hpp"

namespace wm::selective {

/// Returns the threshold tau such that selecting {g >= tau} on `validation`
/// yields coverage closest to (and at least) `target_coverage` where
/// achievable. target_coverage in (0, 1].
float calibrate_threshold(const SelectiveNet& net, const Dataset& validation,
                          double target_coverage, int eval_batch = 256);

/// Re-fits the abstention threshold from raw selection scores so that the
/// top `target_coverage` fraction stays selected: tau is cut just below the
/// k-th highest score (k = round(c0 * N), clamped to [1, N]), so ties stay
/// selected. Edge semantics the re-fit path relies on:
///   * empty `g_scores` throws wm::Error (nothing to fit);
///   * an all-abstained window (every g below the old tau) still yields a
///     valid cut — the fit only looks at score ranks, not the old threshold;
///   * when duplicate scores make the exact target unreachable the achieved
///     coverage is the smallest reachable value >= target (never 0).
/// target_coverage in (0, 1]; result clamped into [0, 1].
float refit_threshold(std::span<const float> g_scores, double target_coverage);

/// Fraction of `g_scores` at or above `tau` — the coverage that threshold
/// would achieve on the window. 0 for an empty span.
double coverage_at(std::span<const float> g_scores, float tau);

}  // namespace wm::selective
