// Dataset synthesis mirroring the WM-811K class mix of Table II.
#pragma once

#include <array>

#include "wafermap/dataset.hpp"
#include "wafermap/synth/patterns.hpp"

namespace wm::synth {

struct DatasetSpec {
  int map_size = 32;
  std::array<int, kNumDefectTypes> class_counts{};  // samples per class
  MorphologyParams morphology = MorphologyParams::nominal();

  int total() const;
};

/// The paper's Table II "Training" column (43,484 wafers total).
std::array<int, kNumDefectTypes> table2_training_counts();

/// The paper's Table II "Testing" column (10,871 wafers total).
std::array<int, kNumDefectTypes> table2_testing_counts();

/// Scales a count vector by `scale` (each class through wm::scaled, so
/// rounded, at least min_per_class so rare classes such as Near-Full never
/// disappear, and InvalidArgument when a count does not fit an int).
std::array<int, kNumDefectTypes> scale_counts(
    const std::array<int, kNumDefectTypes>& counts, double scale,
    int min_per_class = 3);

/// Generates a dataset with the spec's per-class counts. Samples are emitted
/// class-by-class; call Dataset::shuffle for a random order.
Dataset generate_dataset(const DatasetSpec& spec, Rng& rng);

}  // namespace wm::synth
