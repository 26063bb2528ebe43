// Experiment scale: benches, examples and tests size their datasets and
// epoch counts through one multiplier, WM_BENCH_SCALE.
#pragma once

namespace wm {

/// Global experiment scale multiplier from env WM_BENCH_SCALE (default 1.0).
/// Benches multiply dataset sizes and epoch counts by this. Anything but a
/// whole finite number > 0 logs a warning and yields 1.0.
double bench_scale();

/// Rounds scale * n to an integer, clamped to at least min_value. Throws
/// InvalidArgument when scale is not > 0 or the rounded product does not
/// fit an int.
int scaled(int n, double scale, int min_value = 1);

}  // namespace wm
