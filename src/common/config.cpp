#include "common/config.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace wm {

double bench_scale() {
  const char* env = std::getenv("WM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  char* end = nullptr;
  const double s = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(s) || s <= 0.0) {
    log_warn("WM_BENCH_SCALE='", env,
             "' is not a finite number > 0; using 1.0");
    return 1.0;
  }
  return s;
}

int scaled(int n, double scale, int min_value) {
  WM_CHECK(scale > 0.0, "non-positive scale: ", scale);
  const double v = std::round(n * scale);
  WM_CHECK(v >= std::numeric_limits<int>::min() &&
               v <= std::numeric_limits<int>::max(),
           "scaled count ", n, " * ", scale, " does not fit an int");
  return std::max(min_value, static_cast<int>(v));
}

}  // namespace wm
