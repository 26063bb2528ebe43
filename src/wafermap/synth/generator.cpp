#include "wafermap/synth/generator.hpp"

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace wm::synth {

int DatasetSpec::total() const {
  int n = 0;
  for (int c : class_counts) n += c;
  return n;
}

std::array<int, kNumDefectTypes> table2_training_counts() {
  // Enum order: Center, Donut, Edge-Loc, Edge-Ring, Location, Near-Full,
  // Random, Scratch, None.
  return {2767, 329, 1958, 6802, 1311, 49, 498, 413, 29357};
}

std::array<int, kNumDefectTypes> table2_testing_counts() {
  return {695, 80, 459, 1752, 309, 5, 111, 87, 7373};
}

std::array<int, kNumDefectTypes> scale_counts(
    const std::array<int, kNumDefectTypes>& counts, double scale,
    int min_per_class) {
  WM_CHECK(min_per_class >= 0, "negative min_per_class");
  std::array<int, kNumDefectTypes> out{};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out[i] = scaled(counts[i], scale, min_per_class);
  }
  return out;
}

Dataset generate_dataset(const DatasetSpec& spec, Rng& rng) {
  WM_CHECK(spec.map_size >= 8, "map size too small: ", spec.map_size);
  Dataset out;
  out.reserve(static_cast<std::size_t>(spec.total()));
  for (int cls = 0; cls < kNumDefectTypes; ++cls) {
    const DefectType type = defect_type_from_index(cls);
    const int count = spec.class_counts[static_cast<std::size_t>(cls)];
    WM_CHECK(count >= 0, "negative class count for ", to_string(type));
    for (int i = 0; i < count; ++i) {
      out.add(Sample{.map = generate(type, spec.map_size, rng, spec.morphology),
                     .label = type});
    }
  }
  return out;
}

}  // namespace wm::synth
