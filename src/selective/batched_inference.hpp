// The predict_batch loop behind wm::load_classifier, for either
// precision: chops the request into fixed-size eval batches, fans the
// batches across the global pool and maps each (logits, g) pair to
// SelectivePredictions. calibrate_threshold scores through it, and the
// benchmark's per-layer ledger calls it too, with the forward pass swapped
// for a timed one.
//
// Correctness contract inherited by every caller: eval batches must be
// independent (the infer callable mutates no state and per-sample outputs
// must not depend on batch grouping). Batch composition depends only on
// eval_batch, so results are bit-identical for any thread count and any
// caller-side regrouping.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "selective/selective_net.hpp"
#include "serve/classifier.hpp"
#include "tensor/tensor_ops.hpp"
#include "wafermap/dataset.hpp"

namespace wm::selective::detail {

/// InferFn: (const Tensor& images) -> SelectiveOutput, const and reentrant.
template <typename InferFn>
std::vector<SelectivePrediction> predict_batched(const InferFn& infer,
                                                 int map_size, float threshold,
                                                 int eval_batch,
                                                 std::span<const WaferMap> maps) {
  const int s = map_size;
  const std::size_t bs = static_cast<std::size_t>(eval_batch);
  const std::size_t n_batches =
      maps.empty() ? 0 : (maps.size() + bs - 1) / bs;
  std::vector<SelectivePrediction> all(maps.size());
  ThreadPool::global().parallel_for(0, n_batches, [&](std::size_t b) {
    const std::size_t start = b * bs;
    const std::size_t end = std::min(maps.size(), start + bs);
    const std::int64_t n = static_cast<std::int64_t>(end - start);
    Tensor images(Shape{n, 1, s, s});
    const std::int64_t image_elems = static_cast<std::int64_t>(s) * s;
    for (std::int64_t k = 0; k < n; ++k) {
      const WaferMap& map = maps[start + static_cast<std::size_t>(k)];
      WM_CHECK_SHAPE(map.size() == s, "wafer size ", map.size(),
                     " does not match the net's map size ", s);
      const Tensor img = map.to_tensor();
      std::memcpy(images.data() + k * image_elems, img.data(),
                  static_cast<std::size_t>(image_elems) * sizeof(float));
    }
    const SelectiveOutput out = infer(images);
    const Tensor probs = softmax_rows(out.logits);
    const auto arg = argmax_rows(out.logits);
    const std::int64_t nc = out.logits.dim(1);
    for (std::size_t i = 0; i < arg.size(); ++i) {
      SelectivePrediction& p = all[start + i];
      const float g = out.g[static_cast<std::int64_t>(i)];
      p.label = static_cast<int>(arg[i]);
      p.g = g;
      p.selected = g >= threshold;
      p.confidence = probs[static_cast<std::int64_t>(i) * nc + arg[i]];
    }
  });
  return all;
}

}  // namespace wm::selective::detail
