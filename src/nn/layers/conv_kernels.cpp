#include "nn/layers/conv_kernels.hpp"

#include <algorithm>
#include <vector>

#include "common/threadpool.hpp"
#include "nn/layers/batchnorm2d.hpp"

namespace wm::nn {

void conv_forward(const ConvGeometry& g, std::int64_t batch,
                  const PackedPanels& w, const float* input, float* out,
                  const float* bias) {
  const std::int64_t in_image = g.channels * g.height * g.width;
  const std::int64_t out_image = w.rows * g.col_cols();
  ThreadPool::global().parallel_chunks(
      0, static_cast<std::size_t>(batch), [&](std::size_t lo, std::size_t hi) {
        std::vector<float> frame(static_cast<std::size_t>(
            g.channels * (g.height + 2 * g.pad) * (g.width + 2 * g.pad)));
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t img = static_cast<std::int64_t>(i);
          border_image(g, input + img * in_image, frame.data());
          sgemm_conv(g, w, frame.data(), out + img * out_image, bias);
        }
      });
}

PackedPanels pack_input_grad_filters(const ConvGeometry& g, std::int64_t m,
                                     const float* w) {
  const std::int64_t kh = g.kernel_h;
  const std::int64_t kw = g.kernel_w;
  const std::int64_t taps = kh * kw;
  std::vector<float> flipped(static_cast<std::size_t>(g.channels * m * taps));
  for (std::int64_t o = 0; o < m; ++o) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      const float* src = w + (o * g.channels + c) * taps;
      float* dst = flipped.data() + (c * m + o) * taps;
      for (std::int64_t t = 0; t < taps; ++t) dst[taps - 1 - t] = src[t];
    }
  }
  return pack_weights_a(g.channels, m * taps, flipped.data());
}

void conv_input_grad(const ConvGeometry& g, std::int64_t batch,
                     std::int64_t m, const PackedPanels& filters,
                     const float* dy, float* dx, const float* bias) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t in_image = g.channels * g.height * g.width;
  const std::int64_t out_image = m * oh * ow;
  // dx is the stride-1 correlation of dy, dilated by the stride and placed
  // K - 1 - pad into a (H + KH - 1) x (W + KW - 1) zero frame, with the
  // flipped filters. At stride 1 with pad < K that frame is dy bordered by
  // K - 1 - pad on every side.
  const std::int64_t top = g.kernel_h - 1 - g.pad;
  const std::int64_t left = g.kernel_w - 1 - g.pad;
  const bool direct = g.stride == 1 && top >= 0 && top == left;
  ConvGeometry t{.channels = m, .height = oh, .width = ow,
                 .kernel_h = g.kernel_h, .kernel_w = g.kernel_w, .stride = 1,
                 .pad = top};
  if (!direct) {
    t.height = g.height + g.kernel_h - 1;
    t.width = g.width + g.kernel_w - 1;
    t.pad = 0;
  }
  ThreadPool::global().parallel_chunks(
      0, static_cast<std::size_t>(batch), [&](std::size_t lo, std::size_t hi) {
        std::vector<float> frame(static_cast<std::size_t>(
            m * (t.height + 2 * t.pad) * (t.width + 2 * t.pad)));
        for (std::size_t i = lo; i < hi; ++i) {
          const float* dyi = dy + static_cast<std::int64_t>(i) * out_image;
          float* dxi = dx + static_cast<std::int64_t>(i) * in_image;
          if (direct) {
            border_image(t, dyi, frame.data());
            sgemm_conv(t, filters, frame.data(), dxi, bias);
            continue;
          }
          std::fill(frame.begin(), frame.end(), 0.0f);
          for (std::int64_t c = 0; c < m; ++c) {
            for (std::int64_t y = 0; y < oh; ++y) {
              const std::int64_t fy = y * g.stride + top;
              if (fy < 0 || fy >= t.height) continue;
              for (std::int64_t x = 0; x < ow; ++x) {
                const std::int64_t fx = x * g.stride + left;
                if (fx < 0 || fx >= t.width) continue;
                frame[static_cast<std::size_t>((c * t.height + fy) * t.width +
                                               fx)] =
                    dyi[(c * oh + y) * ow + x];
              }
            }
          }
          sgemm_conv(t, filters, frame.data(), dxi, bias);
        }
      });
}

void accumulate_row_sums(std::int64_t batch, std::int64_t m, std::int64_t per,
                         const float* dy, float* db) {
  std::vector<double> totals(static_cast<std::size_t>(batch * m));
  ThreadPool::global().parallel_for(0, totals.size(), [&](std::size_t row) {
    totals[row] = plane_sum(dy + static_cast<std::int64_t>(row) * per, per);
  });
  add_row_totals(batch, m, totals.data(), db);
}

void add_row_totals(std::int64_t batch, std::int64_t m, const double* totals,
                    float* db) {
  for (std::int64_t r = 0; r < m; ++r) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < batch; ++i) sum += totals[i * m + r];
    db[r] += static_cast<float>(sum);
  }
}

}  // namespace wm::nn
