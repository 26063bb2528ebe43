#include "tensor/i8gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "tensor/im2col.hpp"

namespace wm {
namespace {

std::vector<std::int8_t> random_s8(Rng& rng, std::int64_t n) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return v;
}

std::vector<std::uint8_t> random_u8(Rng& rng, std::int64_t n) {
  std::vector<std::uint8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(0, 127));
  return v;
}

std::vector<float> random_f32(Rng& rng, std::int64_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Naive reference: exact int32 accumulation, then the same float epilogue
/// the kernel applies — so kernel output must match to the last bit.
std::vector<float> reference_bias_rows(std::int64_t m, std::int64_t n,
                                       std::int64_t k, const std::int8_t* a,
                                       const std::uint8_t* b,
                                       const I8Epilogue& epi) {
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[i * k + p]) *
               static_cast<std::int32_t>(b[p * n + j]);
      }
      const std::int32_t corr =
          epi.act_zero_point *
          (epi.weight_row_sums != nullptr ? epi.weight_row_sums[i] : 0);
      // Mirror the kernel's float evaluation order exactly: the combined
      // scale is formed first, then applied to the corrected accumulator.
      const float s = epi.channel_scales[i] * epi.act_scale;
      float v = static_cast<float>(acc - corr) * s +
                (epi.bias != nullptr ? epi.bias[i] : 0.0f);
      if (epi.relu && v < 0.0f) v = 0.0f;
      c[static_cast<std::size_t>(i * n + j)] = v;
    }
  }
  return c;
}

std::vector<float> reference_bt_bias_cols(std::int64_t m, std::int64_t n,
                                          std::int64_t k, const std::uint8_t* a,
                                          const std::int8_t* b,
                                          const I8Epilogue& epi) {
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    const float as = epi.act_row_scales != nullptr ? epi.act_row_scales[i]
                                                   : epi.act_scale;
    const std::int32_t azp = epi.act_row_zero_points != nullptr
                                 ? epi.act_row_zero_points[i]
                                 : epi.act_zero_point;
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[i * k + p]) *
               static_cast<std::int32_t>(b[j * k + p]);
      }
      const std::int32_t corr =
          azp * (epi.weight_row_sums != nullptr ? epi.weight_row_sums[j] : 0);
      const float s = epi.channel_scales[j] * as;
      float v = static_cast<float>(acc - corr) * s +
                (epi.bias != nullptr ? epi.bias[j] : 0.0f);
      if (epi.relu && v < 0.0f) v = 0.0f;
      c[static_cast<std::size_t>(i * n + j)] = v;
    }
  }
  return c;
}

std::vector<std::int32_t> row_sums_of(const std::int8_t* w, std::int64_t rows,
                                      std::int64_t cols) {
  std::vector<std::int32_t> sums(static_cast<std::size_t>(rows), 0);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      sums[static_cast<std::size_t>(r)] += w[r * cols + c];
    }
  }
  return sums;
}

TEST(I8GemmTest, BiasRowsMatchesReferenceExactly) {
  Rng rng(1);
  for (const auto& [m, n, k] : std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {3, 5, 7}, {8, 16, 4}, {13, 33, 25},
           {64, 100, 75}, {7, 256, 9}}) {
    const auto a = random_s8(rng, static_cast<std::int64_t>(m) * k);
    const auto b = random_u8(rng, static_cast<std::int64_t>(k) * n);
    const auto scales = random_f32(rng, m);
    const auto bias = random_f32(rng, m);
    const auto sums = row_sums_of(a.data(), m, k);
    I8Epilogue epi;
    epi.channel_scales = scales.data();
    epi.act_scale = 0.03f;
    epi.act_zero_point = 17;
    epi.weight_row_sums = sums.data();
    epi.bias = bias.data();
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    i8gemm_bias_rows(m, n, k, a.data(), b.data(), c.data(), epi);
    const auto want = reference_bias_rows(m, n, k, a.data(), b.data(), epi);
    for (std::size_t i = 0; i < c.size(); ++i) {
      // The integer accumulation is exact; only the 3-op float epilogue can
      // differ from the reference, by at most an ulp of FMA contraction.
      ASSERT_NEAR(c[i], want[i], 1e-4f * (1.0f + std::fabs(want[i])))
          << m << "x" << n << "x" << k << " @" << i;
    }
  }
}

TEST(I8GemmTest, BtBiasColsMatchesReferenceExactly) {
  Rng rng(2);
  for (const auto& [m, n, k] : std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {2, 9, 32}, {17, 31, 11}, {40, 64, 128}, {1, 256, 64}}) {
    const auto a = random_u8(rng, static_cast<std::int64_t>(m) * k);
    const auto b = random_s8(rng, static_cast<std::int64_t>(n) * k);
    const auto scales = random_f32(rng, n);
    const auto bias = random_f32(rng, n);
    const auto sums = row_sums_of(b.data(), n, k);
    I8Epilogue epi;
    epi.channel_scales = scales.data();
    epi.act_scale = 0.008f;
    epi.act_zero_point = 5;
    epi.weight_row_sums = sums.data();
    epi.bias = bias.data();
    epi.relu = true;
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    i8gemm_bt_bias_cols(m, n, k, a.data(), b.data(), c.data(), epi);
    const auto want = reference_bt_bias_cols(m, n, k, a.data(), b.data(), epi);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], want[i], 1e-4f * (1.0f + std::fabs(want[i])))
          << m << "x" << n << "x" << k << " @" << i;
    }
  }
}

TEST(I8GemmTest, PerRowActivationParamsApply) {
  Rng rng(3);
  const std::int64_t m = 9, n = 21, k = 47;
  const auto a = random_u8(rng, m * k);
  const auto b = random_s8(rng, n * k);
  const auto scales = random_f32(rng, n);
  const auto sums = row_sums_of(b.data(), n, k);
  std::vector<float> row_scales(static_cast<std::size_t>(m));
  std::vector<std::int32_t> row_zps(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    row_scales[static_cast<std::size_t>(i)] =
        0.01f + 0.002f * static_cast<float>(i);
    row_zps[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i * 3);
  }
  I8Epilogue epi;
  epi.channel_scales = scales.data();
  epi.weight_row_sums = sums.data();
  epi.act_row_scales = row_scales.data();
  epi.act_row_zero_points = row_zps.data();
  std::vector<float> c(static_cast<std::size_t>(m * n));
  i8gemm_bt_bias_cols(m, n, k, a.data(), b.data(), c.data(), epi);
  const auto want = reference_bt_bias_cols(m, n, k, a.data(), b.data(), epi);
  for (std::size_t i = 0; i < c.size(); ++i) ASSERT_EQ(c[i], want[i]);

  // Per-row parameters must give the same bits as m separate one-row calls
  // with the scalar parameters — that is the batch-independence guarantee.
  for (std::int64_t i = 0; i < m; ++i) {
    I8Epilogue single = epi;
    single.act_row_scales = nullptr;
    single.act_row_zero_points = nullptr;
    single.act_scale = row_scales[static_cast<std::size_t>(i)];
    single.act_zero_point = row_zps[static_cast<std::size_t>(i)];
    std::vector<float> row(static_cast<std::size_t>(n));
    i8gemm_bt_bias_cols(1, n, k, a.data() + i * k, b.data(), row.data(),
                        single);
    for (std::int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(row[static_cast<std::size_t>(j)],
                c[static_cast<std::size_t>(i * n + j)]);
    }
  }
}

TEST(I8GemmTest, ReluClampsAtZero) {
  // A single all-negative product with no bias must clamp to exactly 0.
  const std::int8_t a[4] = {-50, -50, -50, -50};
  const std::uint8_t b[4] = {100, 100, 100, 100};
  const float scale = 0.01f;
  const std::int32_t sums = -200;
  I8Epilogue epi;
  epi.channel_scales = &scale;
  epi.weight_row_sums = &sums;
  epi.relu = true;
  float c = -1.0f;
  i8gemm_bias_rows(1, 1, 4, a, b, &c, epi);
  EXPECT_EQ(c, 0.0f);
  epi.relu = false;
  i8gemm_bias_rows(1, 1, 4, a, b, &c, epi);
  EXPECT_EQ(c, -200.0f);  // 4 * (-50*100) * 0.01
}

TEST(I8GemmTest, BitIdenticalAcrossThreadCounts) {
  // Large enough to cross the threading threshold; every worker count (and
  // both panel-split directions) must produce the same bits.
  Rng rng(4);
  const std::int64_t m = 96, n = 512, k = 160;
  const auto a = random_s8(rng, m * k);
  const auto b = random_u8(rng, k * n);
  const auto scales = random_f32(rng, m);
  const auto bias = random_f32(rng, m);
  const auto sums = row_sums_of(a.data(), m, k);
  I8Epilogue epi;
  epi.channel_scales = scales.data();
  epi.act_scale = 0.02f;
  epi.act_zero_point = 33;
  epi.weight_row_sums = sums.data();
  epi.bias = bias.data();
  epi.relu = true;

  std::vector<std::vector<float>> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::configure_global(threads);
    std::vector<float> c(static_cast<std::size_t>(m * n));
    i8gemm_bias_rows(m, n, k, a.data(), b.data(), c.data(), epi);
    std::vector<float> ct(static_cast<std::size_t>(n * m));
    // Column-panel split path: make n the dominant dimension.
    i8gemm_bt_bias_cols(n, m, k, b.data(), a.data(), ct.data(), epi);
    c.insert(c.end(), ct.begin(), ct.end());
    results.push_back(std::move(c));
  }
  ThreadPool::configure_global(0);  // restore the default pool
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    ASSERT_EQ(results[0][i], results[1][i]) << "diverged at " << i;
  }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The channels-last conv entry against the explicit lowering it replaces:
/// im2col_u8 over the (C, H, W) image with the ring value as padding, then
/// i8gemm_bias_rows, transposed.
TEST(I8GemmTest, ImplicitConvBitMatchesIm2colThenGemm) {
  struct Case {
    ConvGeometry g;
    std::int64_t out_channels;
  };
  std::vector<Case> cases;
  // Every kernel, stride and pad over a small H != W image. A kh run of
  // KW·C taps is a multiple of 4 for some (C = 4 and 16, and C = 3 at
  // KW = 4) and not for others, whose runs end on padding read from the
  // next pixel, the border or the slack past the image. 5 and 37 filters are
  // no multiple of the tile width, and most pixel counts none of kMR.
  for (const std::int64_t channels : {1, 3, 4, 16}) {
    for (const std::int64_t kernel : {1, 3, 5}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t pad : {0, 1, 2}) {
          cases.push_back({{.channels = channels, .height = 7, .width = 9,
                            .kernel_h = kernel, .kernel_w = kernel,
                            .stride = stride, .pad = pad},
                           channels == 4 ? 37 : 5});
        }
      }
    }
  }
  cases.push_back({{.channels = 3, .height = 6, .width = 8, .kernel_h = 4,
                    .kernel_w = 4, .stride = 1, .pad = 2},
                   5});
  // Products past the kernel's cache blocks and the threading threshold:
  // 667 pixels by 300 filters, so the pool splits pixel rows, then 144
  // pixels by 300 filters, so it splits filter columns.
  cases.push_back({{.channels = 3, .height = 23, .width = 29, .kernel_h = 3,
                    .kernel_w = 3, .stride = 1, .pad = 1},
                   300});
  cases.push_back({{.channels = 16, .height = 12, .width = 12, .kernel_h = 3,
                    .kernel_w = 3, .stride = 1, .pad = 1},
                   300});
  cases.push_back({{.channels = 7, .height = 31, .width = 26, .kernel_h = 5,
                    .kernel_w = 5, .stride = 2, .pad = 2},
                   37});

  Rng rng(5);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::configure_global(threads);
    for (const Case& cs : cases) {
      const ConvGeometry& g = cs.g;
      const std::int64_t m = cs.out_channels;
      const std::int64_t k = g.col_rows();
      const std::int64_t n = g.col_cols();
      const auto w = random_s8(rng, m * k);
      const auto image = random_u8(rng, g.channels * g.height * g.width);
      const auto scales = random_f32(rng, m);
      const auto bias = random_f32(rng, m);
      const auto sums = row_sums_of(w.data(), m, k);
      const I8PackedPanels packed = pack_conv_filters(g, m, w.data());
      for (const std::uint8_t ring : {0, 37, 127}) {
        const std::string what =
            std::to_string(g.channels) + " channels, k" +
            std::to_string(g.kernel_h) + " s" + std::to_string(g.stride) +
            " p" + std::to_string(g.pad) + " " + std::to_string(m) + "x" +
            std::to_string(n) + "x" + std::to_string(k) + " ring " +
            std::to_string(ring) + ", " + std::to_string(threads) + " threads";
        I8Epilogue epi;
        epi.channel_scales = scales.data();
        epi.act_scale = 0.02f;
        epi.act_zero_point = ring;
        epi.weight_row_sums = sums.data();
        epi.bias = bias.data();
        epi.relu = ring % 2 == 1;

        std::vector<std::uint8_t> col(static_cast<std::size_t>(k * n));
        im2col_u8(g, image.data(), col.data(), ring);
        std::vector<float> want(static_cast<std::size_t>(m * n));
        i8gemm_bias_rows(m, n, k, w.data(), col.data(), want.data(), epi);

        // Exactly the bytes the contract asks for, so that a read past
        // them lands outside the allocation. The slack holds 255, which
        // no activation does: it must meet zero filter bytes.
        const std::int64_t bh = g.height + 2 * g.pad;
        const std::int64_t bw = g.width + 2 * g.pad;
        const std::int64_t size = bh * bw * g.channels;
        std::vector<std::uint8_t> bordered(
            static_cast<std::size_t>(size + kI8ConvImageSlack), 255);
        std::fill(bordered.begin(), bordered.begin() + size, ring);
        for (std::int64_t c = 0; c < g.channels; ++c) {
          for (std::int64_t y = 0; y < g.height; ++y) {
            for (std::int64_t x = 0; x < g.width; ++x) {
              bordered[static_cast<std::size_t>(
                  ((y + g.pad) * bw + x + g.pad) * g.channels + c)] =
                  image[static_cast<std::size_t>((c * g.height + y) * g.width +
                                                 x)];
            }
          }
        }
        std::vector<float> got(static_cast<std::size_t>(n * m));
        i8gemm_conv(g, packed, bordered.data(), got.data(), epi);
        std::vector<float> transposed(static_cast<std::size_t>(m * n));
        for (std::int64_t j = 0; j < n; ++j) {
          for (std::int64_t ch = 0; ch < m; ++ch) {
            transposed[static_cast<std::size_t>(ch * n + j)] =
                got[static_cast<std::size_t>(j * m + ch)];
          }
        }
        EXPECT_TRUE(same_bits(transposed, want)) << what;
      }
    }
  }
  ThreadPool::configure_global(0);
}

TEST(I8GemmTest, ConvRejectsFiltersPackedForAnotherDepth) {
  const ConvGeometry g{.channels = 3, .height = 5, .width = 5, .kernel_h = 3,
                       .kernel_w = 3, .stride = 1, .pad = 1};
  const std::vector<std::int8_t> w(2 * 45, 1);
  const float scales[2] = {1.0f, 1.0f};
  I8Epilogue epi;
  epi.channel_scales = scales;
  std::vector<std::uint8_t> image(7 * 7 * 3 + kI8ConvImageSlack);
  std::vector<float> c(25 * 2);
  // Depth 3 · 16 against the conv's 3 · 12: a kh run of KW·C = 15 taps
  // takes four groups, of 9 taps three.
  ConvGeometry wider = g;
  wider.channels = 5;
  EXPECT_THROW(i8gemm_conv(g, pack_conv_filters(wider, 2, w.data()),
                           image.data(), c.data(), epi),
               Error);
  EXPECT_THROW(i8gemm_conv(g, pack_weights_bt(2, 27, w.data()), image.data(),
                           c.data(), epi),
               Error);
}

/// The pre-packed linear entry against the strided one, with per-row
/// activation parameters as QuantLinear passes them.
TEST(I8GemmTest, PrepackedLinearBitMatchesBtBiasCols) {
  Rng rng(6);
  const std::int64_t n = 530;
  const std::int64_t k = 70;
  const auto w = random_s8(rng, n * k);
  const auto scales = random_f32(rng, n);
  const auto bias = random_f32(rng, n);
  const auto sums = row_sums_of(w.data(), n, k);
  const I8PackedPanels packed = pack_weights_bt(n, k, w.data());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::configure_global(threads);
    for (const std::int64_t m : {1, 7, 25, 300}) {
      const auto x = random_u8(rng, m * k);
      std::vector<float> row_scales(static_cast<std::size_t>(m));
      std::vector<std::int32_t> row_zps(static_cast<std::size_t>(m));
      for (std::int64_t i = 0; i < m; ++i) {
        row_scales[static_cast<std::size_t>(i)] =
            static_cast<float>(rng.uniform(0.001, 0.1));
        row_zps[static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>(rng.uniform_int(0, 127));
      }
      I8Epilogue epi;
      epi.channel_scales = scales.data();
      epi.weight_row_sums = sums.data();
      epi.bias = bias.data();
      epi.relu = m % 2 == 1;
      epi.act_row_scales = row_scales.data();
      epi.act_row_zero_points = row_zps.data();
      std::vector<float> want(static_cast<std::size_t>(m * n));
      i8gemm_bt_bias_cols(m, n, k, x.data(), w.data(), want.data(), epi);
      std::vector<float> got(static_cast<std::size_t>(m * n));
      i8gemm_packed_bt_bias_cols(m, x.data(), packed, got.data(), epi);
      EXPECT_TRUE(same_bits(got, want))
          << "m = " << m << ", " << threads << " threads";
    }
  }
  ThreadPool::configure_global(0);
}

TEST(I8GemmTest, RejectsMissingScalesAndRowSums) {
  const std::int8_t a[1] = {1};
  const std::uint8_t b[1] = {1};
  float c = 0.0f;
  I8Epilogue epi;  // no channel_scales
  EXPECT_THROW(i8gemm_bias_rows(1, 1, 1, a, b, &c, epi), Error);
  const float scale = 1.0f;
  epi.channel_scales = &scale;
  epi.act_zero_point = 3;  // zero point without row sums
  EXPECT_THROW(i8gemm_bias_rows(1, 1, 1, a, b, &c, epi), Error);
}

}  // namespace
}  // namespace wm
