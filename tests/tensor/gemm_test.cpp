#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm {
namespace {

/// Naive reference O(mnk) multiply used to validate the blocked kernels.
Tensor reference_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(GemmTest, SmallKnownProduct) {
  const Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(GemmTest, IdentityIsNeutral) {
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{5, 5}, rng);
  Tensor eye(Shape{5, 5});
  for (std::int64_t i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  EXPECT_LT(max_abs_diff(matmul(a, eye), a), 1e-6f);
  EXPECT_LT(max_abs_diff(matmul(eye, a), a), 1e-6f);
}

TEST(GemmTest, MatchesReferenceOnRandomSizes) {
  Rng rng(2);
  for (const auto& [m, k, n] : std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {3, 7, 5}, {64, 65, 63}, {100, 257, 33}, {17, 300, 2}}) {
    const Tensor a = Tensor::normal(Shape{m, k}, rng);
    const Tensor b = Tensor::normal(Shape{k, n}, rng);
    const Tensor got = matmul(a, b);
    const Tensor want = reference_matmul(a, b);
    EXPECT_LT(max_abs_diff(got, want), 1e-3f) << m << "x" << k << "x" << n;
  }
}

TEST(GemmTest, TransposedAVariantMatches) {
  Rng rng(3);
  const Tensor a = Tensor::normal(Shape{40, 30}, rng);  // (K x M)
  const Tensor b = Tensor::normal(Shape{40, 20}, rng);  // (K x N)
  const Tensor got = matmul_at(a, b);                   // (M x N)
  const Tensor want = reference_matmul(transpose(a), b);
  EXPECT_LT(max_abs_diff(got, want), 1e-3f);
}

TEST(GemmTest, TransposedBVariantMatches) {
  Rng rng(4);
  const Tensor a = Tensor::normal(Shape{25, 30}, rng);  // (M x K)
  const Tensor b = Tensor::normal(Shape{35, 30}, rng);  // (N x K)
  const Tensor got = matmul_bt(a, b);                   // (M x N)
  const Tensor want = reference_matmul(a, transpose(b));
  EXPECT_LT(max_abs_diff(got, want), 1e-3f);
}

TEST(GemmTest, AlphaBetaSemantics) {
  const std::vector<float> a = {1, 2, 3, 4};  // 2x2
  const std::vector<float> b = {1, 0, 0, 1};  // identity
  std::vector<float> c = {10, 10, 10, 10};
  sgemm(2, 2, 2, 2.0f, a.data(), b.data(), 0.5f, c.data());
  // C = 2*A + 0.5*C0
  EXPECT_FLOAT_EQ(c[0], 7.0f);
  EXPECT_FLOAT_EQ(c[3], 13.0f);
}

TEST(GemmTest, BetaZeroOverwritesGarbage) {
  const std::vector<float> a = {1.0f};
  const std::vector<float> b = {2.0f};
  std::vector<float> c = {std::numeric_limits<float>::quiet_NaN()};
  sgemm(1, 1, 1, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

TEST(GemmTest, ShapeMismatchThrows) {
  const Tensor a(Shape{2, 3});
  const Tensor b(Shape{2, 2});
  EXPECT_THROW(matmul(a, b), ShapeError);
  EXPECT_THROW(matmul_at(a, Tensor(Shape{3, 2})), ShapeError);
  EXPECT_THROW(matmul_bt(a, Tensor(Shape{2, 4})), ShapeError);
}

TEST(GemmTest, AccumulateWithBetaOne) {
  const std::vector<float> a = {1, 1};  // 1x2
  const std::vector<float> b = {3, 4};  // 2x1
  std::vector<float> c = {1};
  sgemm(1, 1, 2, 1.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 8.0f);
}

/// Naive C = alpha * op(A) * op(B) + beta * C reference with double
/// accumulation; row-major strides express the transposed variants.
void reference_sgemm(std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, std::int64_t a_row_stride,
                     std::int64_t a_k_stride, const float* b,
                     std::int64_t b_k_stride, std::int64_t b_col_stride,
                     float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * a_row_stride + p * a_k_stride]) *
               b[p * b_k_stride + j * b_col_stride];
      }
      c[i * n + j] =
          static_cast<float>(alpha * acc + static_cast<double>(beta) *
                                               c[i * n + j]);
    }
  }
}

// Randomized equivalence sweep: odd/prime sizes straddling the register tile
// and cache-block boundaries, with alpha/beta edge cases, for all three
// packing variants of the tiled kernel.
TEST(GemmTest, RandomizedVariantsMatchNaive) {
  Rng rng(7);
  const std::vector<std::tuple<int, int, int>> sizes = {
      {1, 1, 1}, {2, 3, 1},  {5, 9, 13},   {8, 32, 16},
      {9, 33, 17}, {31, 7, 65}, {47, 61, 193}, {129, 50, 37}};
  const std::vector<std::pair<float, float>> coeffs = {
      {1.0f, 0.0f}, {1.0f, 1.0f}, {2.0f, 0.5f}, {0.0f, 0.75f}};
  for (const auto& [m, k, n] : sizes) {
    const Tensor a = Tensor::normal(Shape{m, k}, rng);
    const Tensor at = Tensor::normal(Shape{k, m}, rng);
    const Tensor b = Tensor::normal(Shape{k, n}, rng);
    const Tensor bt = Tensor::normal(Shape{n, k}, rng);
    const Tensor c0 = Tensor::normal(Shape{m, n}, rng);
    for (const auto& [alpha, beta] : coeffs) {
      const std::string what = std::to_string(m) + "x" + std::to_string(k) +
                               "x" + std::to_string(n) + " alpha=" +
                               std::to_string(alpha) + " beta=" +
                               std::to_string(beta);
      Tensor got = c0;
      Tensor want = c0;
      sgemm(m, n, k, alpha, a.data(), b.data(), beta, got.data());
      reference_sgemm(m, n, k, alpha, a.data(), k, 1, b.data(), n, 1, beta,
                      want.data());
      EXPECT_LT(max_abs_diff(got, want), 2e-3f) << "sgemm " << what;

      got = c0;
      want = c0;
      sgemm_at(m, n, k, alpha, at.data(), b.data(), beta, got.data());
      reference_sgemm(m, n, k, alpha, at.data(), 1, m, b.data(), n, 1, beta,
                      want.data());
      EXPECT_LT(max_abs_diff(got, want), 2e-3f) << "sgemm_at " << what;

      got = c0;
      want = c0;
      sgemm_bt(m, n, k, alpha, a.data(), bt.data(), beta, got.data());
      reference_sgemm(m, n, k, alpha, a.data(), k, 1, bt.data(), 1, k, beta,
                      want.data());
      EXPECT_LT(max_abs_diff(got, want), 2e-3f) << "sgemm_bt " << what;
    }
  }
}

TEST(GemmTest, BiasRowsEpilogue) {
  Rng rng(8);
  const std::int64_t m = 13, n = 37, k = 21;
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor b = Tensor::normal(Shape{k, n}, rng);
  const Tensor bias = Tensor::normal(Shape{m}, rng);
  Tensor got(Shape{m, n});
  sgemm_bias_rows(m, n, k, 1.0f, a.data(), b.data(), 0.0f, got.data(),
                  bias.data());
  Tensor want(Shape{m, n});
  reference_sgemm(m, n, k, 1.0f, a.data(), k, 1, b.data(), n, 1, 0.0f,
                  want.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) want.at(i, j) += bias[i];
  }
  EXPECT_LT(max_abs_diff(got, want), 2e-3f);
}

TEST(GemmTest, BiasColsEpilogue) {
  Rng rng(9);
  const std::int64_t m = 19, n = 23, k = 40;
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor bt = Tensor::normal(Shape{n, k}, rng);
  const Tensor bias = Tensor::normal(Shape{n}, rng);
  Tensor got(Shape{m, n});
  sgemm_bt_bias_cols(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, got.data(),
                     bias.data());
  Tensor want(Shape{m, n});
  reference_sgemm(m, n, k, 1.0f, a.data(), k, 1, bt.data(), 1, k, 0.0f,
                  want.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) want.at(i, j) += bias[j];
  }
  EXPECT_LT(max_abs_diff(got, want), 2e-3f);
}

// Bias must be applied even when the product contributes nothing.
TEST(GemmTest, BiasAppliedWhenAlphaZero) {
  const std::vector<float> a = {5.0f, 5.0f};
  const std::vector<float> b = {5.0f, 5.0f};
  const std::vector<float> bias = {2.0f};
  std::vector<float> c = {1.0f, 1.0f};
  sgemm_bias_rows(1, 2, 1, 0.0f, a.data(), b.data(), 1.0f, c.data(),
                  bias.data());
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 3.0f);
}

// The panel split only partitions output elements, so threaded results must
// be bit-identical to the serial path, not merely close.
TEST(GemmTest, ThreadedMatchesSerialBitExact) {
  Rng rng(10);
  const std::int64_t m = 301, n = 253, k = 407;  // large enough to split
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor b = Tensor::normal(Shape{k, n}, rng);
  Tensor serial(Shape{m, n});
  Tensor threaded(Shape{m, n});
  ThreadPool::configure_global(1);
  sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, serial.data());
  ThreadPool::configure_global(4);
  sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, threaded.data());
  ThreadPool::configure_global(0);
  for (std::int64_t i = 0; i < serial.numel(); ++i) {
    ASSERT_EQ(serial[i], threaded[i]) << "element " << i;
  }
}

// The packed kernel must agree with the retired seed kernel it replaced.
TEST(GemmTest, MatchesSeedKernel) {
  Rng rng(11);
  const std::int64_t m = 65, n = 129, k = 77;
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor b = Tensor::normal(Shape{k, n}, rng);
  Tensor got(Shape{m, n});
  Tensor want(Shape{m, n});
  sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, got.data());
  detail::sgemm_seed(m, n, k, 1.0f, a.data(), b.data(), 0.0f, want.data());
  EXPECT_LT(max_abs_diff(got, want), 2e-3f);
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> normal_vector(std::int64_t n, Rng& rng) {
  const Tensor t = Tensor::normal(Shape{n}, rng);
  return std::vector<float>(t.data(), t.data() + n);
}

/// The image zero-bordered as sgemm_conv reads it, ending where its
/// allocation does, so that a read past it leaves the buffer.
std::vector<float> bordered_image(const ConvGeometry& g,
                                  const std::vector<float>& image) {
  std::vector<float> out(static_cast<std::size_t>(
      g.channels * (g.height + 2 * g.pad) * (g.width + 2 * g.pad)));
  border_image(g, image.data(), out.data());
  return out;
}

// The implicit-im2col entry against the path it replaces: im2col into a
// column buffer, then sgemm_bias_rows. Geometries cover every kernel size
// the nets use and more, strides 1 and 2, pads 0-2, non-square images,
// depths across the kKC block boundary, output widths across the kNC block
// boundary, filter counts across the kMC block boundary, and channel / filter counts off every ISA's kMR and kNR; pool
// size 4 splits the large products across column panels.
TEST(GemmTest, ImplicitConvBitMatchesIm2colThenGemm) {
  struct Case {
    std::int64_t channels, height, width, kernel, stride, pad, filters;
  };
  const std::vector<Case> cases = {
      {1, 9, 7, 1, 1, 0, 5},    {3, 11, 6, 3, 1, 1, 7},
      {5, 13, 10, 5, 1, 2, 9},  {7, 12, 9, 3, 2, 1, 13},
      {2, 15, 11, 5, 2, 2, 3},  {1, 32, 32, 5, 1, 2, 64},
      {64, 16, 16, 3, 1, 1, 32}, {37, 9, 14, 3, 1, 0, 11},
      {13, 17, 5, 1, 2, 1, 17}, {1, 40, 30, 5, 1, 2, 37},
      {33, 30, 41, 3, 1, 1, 37}, {6, 5, 8, 5, 2, 0, 1},
      {2, 6, 5, 3, 1, 1, 300}};
  Rng rng(21);
  for (const std::size_t threads : {1, 4}) {
    ThreadPool::configure_global(threads);
    for (const Case& t : cases) {
      const ConvGeometry g{.channels = t.channels, .height = t.height,
                           .width = t.width, .kernel_h = t.kernel,
                           .kernel_w = t.kernel, .stride = t.stride,
                           .pad = t.pad};
      g.validate();
      const std::int64_t k = g.col_rows();
      const std::int64_t n = g.col_cols();
      const auto image = normal_vector(t.channels * t.height * t.width, rng);
      const auto weights = normal_vector(t.filters * k, rng);
      const auto bias = normal_vector(t.filters, rng);
      std::vector<float> col(static_cast<std::size_t>(k * n));
      im2col(g, image.data(), col.data());
      const auto bordered = bordered_image(g, image);
      const PackedPanels packed = pack_weights_a(t.filters, k, weights.data());
      for (const float* b : {bias.data(), static_cast<const float*>(nullptr)}) {
        std::vector<float> want(static_cast<std::size_t>(t.filters * n), 7.0f);
        std::vector<float> got(want.size(), -3.0f);
        sgemm_bias_rows(t.filters, n, k, 1.0f, weights.data(), col.data(),
                        0.0f, want.data(), b);
        sgemm_conv(g, packed, bordered.data(), got.data(), b);
        EXPECT_TRUE(bits_equal(got, want))
            << "C=" << t.channels << " H=" << t.height << " W=" << t.width
            << " k=" << t.kernel << " s=" << t.stride << " p=" << t.pad
            << " OC=" << t.filters << " bias=" << (b != nullptr)
            << " threads=" << threads;
      }
    }
  }
  ThreadPool::configure_global(0);
}

// Weights packed once must give the bits of the per-call packing path, for
// batch sizes from one wafer to beyond the row-panel split, and depths and
// widths off the block and tile sizes.
TEST(GemmTest, PrepackedLinearBitMatchesBtBiasCols) {
  Rng rng(22);
  for (const std::size_t threads : {1, 4}) {
    ThreadPool::configure_global(threads);
    for (const std::int64_t m : {1, 7, 25, 300}) {
      for (const auto& [n, k] : std::vector<std::pair<std::int64_t,
                                                      std::int64_t>>{
               {256, 512}, {9, 256}, {1, 256}, {37, 700}}) {
        const auto x = normal_vector(m * k, rng);
        const auto w = normal_vector(n * k, rng);
        const auto bias = normal_vector(n, rng);
        std::vector<float> want(static_cast<std::size_t>(m * n), 7.0f);
        std::vector<float> got(want.size(), -3.0f);
        sgemm_bt_bias_cols(m, n, k, 1.0f, x.data(), w.data(), 0.0f,
                           want.data(), bias.data());
        sgemm_packed_bt_bias_cols(m, x.data(), pack_weights_bt(n, k, w.data()),
                                  got.data(), bias.data());
        EXPECT_TRUE(bits_equal(got, want))
            << "M=" << m << " N=" << n << " K=" << k << " threads=" << threads;
      }
    }
  }
  ThreadPool::configure_global(0);
}

/// C(i, j) summed in the order gemm.hpp promises for every fp32 entry:
/// kGemmKBlock-deep blocks of K, each one chain from +0 in p order (an FMA
/// per step where the target has one), 0 + the first block, += each later
/// block, then the bias.
template <typename A, typename B>
float ordered_sum(std::int64_t k, A a, B b, float bias) {
  float c = 0.0f;
  for (std::int64_t p0 = 0; p0 < k; p0 += kGemmKBlock) {
    float s = 0.0f;
    for (std::int64_t p = p0; p < std::min(k, p0 + kGemmKBlock); ++p) {
#ifdef __FMA__
      s = std::fma(a(p), b(p), s);
#else
      s = s + a(p) * b(p);
#endif
    }
    c = p0 == 0 ? 0.0f + s : c + s;
  }
  return c + bias;
}

// Pins the summation order itself, not just agreement between entries that
// share the kernel: sgemm, sgemm_conv, sgemm_packed_bt_bias_cols and
// sgemm_conv_dw against a scalar loop, at pool sizes 1 and 4. Depths
// straddle kGemmKBlock; the convs cover strides 1 and 2, output widths off
// every vector width and N tails; the dense layers every row count up to
// past a tile; the largest products split across the pool.
TEST(GemmTest, SumsInTheStatedOrder) {
  Rng rng(23);
  struct Conv {
    std::int64_t channels, height, width, kernel, stride, pad, filters;
  };
  struct DwConv {
    std::int64_t batch, channels, height, width, kernel, stride, pad, filters;
  };
  for (const std::size_t threads : {1, 4}) {
    ThreadPool::configure_global(threads);
    for (const auto& [m, n, k] : std::vector<std::tuple<int, int, int>>{
             {1, 1, 1}, {9, 37, 193}, {13, 70, 401}, {70, 300, 385}}) {
      const auto a = normal_vector(m * k, rng);
      const auto b = normal_vector(k * n, rng);
      std::vector<float> got(static_cast<std::size_t>(m * n), -3.0f);
      sgemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, got.data());
      std::vector<float> want(got.size());
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          want[static_cast<std::size_t>(i * n + j)] = ordered_sum(
              k, [&](std::int64_t p) { return a[i * k + p]; },
              [&](std::int64_t p) { return b[p * n + j]; }, 0.0f);
        }
      }
      EXPECT_TRUE(bits_equal(got, want))
          << "sgemm " << m << "x" << n << "x" << k << " threads=" << threads;
    }
    for (const Conv& t : std::vector<Conv>{{1, 32, 32, 5, 1, 2, 64},
                                           {64, 16, 16, 3, 1, 1, 32},
                                           {25, 7, 13, 3, 1, 1, 9},
                                           {3, 11, 6, 5, 1, 0, 10},
                                           {22, 15, 11, 3, 2, 1, 7}}) {
      const ConvGeometry g{.channels = t.channels, .height = t.height,
                           .width = t.width, .kernel_h = t.kernel,
                           .kernel_w = t.kernel, .stride = t.stride,
                           .pad = t.pad};
      const std::int64_t k = g.col_rows();
      const std::int64_t n = g.col_cols();
      const auto image = normal_vector(t.channels * t.height * t.width, rng);
      const auto w = normal_vector(t.filters * k, rng);
      const auto bias = normal_vector(t.filters, rng);
      std::vector<float> col(static_cast<std::size_t>(k * n));
      im2col(g, image.data(), col.data());
      std::vector<float> got(static_cast<std::size_t>(t.filters * n), -3.0f);
      sgemm_conv(g, pack_weights_a(t.filters, k, w.data()),
                 bordered_image(g, image).data(), got.data(), bias.data());
      std::vector<float> want(got.size());
      for (std::int64_t i = 0; i < t.filters; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          want[static_cast<std::size_t>(i * n + j)] = ordered_sum(
              k, [&](std::int64_t p) { return w[i * k + p]; },
              [&](std::int64_t p) { return col[p * n + j]; }, bias[i]);
        }
      }
      EXPECT_TRUE(bits_equal(got, want))
          << "sgemm_conv C=" << t.channels << " H=" << t.height
          << " W=" << t.width << " k=" << t.kernel << " s=" << t.stride
          << " p=" << t.pad << " OC=" << t.filters << " threads=" << threads;
    }
    std::vector<std::tuple<int, int, int>> dense = {
        {1, 256, 512}, {7, 9, 193}, {300, 256, 512}};
    for (int m = 1; m <= 9; ++m) dense.emplace_back(m, 37, 400);
    for (const auto& [m, n, k] : dense) {
      const auto x = normal_vector(m * k, rng);
      const auto w = normal_vector(n * k, rng);
      const auto bias = normal_vector(n, rng);
      std::vector<float> got(static_cast<std::size_t>(m * n), -3.0f);
      sgemm_packed_bt_bias_cols(m, x.data(), pack_weights_bt(n, k, w.data()),
                                got.data(), bias.data());
      std::vector<float> want(got.size());
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          want[static_cast<std::size_t>(i * n + j)] = ordered_sum(
              k, [&](std::int64_t p) { return x[i * k + p]; },
              [&](std::int64_t p) { return w[j * k + p]; }, bias[j]);
        }
      }
      EXPECT_TRUE(bits_equal(got, want))
          << "sgemm_packed_bt_bias_cols " << m << "x" << n << "x" << k
          << " threads=" << threads;
    }
    // dW over a batch: K = batch * OH*OW runs image by image, so K blocks
    // straddle images. Table I's conv1 and conv2, a stride-2 conv, and
    // filter counts off every tile height; dw starts non-zero.
    for (const DwConv& t : std::vector<DwConv>{{2, 1, 32, 32, 5, 1, 2, 64},
                                               {2, 64, 16, 16, 3, 1, 1, 32},
                                               {3, 32, 8, 8, 3, 1, 1, 9},
                                               {3, 16, 6, 6, 3, 1, 1, 13},
                                               {2, 5, 11, 9, 3, 2, 1, 7}}) {
      const ConvGeometry g{.channels = t.channels, .height = t.height,
                           .width = t.width, .kernel_h = t.kernel,
                           .kernel_w = t.kernel, .stride = t.stride,
                           .pad = t.pad};
      const std::int64_t per = g.col_cols();
      const std::int64_t cols = g.col_rows();
      const std::int64_t image = t.channels * t.height * t.width;
      const auto images = normal_vector(t.batch * image, rng);
      const auto dy = normal_vector(t.batch * t.filters * per, rng);
      std::vector<float> col(static_cast<std::size_t>(t.batch * cols * per));
      for (std::int64_t b = 0; b < t.batch; ++b) {
        im2col(g, images.data() + b * image, col.data() + b * cols * per);
      }
      const auto dw = normal_vector(t.filters * cols, rng);
      std::vector<float> got = dw;
      sgemm_conv_dw(g, t.batch, t.filters, dy.data(), images.data(),
                    got.data());
      std::vector<float> want(got.size());
      for (std::int64_t i = 0; i < t.filters; ++i) {
        for (std::int64_t j = 0; j < cols; ++j) {
          want[static_cast<std::size_t>(i * cols + j)] =
              dw[i * cols + j] +
              ordered_sum(
                  t.batch * per,
                  [&](std::int64_t p) {
                    return dy[(p / per * t.filters + i) * per + p % per];
                  },
                  [&](std::int64_t p) {
                    return col[(p / per * cols + j) * per + p % per];
                  },
                  0.0f);
        }
      }
      EXPECT_TRUE(bits_equal(got, want))
          << "sgemm_conv_dw N=" << t.batch << " C=" << t.channels
          << " H=" << t.height << " W=" << t.width << " k=" << t.kernel
          << " s=" << t.stride << " p=" << t.pad << " OC=" << t.filters
          << " threads=" << threads;
    }
  }
  ThreadPool::configure_global(0);
}

TEST(GemmTest, PackedOperandOnTheWrongSideThrows) {
  const std::vector<float> w(9 * 4, 1.0f);
  const ConvGeometry g{.channels = 1, .height = 4, .width = 4, .kernel_h = 3,
                       .kernel_w = 3, .stride = 1, .pad = 1};
  std::vector<float> out(64);
  const std::vector<float> image(16, 1.0f);
  EXPECT_THROW(sgemm_conv(g, pack_weights_bt(4, 9, w.data()), image.data(),
                          out.data(), nullptr),
               ShapeError);
  EXPECT_THROW(sgemm_conv(g, pack_weights_a(4, 8, w.data()), image.data(),
                          out.data(), nullptr),
               ShapeError);
  EXPECT_THROW(sgemm_packed_bt_bias_cols(2, w.data(),
                                         pack_weights_a(4, 9, w.data()),
                                         out.data(), nullptr),
               ShapeError);
}

}  // namespace
}  // namespace wm
