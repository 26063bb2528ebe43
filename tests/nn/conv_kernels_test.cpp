// Conv2d and ConvTranspose2d against direct double-precision loops: the
// forward, dW, db and dX over kernels 1/3/5, strides 1/2, every pad below
// the kernel and H != W, at pool sizes 1-4. The float sums run over up to
// N*OH*OW terms (K blocks of the batched dW GEMM included), so they meet
// the reference within 1e-4 * (1 + |ref|); across pool sizes every result
// is bit-identical.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/layers/conv2d.hpp"
#include "nn/layers/conv_transpose2d.hpp"

namespace wm::nn {
namespace {

struct ConvCase {
  std::int64_t batch, in_channels, out_channels, height, width, kernel,
      stride, pad;
};

std::string describe(const ConvCase& c) {
  return std::to_string(c.batch) + "x" + std::to_string(c.in_channels) + "x" +
         std::to_string(c.height) + "x" + std::to_string(c.width) + " -> " +
         std::to_string(c.out_channels) + " k" + std::to_string(c.kernel) +
         " s" + std::to_string(c.stride) + " p" + std::to_string(c.pad);
}

std::vector<ConvCase> cases() {
  std::vector<ConvCase> out;
  for (const std::int64_t k : {1, 3, 5}) {
    for (const std::int64_t s : {1, 2}) {
      for (std::int64_t p = 0; p < k; ++p) out.push_back({2, 3, 5, 9, 11, k, s, p});
    }
  }
  // N*OH*OW = 4*12*16 = 768: the batched dW GEMM's K spans several blocks.
  out.push_back({4, 6, 7, 12, 16, 3, 1, 1});
  return out;
}

/// What one layer computes for a case.
struct Results {
  Tensor y, dw, db, dx;
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

void expect_near_reference(const Tensor& got, const std::vector<double>& want,
                           const char* what) {
  ASSERT_EQ(static_cast<std::size_t>(got.numel()), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got[static_cast<std::int64_t>(i)], want[i],
                1e-4 * (1.0 + std::abs(want[i])))
        << what << " at " << i;
  }
}

/// A conv's tap: input pixel (iy, ix) of output pixel (oy, ox), or false
/// when the tap reads padding.
bool tap(const ConvCase& c, std::int64_t oy, std::int64_t ox, std::int64_t kh,
         std::int64_t kw, std::int64_t* iy, std::int64_t* ix) {
  *iy = oy * c.stride + kh - c.pad;
  *ix = ox * c.stride + kw - c.pad;
  return *iy >= 0 && *iy < c.height && *ix >= 0 && *ix < c.width;
}

template <typename Layer>
Results run(Layer& layer, const Tensor& x, const Tensor& dy_seed) {
  Results r;
  r.y = layer.forward(x, /*training=*/true);
  EXPECT_EQ(r.y.shape(), dy_seed.shape());
  layer.zero_grad();
  r.dx = layer.backward(dy_seed);
  r.dw = layer.parameters()[0]->grad;
  r.db = layer.parameters()[1]->grad;
  return r;
}

TEST(ConvKernelsTest, Conv2dMatchesADirectLoopAtEveryPoolSize) {
  for (const ConvCase& c : cases()) {
    SCOPED_TRACE(describe(c));
    const std::int64_t oh = (c.height + 2 * c.pad - c.kernel) / c.stride + 1;
    const std::int64_t ow = (c.width + 2 * c.pad - c.kernel) / c.stride + 1;
    Rng rng(31);
    const Tensor x =
        Tensor::normal(Shape{c.batch, c.in_channels, c.height, c.width}, rng);
    const Tensor dy =
        Tensor::normal(Shape{c.batch, c.out_channels, oh, ow}, rng);
    Results first;
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      ThreadPool::configure_global(threads);
      Rng wrng(32);
      Conv2d conv({.in_channels = c.in_channels,
                   .out_channels = c.out_channels, .kernel = c.kernel,
                   .stride = c.stride, .pad = c.pad},
                  wrng);
      conv.parameters()[1]->value =
          Tensor::normal(Shape{c.out_channels}, wrng);
      const Results r = run(conv, x, dy);
      ThreadPool::configure_global(0);
      if (threads > 1) {
        EXPECT_TRUE(same_bits(r.y, first.y)) << "y at pool size " << threads;
        EXPECT_TRUE(same_bits(r.dw, first.dw)) << "dW at pool size " << threads;
        EXPECT_TRUE(same_bits(r.db, first.db)) << "db at pool size " << threads;
        EXPECT_TRUE(same_bits(r.dx, first.dx)) << "dX at pool size " << threads;
        continue;
      }
      first = r;
      const Tensor& w = conv.parameters()[0]->value;
      const Tensor& b = conv.parameters()[1]->value;
      const std::int64_t kk = c.kernel * c.kernel;
      std::vector<double> y(static_cast<std::size_t>(r.y.numel()));
      std::vector<double> dw(static_cast<std::size_t>(w.numel()), 0.0);
      std::vector<double> db(static_cast<std::size_t>(c.out_channels), 0.0);
      std::vector<double> dx(static_cast<std::size_t>(x.numel()), 0.0);
      for (std::int64_t n = 0; n < c.batch; ++n) {
        for (std::int64_t o = 0; o < c.out_channels; ++o) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t yi = ((n * c.out_channels + o) * oh + oy) * ow + ox;
              const double g = dy[yi];
              double acc = b[o];
              db[static_cast<std::size_t>(o)] += g;
              for (std::int64_t ci = 0; ci < c.in_channels; ++ci) {
                for (std::int64_t kh = 0; kh < c.kernel; ++kh) {
                  for (std::int64_t kw = 0; kw < c.kernel; ++kw) {
                    std::int64_t iy, ix;
                    if (!tap(c, oy, ox, kh, kw, &iy, &ix)) continue;
                    const std::int64_t xi =
                        ((n * c.in_channels + ci) * c.height + iy) * c.width + ix;
                    const std::int64_t wi =
                        (o * c.in_channels + ci) * kk + kh * c.kernel + kw;
                    acc += static_cast<double>(w[wi]) * x[xi];
                    dw[static_cast<std::size_t>(wi)] += g * x[xi];
                    dx[static_cast<std::size_t>(xi)] += g * w[wi];
                  }
                }
              }
              y[static_cast<std::size_t>(yi)] = acc;
            }
          }
        }
      }
      expect_near_reference(r.y, y, "y");
      expect_near_reference(r.dw, dw, "dW");
      expect_near_reference(r.db, db, "db");
      expect_near_reference(r.dx, dx, "dX");
    }
  }
}

TEST(ConvKernelsTest, ConvTranspose2dMatchesADirectLoopAtEveryPoolSize) {
  for (const ConvCase& c : cases()) {
    SCOPED_TRACE(describe(c));
    // The transposed conv maps the conv's output grid (h, w) back to
    // (oh, ow) = (H', W') of a conv with the same kernel, stride and pad.
    const std::int64_t h = c.height;
    const std::int64_t w = c.width;
    const std::int64_t oh = (h - 1) * c.stride + c.kernel - 2 * c.pad;
    const std::int64_t ow = (w - 1) * c.stride + c.kernel - 2 * c.pad;
    if (oh <= 0 || ow <= 0) continue;
    Rng rng(41);
    const Tensor x = Tensor::normal(Shape{c.batch, c.in_channels, h, w}, rng);
    const Tensor dy =
        Tensor::normal(Shape{c.batch, c.out_channels, oh, ow}, rng);
    Results first;
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      ThreadPool::configure_global(threads);
      Rng wrng(42);
      ConvTranspose2d convt({.in_channels = c.in_channels,
                             .out_channels = c.out_channels,
                             .kernel = c.kernel, .stride = c.stride,
                             .pad = c.pad},
                            wrng);
      convt.parameters()[1]->value =
          Tensor::normal(Shape{c.out_channels}, wrng);
      const Results r = run(convt, x, dy);
      ThreadPool::configure_global(0);
      if (threads > 1) {
        EXPECT_TRUE(same_bits(r.y, first.y)) << "y at pool size " << threads;
        EXPECT_TRUE(same_bits(r.dw, first.dw)) << "dW at pool size " << threads;
        EXPECT_TRUE(same_bits(r.db, first.db)) << "db at pool size " << threads;
        EXPECT_TRUE(same_bits(r.dx, first.dx)) << "dX at pool size " << threads;
        continue;
      }
      first = r;
      const Tensor& wt = convt.parameters()[0]->value;  // (IC, OC*K*K)
      const Tensor& b = convt.parameters()[1]->value;
      const std::int64_t kk = c.kernel * c.kernel;
      std::vector<double> y(static_cast<std::size_t>(r.y.numel()));
      for (std::int64_t n = 0; n < c.batch; ++n) {
        for (std::int64_t o = 0; o < c.out_channels; ++o) {
          for (std::int64_t s = 0; s < oh * ow; ++s) {
            y[static_cast<std::size_t>((n * c.out_channels + o) * oh * ow + s)] = b[o];
          }
        }
      }
      std::vector<double> dw(static_cast<std::size_t>(wt.numel()), 0.0);
      std::vector<double> db(static_cast<std::size_t>(c.out_channels), 0.0);
      std::vector<double> dx(static_cast<std::size_t>(x.numel()), 0.0);
      for (std::int64_t n = 0; n < c.batch; ++n) {
        for (std::int64_t o = 0; o < c.out_channels; ++o) {
          for (std::int64_t s = 0; s < oh * ow; ++s) {
            db[static_cast<std::size_t>(o)] +=
                dy[(n * c.out_channels + o) * oh * ow + s];
          }
        }
        for (std::int64_t i = 0; i < c.in_channels; ++i) {
          for (std::int64_t iy = 0; iy < h; ++iy) {
            for (std::int64_t ix = 0; ix < w; ++ix) {
              const std::int64_t xi = ((n * c.in_channels + i) * h + iy) * w + ix;
              for (std::int64_t o = 0; o < c.out_channels; ++o) {
                for (std::int64_t kh = 0; kh < c.kernel; ++kh) {
                  for (std::int64_t kw = 0; kw < c.kernel; ++kw) {
                    const std::int64_t yy = iy * c.stride + kh - c.pad;
                    const std::int64_t yx = ix * c.stride + kw - c.pad;
                    if (yy < 0 || yy >= oh || yx < 0 || yx >= ow) continue;
                    const std::int64_t yi =
                        ((n * c.out_channels + o) * oh + yy) * ow + yx;
                    const std::int64_t wi =
                        (i * c.out_channels + o) * kk + kh * c.kernel + kw;
                    y[static_cast<std::size_t>(yi)] +=
                        static_cast<double>(wt[wi]) * x[xi];
                    dw[static_cast<std::size_t>(wi)] +=
                        static_cast<double>(dy[yi]) * x[xi];
                    dx[static_cast<std::size_t>(xi)] +=
                        static_cast<double>(dy[yi]) * wt[wi];
                  }
                }
              }
            }
          }
        }
      }
      expect_near_reference(r.y, y, "y");
      expect_near_reference(r.dw, dw, "dW");
      expect_near_reference(r.db, db, "db");
      expect_near_reference(r.dx, dx, "dX");
    }
  }
}

}  // namespace
}  // namespace wm::nn
