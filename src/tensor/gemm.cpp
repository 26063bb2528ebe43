#include "tensor/gemm.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"

namespace wm {

namespace {

// ---------------------------------------------------------------------------
// Micro-tile geometry. The accumulator tile is kMR x kNR floats held in
// kMR * kNV vector registers across the K loop. Sizes are chosen per ISA so
// the tile plus two B vectors and one broadcast fit the register file:
// AVX-512: 8x32 = 16 of 32 zmm; AVX2: 6x16 = 12 of 16 ymm; SSE: 4x8 = 8 of
// 16 xmm. GCC vector extensions compile the same code for each target.
#if defined(__AVX512F__)
#define WM_GEMM_VEC_BYTES 64
constexpr std::int64_t kMR = 8;
#elif defined(__AVX__)
#define WM_GEMM_VEC_BYTES 32
constexpr std::int64_t kMR = 6;
#else
#define WM_GEMM_VEC_BYTES 16
constexpr std::int64_t kMR = 4;
#endif

typedef float vf __attribute__((vector_size(WM_GEMM_VEC_BYTES), aligned(4)));

constexpr std::int64_t kVL = WM_GEMM_VEC_BYTES / 4;  // floats per vector
constexpr std::int64_t kNV = 2;                      // vectors per tile row
constexpr std::int64_t kNR = kNV * kVL;

// Cache blocking: a kKC x kNR B micro-panel (24 KiB at kKC=192 on AVX-512)
// stays L1-resident across the ir loop; the packed kMC x kKC A block
// (192 KiB) and the kKC x kNC B block (384 KiB) share L2. On one core of a
// 4-vCPU AVX-512 Xeon (48 KiB L1d, 2 MiB L2), whose FMA peak an asm loop of
// independent zmm FMAs measures at 136-145 GFLOP/s: 64-75 GFLOP/s at 512^3
// (BM_Gemm, WM_THREADS=1) against 14 for the seed kernel, and 97, 106 and
// 85 GFLOP/s for the three Table-I convs through sgemm_conv, bias included.
constexpr std::int64_t kKC = kGemmKBlock;
constexpr std::int64_t kMC = kMR * 32;
constexpr std::int64_t kNC = kNR * 16;

// Threading threshold: below ~8 MFLOP the pool dispatch overhead dominates.
constexpr double kThreadFlops = 8.0e6;

void scale_c(std::int64_t m, std::int64_t n, float beta, float* c) {
  if (beta == 1.0f) return;
  const std::int64_t total = m * n;
  if (beta == 0.0f) {
    std::fill(c, c + total, 0.0f);
  } else {
    for (std::int64_t i = 0; i < total; ++i) c[i] *= beta;
  }
}

/// kVL copies of x. The brace list compiles to one broadcast load from
/// memory (vbroadcastss m32), which the FMA can take as its operand.
template <std::size_t... I>
vf splat(float x, std::index_sequence<I...>) {
  return vf{(static_cast<void>(I), x)...};
}

/// Rows of a packed B micro-panel, kNR floats apart.
struct PackedRows {
  const float* base;
  const float* row(std::int64_t p) const { return base + p * kNR; }
};

/// Rows of a B micro-panel read in place: row p starts at rows[p] + j, and
/// kNR floats from there are in bounds.
struct TableRows {
  const float* const* rows;
  std::int64_t j;
  const float* row(std::int64_t p) const { return rows[p] + j; }
};

/// C(i, j) of the kMR x kNR tile = sum over p of A-panel column * B row.
/// ap is kc steps of kMR alpha-scaled A values (packed); b.row(p) holds kNR
/// B values. Each output is one FMA chain from +0 in p order (s + a * b
/// without FMA). The accumulators live in registers for the whole loop; the
/// finished tile is spilled to `tile`.
template <typename BRows>
void micro_kernel(std::int64_t kc, const float* __restrict__ ap, BRows b,
                  float* __restrict__ tile) {
  vf acc[kMR][kNV];
  for (std::int64_t i = 0; i < kMR; ++i)
    for (std::int64_t v = 0; v < kNV; ++v) acc[i][v] = vf{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict__ brow = b.row(p);
    const float* __restrict__ acol = ap + p * kMR;
    vf bv[kNV];
    for (std::int64_t v = 0; v < kNV; ++v)
      bv[v] = *reinterpret_cast<const vf*>(brow + v * kVL);
#pragma GCC unroll 8
    for (std::int64_t i = 0; i < kMR; ++i) {
      const vf av = splat(acol[i], std::make_index_sequence<kVL>{});
      for (std::int64_t v = 0; v < kNV; ++v) acc[i][v] += av * bv[v];
    }
  }
  for (std::int64_t i = 0; i < kMR; ++i)
    for (std::int64_t v = 0; v < kNV; ++v)
      *reinterpret_cast<vf*>(tile + i * kNR + v * kVL) = acc[i][v];
}

/// Packs `rows` x kc of a strided operand into W-wide micro-panels, scaled
/// by alpha and zero-padded to a multiple of W. Element (r, p) — r along M
/// for A, along N for B — is src[r * outer_stride + p * k_stride], which
/// covers the plain and the transposed layouts of either operand.
template <std::int64_t W>
void pack_strided(std::int64_t rows, std::int64_t kc, float alpha,
                  const float* src, std::int64_t outer_stride,
                  std::int64_t k_stride, float* dst) {
  for (std::int64_t r0 = 0; r0 < rows; r0 += W) {
    const std::int64_t n = std::min(W, rows - r0);
    float* panel = dst + (r0 / W) * W * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      float* d = panel + p * W;
      const float* s = src + r0 * outer_stride + p * k_stride;
      if (outer_stride == 1) {
        for (std::int64_t i = 0; i < n; ++i) d[i] = alpha * s[i];
      } else {
        for (std::int64_t i = 0; i < n; ++i) d[i] = alpha * s[i * outer_stride];
      }
      for (std::int64_t i = n; i < W; ++i) d[i] = 0.0f;
    }
  }
}

// Panel sources. Each hands the macro-kernel the W-wide micro-panels of
// rows [r0, r0 + rows) x depth [p0, p0 + kc) of its operand — r along M for
// A, along N for B — as a base pointer and the stride between panels.
// r0 is always a multiple of W. A B source's block also names the rows of
// the micro-panel at column offset jr (a multiple of kNR) of the block.
struct Panels {
  const float* base;
  std::int64_t stride;
  PackedRows b_panel(std::int64_t jr) const {
    return {base + jr / kNR * stride};
  }
};

/// A strided matrix, packed into per-thread scratch on every call.
template <std::int64_t W>
struct StridedSource {
  const float* data;
  std::int64_t outer_stride;
  std::int64_t k_stride;
  float alpha;
  Panels panels(std::int64_t r0, std::int64_t rows, std::int64_t p0,
                std::int64_t kc, std::vector<float>& scratch) const {
    scratch.resize(static_cast<std::size_t>((rows + W - 1) / W * W * kc));
    pack_strided<W>(rows, kc, alpha, data + r0 * outer_stride + p0 * k_stride,
                    outer_stride, k_stride, scratch.data());
    return {scratch.data(), W * kc};
  }
};

/// Panels packed once over the full depth: panel i holds rows
/// [i * W, i * W + W) for every p, so a K block is an offset into it.
struct PrepackedSource {
  const PackedPanels& w;
  Panels panels(std::int64_t r0, std::int64_t /*rows*/, std::int64_t p0,
                std::int64_t /*kc*/, std::vector<float>& /*scratch*/) const {
    return {w.data.data() + r0 * w.depth + p0 * w.panel, w.panel * w.depth};
  }
};

/// A B operand read in place: row p starts at rows[p], and kNR floats past
/// the end of every row are in bounds. Nothing is packed.
struct RowTableSource {
  const float* const* rows;
  struct Block {
    const float* const* rows;
    std::int64_t j0;
    TableRows b_panel(std::int64_t jr) const { return {rows, j0 + jr}; }
  };
  Block panels(std::int64_t j0, std::int64_t /*cols*/, std::int64_t p0,
               std::int64_t /*kc*/, std::vector<float>& /*scratch*/) const {
    return {rows + p0, j0};
  }
};

/// Packs the (kc x cols) block at (p0, j0) of the transposed im2col matrix of
/// a batch into kNR-column micro-panels, reading the images directly. `g`
/// describes one image and has no padding (sgemm_conv_dw hands over
/// zero-bordered copies), so every tap is in range. The images are stored
/// channels-last, (H, W, C), and the columns run tap-major: column j is
/// channel j % C of tap j / C = (kh, kw). Row p is output pixel p % (OH*OW)
/// of image p / (OH*OW); the panel tail is zero. A panel row is then a few
/// contiguous runs of the image (one per kh row of taps), copied whole.
void pack_columns(const ConvGeometry& g, const float* images, std::int64_t j0,
                  std::int64_t cols, std::int64_t p0, std::int64_t kc,
                  float* dst) {
  struct Run {
    std::int64_t src, len, lane;  // image offset from the pixel, length, lane
  };
  Run runs[kNR];
  const std::int64_t c = g.channels;
  const std::int64_t ow = g.out_w();
  const std::int64_t pixels = g.out_h() * ow;
  const std::int64_t image = c * g.height * g.width;
  const std::int64_t row_step = g.stride * g.width * c;
  const std::int64_t col_step = g.stride * c;
  for (std::int64_t jr = 0; jr < cols; jr += kNR) {
    const std::int64_t lanes = std::min(kNR, cols - jr);
    int nruns = 0;
    for (std::int64_t l = 0; l < lanes; ++l) {
      const std::int64_t j = j0 + jr + l;
      const std::int64_t tap = j / c;
      const std::int64_t src =
          ((tap / g.kernel_w) * g.width + tap % g.kernel_w) * c + j % c;
      if (nruns > 0 && runs[nruns - 1].src + runs[nruns - 1].len == src) {
        ++runs[nruns - 1].len;
      } else {
        runs[nruns++] = {src, 1, l};
      }
    }
    float* panel = dst + (jr / kNR) * kNR * kc;
    std::int64_t q = p0;
    std::int64_t x = q % ow;
    const float* base =
        images + (q / pixels) * image + (q % pixels / ow) * row_step + x * col_step;
    for (std::int64_t p = 0; p < kc; ++p) {
      float* d = panel + p * kNR;
      for (int r = 0; r < nruns; ++r) {
        const float* in = base + runs[r].src;
        float* out = d + runs[r].lane;
        for (std::int64_t i = 0; i < runs[r].len; ++i) out[i] = in[i];
      }
      for (std::int64_t l = lanes; l < kNR; ++l) d[l] = 0.0f;
      ++q;
      if (++x < ow) {
        base += col_step;
      } else {
        x = 0;
        base = images + (q / pixels) * image + (q % pixels / ow) * row_step;
      }
    }
  }
}

/// A batch of (rows_total x per) row-major blocks side by side along K:
/// A(r, p) = data[((p / per) * rows_total + r) * per + p % per]. A conv's
/// output gradient (N, M, OH*OW) read as one M x N*OH*OW matrix, packed per
/// call into kMR-row panels.
struct BatchRowsSource {
  const float* data;
  std::int64_t rows_total;
  std::int64_t per;
  Panels panels(std::int64_t r0, std::int64_t rows, std::int64_t p0,
                std::int64_t kc, std::vector<float>& scratch) const {
    scratch.resize(static_cast<std::size_t>((rows + kMR - 1) / kMR * kMR * kc));
    for (std::int64_t i0 = 0; i0 < rows; i0 += kMR) {
      const std::int64_t n = std::min(kMR, rows - i0);
      float* d = scratch.data() + (i0 / kMR) * kMR * kc;
      std::int64_t img = p0 / per;
      std::int64_t s = p0 % per;
      for (std::int64_t p = 0; p < kc; ++p, d += kMR) {
        const float* src = data + (img * rows_total + r0 + i0) * per + s;
        for (std::int64_t i = 0; i < n; ++i) d[i] = src[i * per];
        for (std::int64_t i = n; i < kMR; ++i) d[i] = 0.0f;
        if (++s == per) {
          s = 0;
          ++img;
        }
      }
    }
    return {scratch.data(), kMR * kc};
  }
};

/// The transposed im2col matrix of a batch of zero-bordered images, packed
/// from the images on every call (see pack_columns).
struct BatchColumnsSource {
  const ConvGeometry& g;
  const float* images;
  Panels panels(std::int64_t j0, std::int64_t cols, std::int64_t p0,
                std::int64_t kc, std::vector<float>& scratch) const {
    scratch.resize(static_cast<std::size_t>((cols + kNR - 1) / kNR * kNR * kc));
    pack_columns(g, images, j0, cols, p0, kc, scratch.data());
    return {scratch.data(), kNR * kc};
  }
};

/// Serial macro-kernel over the C sub-range [m0, m1) x [n0, n1):
/// C += A * B (C already beta-scaled), one += per kKC-deep K block, then the
/// optional biases, rows' before columns'. With `zeroed`, C is taken as zero
/// without being read: the first K block stores 0 + tile, the bits of
/// zeroing C and then adding, which also stores a tile's -0 as +0. The last
/// K block adds the biases to each value as it stores it: the bits of a
/// bias pass after the product, without a second trip over C. Thread-safe:
/// packing scratch is thread_local, and concurrent calls write disjoint C
/// ranges.
template <typename ASource, typename BSource>
void gemm_block(std::int64_t m0, std::int64_t m1, std::int64_t n0,
                std::int64_t n1, std::int64_t k, const ASource& a,
                const BSource& b, bool zeroed, float* c, std::int64_t ldc,
                const float* bias_rows, const float* bias_cols) {
  thread_local std::vector<float> ta;
  thread_local std::vector<float> tb;
  alignas(WM_GEMM_VEC_BYTES) float tile[kMR * kNR];

  for (std::int64_t jc = n0; jc < n1; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n1 - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      const bool first = zeroed && pc == 0;
      const bool row_bias = pc + kc == k && bias_rows != nullptr;
      const bool col_bias = pc + kc == k && bias_cols != nullptr;
      const auto bp = b.panels(jc, nc, pc, kc, tb);
      for (std::int64_t ic = m0; ic < m1; ic += kMC) {
        const std::int64_t mc = std::min(kMC, m1 - ic);
        const Panels ap = a.panels(ic, mc, pc, kc, ta);
        for (std::int64_t jr = 0; jr < nc; jr += kNR) {
          const auto brows = bp.b_panel(jr);
          const std::int64_t cols = std::min(kNR, nc - jr);
          for (std::int64_t ir = 0; ir < mc; ir += kMR) {
            micro_kernel(kc, ap.base + (ir / kMR) * ap.stride, brows, tile);
            const std::int64_t rows = std::min(kMR, mc - ir);
            float* cblk = c + (ic + ir) * ldc + jc + jr;
            for (std::int64_t i = 0; i < rows; ++i) {
              float* crow = cblk + i * ldc;
              const float* trow = tile + i * kNR;
              const float bi = row_bias ? bias_rows[ic + ir + i] : 0.0f;
              for (std::int64_t j = 0; j < cols; ++j) {
                float v = first ? 0.0f + trow[j] : crow[j] + trow[j];
                if (row_bias) v += bi;
                if (col_bias) v += bias_cols[jc + jr + j];
                crow[j] = v;
              }
            }
          }
        }
      }
    }
  }
  // With no product, the biases are all there is.
  if (k == 0) {
    for (std::int64_t i = m0; i < m1; ++i) {
      float* crow = c + i * ldc;
      for (std::int64_t j = n0; j < n1; ++j) {
        if (bias_rows != nullptr) crow[j] += bias_rows[i];
        if (bias_cols != nullptr) crow[j] += bias_cols[j];
      }
    }
  }
}

/// Entry point shared by every public variant: C = beta * C + A * B plus the
/// bias epilogues, with k = 0 meaning no product. Splits large products
/// across the global pool by row-panels (or column-panels when N
/// dominates); each C element is still accumulated over K in one thread in
/// a fixed order, so the result is bit-identical for every thread count.
template <typename ASource, typename BSource>
void gemm_driver(std::int64_t m, std::int64_t n, std::int64_t k,
                 const ASource& a, const BSource& b, float beta, float* c,
                 const float* bias_rows, const float* bias_cols) {
  WM_TRACE_SCOPE("gemm");
  // Instrument refs are resolved once; afterwards this is two relaxed
  // atomic adds per call.
  static obs::Counter& calls = obs::Registry::global().counter(
      "wm_tensor_gemm_calls_total", "GEMM invocations (all public variants)");
  static obs::Counter& flop_count = obs::Registry::global().counter(
      "wm_tensor_gemm_flops_total", "floating-point ops issued (2*M*N*K)");
  calls.inc();
  flop_count.inc(static_cast<std::uint64_t>(2 * m * n * k));
  if (m == 0 || n == 0) return;
  // beta = 0 with a product to add: the first K block writes C outright.
  const bool zeroed = beta == 0.0f && k > 0;
  if (!zeroed) scale_c(m, n, beta, c);
  if (k == 0 && bias_rows == nullptr && bias_cols == nullptr) return;

  ThreadPool& pool = ThreadPool::global();
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  if (pool.worker_count() == 0 || flops < kThreadFlops) {
    gemm_block(0, m, 0, n, k, a, b, zeroed, c, n, bias_rows, bias_cols);
    return;
  }
  if (m >= n) {
    const std::size_t panels = static_cast<std::size_t>((m + kMR - 1) / kMR);
    pool.parallel_chunks(
        0, panels, [&](std::size_t lo, std::size_t hi) {
          gemm_block(static_cast<std::int64_t>(lo) * kMR,
                     std::min(m, static_cast<std::int64_t>(hi) * kMR), 0, n,
                     k, a, b, zeroed, c, n, bias_rows, bias_cols);
        });
  } else {
    const std::size_t panels = static_cast<std::size_t>((n + kNR - 1) / kNR);
    pool.parallel_chunks(
        0, panels, [&](std::size_t lo, std::size_t hi) {
          gemm_block(0, m, static_cast<std::int64_t>(lo) * kNR,
                     std::min(n, static_cast<std::int64_t>(hi) * kNR), k, a, b,
                     zeroed, c, n, bias_rows, bias_cols);
        });
  }
}

/// The strided variants: A(i, p) = a[i * a_row_stride + p * a_k_stride],
/// B(p, j) = b[p * b_k_stride + j * b_col_stride]. alpha = 0 skips the
/// product.
void gemm_strided(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                  const float* a, std::int64_t a_row_stride,
                  std::int64_t a_k_stride, const float* b,
                  std::int64_t b_k_stride, std::int64_t b_col_stride,
                  float beta, float* c, const float* bias_rows,
                  const float* bias_cols) {
  gemm_driver(m, n, alpha == 0.0f ? 0 : k,
              StridedSource<kMR>{a, a_row_stride, a_k_stride, alpha},
              StridedSource<kNR>{b, b_col_stride, b_k_stride, 1.0f}, beta, c,
              bias_rows, bias_cols);
}

/// Packs a whole row-major (rows x k) matrix into W-wide full-depth panels.
template <std::int64_t W>
PackedPanels pack_weights(std::int64_t rows, std::int64_t k, const float* w) {
  WM_CHECK_SHAPE(rows > 0 && k > 0, "bad packed weight shape ", rows, "x", k);
  PackedPanels out;
  out.rows = rows;
  out.depth = k;
  out.panel = W;
  out.data.resize(static_cast<std::size_t>((rows + W - 1) / W * W * k));
  pack_strided<W>(rows, k, 1.0f, w, k, 1, out.data.data());
  return out;
}

}  // namespace

void sgemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
           const float* a, const float* b, float beta, float* c) {
  gemm_strided(m, n, k, alpha, a, /*a_row_stride=*/k, /*a_k_stride=*/1, b,
               /*b_k_stride=*/n, /*b_col_stride=*/1, beta, c, nullptr, nullptr);
}

void sgemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c) {
  // A is stored (K x M) row-major: A(i, p) = a[p * m + i].
  gemm_strided(m, n, k, alpha, a, /*a_row_stride=*/1, /*a_k_stride=*/m, b,
               /*b_k_stride=*/n, /*b_col_stride=*/1, beta, c, nullptr, nullptr);
}

void sgemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c) {
  // B is stored (N x K) row-major: B(p, j) = b[j * k + p].
  gemm_strided(m, n, k, alpha, a, /*a_row_stride=*/k, /*a_k_stride=*/1, b,
               /*b_k_stride=*/1, /*b_col_stride=*/k, beta, c, nullptr, nullptr);
}

void sgemm_bias_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, const float* b, float beta,
                     float* c, const float* bias) {
  gemm_strided(m, n, k, alpha, a, k, 1, b, n, 1, beta, c, bias, nullptr);
}

void sgemm_bt_bias_cols(std::int64_t m, std::int64_t n, std::int64_t k,
                        float alpha, const float* a, const float* b, float beta,
                        float* c, const float* bias) {
  gemm_strided(m, n, k, alpha, a, k, 1, b, 1, k, beta, c, nullptr, bias);
}

PackedPanels pack_weights_a(std::int64_t m, std::int64_t k, const float* w) {
  return pack_weights<kMR>(m, k, w);
}

PackedPanels pack_weights_bt(std::int64_t n, std::int64_t k, const float* w) {
  return pack_weights<kNR>(n, k, w);
}

void sgemm_conv(const ConvGeometry& g, const PackedPanels& w,
                const float* image, float* c, const float* bias) {
  WM_CHECK_SHAPE(w.panel == kMR && w.depth == g.col_rows(),
                 "sgemm_conv: weights packed as ", w.rows, "x", w.depth,
                 " (panel ", w.panel, ") for a conv of depth ", g.col_rows());
  // B is read in place from per-thread buffers that pool workers splitting
  // the product only read; each buffer ends with kNR spare floats, so the
  // kernel's N tail stays in bounds.
  const std::int64_t k = g.col_rows();
  const std::int64_t n = g.col_cols();
  thread_local std::vector<float> buffer;
  thread_local std::vector<const float*> rows;
  rows.resize(static_cast<std::size_t>(k));
  if (g.stride == 1) {
    // kernel_w shifted copies of the image, rows of OW floats, each with
    // pad zero rows above and below every channel: column x of copy kw
    // holds image column x + kw - pad, or 0 outside the image. Tap
    // (ch, kh, kw) of output pixel j is then element j of the row starting
    // at row ch * Hb + kh of copy kw, whatever OW is.
    const std::int64_t ow = g.out_w();
    const std::int64_t hb = g.height + 2 * g.pad;
    const std::int64_t plane = hb * ow;
    const std::int64_t copy = g.channels * plane;
    buffer.resize(static_cast<std::size_t>(g.kernel_w * copy + kNR));
    for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
      const std::int64_t shift = kw - g.pad;
      // Columns [lo, hi) of a copy's row come from the image.
      const std::int64_t lo = std::clamp<std::int64_t>(-shift, 0, ow);
      const std::int64_t hi = std::clamp<std::int64_t>(g.width - shift, lo, ow);
      for (std::int64_t ch = 0; ch < g.channels; ++ch) {
        float* dst = buffer.data() + kw * copy + ch * plane;
        float* in = dst + g.pad * ow;
        const float* src = image + ch * g.height * g.width;
        std::fill(dst, in, 0.0f);
        if (lo < hi) {
          if (ow == g.width) {
            // A "same" conv, as every conv of Table I is: all rows are one
            // shifted copy of the plane. Copied row by row instead, conv2
            // took 100 us instead of 89 and conv3 17.3 instead of 13.7 (one
            // core of an AVX-512 Xeon, 16- and 8-float rows).
            std::copy(src + lo + shift,
                      src + (g.height - 1) * ow + hi + shift, in + lo);
          } else {
            for (std::int64_t y = 0; y < g.height; ++y) {
              std::copy(src + y * g.width + lo + shift,
                        src + y * g.width + hi + shift, in + y * ow + lo);
            }
          }
        }
        for (std::int64_t y = 0; y < g.height; ++y) {
          float* row = in + y * ow;
          for (std::int64_t x = 0; x < lo; ++x) row[x] = 0.0f;
          for (std::int64_t x = hi; x < ow; ++x) row[x] = 0.0f;
        }
        std::fill(in + g.height * ow, dst + plane, 0.0f);
      }
    }
    std::int64_t p = 0;
    for (std::int64_t ch = 0; ch < g.channels; ++ch)
      for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
        for (std::int64_t kw = 0; kw < g.kernel_w; ++kw)
          rows[static_cast<std::size_t>(p++)] =
              buffer.data() + kw * copy + (ch * hb + kh) * ow;
  } else {
    buffer.resize(static_cast<std::size_t>(k * n + kNR));
    im2col(g, image, buffer.data());
    for (std::int64_t p = 0; p < k; ++p)
      rows[static_cast<std::size_t>(p)] = buffer.data() + p * n;
  }
  std::fill(buffer.end() - kNR, buffer.end(), 0.0f);
  gemm_driver(w.rows, n, k, PrepackedSource{w}, RowTableSource{rows.data()},
              0.0f, c, bias, nullptr);
}

void sgemm_conv_dw(const ConvGeometry& g, std::int64_t batch, std::int64_t m,
                   const float* dy, const float* images, float* dw) {
  WM_CHECK_SHAPE(batch > 0 && m > 0, "sgemm_conv_dw: bad batch ", batch,
                 " or rows ", m);
  // A channels-last copy of the batch, zero-bordered so that padding taps
  // read zeros: each panel row is then a few contiguous runs (see
  // pack_columns). Pool workers that split the product only read it.
  ConvGeometry bordered = g;
  bordered.height += 2 * g.pad;
  bordered.width += 2 * g.pad;
  bordered.pad = 0;
  const std::int64_t c = g.channels;
  const std::int64_t plane = g.height * g.width;
  thread_local std::vector<float> copy;
  copy.assign(static_cast<std::size_t>(batch * c * bordered.height *
                                       bordered.width),
              0.0f);
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* src = images + n * c * plane;
    for (std::int64_t y = 0; y < g.height; ++y) {
      float* row = copy.data() +
                   ((n * bordered.height + y + g.pad) * bordered.width + g.pad) * c;
      for (std::int64_t x = 0; x < g.width; ++x) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          row[x * c + ch] = src[ch * plane + y * g.width + x];
        }
      }
    }
  }
  // The product's columns run tap-major; dw's run channel-major.
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t cols = g.col_rows();
  thread_local std::vector<float> product;
  product.resize(static_cast<std::size_t>(m * cols));
  gemm_driver(m, cols, batch * g.col_cols(),
              BatchRowsSource{dy, m, g.col_cols()},
              BatchColumnsSource{bordered, copy.data()}, 0.0f, product.data(),
              nullptr, nullptr);
  for (std::int64_t i = 0; i < m; ++i) {
    const float* prow = product.data() + i * cols;
    float* drow = dw + i * cols;
    for (std::int64_t t = 0; t < taps; ++t) {
      for (std::int64_t ch = 0; ch < c; ++ch) drow[ch * taps + t] += prow[t * c + ch];
    }
  }
}

void sgemm_packed_bt_bias_cols(std::int64_t m, const float* x,
                               const PackedPanels& w, float* y,
                               const float* bias) {
  WM_CHECK_SHAPE(w.panel == kNR, "sgemm_packed_bt_bias_cols: weights not "
                 "packed by pack_weights_bt");
  gemm_driver(m, w.rows, w.depth,
              StridedSource<kMR>{x, w.depth, 1, 1.0f}, PrepackedSource{w},
              0.0f, y, nullptr, bias);
}

namespace detail {

void sgemm_seed(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, const float* b, float beta, float* c) {
  constexpr std::int64_t kBlockM = 64;
  constexpr std::int64_t kBlockK = 256;
  scale_c(m, n, beta, c);
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) return;
  for (std::int64_t i0 = 0; i0 < m; i0 += kBlockM) {
    const std::int64_t i1 = std::min(m, i0 + kBlockM);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::int64_t k1 = std::min(k, k0 + kBlockK);
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = c + i * n;
        const float* arow = a + i * k;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          const float av = alpha * arow[kk];
          const float* brow = b + kk * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

}  // namespace detail

Tensor matmul(const Tensor& a, const Tensor& b) {
  WM_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2 operands");
  WM_CHECK_SHAPE(a.dim(1) == b.dim(0), "matmul inner mismatch: ",
                 a.shape().to_string(), " x ", b.shape().to_string());
  Tensor c(Shape{a.dim(0), b.dim(1)});
  sgemm(a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  WM_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2, "matmul_at needs rank-2 operands");
  WM_CHECK_SHAPE(a.dim(0) == b.dim(0), "matmul_at inner mismatch: ",
                 a.shape().to_string(), " x ", b.shape().to_string());
  Tensor c(Shape{a.dim(1), b.dim(1)});
  sgemm_at(a.dim(1), b.dim(1), a.dim(0), 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  WM_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2, "matmul_bt needs rank-2 operands");
  WM_CHECK_SHAPE(a.dim(1) == b.dim(1), "matmul_bt inner mismatch: ",
                 a.shape().to_string(), " x ", b.shape().to_string());
  Tensor c(Shape{a.dim(0), b.dim(0)});
  sgemm_bt(a.dim(0), b.dim(0), a.dim(1), 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

}  // namespace wm
