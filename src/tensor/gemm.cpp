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

// A micro-panel is kc lines, one per step of K: a line of an A panel holds
// (up to) kMR values, one per row; a line of a B panel holds kNV vectors.
// Line p starts at line(p), and entry e of it (a value of A, a vector of B)
// at line(p) + at(e).

/// Lines packed W floats apart, entries kStep floats apart.
template <std::int64_t W, std::int64_t kStep>
struct PackedLines {
  const float* base;
  const float* line(std::int64_t p) const { return base + p * W; }
  static constexpr std::int64_t at(std::int64_t e) { return e * kStep; }
};
using PackedA = PackedLines<kMR, 1>;
using PackedB = PackedLines<kNR, kVL>;

/// Lines read in place: line p starts at lines[p], and entry e lies off[e]
/// floats from there on every line.
template <std::int64_t E>
struct TableLines {
  const float* const* lines;
  std::int64_t off[E];
  const float* line(std::int64_t p) const { return lines[p]; }
  std::int64_t at(std::int64_t e) const { return off[e]; }
};

/// C(i, j) of the first R rows of the kMR x kNR tile = sum over p of A-panel
/// column * B row, for the alpha-scaled A values of an A panel and the kNR
/// B values of a B panel. Each output is one FMA chain from +0 in p order
/// (s + a * b without FMA), whatever R is. The accumulators live in
/// registers for the whole loop; the finished rows are spilled to `tile`.
template <std::int64_t R, typename ALines, typename BLines>
void micro_kernel(std::int64_t kc, ALines a, BLines b,
                  float* __restrict__ tile) {
  vf acc[R][kNV];
  for (std::int64_t i = 0; i < R; ++i)
    for (std::int64_t v = 0; v < kNV; ++v) acc[i][v] = vf{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict__ brow = b.line(p);
    const float* __restrict__ acol = a.line(p);
    vf bv[kNV];
    for (std::int64_t v = 0; v < kNV; ++v)
      bv[v] = *reinterpret_cast<const vf*>(brow + b.at(v));
#pragma GCC unroll 8
    for (std::int64_t i = 0; i < R; ++i) {
      const vf av = splat(acol[a.at(i)], std::make_index_sequence<kVL>{});
      for (std::int64_t v = 0; v < kNV; ++v) acc[i][v] += av * bv[v];
    }
  }
  for (std::int64_t i = 0; i < R; ++i)
    for (std::int64_t v = 0; v < kNV; ++v)
      *reinterpret_cast<vf*>(tile + i * kNR + v * kVL) = acc[i][v];
}

/// micro_kernel over the first `rows` (1 to kMR) rows of the A panel: a
/// panel of one row (a batch-1 dense layer) costs one row, not kMR.
template <typename ALines, typename BLines, std::size_t... R>
void micro_kernel_rows(std::int64_t rows, std::int64_t kc, ALines a, BLines b,
                       float* tile, std::index_sequence<R...>) {
  static_cast<void>(
      ((rows == R + 1 && (micro_kernel<R + 1>(kc, a, b, tile), true)) || ...));
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

// Panel sources. Each hands the macro-kernel a block of its operand: rows
// [r0, r0 + rows) x depth [p0, p0 + kc) — r along M for A, along N for B,
// r0 always a multiple of the panel width. An A block names the lines of
// the micro-panel at row offset ir (a multiple of kMR) of the block
// (a_panel), a B block those at column offset jr, a multiple of kNR
// (b_panel).

/// Packed W-wide micro-panels, `stride` floats apart.
struct Panels {
  const float* base;
  std::int64_t stride;
  PackedA a_panel(std::int64_t ir) const { return {base + ir / kMR * stride}; }
  PackedB b_panel(std::int64_t jr) const { return {base + jr / kNR * stride}; }
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

/// A B operand (K x n) read in place: row p starts at rows[p], and column j
/// lies (j / run) * stride + j % run floats from there, so a row is runs of
/// `run` contiguous columns `stride` floats apart (run = stride: one run).
/// kVL must divide `run` unless there is one run: each vector of a panel is
/// then one load. A vector wholly past column n reads its panel's first
/// instead; the one that straddles n reads up to kVL - 1 floats past the
/// row's end. Nothing is packed.
struct RowTableSource {
  const float* const* rows;
  std::int64_t n;
  std::int64_t run;
  std::int64_t stride;
  struct Block {
    const RowTableSource& src;
    const float* const* rows;
    std::int64_t j0;
    TableLines<kNV> b_panel(std::int64_t jr) const {
      TableLines<kNV> t{rows, {}};
      for (std::int64_t v = 0; v < kNV; ++v) {
        const std::int64_t j = j0 + jr + v * kVL;
        t.off[v] =
            j < src.n ? j / src.run * src.stride + j % src.run : t.off[0];
      }
      return t;
    }
  };
  Block panels(std::int64_t j0, std::int64_t /*cols*/, std::int64_t p0,
               std::int64_t /*kc*/, std::vector<float>& /*scratch*/) const {
    return {*this, rows + p0, j0};
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

/// A batch of (M x per) row-major blocks side by side along K, read in
/// place: A(r, p) = cols[p][r * per], where cols[p] points at row 0 of block
/// p / per, column p % per. A conv's output gradient (N, M, OH*OW) read as
/// one M x N*OH*OW matrix: the kernel broadcasts each value from its plane.
struct BatchRowsSource {
  const float* const* cols;
  std::int64_t per;
  struct Block {
    const float* const* cols;
    std::int64_t r0;
    std::int64_t per;
    TableLines<kMR> a_panel(std::int64_t ir) const {
      TableLines<kMR> t{cols, {}};
      for (std::int64_t i = 0; i < kMR; ++i) t.off[i] = (r0 + ir + i) * per;
      return t;
    }
  };
  Block panels(std::int64_t r0, std::int64_t /*rows*/, std::int64_t p0,
               std::int64_t /*kc*/, std::vector<float>& /*scratch*/) const {
    return {cols + p0, r0, per};
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
        const auto ap = a.panels(ic, mc, pc, kc, ta);
        for (std::int64_t jr = 0; jr < nc; jr += kNR) {
          const auto brows = bp.b_panel(jr);
          const std::int64_t cols = std::min(kNR, nc - jr);
          for (std::int64_t ir = 0; ir < mc; ir += kMR) {
            const std::int64_t rows = std::min(kMR, mc - ir);
            micro_kernel_rows(rows, kc, ap.a_panel(ir), brows, tile,
                              std::make_index_sequence<kMR>{});
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
                const float* bordered, float* c, const float* bias) {
  WM_CHECK_SHAPE(w.panel == kMR && w.depth == g.col_rows(),
                 "sgemm_conv: weights packed as ", w.rows, "x", w.depth,
                 " (panel ", w.panel, ") for a conv of depth ", g.col_rows());
  // Tap (ch, kh, kw) of output pixel (y, x) is element
  // (ch * Hb + y * stride + kh) * Wb + x * stride + kw of `bordered`. B's
  // rows are read through a table of row pointers; the buffers that pool
  // workers splitting the product read are per-thread and end with kNR
  // spare floats for the N tail.
  const std::int64_t k = g.col_rows();
  const std::int64_t n = g.col_cols();
  const std::int64_t ow = g.out_w();
  const std::int64_t hb = g.height + 2 * g.pad;
  const std::int64_t wb = g.width + 2 * g.pad;
  thread_local std::vector<float> buffer;
  thread_local std::vector<const float*> rows;
  rows.resize(static_cast<std::size_t>(k));
  RowTableSource b{rows.data(), n, n, n};
  // In place where a vector of kVL output pixels stays in one output row:
  // row (ch, kh, kw) starts at the tap of pixel (0, 0), and each output row
  // is a run of OW pixels, Wb floats after the last.
  const bool in_place = g.stride == 1 && ow % kVL == 0;
  if (g.stride == 1) {
    const float* base = bordered;
    std::int64_t kw_step = 1;
    std::int64_t row = wb;
    if (in_place) {
      b.run = ow;
      b.stride = wb;
    } else {
      // kernel_w shifted copies instead, rows of OW floats, copy kw holding
      // columns [kw, kw + OW) of each bordered row: tap (ch, kh, kw) of
      // output pixel j is element j of row ch * Hb + kh of copy kw.
      kw_step = g.channels * hb * ow;
      row = ow;
      buffer.resize(static_cast<std::size_t>(g.kernel_w * kw_step + kNR));
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        for (std::int64_t r = 0; r < g.channels * hb; ++r) {
          const float* src = bordered + r * wb + kw;
          float* dst = buffer.data() + kw * kw_step + r * ow;
          for (std::int64_t x = 0; x < ow; ++x) dst[x] = src[x];
        }
      }
      base = buffer.data();
    }
    std::int64_t p = 0;
    for (std::int64_t ch = 0; ch < g.channels; ++ch)
      for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
        for (std::int64_t kw = 0; kw < g.kernel_w; ++kw)
          rows[static_cast<std::size_t>(p++)] =
              base + kw * kw_step + (ch * hb + kh) * row;
  } else {
    // im2col of the bordered image, which needs no padding of its own.
    ConvGeometry padless = g;
    padless.height = hb;
    padless.width = wb;
    padless.pad = 0;
    buffer.resize(static_cast<std::size_t>(k * n + kNR));
    im2col(padless, bordered, buffer.data());
    for (std::int64_t p = 0; p < k; ++p)
      rows[static_cast<std::size_t>(p)] = buffer.data() + p * n;
  }
  if (!in_place) std::fill(buffer.end() - kNR, buffer.end(), 0.0f);
  gemm_driver(w.rows, n, k, PrepackedSource{w}, b, 0.0f, c, bias, nullptr);
}

void sgemm_conv_dw(const ConvGeometry& g, std::int64_t batch, std::int64_t m,
                   const float* dy, const float* images, float* dw) {
  WM_CHECK_SHAPE(batch > 0 && m > 0, "sgemm_conv_dw: bad batch ", batch,
                 " or rows ", m);
  // A channels-last copy of the batch, zero-bordered so that padding taps
  // read zeros: for each kh, the KW*C taps of a pixel are one contiguous
  // run. Pool workers that split the product only read it.
  ConvGeometry bordered = g;
  bordered.height += 2 * g.pad;
  bordered.width += 2 * g.pad;
  bordered.pad = 0;
  const std::int64_t c = g.channels;
  const std::int64_t plane = g.height * g.width;
  const std::int64_t image = c * bordered.height * bordered.width;
  thread_local std::vector<float> copy;
  copy.assign(static_cast<std::size_t>(batch * image), 0.0f);
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* src = images + n * c * plane;
    for (std::int64_t y = 0; y < g.height; ++y) {
      float* row = copy.data() + n * image +
                   ((y + g.pad) * bordered.width + g.pad) * c;
      for (std::int64_t x = 0; x < g.width; ++x) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          row[x * c + ch] = src[ch * plane + y * g.width + x];
        }
      }
    }
  }
  // K runs image by image, pixel by pixel. A (dy) is read in place from its
  // planes; so is B where a kh run of taps holds whole vectors, from the
  // copy at the pixel's top-left tap. Otherwise (conv1's one channel) B is
  // packed from the copy on every call (see pack_columns).
  const std::int64_t ow = g.out_w();
  const std::int64_t per = g.col_cols();
  const std::int64_t k = batch * per;
  const std::int64_t run = g.kernel_w * c;
  const bool in_place = run % kVL == 0;
  thread_local std::vector<const float*> a_cols;
  thread_local std::vector<const float*> b_rows;
  a_cols.resize(static_cast<std::size_t>(k));
  if (in_place) b_rows.resize(static_cast<std::size_t>(k));
  std::size_t p = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t y = 0; y < g.out_h(); ++y) {
      const float* a = dy + n * m * per + y * ow;
      const float* b =
          copy.data() + n * image + y * g.stride * bordered.width * c;
      for (std::int64_t x = 0; x < ow; ++x, ++p) {
        a_cols[p] = a + x;
        if (in_place) b_rows[p] = b + x * g.stride * c;
      }
    }
  }
  // The product's columns run tap-major; dw's run channel-major.
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t cols = g.col_rows();
  thread_local std::vector<float> product;
  product.resize(static_cast<std::size_t>(m * cols));
  const BatchRowsSource a{a_cols.data(), per};
  if (in_place) {
    gemm_driver(m, cols, k, a,
                RowTableSource{b_rows.data(), cols, run, bordered.width * c},
                0.0f, product.data(), nullptr, nullptr);
  } else {
    gemm_driver(m, cols, k, a, BatchColumnsSource{bordered, copy.data()},
                0.0f, product.data(), nullptr, nullptr);
  }
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
