#include "tensor/i8gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__AVX512VNNI__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace wm {

namespace {

// ---------------------------------------------------------------------------
// Micro-tile geometry. K always advances in groups of kKU = 4 bytes per
// channel — the unit vpdpbusd consumes in one instruction and the
// maddubs/madd pair consumes in two. All ISA paths share the packed layout,
// and integer accumulation makes their results bit-identical.
constexpr std::int64_t kKU = 4;

#if defined(__AVX512VNNI__)
constexpr std::int64_t kMR = 8;   // acc tile: 8x2 zmm (+2 B, +1 bcast) of 32
constexpr std::int64_t kVL = 16;  // int32 lanes per vector
#elif defined(__AVX2__)
constexpr std::int64_t kMR = 6;   // acc tile: 6x2 ymm (+2 B, +1 bcast, +ones)
constexpr std::int64_t kVL = 8;
#else
constexpr std::int64_t kMR = 4;   // scalar fallback: register-pressure free
constexpr std::int64_t kVL = 4;
#endif
constexpr std::int64_t kNV = 2;
constexpr std::int64_t kNR = kNV * kVL;

// Cache blocking for M and N only. K is deliberately unblocked: the epilogue
// is nonlinear (ReLU) and C is float, so partial-K spills would need an
// int32 C pass; the layers this serves keep K small (≤ a few thousand), so
// a kNR-column B micro-panel stays cache-resident across the ir loop anyway.
constexpr std::int64_t kMC = kMR * 32;
constexpr std::int64_t kNC = kNR * 16;

// Overflow bound: |u8·s8| ≤ 127·127 per product, so int32 accumulation is
// exact for k up to 2^31 / 127² (~133k) — far beyond any layer here.
constexpr std::int64_t kMaxK = (std::int64_t{1} << 31) / (127 * 127);

// Threading threshold, in MACs (the fp32 kernel's 8 MFLOP bar, halved).
constexpr double kThreadMacs = 4.0e6;

/// Number of kKU-deep K groups a depth-k operand is packed into.
constexpr std::int64_t groups_of(std::int64_t k) { return (k + kKU - 1) / kKU; }

/// Packs `rows` x k of a strided operand into W-wide micro-panels with K in
/// groups of kKU. Element (r, p) — r along M for A, along N for B — is
/// src[r * outer_stride + p * k_stride] and lands at
/// panel[(g*W + i)*kKU + u] of panel r / W, where p = g*kKU + u and
/// i = r % W. Row and K tails are zero-padded — zero pairs with zero in the
/// other operand, so padding never perturbs the integer accumulator.
template <std::int64_t W, typename T>
void pack_strided(std::int64_t rows, std::int64_t k, const T* src,
                  std::int64_t outer_stride, std::int64_t k_stride, T* dst) {
  const std::int64_t groups = groups_of(k);
  for (std::int64_t r0 = 0; r0 < rows; r0 += W) {
    const std::int64_t n = std::min(W, rows - r0);
    T* panel = dst + (r0 / W) * W * groups * kKU;
    for (std::int64_t g = 0; g < groups; ++g) {
      for (std::int64_t i = 0; i < W; ++i) {
        T* d = panel + (g * W + i) * kKU;
        for (std::int64_t u = 0; u < kKU; ++u) {
          const std::int64_t p = g * kKU + u;
          d[u] = (i < n && p < k)
                     ? src[(r0 + i) * outer_stride + p * k_stride]
                     : T(0);
        }
      }
    }
  }
}

/// Packs columns [j0, j0 + nc) of im2col(image) into kNR-column micro-panels
/// with K in groups of kKU, reading the image directly. `g` has no padding
/// (i8gemm_conv hands over the bordered image's geometry), so every tap is
/// in range. Row p of the column matrix is the tap (channel, kh, kw) in
/// im2col's order; column j is output pixel (j / OW, j % OW); the panel
/// tails are zero, exactly the values im2col_u8 followed by pack_strided
/// would write.
void pack_image(const ConvGeometry& g, const std::uint8_t* image,
                std::int64_t j0, std::int64_t nc, std::uint8_t* dst) {
  struct Run {
    std::int64_t src, len, lane;  // image offset of tap (0, 0, 0), length, lane
  };
  Run runs[kNR];
  const std::int64_t k = g.col_rows();
  const std::int64_t groups = groups_of(k);
  const std::int64_t ow = g.out_w();
  const std::int64_t s = g.stride;
  // The image offset of every tap, in im2col's row order.
  thread_local std::vector<std::int64_t> taps;
  taps.clear();
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        taps.push_back((c * g.height + kh) * g.width + kw);
      }
    }
  }
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t cols = std::min(kNR, nc - jr);
    // The panel's columns as runs within one output row each.
    int nruns = 0;
    for (std::int64_t lane = 0; lane < cols;) {
      const std::int64_t j = j0 + jr + lane;
      const std::int64_t len = std::min(ow - j % ow, cols - lane);
      runs[nruns++] = {(j / ow) * s * g.width + (j % ow) * s, len, lane};
      lane += len;
    }
    std::uint8_t* panel = dst + (jr / kNR) * kNR * groups * kKU;
    for (std::int64_t gi = 0; gi < groups; ++gi) {
      std::uint8_t* d = panel + gi * kNR * kKU;
      const std::int64_t p0 = gi * kKU;
      if (p0 + kKU <= k) {
        const std::uint8_t* t0 = image + taps[static_cast<std::size_t>(p0)];
        const std::uint8_t* t1 = image + taps[static_cast<std::size_t>(p0 + 1)];
        const std::uint8_t* t2 = image + taps[static_cast<std::size_t>(p0 + 2)];
        const std::uint8_t* t3 = image + taps[static_cast<std::size_t>(p0 + 3)];
        for (int r = 0; r < nruns; ++r) {
          const std::int64_t o = runs[r].src;
          std::uint8_t* out = d + runs[r].lane * kKU;
          if (s == 1) {
            for (std::int64_t i = 0; i < runs[r].len; ++i) {
              out[i * kKU + 0] = t0[o + i];
              out[i * kKU + 1] = t1[o + i];
              out[i * kKU + 2] = t2[o + i];
              out[i * kKU + 3] = t3[o + i];
            }
          } else {
            for (std::int64_t i = 0; i < runs[r].len; ++i) {
              out[i * kKU + 0] = t0[o + i * s];
              out[i * kKU + 1] = t1[o + i * s];
              out[i * kKU + 2] = t2[o + i * s];
              out[i * kKU + 3] = t3[o + i * s];
            }
          }
        }
      } else {
        // The K tail: taps past k are zero.
        for (int r = 0; r < nruns; ++r) {
          std::uint8_t* out = d + runs[r].lane * kKU;
          for (std::int64_t i = 0; i < runs[r].len; ++i) {
            for (std::int64_t u = 0; u < kKU; ++u) {
              out[i * kKU + u] =
                  p0 + u < k
                      ? image[taps[static_cast<std::size_t>(p0 + u)] +
                              runs[r].src + i * s]
                      : 0;
            }
          }
        }
      }
      std::fill(d + cols * kKU, d + kNR * kKU, std::uint8_t{0});
    }
  }
}

/// kMR x kNR int32 accumulator tile over `groups` K-groups of packed panels.
/// UnsignedBroadcast states which operand holds the u8 activations: the
/// broadcast (M-side) one for the linear-shaped product, the vector (N-side)
/// one for the conv-shaped product — vpdpbusd/maddubs need to know, since
/// their first source is unsigned and the second signed.
template <bool UnsignedBroadcast, typename TA, typename TB>
void micro_kernel_i8(std::int64_t groups, const TA* __restrict__ ap,
                     const TB* __restrict__ bp, std::int32_t* __restrict__ tile) {
#if defined(__AVX512VNNI__)
  __m512i acc[kMR][kNV];
  for (std::int64_t i = 0; i < kMR; ++i)
    for (std::int64_t v = 0; v < kNV; ++v) acc[i][v] = _mm512_setzero_si512();
  for (std::int64_t g = 0; g < groups; ++g) {
    __m512i bv[kNV];
    for (std::int64_t v = 0; v < kNV; ++v) {
      bv[v] = _mm512_loadu_si512(bp + (g * kNR + v * kVL) * kKU);
    }
    for (std::int64_t i = 0; i < kMR; ++i) {
      std::int32_t aw;
      std::memcpy(&aw, ap + (g * kMR + i) * kKU, sizeof(aw));
      const __m512i av = _mm512_set1_epi32(aw);
      for (std::int64_t v = 0; v < kNV; ++v) {
        acc[i][v] = UnsignedBroadcast
                        ? _mm512_dpbusd_epi32(acc[i][v], av, bv[v])
                        : _mm512_dpbusd_epi32(acc[i][v], bv[v], av);
      }
    }
  }
  for (std::int64_t i = 0; i < kMR; ++i)
    for (std::int64_t v = 0; v < kNV; ++v)
      _mm512_storeu_si512(tile + i * kNR + v * kVL, acc[i][v]);
#elif defined(__AVX2__)
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc[kMR][kNV];
  for (std::int64_t i = 0; i < kMR; ++i)
    for (std::int64_t v = 0; v < kNV; ++v) acc[i][v] = _mm256_setzero_si256();
  for (std::int64_t g = 0; g < groups; ++g) {
    __m256i bv[kNV];
    for (std::int64_t v = 0; v < kNV; ++v) {
      bv[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          bp + (g * kNR + v * kVL) * kKU));
    }
    for (std::int64_t i = 0; i < kMR; ++i) {
      std::int32_t aw;
      std::memcpy(&aw, ap + (g * kMR + i) * kKU, sizeof(aw));
      const __m256i av = _mm256_set1_epi32(aw);
      for (std::int64_t v = 0; v < kNV; ++v) {
        // u8×s8 byte products summed pairwise into i16 (no saturation: the
        // u8 side is ≤ 127 by the header contract), then pairwise again
        // into i32 — the maddubs/madd 4-wide dot product.
        const __m256i p16 = UnsignedBroadcast
                                ? _mm256_maddubs_epi16(av, bv[v])
                                : _mm256_maddubs_epi16(bv[v], av);
        acc[i][v] = _mm256_add_epi32(acc[i][v], _mm256_madd_epi16(p16, ones));
      }
    }
  }
  for (std::int64_t i = 0; i < kMR; ++i)
    for (std::int64_t v = 0; v < kNV; ++v)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(tile + i * kNR + v * kVL), acc[i][v]);
#else
  std::fill(tile, tile + kMR * kNR, 0);
  for (std::int64_t g = 0; g < groups; ++g) {
    const TB* brow = bp + g * kNR * kKU;
    for (std::int64_t i = 0; i < kMR; ++i) {
      const TA* agrp = ap + (g * kMR + i) * kKU;
      std::int32_t* trow = tile + i * kNR;
      for (std::int64_t j = 0; j < kNR; ++j) {
        std::int32_t dot = 0;
        for (std::int64_t u = 0; u < kKU; ++u) {
          dot += static_cast<std::int32_t>(agrp[u]) *
                 static_cast<std::int32_t>(brow[j * kKU + u]);
        }
        trow[j] += dot;
      }
    }
  }
#endif
}

/// The fused dequantize epilogue of one finished kMR x kNR tile, whose
/// top-left element is C(row0, col0): rows x cols of it are stored.
/// ChannelsAreRows picks whether scales/sums/bias index C's rows or columns.
template <bool ChannelsAreRows>
void store_tile(const std::int32_t* tile, std::int64_t rows,
                std::int64_t cols, std::int64_t row0, std::int64_t col0,
                float* c, std::int64_t ldc, const I8Epilogue& epi) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* crow = c + (row0 + i) * ldc + col0;
    const std::int32_t* trow = tile + i * kNR;
    if constexpr (ChannelsAreRows) {
      const std::int64_t ch = row0 + i;
      const float s = epi.channel_scales[ch] * epi.act_scale;
      const std::int32_t corr =
          epi.act_zero_point *
          (epi.weight_row_sums != nullptr ? epi.weight_row_sums[ch] : 0);
      const float add = epi.bias != nullptr ? epi.bias[ch] : 0.0f;
      for (std::int64_t j = 0; j < cols; ++j) {
        float v = static_cast<float>(trow[j] - corr) * s + add;
        if (epi.relu && v < 0.0f) v = 0.0f;
        crow[j] = v;
      }
    } else {
      const std::int64_t row = row0 + i;
      const float as = epi.act_row_scales != nullptr ? epi.act_row_scales[row]
                                                     : epi.act_scale;
      const std::int32_t azp = epi.act_row_zero_points != nullptr
                                   ? epi.act_row_zero_points[row]
                                   : epi.act_zero_point;
      for (std::int64_t j = 0; j < cols; ++j) {
        const std::int64_t ch = col0 + j;
        const float s = epi.channel_scales[ch] * as;
        const std::int32_t corr =
            azp * (epi.weight_row_sums != nullptr ? epi.weight_row_sums[ch]
                                                  : 0);
        const float add = epi.bias != nullptr ? epi.bias[ch] : 0.0f;
        float v = static_cast<float>(trow[j] - corr) * s + add;
        if (epi.relu && v < 0.0f) v = 0.0f;
        crow[j] = v;
      }
    }
  }
}

// Panel sources. Each hands the macro-kernel the W-wide micro-panels of
// rows [r0, r0 + rows) of its operand over the full (unblocked) depth — r
// along M for A, along N for B — as a base pointer and the stride between
// panels. r0 is always a multiple of W.
template <typename T>
struct Panels {
  const T* base;
  std::int64_t stride;
};

/// A strided matrix, packed into per-thread scratch on every call.
template <std::int64_t W, typename T>
struct StridedSource {
  using Elem = T;
  const T* data;
  std::int64_t outer_stride;
  std::int64_t k_stride;
  std::int64_t k;
  Panels<T> panels(std::int64_t r0, std::int64_t rows,
                   std::vector<T>& scratch) const {
    const std::int64_t depth = groups_of(k) * kKU;
    scratch.resize(static_cast<std::size_t>((rows + W - 1) / W * W * depth));
    pack_strided<W>(rows, k, data + r0 * outer_stride, outer_stride, k_stride,
                    scratch.data());
    return {scratch.data(), W * depth};
  }
};

/// Weights packed once over the full depth: panel i holds rows
/// [i * W, i * W + W), so rows starting at r0 are an offset into it.
struct PrepackedSource {
  using Elem = std::int8_t;
  const I8PackedPanels& w;
  Panels<std::int8_t> panels(std::int64_t r0, std::int64_t /*rows*/,
                             std::vector<std::int8_t>& /*scratch*/) const {
    const std::int64_t depth = groups_of(w.depth) * kKU;
    return {w.data.data() + r0 * depth, w.panel * depth};
  }
};

/// The im2col matrix of one bordered u8 image, packed from the image on
/// every call.
struct ImageSource {
  using Elem = std::uint8_t;
  const ConvGeometry& g;
  const std::uint8_t* image;
  Panels<std::uint8_t> panels(std::int64_t j0, std::int64_t cols,
                              std::vector<std::uint8_t>& scratch) const {
    const std::int64_t depth = groups_of(g.col_rows()) * kKU;
    scratch.resize(static_cast<std::size_t>((cols + kNR - 1) / kNR * kNR *
                                            depth));
    pack_image(g, image, j0, cols, scratch.data());
    return {scratch.data(), kNR * depth};
  }
};

/// Serial macro-kernel over C's [m0, m1) x [n0, n1): takes both operands'
/// panels from their sources, runs the micro-kernel and spills each tile
/// through the epilogue. Thread-safe: packing scratch is thread_local and
/// concurrent calls write disjoint C ranges.
template <bool UnsignedBroadcast, bool ChannelsAreRows, typename ASource,
          typename BSource>
void i8gemm_block(std::int64_t m0, std::int64_t m1, std::int64_t n0,
                  std::int64_t n1, std::int64_t k, const ASource& a,
                  const BSource& b, float* c, std::int64_t ldc,
                  const I8Epilogue& epi) {
  using TA = typename ASource::Elem;
  using TB = typename BSource::Elem;
  thread_local std::vector<TA> ta;
  thread_local std::vector<TB> tb;
  alignas(64) std::int32_t tile[kMR * kNR];
  const std::int64_t groups = groups_of(k);

  for (std::int64_t jc = n0; jc < n1; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n1 - jc);
    const Panels<TB> bp = b.panels(jc, nc, tb);
    for (std::int64_t ic = m0; ic < m1; ic += kMC) {
      const std::int64_t mc = std::min(kMC, m1 - ic);
      const Panels<TA> ap = a.panels(ic, mc, ta);
      for (std::int64_t jr = 0; jr < nc; jr += kNR) {
        const TB* bpanel = bp.base + (jr / kNR) * bp.stride;
        const std::int64_t cols = std::min(kNR, nc - jr);
        for (std::int64_t ir = 0; ir < mc; ir += kMR) {
          micro_kernel_i8<UnsignedBroadcast>(
              groups, ap.base + (ir / kMR) * ap.stride, bpanel, tile);
          store_tile<ChannelsAreRows>(tile, std::min(kMR, mc - ir), cols,
                                      ic + ir, jc + jr, c, ldc, epi);
        }
      }
    }
  }
}

/// Entry point shared by every public variant. Splits large products across
/// the global pool by row- or column-panels; the int32 accumulator makes
/// any split bit-identical, and each C element's epilogue runs exactly once
/// in one thread.
template <bool UnsignedBroadcast, bool ChannelsAreRows, typename ASource,
          typename BSource>
void i8gemm_driver(std::int64_t m, std::int64_t n, std::int64_t k,
                   const ASource& a, const BSource& b, float* c,
                   const I8Epilogue& epi) {
  WM_TRACE_SCOPE("i8gemm");
  static obs::Counter& calls = obs::Registry::global().counter(
      "wm_tensor_i8gemm_calls_total", "int8 GEMM invocations (all variants)");
  static obs::Counter& macs = obs::Registry::global().counter(
      "wm_tensor_i8gemm_macs_total", "int8 multiply-accumulates issued (M*N*K)");
  calls.inc();
  macs.inc(static_cast<std::uint64_t>(m * n * k));
  WM_CHECK(epi.channel_scales != nullptr, "i8gemm needs per-channel scales");
  WM_CHECK((epi.act_zero_point == 0 && epi.act_row_zero_points == nullptr) ||
               epi.weight_row_sums != nullptr,
           "i8gemm zero-point correction needs precomputed weight row sums");
  WM_CHECK(k <= kMaxK, "i8gemm k=", k, " exceeds the int32 overflow bound ",
           kMaxK);
  if constexpr (ChannelsAreRows) {
    WM_CHECK(epi.act_row_scales == nullptr &&
                 epi.act_row_zero_points == nullptr,
             "per-row activation parameters only apply to the bt variants");
  }
  if (m == 0 || n == 0) return;

  ThreadPool& pool = ThreadPool::global();
  const double total_macs = static_cast<double>(m) * static_cast<double>(n) *
                            static_cast<double>(k);
  if (pool.worker_count() == 0 || total_macs < kThreadMacs) {
    i8gemm_block<UnsignedBroadcast, ChannelsAreRows>(0, m, 0, n, k, a, b, c, n,
                                                     epi);
    return;
  }
  if (m >= n) {
    const std::size_t panels = static_cast<std::size_t>((m + kMR - 1) / kMR);
    pool.parallel_chunks(
        0, panels, [&](std::size_t lo, std::size_t hi) {
          i8gemm_block<UnsignedBroadcast, ChannelsAreRows>(
              static_cast<std::int64_t>(lo) * kMR,
              std::min(m, static_cast<std::int64_t>(hi) * kMR), 0, n, k, a, b,
              c, n, epi);
        });
  } else {
    const std::size_t panels = static_cast<std::size_t>((n + kNR - 1) / kNR);
    pool.parallel_chunks(
        0, panels, [&](std::size_t lo, std::size_t hi) {
          i8gemm_block<UnsignedBroadcast, ChannelsAreRows>(
              0, m, static_cast<std::int64_t>(lo) * kNR,
              std::min(n, static_cast<std::int64_t>(hi) * kNR), k, a, b, c, n,
              epi);
        });
  }
}

/// Packs a whole row-major int8 (rows x k) matrix into W-wide panels.
template <std::int64_t W>
I8PackedPanels pack_weights(std::int64_t rows, std::int64_t k,
                            const std::int8_t* w) {
  WM_CHECK_SHAPE(rows > 0 && k > 0, "bad packed weight shape ", rows, "x", k);
  I8PackedPanels out;
  out.rows = rows;
  out.depth = k;
  out.panel = W;
  out.data.resize(
      static_cast<std::size_t>((rows + W - 1) / W * W * groups_of(k) * kKU));
  pack_strided<W>(rows, k, w, k, 1, out.data.data());
  return out;
}

}  // namespace

void i8gemm_bias_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::int8_t* a, const std::uint8_t* b, float* c,
                      const I8Epilogue& epilogue) {
  // Weights broadcast (signed), activations vectorised (unsigned); the
  // im2col matrix B(p, j) = b[p * n + j].
  i8gemm_driver</*UnsignedBroadcast=*/false, /*ChannelsAreRows=*/true>(
      m, n, k, StridedSource<kMR, std::int8_t>{a, k, 1, k},
      StridedSource<kNR, std::uint8_t>{b, 1, n, k}, c, epilogue);
}

void i8gemm_bt_bias_cols(std::int64_t m, std::int64_t n, std::int64_t k,
                         const std::uint8_t* a, const std::int8_t* b, float* c,
                         const I8Epilogue& epilogue) {
  // Activations broadcast (unsigned), weights vectorised (signed); B is
  // stored (N x K) row-major, so B^T(p, j) = b[j * k + p].
  i8gemm_driver</*UnsignedBroadcast=*/true, /*ChannelsAreRows=*/false>(
      m, n, k, StridedSource<kMR, std::uint8_t>{a, k, 1, k},
      StridedSource<kNR, std::int8_t>{b, k, 1, k}, c, epilogue);
}

I8PackedPanels pack_weights_a(std::int64_t m, std::int64_t k,
                              const std::int8_t* w) {
  return pack_weights<kMR>(m, k, w);
}

I8PackedPanels pack_weights_bt(std::int64_t n, std::int64_t k,
                               const std::int8_t* w) {
  return pack_weights<kNR>(n, k, w);
}

void i8gemm_conv(const ConvGeometry& g, const I8PackedPanels& w,
                 const std::uint8_t* image, float* c,
                 const I8Epilogue& epilogue) {
  WM_CHECK_SHAPE(w.panel == kMR && w.depth == g.col_rows(),
                 "i8gemm_conv: weights packed as ", w.rows, "x", w.depth,
                 " (panel ", w.panel, ") for a conv of depth ", g.col_rows());
  ConvGeometry bordered = g;
  bordered.height += 2 * g.pad;
  bordered.width += 2 * g.pad;
  bordered.pad = 0;
  i8gemm_driver</*UnsignedBroadcast=*/false, /*ChannelsAreRows=*/true>(
      w.rows, g.col_cols(), g.col_rows(), PrepackedSource{w},
      ImageSource{bordered, image}, c, epilogue);
}

void i8gemm_packed_bt_bias_cols(std::int64_t m, const std::uint8_t* x,
                                const I8PackedPanels& w, float* y,
                                const I8Epilogue& epilogue) {
  WM_CHECK_SHAPE(w.panel == kNR, "i8gemm_packed_bt_bias_cols: weights not "
                 "packed by pack_weights_bt");
  i8gemm_driver</*UnsignedBroadcast=*/true, /*ChannelsAreRows=*/false>(
      m, w.rows, w.depth, StridedSource<kMR, std::uint8_t>{x, w.depth, 1,
                                                           w.depth},
      PrepackedSource{w}, y, epilogue);
}

}  // namespace wm
