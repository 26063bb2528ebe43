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

/// Bytes of one kh run of a conv's K in i8gemm_conv's order: the KW·C taps
/// of one kernel row, padded to whole K groups.
std::int64_t conv_run(const ConvGeometry& g) {
  return groups_of(g.kernel_w * g.channels) * kKU;
}

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

#if defined(__AVX512VNNI__) || defined(__AVX2__)
/// One 4-byte K group of the broadcast operand, as the int32 the kernel
/// splats across a vector (vpbroadcastd from memory).
std::int32_t load_word(const void* p) {
  std::int32_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}
#endif

/// The 4-byte words of a packed kMR-row micro-panel: K group g of row i is
/// at base + (g·kMR + i)·kKU.
template <typename T>
struct PackedWords {
  const T* base;
  const T* word(std::int64_t g, std::int64_t i) const {
    return base + (g * kMR + i) * kKU;
  }
};

/// kMR x kNR int32 accumulator tile over `groups` K-groups: a.word(g, i)
/// is K group g of row i of the broadcast (M-side) operand, and bp the
/// packed kNR-column vector (N-side) micro-panel. UnsignedBroadcast states
/// which operand holds the u8 activations: the broadcast one for the
/// linear-shaped product and the conv, the vector one for
/// i8gemm_bias_rows — vpdpbusd/maddubs need to know, since their first
/// source is unsigned and the second signed. The two B vectors are named
/// values and the row loops are unrolled, so the accumulators stay in
/// registers: each k step is two loads, kMR broadcasts from memory and
/// 2·kMR dot products (GCC 12 copied and spilled them while B was an
/// array).
template <bool UnsignedBroadcast, typename AWords, typename TB>
void micro_kernel_i8(std::int64_t groups, const AWords a,
                     const TB* __restrict__ bp, std::int32_t* __restrict__ tile) {
  static_assert(kNV == 2, "the kernel names its two B vectors");
#if defined(__AVX512VNNI__)
  __m512i acc[kMR][kNV];
#pragma GCC unroll 8
  for (std::int64_t i = 0; i < kMR; ++i) {
    acc[i][0] = _mm512_setzero_si512();
    acc[i][1] = _mm512_setzero_si512();
  }
  for (std::int64_t g = 0; g < groups; ++g) {
    const __m512i b0 = _mm512_loadu_si512(bp + g * kNR * kKU);
    const __m512i b1 = _mm512_loadu_si512(bp + (g * kNR + kVL) * kKU);
#pragma GCC unroll 8
    for (std::int64_t i = 0; i < kMR; ++i) {
      const __m512i av = _mm512_set1_epi32(load_word(a.word(g, i)));
      if constexpr (UnsignedBroadcast) {
        acc[i][0] = _mm512_dpbusd_epi32(acc[i][0], av, b0);
        acc[i][1] = _mm512_dpbusd_epi32(acc[i][1], av, b1);
      } else {
        acc[i][0] = _mm512_dpbusd_epi32(acc[i][0], b0, av);
        acc[i][1] = _mm512_dpbusd_epi32(acc[i][1], b1, av);
      }
    }
  }
#pragma GCC unroll 8
  for (std::int64_t i = 0; i < kMR; ++i) {
    _mm512_storeu_si512(tile + i * kNR, acc[i][0]);
    _mm512_storeu_si512(tile + i * kNR + kVL, acc[i][1]);
  }
#elif defined(__AVX2__)
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc[kMR][kNV];
#pragma GCC unroll 8
  for (std::int64_t i = 0; i < kMR; ++i) {
    acc[i][0] = _mm256_setzero_si256();
    acc[i][1] = _mm256_setzero_si256();
  }
  for (std::int64_t g = 0; g < groups; ++g) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + g * kNR * kKU));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + (g * kNR + kVL) * kKU));
#pragma GCC unroll 8
    for (std::int64_t i = 0; i < kMR; ++i) {
      const __m256i av = _mm256_set1_epi32(load_word(a.word(g, i)));
      // u8×s8 byte products summed pairwise into i16 (no saturation: the
      // u8 side is ≤ 127 by the header contract), then pairwise again
      // into i32 — the maddubs/madd 4-wide dot product.
      const __m256i p0 = UnsignedBroadcast ? _mm256_maddubs_epi16(av, b0)
                                           : _mm256_maddubs_epi16(b0, av);
      const __m256i p1 = UnsignedBroadcast ? _mm256_maddubs_epi16(av, b1)
                                           : _mm256_maddubs_epi16(b1, av);
      acc[i][0] = _mm256_add_epi32(acc[i][0], _mm256_madd_epi16(p0, ones));
      acc[i][1] = _mm256_add_epi32(acc[i][1], _mm256_madd_epi16(p1, ones));
    }
  }
#pragma GCC unroll 8
  for (std::int64_t i = 0; i < kMR; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tile + i * kNR),
                        acc[i][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tile + i * kNR + kVL),
                        acc[i][1]);
  }
#else
  std::fill(tile, tile + kMR * kNR, 0);
  for (std::int64_t g = 0; g < groups; ++g) {
    const TB* brow = bp + g * kNR * kKU;
    for (std::int64_t i = 0; i < kMR; ++i) {
      const auto* agrp = a.word(g, i);
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
  if constexpr (ChannelsAreRows) {
    for (std::int64_t i = 0; i < rows; ++i) {
      float* crow = c + (row0 + i) * ldc + col0;
      const std::int32_t* trow = tile + i * kNR;
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
    }
  } else {
    // The column channels' s, corr and add, formed once per tile unless
    // each row brings its own activation parameters.
    const bool per_row = epi.act_row_scales != nullptr ||
                         epi.act_row_zero_points != nullptr;
    float col_s[kNR] = {};
    std::int32_t col_corr[kNR] = {};
    float col_add[kNR] = {};
    for (std::int64_t i = 0; i < rows; ++i) {
      float* crow = c + (row0 + i) * ldc + col0;
      const std::int32_t* trow = tile + i * kNR;
      if (i == 0 || per_row) {
        const std::int64_t row = row0 + i;
        const float as = epi.act_row_scales != nullptr
                             ? epi.act_row_scales[row]
                             : epi.act_scale;
        const std::int32_t azp = epi.act_row_zero_points != nullptr
                                     ? epi.act_row_zero_points[row]
                                     : epi.act_zero_point;
        for (std::int64_t j = 0; j < cols; ++j) {
          const std::int64_t ch = col0 + j;
          col_s[j] = epi.channel_scales[ch] * as;
          col_corr[j] =
              azp * (epi.weight_row_sums != nullptr ? epi.weight_row_sums[ch]
                                                    : 0);
          col_add[j] = epi.bias != nullptr ? epi.bias[ch] : 0.0f;
        }
      }
      for (std::int64_t j = 0; j < cols; ++j) {
        float v = static_cast<float>(trow[j] - col_corr[j]) * col_s[j] +
                  col_add[j];
        if (epi.relu && v < 0.0f) v = 0.0f;
        crow[j] = v;
      }
    }
  }
}

// Panel sources. Each hands the macro-kernel the micro-panels of rows
// [r0, r0 + rows) of its operand over the full (unblocked) depth — r along
// M for A, along N for B — as a block whose a_panel(ir) / b_panel(jr) is
// the micro-panel at row offset ir / column offset jr of the block. r0 is
// always a multiple of the micro-panel width.
template <typename T>
struct Panels {
  const T* base;
  std::int64_t stride;  // between micro-panels
  PackedWords<T> a_panel(std::int64_t ir) const {
    return {base + ir / kMR * stride};
  }
  const T* b_panel(std::int64_t jr) const { return base + jr / kNR * stride; }
};

/// A strided matrix, packed into per-thread scratch on every call.
template <std::int64_t W, typename T>
struct StridedSource {
  using Scratch = std::vector<T>;
  const T* data;
  std::int64_t outer_stride;
  std::int64_t k_stride;
  std::int64_t k;
  Panels<T> panels(std::int64_t r0, std::int64_t rows,
                   Scratch& scratch) const {
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
  using Scratch = std::vector<std::int8_t>;  // unused
  const I8PackedPanels& w;
  Panels<std::int8_t> panels(std::int64_t r0, std::int64_t /*rows*/,
                             Scratch& /*scratch*/) const {
    const std::int64_t depth = groups_of(w.depth) * kKU;
    return {w.data.data() + r0 * depth, w.panel * depth};
  }
};

/// The words of a kMR-pixel micro-panel read in place: K group g of pixel
/// i is at pixel[i] + goff[g]. The pixel pointers are held by value, so
/// they sit in registers across the k-loop.
struct PixelWords {
  const std::uint8_t* pixel[kMR];
  const std::int64_t* goff;
  const std::uint8_t* word(std::int64_t g, std::int64_t i) const {
    return pixel[i] + goff[g];
  }
};

/// i8gemm_conv's A operand, im2col(image)ᵀ, read in place from the bordered
/// channels-last image: row j is output pixel (j / out_w, j % out_w), whose
/// taps start at image + (j / out_w)·row_step + (j % out_w)·col_step, and K
/// group g lies goff[g] bytes further on. A block is a per-thread table of
/// its pixels' addresses; a micro-panel past the last pixel repeats it, and
/// store_tile drops those rows.
struct PixelSource {
  using Scratch = std::vector<const std::uint8_t*>;
  const std::uint8_t* image;
  std::int64_t out_w;
  std::int64_t row_step;
  std::int64_t col_step;
  const std::int64_t* goff;
  struct Block {
    const std::uint8_t* const* pixels;
    const std::int64_t* goff;
    PixelWords a_panel(std::int64_t ir) const {
      PixelWords words{{}, goff};
      for (std::int64_t i = 0; i < kMR; ++i) words.pixel[i] = pixels[ir + i];
      return words;
    }
  };
  Block panels(std::int64_t r0, std::int64_t rows, Scratch& pixels) const {
    pixels.resize(static_cast<std::size_t>((rows + kMR - 1) / kMR * kMR));
    std::int64_t y = r0 / out_w;
    std::int64_t x = r0 % out_w;
    for (std::int64_t r = 0; r < rows; ++r) {
      pixels[static_cast<std::size_t>(r)] = image + y * row_step + x * col_step;
      if (++x == out_w) {
        x = 0;
        ++y;
      }
    }
    std::fill(pixels.begin() + rows, pixels.end(),
              pixels[static_cast<std::size_t>(rows - 1)]);
    return {pixels.data(), goff};
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
  thread_local typename ASource::Scratch ta;
  thread_local typename BSource::Scratch tb;
  alignas(64) std::int32_t tile[kMR * kNR];
  const std::int64_t groups = groups_of(k);

  for (std::int64_t jc = n0; jc < n1; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n1 - jc);
    const auto bp = b.panels(jc, nc, tb);
    for (std::int64_t ic = m0; ic < m1; ic += kMC) {
      const std::int64_t mc = std::min(kMC, m1 - ic);
      const auto ap = a.panels(ic, mc, ta);
      for (std::int64_t jr = 0; jr < nc; jr += kNR) {
        const auto* bpanel = bp.b_panel(jr);
        const std::int64_t cols = std::min(kNR, nc - jr);
        for (std::int64_t ir = 0; ir < mc; ir += kMR) {
          micro_kernel_i8<UnsignedBroadcast>(groups, ap.a_panel(ir), bpanel,
                                             tile);
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

I8PackedPanels pack_weights_bt(std::int64_t n, std::int64_t k,
                               const std::int8_t* w) {
  return pack_weights<kNR>(n, k, w);
}

I8PackedPanels pack_conv_filters(const ConvGeometry& g, std::int64_t oc,
                                 const std::int8_t* w) {
  const std::int64_t run = conv_run(g);
  const std::int64_t depth = g.kernel_h * run;
  const std::int64_t k = g.col_rows();
  std::vector<std::int8_t> reordered(static_cast<std::size_t>(oc * depth), 0);
  for (std::int64_t o = 0; o < oc; ++o) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
          reordered[static_cast<std::size_t>(o * depth + kh * run +
                                             kw * g.channels + c)] =
              w[o * k + (c * g.kernel_h + kh) * g.kernel_w + kw];
        }
      }
    }
  }
  return pack_weights<kNR>(oc, depth, reordered.data());
}

void i8gemm_conv(const ConvGeometry& g, const I8PackedPanels& w,
                 const std::uint8_t* image, float* c,
                 const I8Epilogue& epilogue) {
  const std::int64_t run = conv_run(g);
  const std::int64_t depth = g.kernel_h * run;
  WM_CHECK_SHAPE(w.panel == kNR && w.depth == depth,
                 "i8gemm_conv: filters packed as ", w.rows, "x", w.depth,
                 " (panel ", w.panel, ") for a conv of depth ", depth);
  // K group (kh, q) of a pixel: q·kKU bytes into its kh run, which starts
  // kh bordered rows below the pixel's first tap.
  const std::int64_t row = (g.width + 2 * g.pad) * g.channels;
  thread_local std::vector<std::int64_t> goff;
  goff.clear();
  for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
    for (std::int64_t q = 0; q < run; q += kKU) goff.push_back(kh * row + q);
  }
  i8gemm_driver</*UnsignedBroadcast=*/true, /*ChannelsAreRows=*/false>(
      g.col_cols(), w.rows, depth,
      PixelSource{image, g.out_w(), g.stride * row, g.stride * g.channels,
                  goff.data()},
      PrepackedSource{w}, c, epilogue);
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
