// Quantized int8 GEMM kernels: the inference fast path beneath the
// quantized NN layers (nn/quant). Sibling of the fp32 kernels in gemm.hpp.
//
// Data model (DESIGN.md §12): weights are symmetric per-output-channel
// int8 (w ≈ s_c · w_q, w_q in [-127, 127]); activations are dynamic
// per-tensor unsigned 7-bit (x ≈ s_a · (x_q − zp), x_q in [0, 127]). The
// kernel accumulates u8×s8 products into int32 — exact integer arithmetic,
// so results are bit-identical for every thread count and every ISA path —
// and a fused float epilogue maps the accumulator straight to fp32:
//
//   C(i,j) = s_c(ch) · s_a · (acc(i,j) − zp · Σ_k w_q(ch,k)) + bias(ch)
//
// optionally clamped at zero (fused ReLU), where ch is the output channel
// (the row of C for the conv-shaped variant, the column for the
// linear-shaped one). The zp·Σw term is the standard zero-point correction;
// Σ_k w_q is precomputed once at quantization time.
//
// The activation range [0, 127] (not [0, 255]) is a hard contract: it keeps
// every u8×s8 pair sum inside int16, so the AVX2 path can use the
// maddubs/madd idiom without saturation. The AVX-512 VNNI path fuses the
// whole 4-wide dot product into one vpdpbusd; the portable fallback is
// scalar. All three consume the same packed layout (K in groups of 4,
// zero-padded) and produce identical bits.
//
// As in gemm.hpp, every entry point runs one macro-kernel and one epilogue,
// and only the source of the A and B micro-panels differs: packed from
// strided memory on every call (i8gemm_bias_rows, i8gemm_bt_bias_cols),
// pre-packed once (I8PackedPanels: weights fixed across calls), or packed
// straight from a bordered u8 image (i8gemm_conv: im2col_u8 without the
// column buffer). Integer accumulation makes every source give the same
// bits for the same product.
//
// Threading mirrors sgemm: large products split across
// ThreadPool::global() by row- or column-panels; int32 accumulation makes
// the split trivially reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"

namespace wm {

/// Parameters of the fused dequantize epilogue. `channel_scales` and
/// `weight_row_sums` index the output channel: rows of C for
/// i8gemm_bias_rows, columns of C for i8gemm_bt_bias_cols.
struct I8Epilogue {
  const float* channel_scales = nullptr;    // per-channel weight scale s_c
  float act_scale = 1.0f;                   // activation scale s_a
  std::int32_t act_zero_point = 0;          // activation zero point zp
  const std::int32_t* weight_row_sums = nullptr;  // Σ_k w_q per channel
  const float* bias = nullptr;              // per-channel float bias (or null)
  bool relu = false;                        // clamp the output at zero
  // Per-row activation parameters for i8gemm_bt_bias_cols, indexed by the
  // row of C (= the sample). When set they override act_scale /
  // act_zero_point, letting every sample of a batch carry its own dynamic
  // quantization — which keeps per-sample results independent of batch
  // composition, the wm::Classifier contract.
  const float* act_row_scales = nullptr;
  const std::int32_t* act_row_zero_points = nullptr;
};

/// Conv-shaped product: C(MxN) = epilogue(A · B) where A (MxK, row-major)
/// holds int8 weights — rows are output channels — and B (KxN, row-major)
/// holds u8 activations (the im2col matrix). C is written, not accumulated.
void i8gemm_bias_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::int8_t* a, const std::uint8_t* b, float* c,
                      const I8Epilogue& epilogue);

/// Linear-shaped product: C(MxN) = epilogue(A · Bᵀ) where A (MxK, row-major)
/// holds u8 activations and B (NxK, row-major) holds int8 weights — rows of
/// B (= columns of C) are output channels. C is written, not accumulated.
void i8gemm_bt_bias_cols(std::int64_t m, std::int64_t n, std::int64_t k,
                         const std::uint8_t* a, const std::int8_t* b, float* c,
                         const I8Epilogue& epilogue);

/// An int8 GEMM operand packed once into the kernel's micro-panel layout,
/// for weights that stay fixed across many products. Built by the int8
/// pack_weights_a / pack_weights_bt; the layout of `data` is private to
/// i8gemm.cpp.
struct I8PackedPanels {
  std::vector<std::int8_t> data;
  std::int64_t rows = 0;   // M of an A operand, N of a B operand
  std::int64_t depth = 0;  // K
  std::int64_t panel = 0;  // micro-panel width: the kernel's kMR or kNR
};

/// Packs row-major int8 W (M x K) as the A operand of i8gemm_conv (filters).
I8PackedPanels pack_weights_a(std::int64_t m, std::int64_t k,
                              const std::int8_t* w);

/// Packs row-major int8 W (N x K) as the B operand of
/// i8gemm_packed_bt_bias_cols (linear layers).
I8PackedPanels pack_weights_bt(std::int64_t n, std::int64_t k,
                               const std::int8_t* w);

/// One image's quantized convolution with implicit im2col:
///   C (OC x OH*OW) = epilogue(W (OC x C*KH*KW) * im2col(image))
/// with W from the int8 pack_weights_a(OC, g.col_rows(), ...). `image` is
/// bordered: (C, H + 2·pad, W + 2·pad) u8, with the pad-wide ring already
/// holding the value the padding taps read (the activation zero point). Its
/// columns are packed straight into the kernel's B panels, so no column
/// buffer is built. Bit-identical to im2col_u8(g, unbordered, col, ring)
/// followed by i8gemm_bias_rows(OC, g.col_cols(), g.col_rows(), W, col, c,
/// epilogue).
void i8gemm_conv(const ConvGeometry& g, const I8PackedPanels& w,
                 const std::uint8_t* image, float* c,
                 const I8Epilogue& epilogue);

/// Linear layer with weights from the int8 pack_weights_bt(N, K, W):
///   Y (M x N) = epilogue(X (M x K) * W^T)
/// Bit-identical to i8gemm_bt_bias_cols(M, N, K, x, W, y, epilogue).
void i8gemm_packed_bt_bias_cols(std::int64_t m, const std::uint8_t* x,
                                const I8PackedPanels& w, float* y,
                                const I8Epilogue& epilogue);

}  // namespace wm
