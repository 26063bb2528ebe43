// Single-precision GEMM kernels for the NN and SVM substrates.
//
// All matrices are dense row-major. The implementation is a packed,
// register-tiled kernel in the BLIS style: operand panels are packed into
// contiguous micro-panels, and an MR x NR accumulator tile is kept in vector
// registers across the K loop (GCC vector extensions, so the same source
// compiles to AVX-512 / AVX2 / SSE / plain scalar code depending on the
// target flags — see WM_NATIVE_ARCH in the top-level CMakeLists).
//
// Every entry point runs one macro-kernel whose A and B micro-panels come
// packed from strided memory (the plain sgemm_* calls), pre-packed once
// (PackedPanels: weights that stay fixed across calls), or read where they
// already are through a table of line pointers and per-panel offsets:
// sgemm_conv's B from the caller's zero-bordered image (or, where a vector
// of output pixels would straddle two output rows, from per-thread shifted
// copies of it), and sgemm_conv_dw's A from the output gradient's planes
// and its B from a channels-last copy of the batch (packed only where a kh
// run of taps holds no whole vectors). The micro-kernel broadcasts each A
// value from memory and computes only the rows its A panel holds, so a
// one-row product (a batch-1 dense layer) costs one row. The source of a
// panel never changes its values, and C is always accumulated in the order
// kGemmKBlock states, so every entry that computes the same product
// returns the same bits.
//
// Large products are split across ThreadPool::global() by row- or
// column-panels. The split never changes the per-element accumulation order
// over K, so results are bit-identical for every thread count (WM_THREADS=1
// included). Nested calls (e.g. GEMM inside an already-parallel conv batch
// loop) run serially on the calling worker.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"

namespace wm {

class Tensor;

/// Every fp32 entry point sums C(i, j) over K in one order, the one a
/// scalar loop gives: K splits into kGemmKBlock-deep blocks (the last may
/// be shorter); each block is one chain from +0 in p order, s = fma(a, b, s)
/// where the target has FMA and s + a * b where it does not, with a the
/// alpha-scaled A value. With beta = 0, C = 0 + the first block, then
/// C += each later block; otherwise C is scaled by beta (unless beta = 1)
/// and C += every block. The bias is added last. The thread count, the
/// operand layouts and where the panels come from never change the order.
inline constexpr std::int64_t kGemmKBlock = 192;

/// C = alpha * A(MxK) * B(KxN) + beta * C(MxN); raw pointer variant.
void sgemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
           const float* a, const float* b, float beta, float* c);

/// C = alpha * A^T * B + beta * C(MxN). A is stored (K x M) row-major, so
/// A^T(i, p) = a[p * m + i]; B is (K x N) row-major.
/// Concretely: C(i, j) += alpha * sum_p a[p * m + i] * b[p * n + j].
void sgemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c);

/// C = alpha * A * B^T + beta * C(MxN). A is (M x K) row-major; B is stored
/// (N x K) row-major, so B^T(p, j) = b[j * k + p].
/// Concretely: C(i, j) += alpha * sum_p a[i * k + p] * b[j * k + p].
void sgemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c);

/// sgemm with a fused epilogue adding bias[i] to every element of row i
/// (conv forward: rows are output channels, bias is per-channel).
void sgemm_bias_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                     float alpha, const float* a, const float* b, float beta,
                     float* c, const float* bias);

/// sgemm_bt with a fused epilogue adding bias[j] to every element of column j
/// (linear forward: columns are output features).
void sgemm_bt_bias_cols(std::int64_t m, std::int64_t n, std::int64_t k,
                        float alpha, const float* a, const float* b, float beta,
                        float* c, const float* bias);

/// A GEMM operand packed once into the kernel's micro-panel layout, for
/// weights that stay fixed across many products. Built by pack_weights_a /
/// pack_weights_bt; the layout of `data` is private to gemm.cpp.
struct PackedPanels {
  std::vector<float> data;
  std::int64_t rows = 0;   // M of an A operand, N of a B operand
  std::int64_t depth = 0;  // K
  std::int64_t panel = 0;  // micro-panel width: the kernel's kMR or kNR
};

/// Packs row-major W (M x K) as the A operand of C = W * B (conv filters).
PackedPanels pack_weights_a(std::int64_t m, std::int64_t k, const float* w);

/// Packs row-major W (N x K) as the B operand of C = X * W^T (linear layers).
PackedPanels pack_weights_bt(std::int64_t n, std::int64_t k, const float* w);

/// One image's convolution with implicit im2col:
///   C (OC x OH*OW) = W (OC x C*KH*KW) * im2col(image) [+ bias[row]]
/// with W from pack_weights_a(OC, g.col_rows(), ...). `bordered` is the
/// image zero-bordered by g.pad, (C, H + 2p, W + 2p), as border_image
/// writes it (im2col.hpp); nothing past it is read. The kernel reads each
/// row of im2col(image) in place: at stride 1, where the vector width
/// divides OW, straight from `bordered`, one output row of a tap at a time;
/// at stride 1 otherwise from KW per-thread shifted copies of it
/// (KW x C x (H+2p) x OW floats), where tap (c, kh, kw) of every output
/// pixel lies in one contiguous row; at stride > 1 from a per-thread im2col
/// buffer. Nothing is packed. Bit-identical to im2col of the unbordered
/// image followed by
/// sgemm_bias_rows(OC, g.col_cols(), g.col_rows(), 1, W, col, 0, c, bias);
/// bias may be null.
void sgemm_conv(const ConvGeometry& g, const PackedPanels& w,
                const float* bordered, float* c, const float* bias);

/// A convolution's weight gradient over a whole batch, with implicit im2col:
///   dw (m x g.col_rows()) += sum over images i of
///                            dy_i (m x g.col_cols()) * im2col(image_i)^T
/// as one GEMM with K = batch * g.col_cols(), into scratch, then added to
/// dw. dy holds the batch's (m x OH*OW) blocks back to back, as a conv's
/// (N, OC, OH, OW) output gradient does; `images` holds `batch` images of g.
/// The kernel broadcasts dy straight from its planes. The transposed im2col
/// rows come from a zero-bordered, channels-last copy of the batch, where
/// the KW*C taps of one kh are contiguous: read in place where the vector
/// width divides KW*C, packed per call otherwise (conv1's one channel). No
/// column buffer is built. The product splits across the pool by M/N panels
/// only, so dw gets the same bits at every pool size.
void sgemm_conv_dw(const ConvGeometry& g, std::int64_t batch, std::int64_t m,
                   const float* dy, const float* images, float* dw);

/// Linear layer with weights from pack_weights_bt(N, K, W):
///   Y (M x N) = X (M x K) * W^T + bias[col]
/// Bit-identical to sgemm_bt_bias_cols(M, N, K, 1, x, W, 0, y, bias).
void sgemm_packed_bt_bias_cols(std::int64_t m, const float* x,
                               const PackedPanels& w, float* y,
                               const float* bias);

namespace detail {

/// The pre-microkernel cache-blocked i-k-j kernel this repo shipped with.
/// Kept (unthreaded, scalar) as the baseline for old-vs-new benchmark
/// comparisons in bench_micro_tensor; not used by any layer.
void sgemm_seed(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, const float* b, float beta, float* c);

}  // namespace detail

/// Tensor convenience wrappers; shapes are validated.
/// Returns A(MxK) x B(KxN).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Returns A^T x B where A is (KxM) and B is (KxN).
Tensor matmul_at(const Tensor& a, const Tensor& b);

/// Returns A x B^T where A is (MxK) and B is (NxK).
Tensor matmul_bt(const Tensor& a, const Tensor& b);

}  // namespace wm
