// The batch kernels of a convolution, shared by Conv2d, ConvStage and
// ConvTranspose2d (whose forward is a convolution's input gradient).
//
// Each runs in an order fixed by its operands, never by the pool: the
// forward and the input gradient are one sgemm_conv per image, the weight
// gradient is one GEMM over the whole batch (sgemm_conv_dw), and the bias
// gradient sums each channel on one thread in a fixed order. So every result has the same
// bits at every pool size.
#pragma once

#include <cstdint>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace wm::nn {

/// out (m, OH, OW) per image = W (m x g.col_rows()) * im2col(image) + bias
/// (per output channel, may be null), with W from pack_weights_a: each
/// image bordered into per-chunk scratch, then sgemm_conv. Images fan out
/// over the pool.
void conv_forward(const ConvGeometry& g, std::int64_t batch,
                  const PackedPanels& w, const float* input, float* out,
                  const float* bias);

/// The filters of convolution g's input gradient: W (m x g.col_rows())
/// flipped in both spatial axes and transposed to (g.channels x m*KH*KW),
/// packed as sgemm_conv's A operand.
PackedPanels pack_input_grad_filters(const ConvGeometry& g, std::int64_t m,
                                     const float* w);

/// The input gradient of convolution g for a batch: dx (C, H, W) per image
/// from dy (m, OH, OW), as a stride-1 convolution of dy, bordered by
/// K - 1 - pad and (at stride > 1) zero-dilated, with the filters from
/// pack_input_grad_filters, through sgemm_conv: col2im without the column
/// buffer. Adds bias[c] (may be null) to input channel c, as sgemm_conv's
/// epilogue does. Images fan out over the pool.
void conv_input_grad(const ConvGeometry& g, std::int64_t batch,
                     std::int64_t m, const PackedPanels& filters,
                     const float* dy, float* dx, const float* bias);

/// db[r] += the sum of row r of every (m x per) block of dy: each block's
/// row reduced by plane_sum (batchnorm2d.hpp), the results added in batch
/// order in double and rounded once. The block rows fan out over the pool.
void accumulate_row_sums(std::int64_t batch, std::int64_t m, std::int64_t per,
                         const float* dy, float* db);

/// accumulate_row_sums' last step, for callers that reduced the block rows
/// themselves: db[r] += sum over i of totals[i * m + r], in batch order.
void add_row_totals(std::int64_t batch, std::int64_t m, const double* totals,
                    float* db);

}  // namespace wm::nn
