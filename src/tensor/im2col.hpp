// im2col lowering for convolution as GEMM.
//
// Layout conventions (single image):
//   image:  (C, H, W) row-major
//   column: (C*KH*KW, OH*OW) row-major, where output pixel (oh, ow) maps to
//           column oh*OW + ow and channel/kernel offset (c, kh, kw) maps to
//           row (c*KH + kh)*KW + kw.
// Convolution then is  weights(OC, C*KH*KW) x column  ->  (OC, OH*OW).
#pragma once

#include <cstdint>

namespace wm {

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const { return (height + 2 * pad - kernel_h) / stride + 1; }
  std::int64_t out_w() const { return (width + 2 * pad - kernel_w) / stride + 1; }
  std::int64_t col_rows() const { return channels * kernel_h * kernel_w; }
  std::int64_t col_cols() const { return out_h() * out_w(); }

  /// Throws wm::ShapeError when the geometry is degenerate.
  void validate() const;
};

/// Expands image (C,H,W) into col (col_rows x col_cols). Out-of-image taps
/// (from padding) are written as 0.
void im2col(const ConvGeometry& g, const float* image, float* col);

/// Zeroes the ring of width `pad` around each of `channels` (h, w) planes
/// stored bordered, as (channels, h + 2 pad, w + 2 pad), and nothing else.
void zero_border(std::int64_t channels, std::int64_t h, std::int64_t w,
                 std::int64_t pad, float* bordered);

/// Copies image g (C, H, W) into `bordered`, (C, H + 2 pad, W + 2 pad) with a
/// zero ring: the layout sgemm_conv reads.
void border_image(const ConvGeometry& g, const float* image, float* bordered);

/// im2col over a quantized u8 image (same layout). Out-of-image taps are
/// written as `pad` — the activation zero point, which represents real 0.0
/// exactly because the quantizer's range always includes zero (DESIGN.md
/// §12). Moving 1/4 the bytes of the float expansion, this keeps the
/// quantized conv's lowering cost proportional to its kernel speedup.
void im2col_u8(const ConvGeometry& g, const std::uint8_t* image,
               std::uint8_t* col, std::uint8_t pad);

}  // namespace wm
