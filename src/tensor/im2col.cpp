#include "tensor/im2col.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace wm {

void ConvGeometry::validate() const {
  WM_CHECK_SHAPE(channels > 0 && height > 0 && width > 0,
                 "bad image geometry C=", channels, " H=", height, " W=", width);
  WM_CHECK_SHAPE(kernel_h > 0 && kernel_w > 0, "bad kernel ", kernel_h, "x", kernel_w);
  WM_CHECK_SHAPE(stride > 0, "bad stride ", stride);
  WM_CHECK_SHAPE(pad >= 0, "negative pad ", pad);
  WM_CHECK_SHAPE(out_h() > 0 && out_w() > 0, "empty conv output for H=", height,
                 " W=", width, " k=", kernel_h, "x", kernel_w, " s=", stride,
                 " p=", pad);
}

namespace {

/// Shared expansion loop; `pad` is the value written for out-of-image taps
/// (0.0f for float images, the activation zero point for u8 ones).
template <typename T>
void im2col_impl(const ConvGeometry& g, const T* image, T* col, T pad) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t hw = g.height * g.width;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const T* chan = image + c * hw;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        T* out_row = col + row * (oh * ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          T* out = out_row + y * ow;
          if (iy < 0 || iy >= g.height) {
            for (std::int64_t x = 0; x < ow; ++x) out[x] = pad;
            continue;
          }
          const T* in_row = chan + iy * g.width;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride + kw - g.pad;
            out[x] = (ix >= 0 && ix < g.width) ? in_row[ix] : pad;
          }
        }
      }
    }
  }
}

}  // namespace

void zero_border(std::int64_t channels, std::int64_t h, std::int64_t w,
                 std::int64_t pad, float* bordered) {
  const std::int64_t wb = w + 2 * pad;
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    float* plane = bordered + ch * (h + 2 * pad) * wb;
    // The top rows and the first row's left side; then each row's right
    // side with the next row's left; then the bottom rows.
    std::fill(plane, plane + pad * wb + pad, 0.0f);
    for (std::int64_t y = 0; y < h; ++y) {
      float* end = plane + (pad + y) * wb + pad + w;
      std::fill(end, end + 2 * pad, 0.0f);
    }
    std::fill(plane + (pad + h) * wb + pad, plane + (h + 2 * pad) * wb, 0.0f);
  }
}

void border_image(const ConvGeometry& g, const float* image, float* bordered) {
  const std::int64_t hb = g.height + 2 * g.pad;
  const std::int64_t wb = g.width + 2 * g.pad;
  zero_border(g.channels, g.height, g.width, g.pad, bordered);
  for (std::int64_t ch = 0; ch < g.channels; ++ch) {
    for (std::int64_t y = 0; y < g.height; ++y) {
      const float* src = image + (ch * g.height + y) * g.width;
      float* dst = bordered + (ch * hb + g.pad + y) * wb + g.pad;
      std::copy(src, src + g.width, dst);
    }
  }
}

void im2col(const ConvGeometry& g, const float* image, float* col) {
  im2col_impl(g, image, col, 0.0f);
}

void im2col_u8(const ConvGeometry& g, const std::uint8_t* image,
               std::uint8_t* col, std::uint8_t pad) {
  im2col_impl(g, image, col, pad);
}

}  // namespace wm
