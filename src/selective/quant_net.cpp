#include "selective/quant_net.hpp"

#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "nn/layers/batchnorm2d.hpp"

namespace wm::selective {

QuantizedSelectiveNet::QuantizedSelectiveNet(
    const SelectiveNetOptions& opts, nn::quant::QuantConv2d conv1,
    nn::quant::QuantConv2d conv2, nn::quant::QuantConv2d conv3,
    nn::quant::QuantLinear fc, nn::quant::QuantLinear head_f,
    nn::quant::QuantLinear head_g)
    : opts_(opts), conv1_(std::move(conv1)), conv2_(std::move(conv2)),
      conv3_(std::move(conv3)), fc_(std::move(fc)),
      head_f_(std::move(head_f)), head_g_(std::move(head_g)) {
  WM_CHECK(opts_.map_size >= 8 && opts_.map_size % 8 == 0,
           "map size must be a positive multiple of 8 (three 2x2 pools), got ",
           opts_.map_size);
  const std::int64_t feat = static_cast<std::int64_t>(opts_.conv3_filters) *
                            (opts_.map_size / 8) * (opts_.map_size / 8);
  WM_CHECK_SHAPE(
      conv1_.options().in_channels == 1 &&
          conv1_.options().out_channels == opts_.conv1_filters &&
          conv2_.options().in_channels == opts_.conv1_filters &&
          conv2_.options().out_channels == opts_.conv2_filters &&
          conv3_.options().in_channels == opts_.conv2_filters &&
          conv3_.options().out_channels == opts_.conv3_filters &&
          fc_.in_features() == feat && fc_.out_features() == opts_.fc_units &&
          head_f_.in_features() == opts_.fc_units &&
          head_f_.out_features() == opts_.num_classes &&
          head_g_.in_features() == opts_.fc_units &&
          head_g_.out_features() == 1,
      "quantized layer shapes do not match the net options");
}

QuantizedSelectiveNet quantize_selective_net(SelectiveNet& net) {
  const SelectiveNetOptions& o = net.options();
  const auto params = net.parameters();
  const auto buffers = net.buffers();
  std::size_t pi = 0;
  std::size_t bi = 0;
  // Parameters come back in construction order (conv[, bn], conv[, bn],
  // conv[, bn], fc, head_f, head_g; weight before bias); the name checks
  // turn any future reordering into a loud failure instead of a silently
  // garbage model.
  const auto take = [&](const char* expect) -> const Tensor& {
    WM_CHECK(pi < params.size(), "selective net ran out of parameters");
    const nn::Parameter* p = params[pi++];
    WM_CHECK(p->name == expect, "unexpected parameter order: got ", p->name,
             ", expected ", expect);
    return p->value;
  };
  const auto take_buffer = [&]() -> const Tensor& {
    WM_CHECK(bi < buffers.size(), "selective net ran out of buffers");
    return *buffers[bi++];
  };
  const auto conv_block = [&](std::int64_t in_ch, std::int64_t out_ch,
                              std::int64_t kernel, std::int64_t pad) {
    Tensor w = take("conv.weight");
    Tensor b = take("conv.bias");
    if (o.use_batchnorm) {
      const Tensor& gamma = take("bn.gamma");
      const Tensor& beta = take("bn.beta");
      const Tensor& mean = take_buffer();
      const Tensor& var = take_buffer();
      std::tie(w, b) = nn::quant::fold_batchnorm(
          w, b, gamma, beta, mean, var, nn::BatchNorm2dOptions{}.eps);
    }
    return nn::quant::QuantConv2d(
        nn::Conv2dOptions{.in_channels = in_ch, .out_channels = out_ch,
                          .kernel = kernel, .stride = 1, .pad = pad},
        w, b, /*fuse_relu=*/true);
  };
  nn::quant::QuantConv2d conv1 = conv_block(1, o.conv1_filters, 5, 2);
  nn::quant::QuantConv2d conv2 =
      conv_block(o.conv1_filters, o.conv2_filters, 3, 1);
  nn::quant::QuantConv2d conv3 =
      conv_block(o.conv2_filters, o.conv3_filters, 3, 1);
  // take() advances a cursor, so each weight/bias pair must be pulled in
  // two sequenced statements, never inside one argument list.
  const Tensor& fc_w = take("linear.weight");
  const Tensor& fc_b = take("linear.bias");
  nn::quant::QuantLinear fc(fc_w, fc_b, /*fuse_relu=*/true);
  const Tensor& hf_w = take("linear.weight");
  const Tensor& hf_b = take("linear.bias");
  nn::quant::QuantLinear head_f(hf_w, hf_b, /*fuse_relu=*/false);
  const Tensor& hg_w = take("linear.weight");
  const Tensor& hg_b = take("linear.bias");
  nn::quant::QuantLinear head_g(hg_w, hg_b, /*fuse_relu=*/false);
  WM_CHECK(pi == params.size() && bi == buffers.size(),
           "selective net has parameters the quantizer does not understand");
  return QuantizedSelectiveNet(o, std::move(conv1), std::move(conv2),
                               std::move(conv3), std::move(fc),
                               std::move(head_f), std::move(head_g));
}

}  // namespace wm::selective
