#include "selective/selective_net.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/conv_stage.hpp"
#include "nn/layers/flatten.hpp"
#include "nn/layers/linear.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm::selective {

SelectiveNet::SelectiveNet(const SelectiveNetOptions& opts, Rng& rng)
    : opts_(opts) {
  WM_CHECK(opts.map_size >= 8 && opts.map_size % 8 == 0,
           "map size must be a positive multiple of 8 (three 2x2 pools), got ",
           opts.map_size);
  WM_CHECK(opts.num_classes >= 2, "need at least two classes");
  WM_CHECK(opts.conv1_filters > 0 && opts.conv2_filters > 0 &&
               opts.conv3_filters > 0 && opts.fc_units > 0,
           "bad layer sizes");

  const auto add_conv_block = [&](int in_ch, int out_ch, int kernel, int pad) {
    trunk_.add(nn::make_layer<nn::ConvStage>(
        nn::ConvStageOptions{.in_channels = in_ch, .out_channels = out_ch,
                             .kernel = kernel, .pad = pad,
                             .batchnorm = opts.use_batchnorm},
        rng));
  };
  add_conv_block(1, opts.conv1_filters, 5, 2);
  add_conv_block(opts.conv1_filters, opts.conv2_filters, 3, 1);
  add_conv_block(opts.conv2_filters, opts.conv3_filters, 3, 1);
  trunk_.add(nn::make_layer<nn::Flatten>());
  const std::int64_t feat = static_cast<std::int64_t>(opts.conv3_filters) *
                            (opts.map_size / 8) * (opts.map_size / 8);
  trunk_.add(nn::make_layer<nn::Linear>(feat, opts.fc_units, rng))
      .add(nn::make_layer<nn::ReLU>());

  head_f_.add(nn::make_layer<nn::Linear>(opts.fc_units, opts.num_classes, rng));
  head_g_.add(nn::make_layer<nn::Linear>(opts.fc_units, 1, rng))
      .add(nn::make_layer<nn::Sigmoid>());
}

SelectiveOutput SelectiveNet::forward(const Tensor& images, bool training) {
  WM_CHECK_SHAPE(images.rank() == 4 && images.dim(1) == 1 &&
                     images.dim(2) == opts_.map_size &&
                     images.dim(3) == opts_.map_size,
                 "SelectiveNet expects (N,1,", opts_.map_size, ",",
                 opts_.map_size, "), got ", images.shape().to_string());
  const Tensor features = trunk_.forward(images, training);
  SelectiveOutput out;
  out.logits = head_f_.forward(features, training);
  out.g = head_g_.forward(features, training);
  return out;
}

void SelectiveNet::backward(const Tensor& grad_logits, const Tensor& grad_g) {
  Tensor grad_features = head_f_.backward(grad_logits);
  grad_features.add_(head_g_.backward(grad_g));
  // The trunk's input is the image batch: its gradient is never used.
  trunk_.backward_params(grad_features);
}

void SelectiveNet::zero_grad() {
  trunk_.zero_grad();
  head_f_.zero_grad();
  head_g_.zero_grad();
}

void SelectiveNet::release_caches() {
  trunk_.release_caches();
  head_f_.release_caches();
  head_g_.release_caches();
}

std::vector<nn::Parameter*> SelectiveNet::parameters() {
  return nn::collect_parameters({&trunk_, &head_f_, &head_g_});
}

std::vector<Tensor*> SelectiveNet::buffers() {
  std::vector<Tensor*> out = trunk_.buffers();
  for (Tensor* b : head_f_.buffers()) out.push_back(b);
  for (Tensor* b : head_g_.buffers()) out.push_back(b);
  return out;
}

std::unique_ptr<SelectiveNet> SelectiveNet::clone() const {
  // The fresh net's random init is immediately overwritten, so any seed
  // works; Tensor assignment is a deep value copy.
  Rng scratch(0);
  auto copy = std::make_unique<SelectiveNet>(opts_, scratch);
  // parameters()/buffers() lack const qualifiers only because training
  // mutates through them; enumeration itself touches nothing.
  SelectiveNet& self = const_cast<SelectiveNet&>(*this);
  const std::vector<nn::Parameter*> src = self.parameters();
  const std::vector<nn::Parameter*> dst = copy->parameters();
  WM_ASSERT(src.size() == dst.size(), "clone parameter count mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i]->value = src[i]->value;
  }
  const std::vector<Tensor*> src_buf = self.buffers();
  const std::vector<Tensor*> dst_buf = copy->buffers();
  WM_ASSERT(src_buf.size() == dst_buf.size(), "clone buffer count mismatch");
  for (std::size_t i = 0; i < src_buf.size(); ++i) {
    *dst_buf[i] = *src_buf[i];
  }
  return copy;
}

std::int64_t SelectiveNet::parameter_count() {
  return nn::parameter_count(parameters());
}

}  // namespace wm::selective
