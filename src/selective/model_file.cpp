#include "selective/model_file.hpp"

#include <cstdint>
#include <fstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/model_io.hpp"
#include "tensor/serialize.hpp"

namespace wm::selective {

namespace {

constexpr char kMagicFloat[4] = {'W', 'S', 'N', '1'};
constexpr char kMagicQuant[4] = {'W', 'S', 'N', '2'};

void write_i32(std::ostream& out, std::int32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::int32_t read_i32(std::istream& in) {
  std::int32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw IoError("truncated model header");
  return v;
}

void read_bytes(std::istream& in, void* dst, std::size_t n,
                const std::string& path) {
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!in) throw IoError("truncated model file: " + path);
}

/// Reads and validates the 4-byte magic; returns the version byte.
/// Unknown versions fail here, once, for every loader.
char read_version(std::istream& in, const std::string& path) {
  char magic[4];
  in.read(magic, 4);
  if (!in || magic[0] != 'W' || magic[1] != 'S' || magic[2] != 'N') {
    throw IoError("bad model magic in " + path);
  }
  if (magic[3] != '1' && magic[3] != '2') {
    throw IoError("unsupported model file version 'WSN" +
                  std::string(1, magic[3]) + "' in " + path +
                  "; this build reads WSN1 (fp32) and WSN2 (quantized)");
  }
  return magic[3];
}

void write_options(std::ostream& out, const SelectiveNetOptions& o) {
  write_i32(out, o.map_size);
  write_i32(out, o.num_classes);
  write_i32(out, o.conv1_filters);
  write_i32(out, o.conv2_filters);
  write_i32(out, o.conv3_filters);
  write_i32(out, o.fc_units);
  write_i32(out, o.use_batchnorm ? 1 : 0);
}

SelectiveNetOptions read_options(std::istream& in) {
  SelectiveNetOptions o;
  o.map_size = read_i32(in);
  o.num_classes = read_i32(in);
  o.conv1_filters = read_i32(in);
  o.conv2_filters = read_i32(in);
  o.conv3_filters = read_i32(in);
  o.fc_units = read_i32(in);
  o.use_batchnorm = read_i32(in) != 0;
  return o;
}

/// Throws IoError unless the rest of a WSN1 file can hold every weight
/// matrix the options declare — checked before the net is built, since its
/// constructor allocates (and randomly initialises) all of them.
void require_weight_bytes(std::istream& in, const SelectiveNetOptions& o) {
  const std::int64_t f = sizeof(float);
  const std::int64_t side = o.map_size / 8;  // after three 2x2 pools
  for (const std::int64_t bytes :
       {checked_product({f, 25, o.conv1_filters}),
        checked_product({f, 9, o.conv1_filters, o.conv2_filters}),
        checked_product({f, 9, o.conv2_filters, o.conv3_filters}),
        checked_product({f, o.conv3_filters, side, side, o.fc_units}),
        checked_product({f, o.fc_units, o.num_classes})}) {
    require_bytes(in, bytes);
  }
}

/// One quantized layer record: rows, cols, relu flag, raw int8 weights,
/// raw float scales, then the float bias tensor. Row sums are derived data
/// and recomputed on load.
void write_quant_layer(std::ostream& out, const nn::quant::QuantizedWeights& qw,
                       const Tensor& bias, bool relu) {
  write_i32(out, static_cast<std::int32_t>(qw.rows));
  write_i32(out, static_cast<std::int32_t>(qw.cols));
  write_i32(out, relu ? 1 : 0);
  out.write(reinterpret_cast<const char*>(qw.q.data()),
            static_cast<std::streamsize>(qw.q.size()));
  out.write(reinterpret_cast<const char*>(qw.scales.data()),
            static_cast<std::streamsize>(qw.scales.size() * sizeof(float)));
  write_tensor(out, bias);
}

struct QuantLayerRecord {
  nn::quant::QuantizedWeights qw;
  Tensor bias{Shape{1}};
  bool relu = false;
};

QuantLayerRecord read_quant_layer(std::istream& in, const std::string& path) {
  QuantLayerRecord rec;
  rec.qw.rows = read_i32(in);
  rec.qw.cols = read_i32(in);
  rec.relu = read_i32(in) != 0;
  if (rec.qw.rows <= 0 || rec.qw.cols <= 0) {
    throw IoError("corrupt quantized layer header in " + path);
  }
  // Per row: cols int8 weights, then one float scale.
  require_bytes(in, checked_product({rec.qw.rows, rec.qw.cols + 4}));
  rec.qw.q.resize(static_cast<std::size_t>(rec.qw.rows * rec.qw.cols));
  rec.qw.scales.resize(static_cast<std::size_t>(rec.qw.rows));
  read_bytes(in, rec.qw.q.data(), rec.qw.q.size(), path);
  read_bytes(in, rec.qw.scales.data(), rec.qw.scales.size() * sizeof(float),
             path);
  rec.bias = read_tensor(in);
  return rec;
}

}  // namespace

void save_model(const std::string& path, SelectiveNet& net) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open model file for writing: " + path);
  out.write(kMagicFloat, 4);
  write_options(out, net.options());
  nn::save_parameters(out, net.parameters());
  const auto buffers = net.buffers();
  write_i32(out, static_cast<std::int32_t>(buffers.size()));
  for (const Tensor* b : buffers) write_tensor(out, *b);
  if (!out) throw IoError("model write failed: " + path);
}

std::unique_ptr<SelectiveNet> load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open model file for reading: " + path);
  if (read_version(in, path) != '1') {
    throw IoError(path + " is a quantized model (WSN2); load it with "
                  "load_quantized_model or wm::load_classifier");
  }
  const SelectiveNetOptions o = read_options(in);
  require_weight_bytes(in, o);
  // Weight init is immediately overwritten; any seed works.
  Rng rng(0);
  auto net = std::make_unique<SelectiveNet>(o, rng);
  nn::load_parameters(in, net->parameters());
  const std::int32_t buffer_count = read_i32(in);
  const auto buffers = net->buffers();
  if (buffer_count != static_cast<std::int32_t>(buffers.size())) {
    throw IoError("model buffer count mismatch in " + path);
  }
  for (Tensor* b : buffers) {
    Tensor t = read_tensor(in);
    if (t.shape() != b->shape()) throw IoError("buffer shape mismatch in " + path);
    *b = std::move(t);
  }
  return net;
}

void save_quantized_model(const std::string& path,
                          const QuantizedSelectiveNet& net) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open model file for writing: " + path);
  out.write(kMagicQuant, 4);
  write_options(out, net.options());
  for (const nn::quant::QuantConv2d* c :
       {&net.conv1(), &net.conv2(), &net.conv3()}) {
    write_quant_layer(out, c->weights(), c->bias(), c->fused_relu());
  }
  for (const nn::quant::QuantLinear* l :
       {&net.fc(), &net.head_f(), &net.head_g()}) {
    write_quant_layer(out, l->weights(), l->bias(), l->fused_relu());
  }
  if (!out) throw IoError("model write failed: " + path);
}

std::unique_ptr<QuantizedSelectiveNet> load_quantized_model(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open model file for reading: " + path);
  if (read_version(in, path) != '2') {
    throw IoError(path + " is an fp32 model (WSN1); load it with load_model, "
                  "or convert it with `wm_tool quantize`");
  }
  const SelectiveNetOptions o = read_options(in);
  const auto conv_opts = [&](std::int64_t in_ch, std::int64_t out_ch,
                             std::int64_t kernel, std::int64_t pad) {
    return nn::Conv2dOptions{.in_channels = in_ch, .out_channels = out_ch,
                             .kernel = kernel, .stride = 1, .pad = pad};
  };
  const auto read_conv = [&](const nn::Conv2dOptions& copts) {
    QuantLayerRecord rec = read_quant_layer(in, path);
    return nn::quant::QuantConv2d(copts, std::move(rec.qw),
                                  std::move(rec.bias), rec.relu);
  };
  const auto read_linear = [&]() {
    QuantLayerRecord rec = read_quant_layer(in, path);
    return nn::quant::QuantLinear(std::move(rec.qw), std::move(rec.bias),
                                  rec.relu);
  };
  nn::quant::QuantConv2d conv1 = read_conv(conv_opts(1, o.conv1_filters, 5, 2));
  nn::quant::QuantConv2d conv2 =
      read_conv(conv_opts(o.conv1_filters, o.conv2_filters, 3, 1));
  nn::quant::QuantConv2d conv3 =
      read_conv(conv_opts(o.conv2_filters, o.conv3_filters, 3, 1));
  nn::quant::QuantLinear fc = read_linear();
  nn::quant::QuantLinear head_f = read_linear();
  nn::quant::QuantLinear head_g = read_linear();
  // The QuantizedSelectiveNet constructor cross-checks every layer shape
  // against the options, so a corrupt-but-well-framed file still fails.
  return std::make_unique<QuantizedSelectiveNet>(
      o, std::move(conv1), std::move(conv2), std::move(conv3), std::move(fc),
      std::move(head_f), std::move(head_g));
}

ModelFileKind probe_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open model file for reading: " + path);
  return read_version(in, path) == '1' ? ModelFileKind::kFloat
                                       : ModelFileKind::kQuantized;
}

}  // namespace wm::selective
