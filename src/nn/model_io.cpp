#include "nn/model_io.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "tensor/serialize.hpp"

namespace wm::nn {

namespace {
constexpr char kMagic[4] = {'W', 'M', 'M', '1'};
constexpr std::uint32_t kMaxName = 4096;
}  // namespace

void save_parameters(std::ostream& out, const std::vector<Parameter*>& params) {
  out.write(kMagic, 4);
  const std::uint32_t count = static_cast<std::uint32_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Parameter* p : params) {
    WM_CHECK(p != nullptr, "null parameter");
    const std::uint32_t len = static_cast<std::uint32_t>(p->name.size());
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(p->name.data(), len);
    write_tensor(out, p->value);
  }
  if (!out) throw IoError("checkpoint write failed");
}

void load_parameters(std::istream& in, const std::vector<Parameter*>& params) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::string(magic, 4) != std::string(kMagic, 4)) {
    throw IoError("bad checkpoint magic");
  }
  std::uint32_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) throw IoError("truncated checkpoint header");
  if (count != params.size()) {
    throw IoError("checkpoint has " + std::to_string(count) +
                  " parameters, model expects " + std::to_string(params.size()));
  }
  for (Parameter* p : params) {
    std::uint32_t len = 0;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (!in || len > kMaxName) throw IoError("bad parameter name length");
    std::string name(len, '\0');
    in.read(name.data(), len);
    if (!in) throw IoError("truncated parameter name");
    if (name != p->name) {
      throw IoError("checkpoint parameter '" + name + "' does not match model '" +
                    p->name + "'");
    }
    Tensor t = read_tensor(in);
    if (t.shape() != p->value.shape()) {
      throw IoError("shape mismatch for '" + name + "': checkpoint " +
                    t.shape().to_string() + " vs model " +
                    p->value.shape().to_string());
    }
    p->value = std::move(t);
  }
}

}  // namespace wm::nn
