#include "tensor/serialize.hpp"

#include <cstdint>
#include <fstream>

#include "common/error.hpp"

namespace wm {

namespace {
constexpr char kMagic[4] = {'W', 'M', 'T', '1'};
constexpr std::uint32_t kMaxRank = 8;
}  // namespace

void write_tensor(std::ostream& out, const Tensor& t) {
  out.write(kMagic, 4);
  const std::uint32_t rank = static_cast<std::uint32_t>(t.rank());
  out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  for (std::size_t i = 0; i < t.rank(); ++i) {
    const std::int64_t d = t.shape().dims()[i];
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!out) throw IoError("tensor write failed");
}

Tensor read_tensor(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::string(magic, 4) != std::string(kMagic, 4)) {
    throw IoError("bad tensor magic");
  }
  std::uint32_t rank = 0;
  in.read(reinterpret_cast<char*>(&rank), sizeof(rank));
  if (!in || rank > kMaxRank) throw IoError("bad tensor rank");
  std::vector<std::int64_t> dims(rank);
  std::int64_t bytes = sizeof(float);
  for (auto& d : dims) {
    in.read(reinterpret_cast<char*>(&d), sizeof(d));
    if (!in) throw IoError("bad tensor dim");
    bytes = checked_product({bytes, d});
  }
  require_bytes(in, bytes);
  Shape shape(dims);
  Tensor t(shape);
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!in) throw IoError("tensor payload truncated");
  return t;
}

std::int64_t checked_product(std::initializer_list<std::int64_t> factors) {
  std::int64_t product = 1;
  for (const std::int64_t f : factors) {
    if (f < 0 || __builtin_mul_overflow(product, f, &product)) {
      throw IoError("corrupt size: factor " + std::to_string(f) +
                    " is negative or overflows");
    }
  }
  return product;
}

void require_bytes(std::istream& in, std::int64_t bytes) {
  const std::istream::pos_type pos = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (!in || pos < 0 || end < pos) throw IoError("cannot size the input");
  if (end - pos < bytes) {
    throw IoError("truncated or corrupt data: needs " + std::to_string(bytes) +
                  " bytes, " + std::to_string(end - pos) + " remain");
  }
}

void save_tensor(const std::string& path, const Tensor& t) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open for writing: " + path);
  write_tensor(out, t);
}

Tensor load_tensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open for reading: " + path);
  return read_tensor(in);
}

}  // namespace wm
