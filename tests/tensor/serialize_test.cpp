#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace wm {
namespace {

TEST(SerializeTest, StreamRoundTrip) {
  Rng rng(9);
  const Tensor t = Tensor::normal(Shape{3, 4, 5}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  const Tensor back = read_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_FLOAT_EQ(max_abs_diff(back, t), 0.0f);
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "wm_ser_test.bin").string();
  Rng rng(10);
  const Tensor t = Tensor::uniform(Shape{7}, rng);
  save_tensor(path, t);
  const Tensor back = load_tensor(path);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_FLOAT_EQ(max_abs_diff(back, t), 0.0f);
  std::remove(path.c_str());
}

TEST(SerializeTest, MultipleTensorsInOneStream) {
  std::stringstream ss;
  const Tensor a(Shape{2}, {1, 2});
  const Tensor b(Shape{3}, {3, 4, 5});
  write_tensor(ss, a);
  write_tensor(ss, b);
  const Tensor ra = read_tensor(ss);
  const Tensor rb = read_tensor(ss);
  EXPECT_EQ(ra.shape(), a.shape());
  EXPECT_EQ(rb.shape(), b.shape());
  EXPECT_FLOAT_EQ(rb[2], 5.0f);
}

TEST(SerializeTest, BadMagicThrows) {
  std::stringstream ss;
  ss << "NOPE-and-more-bytes";
  EXPECT_THROW(read_tensor(ss), IoError);
}

TEST(SerializeTest, TruncatedPayloadThrows) {
  std::stringstream ss;
  const Tensor t(Shape{100});
  write_tensor(ss, t);
  std::string s = ss.str();
  s.resize(s.size() / 2);
  std::stringstream truncated(s);
  EXPECT_THROW(read_tensor(truncated), IoError);
}

TEST(SerializeTest, HugeDimsThrowBeforeAllocating) {
  // A payload larger than the rest of the stream, and one whose size
  // overflows, must both fail before the tensor is allocated.
  for (const std::int64_t big :
       {std::int64_t{1} << 40, std::int64_t{1} << 62}) {
    std::stringstream ss;
    ss << "WMT1";
    const std::uint32_t rank = 2;
    ss.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
    for (const std::int64_t d : {big, std::int64_t{4}}) {
      ss.write(reinterpret_cast<const char*>(&d), sizeof(d));
    }
    EXPECT_THROW(read_tensor(ss), IoError) << big;
  }
}

TEST(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_tensor("/nonexistent/wm_tensor.bin"), IoError);
}

TEST(SerializeTest, ZeroElementTensor) {
  std::stringstream ss;
  const Tensor t(Shape{0, 5});
  write_tensor(ss, t);
  const Tensor back = read_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(back.numel(), 0);
}

}  // namespace
}  // namespace wm
