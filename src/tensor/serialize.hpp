// Binary tensor (de)serialization used for model checkpoints.
//
// Format: magic "WMT1", u32 rank, i64 dims[rank], f32 data[numel],
// little-endian throughout (the library targets little-endian hosts only).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>

#include "tensor/tensor.hpp"

namespace wm {

void write_tensor(std::ostream& out, const Tensor& t);
/// Throws wm::IoError on a malformed header or a payload larger than what
/// is left of `in`, before allocating anything.
Tensor read_tensor(std::istream& in);

/// The product of sizes read from a file; throws wm::IoError when a factor
/// is negative or the product overflows.
std::int64_t checked_product(std::initializer_list<std::int64_t> factors);

/// Throws wm::IoError unless at least `bytes` remain between the read
/// position of `in` and its end. Loaders call it before allocating a size
/// read from a file, so a hostile size fails instead of allocating.
void require_bytes(std::istream& in, std::int64_t bytes);

void save_tensor(const std::string& path, const Tensor& t);
Tensor load_tensor(const std::string& path);

}  // namespace wm
