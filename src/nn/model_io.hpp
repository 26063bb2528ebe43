// Parameter streams: saves/loads an ordered parameter list with names.
// The WSN1 model file (selective/model_file.hpp) embeds one such stream.
//
// Format: magic "WMM1", u32 count, then per parameter a u32 name length,
// the name bytes and the tensor (see tensor/serialize.hpp).
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/module.hpp"

namespace wm::nn {

void save_parameters(std::ostream& out, const std::vector<Parameter*>& params);

/// Loads into the given parameters; names and shapes must match in order.
void load_parameters(std::istream& in, const std::vector<Parameter*>& params);

}  // namespace wm::nn
