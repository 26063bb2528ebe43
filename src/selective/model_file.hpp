// Self-describing model files: architecture options + parameters + buffers
// in one artifact, so a trained selective classifier can be shipped and
// reloaded without out-of-band configuration (used by the wm_tool CLI).
//
// The format is versioned by the last magic byte: "WSN1" is the fp32
// network (options + parameters + BatchNorm buffers), "WSN2" is the
// quantized network (options + per-layer int8 weights, scales and float
// biases). Loaders reject files whose version they do not understand with
// an error naming the version, so a newer tool's artifact fails loudly
// rather than being misparsed. Every size a file declares is checked
// against the bytes left in it before anything is allocated, so a hostile
// or corrupt file fails with wm::IoError. wm::load_classifier
// (load_classifier.hpp) loads either version behind one interface.
#pragma once

#include <memory>
#include <string>

#include "selective/quant_net.hpp"
#include "selective/selective_net.hpp"

namespace wm::selective {

/// Writes options, parameters and BatchNorm running statistics (WSN1).
void save_model(const std::string& path, SelectiveNet& net);

/// Reconstructs the network from a file written by save_model. Rejects
/// quantized (WSN2) and unknown-version files with a descriptive error.
std::unique_ptr<SelectiveNet> load_model(const std::string& path);

/// Writes the quantized network: options, then each layer's int8 weights,
/// per-channel scales and float bias (WSN2).
void save_quantized_model(const std::string& path,
                          const QuantizedSelectiveNet& net);

/// Reconstructs a quantized network from a file written by
/// save_quantized_model. Rejects fp32 (WSN1) and unknown-version files.
std::unique_ptr<QuantizedSelectiveNet> load_quantized_model(
    const std::string& path);

enum class ModelFileKind { kFloat, kQuantized };

/// Reads only the header and reports which loader the file needs. Throws on
/// unreadable files and unknown versions.
ModelFileKind probe_model_file(const std::string& path);

}  // namespace wm::selective
