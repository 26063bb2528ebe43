// The wm_net wire format: a versioned, length-prefixed binary protocol for
// remote selective inference.
//
// Every frame is a fixed 20-byte header followed by a type-specific body
// (all multi-byte integers little-endian; see DESIGN.md §11 for the
// byte-level table):
//
//   offset size field
//   0      4    magic  "WMWP" (0x57 0x4D 0x57 0x50, byte order as written)
//   4      1    version (kWireVersion = 2)
//   5      1    frame type: 1 = request, 2 = response
//   6      2    reserved, must be zero
//   8      8    request id (echoed verbatim in the response)
//   16     4    body length in bytes (hard-capped at kMaxBodyBytes)
//
// Request body:   u32 deadline_ms (0 = none, otherwise a relative budget the
//                 server starts counting at receipt), u64 trace_id, u64
//                 parent_span, u8 trace flags (bit 0 = sampled, the rest
//                 must be zero), u16 map_size, then the wafer grid packed
//                 2 bits per die (4 dies per byte, LSB-first, row-major;
//                 die values 0/1/2, 3 is invalid).
// Response body:  u8 status, u8 selected, i16 label, f32 g, f32 confidence
//                 (floats as raw IEEE-754 bits, so a round-trip prediction
//                 bit-matches the in-process result), then the server-side
//                 stage timing: u32 queue_us, u32 batch_us, u32 compute_us,
//                 u32 total_us (saturating microsecond durations; total is
//                 receipt -> response write and is valid for every status,
//                 the engine stages only for OK).
//
// v1 -> v2 (PR 8): the trace context was inserted into the request body and
// StageTiming appended to the response body. The version byte guards both
// directions — a v1 peer's frames fail try_parse_frame here with
// "unsupported version", and v1 parsers reject our frames the same way, so
// mixed-version fleets fail fast and cleanly instead of misparsing.
//
// Decoding is strict: wrong magic/version/type, a non-zero reserved field,
// an oversized length prefix, or a body whose size disagrees with its
// declared layout all fail deterministically (DecodeStatus::kBad or a
// WireError) — a malformed peer can never crash or hang the stream parser,
// and a truncated buffer is reported as kNeedMore, never misparsed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/trace_context.hpp"
#include "serve/classifier.hpp"
#include "wafermap/wafer_map.hpp"

namespace wm::net {

/// Thrown on malformed frame contents (never on short reads; those are
/// kNeedMore from try_parse_frame).
class WireError : public Error {
 public:
  explicit WireError(const std::string& what) : Error(what) {}
};

inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::uint8_t kMagic[4] = {0x57, 0x4D, 0x57, 0x50};  // WMWP
inline constexpr std::size_t kHeaderBytes = 20;
/// Body cap: a 512x512 wafer packs to 64 KiB, leave generous headroom while
/// still rejecting absurd length prefixes before allocating anything.
inline constexpr std::uint32_t kMaxBodyBytes = 1u << 20;
/// Largest wafer edge the protocol carries (WM-811K maps are < 300).
inline constexpr int kMaxWireMapSize = 512;

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
};

/// Response status codes. Values <= kInternal travel on the wire;
/// kConnectionError and kNoReplica are client-side only (transport failure
/// / no healthy routing target — no server response was involved).
enum class Status : std::uint8_t {
  kOk = 0,            // prediction fields are valid
  kTimeout = 1,       // the per-request deadline expired server-side
  kOverloaded = 2,    // shed: the engine queue was full
  kMalformed = 3,     // request body failed validation
  kShuttingDown = 4,  // server is draining; retry elsewhere/later
  kInternal = 5,      // classifier/engine failure
  kConnectionError = 6,
  kNoReplica = 7,     // router: every replica is ejected
};

const char* to_string(Status s);

/// Per-stage durations a server reports back with every response
/// (microseconds, saturating at ~71 minutes per stage). total_us covers
/// receipt -> response write for every status; the engine stages are zero
/// unless the request reached compute.
struct StageTiming {
  std::uint32_t queue_us = 0;    // engine queue wait
  std::uint32_t batch_us = 0;    // batcher forming the batch
  std::uint32_t compute_us = 0;  // predict_batch share
  std::uint32_t total_us = 0;    // server receipt -> response write
};

struct RequestFrame {
  std::uint64_t request_id = 0;
  std::uint32_t deadline_ms = 0;  // 0 = no deadline
  obs::TraceContext trace{};      // trace_id 0 = untraced request
  WaferMap map{3};  // smallest valid wafer; overwritten by the decoder
};

struct ResponseFrame {
  std::uint64_t request_id = 0;
  Status status = Status::kInternal;
  SelectivePrediction prediction{};
  StageTiming timing{};
};

/// 2-bit packing of the wafer grid: size*size dies, 4 per byte, LSB-first.
/// The packed size is ceil(size^2 / 4).
std::vector<std::uint8_t> pack_wafer(const WaferMap& map);

/// Inverse of pack_wafer. Throws WireError on a bad size, a byte-count
/// mismatch, or an invalid 2-bit die value (3).
WaferMap unpack_wafer(int size, const std::uint8_t* data, std::size_t len);

/// Serialises a complete frame (header + body).
std::vector<std::uint8_t> encode_request(const RequestFrame& req);
std::vector<std::uint8_t> encode_response(const ResponseFrame& resp);

/// Result of scanning a byte stream for one complete frame.
enum class DecodeStatus {
  kNeedMore,  // buffer holds a valid prefix; read more bytes
  kFrame,     // one frame parsed; `consumed` bytes can be discarded
  kBad,       // unrecoverable framing error; close the connection
};

struct ParsedFrame {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;  // valid when status == kFrame
  FrameType type = FrameType::kRequest;
  std::uint64_t request_id = 0;
  /// Body bytes (view into the caller's buffer; valid until the buffer
  /// changes). Empty for kNeedMore/kBad.
  const std::uint8_t* body = nullptr;
  std::size_t body_len = 0;
  std::string error;  // reason when status == kBad
};

/// Validates the header at the front of [data, data+len) and locates the
/// body. Never throws: framing problems come back as kBad with a reason.
ParsedFrame try_parse_frame(const std::uint8_t* data, std::size_t len);

/// Decodes a request/response body located by try_parse_frame. Throws
/// WireError on any layout or value violation.
RequestFrame decode_request_body(std::uint64_t request_id,
                                 const std::uint8_t* body,
                                 std::size_t body_len);
ResponseFrame decode_response_body(std::uint64_t request_id,
                                   const std::uint8_t* body,
                                   std::size_t body_len);

/// Extracts just the trace context from a request body, tolerating a body
/// that decode_request_body would reject (bad wafer bytes): the context
/// precedes the wafer, so even a MALFORMED response can carry the caller's
/// trace id and close its span. nullopt if the body is too short to hold
/// the fixed fields.
std::optional<obs::TraceContext> peek_request_trace(const std::uint8_t* body,
                                                    std::size_t body_len);

}  // namespace wm::net
