#ifndef HYPERCAST_NET_PROTOCOL_HPP
#define HYPERCAST_NET_PROTOCOL_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/multicast.hpp"

namespace hypercast::net {

/// The "hypercast-net-v1" wire protocol: length-prefixed binary frames
/// over TCP (the primary format; see docs/SERVING.md for the byte-level
/// spec) with an HTTP/1.1 + JSON fallback on the same port, detected
/// per connection from the first bytes.
///
/// Frame = u32 little-endian body length, then the body. Request and
/// response bodies both start with a one-byte message type and the
/// caller's u64 request id; everything multi-byte is little-endian.
/// Encoding is deterministic: the same schedule always serializes to
/// the same bytes (the loopback tests compare server responses against
/// locally encoded ServePipeline::serve output byte for byte).

/// Per-request outcome carried in every response.
enum class Status : std::uint8_t {
  Ok = 0,            ///< schedule follows
  ShedQueueFull = 1, ///< rejected at admission: server queue full
  ShedDeadline = 2,  ///< admitted but shed: deadline passed in queue
  BadRequest = 3,    ///< malformed request (message follows)
  ShuttingDown = 4,  ///< server draining, no new work accepted
  InternalError = 5, ///< serving threw (message follows)
};

const char* status_name(Status status);

inline constexpr std::uint8_t kScheduleRequest = 1;
inline constexpr std::uint8_t kScheduleResponse = 2;

/// Default cap on a frame body. A 20-cube broadcast request is ~4 MiB
/// of destinations and its schedule reply several times that, so the
/// ceiling is comfortably above any legal request while still bounding
/// a malicious length prefix.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

/// Thrown by every decoder on malformed input. The server maps it to a
/// BadRequest response (binary) or a 400 (HTTP) rather than dying.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A schedule request as it travels the wire: the MulticastRequest
/// fields plus the topology parameters and the caller's correlation id.
struct RequestMsg {
  std::uint64_t id = 0;
  hcube::Dim dim = 0;
  hcube::Resolution resolution = hcube::Resolution::HighToLow;
  hcube::NodeId source = 0;
  std::vector<hcube::NodeId> destinations;

  /// Materialize the core request (topology built from dim/resolution).
  /// Does not validate: the server validates centrally so that the
  /// error response is uniform. The rvalue overload moves the
  /// destinations out instead of copying them; the other fields stay.
  core::MulticastRequest to_request() const&;
  core::MulticastRequest to_request() &&;
};

/// Decoded response header; `message` carries the error text for
/// non-Ok statuses, `schedule_body` the raw schedule bytes for Ok (kept
/// raw so clients that only measure latency never pay a deep decode).
struct ResponseMsg {
  std::uint64_t id = 0;
  Status status = Status::Ok;
  std::string message;
  std::string_view schedule_body;  ///< view into the decoded body
};

// ---- framing -------------------------------------------------------------

/// Size (header + body) of the first frame in `buffer`, or 0 when more
/// bytes are needed. Throws ProtocolError when the declared body length
/// exceeds `max_body` — the caller should drop the connection, since
/// the stream cannot be resynchronized.
std::size_t frame_size(std::string_view buffer, std::size_t max_body);

// ---- encoding ------------------------------------------------------------

/// Append one framed schedule request.
void encode_request(const RequestMsg& msg, std::string& out);

/// Deterministic schedule serialization (no frame, no header): source,
/// then per sender in ascending node order its ordered sends with
/// payloads. Shared by the Ok response encoder and by tests comparing
/// server bytes against locally built schedules.
void encode_schedule(const core::MulticastSchedule& schedule,
                     std::string& out);

/// Append one framed Ok response carrying `schedule`.
void encode_ok_response(std::uint64_t id,
                        const core::MulticastSchedule& schedule,
                        std::string& out);

/// Append one framed non-Ok response with a diagnostic message.
void encode_error_response(std::uint64_t id, Status status,
                           std::string_view message, std::string& out);

// ---- decoding ------------------------------------------------------------

/// Decode a request frame body (the bytes after the length prefix).
RequestMsg decode_request(std::string_view body);

/// Decode a response frame body. The returned schedule_body view points
/// into `body` and shares its lifetime.
ResponseMsg decode_response(std::string_view body);

}  // namespace hypercast::net

#endif  // HYPERCAST_NET_PROTOCOL_HPP
