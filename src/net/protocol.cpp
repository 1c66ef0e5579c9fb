#include "net/protocol.hpp"

#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

namespace hypercast::net {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffull));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// In-place little-endian store; returns the next write position.
char* store_u32(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
  return p + 4;
}

/// Bytes encode_schedule writes: source and sender count, an id and a
/// send count per sender, a target and a payload length per send, and
/// every payload id — all u32.
std::size_t schedule_bytes(const core::MulticastSchedule& schedule) {
  return 4 * (2 + 2 * schedule.num_senders() + 2 * schedule.num_unicasts() +
              schedule.num_payload_ids());
}

/// Store `ids`, each XORed with `mask`, at p as u32s; returns the end.
/// Its own function, so the cursor is a register, not the caller's
/// captured one.
char* store_ids(char* p, std::span<const hcube::NodeId> ids,
                hcube::NodeId mask) {
  for (const hcube::NodeId id : ids) p = store_u32(p, id ^ mask);
  return p;
}

/// Write encode_schedule's body at p (schedule_bytes of room), every
/// node id XORed with `mask`; returns the end of what it wrote. The
/// unmasked instantiation folds the mask away and copies payloads whole.
template <bool Masked>
char* write_body(const core::MulticastSchedule& schedule, hcube::NodeId mask,
                 char* p) {
  if constexpr (!Masked) mask = 0;
  p = store_u32(p, schedule.source() ^ mask);
  p = store_u32(p, static_cast<std::uint32_t>(schedule.num_senders()));
  schedule.for_each_sender(
      [&](hcube::NodeId from, core::SendList sends) {
        p = store_u32(p, from ^ mask);
        p = store_u32(p, static_cast<std::uint32_t>(sends.size()));
        for (const core::Send& send : sends) {
          p = store_u32(p, send.to ^ mask);
          p = store_u32(p, static_cast<std::uint32_t>(send.payload.size()));
          if constexpr (!Masked &&
                        std::endian::native == std::endian::little) {
            // NodeId is a u32, so the payload already is its wire bytes.
            const std::size_t bytes = send.payload.size_bytes();
            if (bytes != 0) std::memcpy(p, send.payload.data(), bytes);
            p += bytes;
          } else {
            p = store_ids(p, send.payload, mask);
          }
        }
      },
      mask);
  return p;
}

char* write_schedule(const core::MulticastSchedule& schedule,
                     hcube::NodeId mask, char* p) {
  return mask == 0 ? write_body<false>(schedule, 0, p)
                   : write_body<true>(schedule, mask, p);
}

/// Sequential reader over a frame body; every read checks bounds and
/// throws ProtocolError past the end.
class Reader {
 public:
  explicit Reader(std::string_view body) : body_(body) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(body_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    const auto* p = reinterpret_cast<const unsigned char*>(body_.data() + pos_);
    pos_ += 4;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  std::string_view bytes(std::size_t n) {
    need(n);
    const std::string_view out = body_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  std::string_view rest() {
    const std::string_view out = body_.substr(pos_);
    pos_ = body_.size();
    return out;
  }
  std::size_t remaining() const { return body_.size() - pos_; }
  void expect_end(const char* what) const {
    if (pos_ != body_.size()) {
      throw ProtocolError(std::string(what) + ": " +
                          std::to_string(body_.size() - pos_) +
                          " trailing byte(s)");
    }
  }

 private:
  void need(std::size_t n) const {
    if (body_.size() - pos_ < n) {
      throw ProtocolError("truncated message body");
    }
  }

  std::string_view body_;
  std::size_t pos_ = 0;
};

/// Patch the reserved length prefix once the body size is known.
class FrameWriter {
 public:
  explicit FrameWriter(std::string& out) : out_(out), header_at_(out.size()) {
    put_u32(out_, 0);
  }
  ~FrameWriter() {
    const std::size_t body = out_.size() - header_at_ - 4;
    const auto v = static_cast<std::uint32_t>(body);
    out_[header_at_ + 0] = static_cast<char>(v & 0xff);
    out_[header_at_ + 1] = static_cast<char>((v >> 8) & 0xff);
    out_[header_at_ + 2] = static_cast<char>((v >> 16) & 0xff);
    out_[header_at_ + 3] = static_cast<char>((v >> 24) & 0xff);
  }

 private:
  std::string& out_;
  std::size_t header_at_;
};

}  // namespace

const char* status_name(Status status) {
  switch (status) {
    case Status::Ok: return "ok";
    case Status::ShedQueueFull: return "shed-queue-full";
    case Status::ShedDeadline: return "shed-deadline";
    case Status::BadRequest: return "bad-request";
    case Status::ShuttingDown: return "shutting-down";
    case Status::InternalError: return "internal-error";
  }
  return "unknown";
}

core::MulticastRequest RequestMsg::to_request() const& {
  return core::MulticastRequest{hcube::Topology(dim, resolution), source,
                                destinations};
}

core::MulticastRequest RequestMsg::to_request() && {
  return core::MulticastRequest{hcube::Topology(dim, resolution), source,
                                std::move(destinations)};
}

std::size_t frame_size(std::string_view buffer, std::size_t max_body) {
  if (buffer.size() < 4) return 0;
  const auto* p = reinterpret_cast<const unsigned char*>(buffer.data());
  const std::uint32_t body = static_cast<std::uint32_t>(p[0]) |
                             (static_cast<std::uint32_t>(p[1]) << 8) |
                             (static_cast<std::uint32_t>(p[2]) << 16) |
                             (static_cast<std::uint32_t>(p[3]) << 24);
  if (body > max_body) {
    throw ProtocolError("frame body of " + std::to_string(body) +
                        " bytes exceeds the " + std::to_string(max_body) +
                        "-byte limit");
  }
  if (buffer.size() - 4 < body) return 0;
  return 4 + static_cast<std::size_t>(body);
}

void encode_request(const RequestMsg& msg, std::string& out) {
  FrameWriter frame(out);
  out.push_back(static_cast<char>(kScheduleRequest));
  put_u64(out, msg.id);
  out.push_back(static_cast<char>(msg.dim));
  out.push_back(static_cast<char>(msg.resolution));
  put_u32(out, msg.source);
  put_u32(out, static_cast<std::uint32_t>(msg.destinations.size()));
  for (const hcube::NodeId d : msg.destinations) put_u32(out, d);
}

void encode_schedule(const core::MulticastSchedule& schedule,
                     std::string& out, hcube::NodeId mask) {
  const std::size_t at = out.size();
  const std::size_t bytes = schedule_bytes(schedule);
  out.resize(at + bytes);
  [[maybe_unused]] const char* end =
      write_schedule(schedule, mask, out.data() + at);
  assert(end == out.data() + at + bytes);
}

void encode_ok_response(std::uint64_t id,
                        const core::MulticastSchedule& schedule,
                        std::string& out, hcube::NodeId mask) {
  // Sized up front and written in place: one resize per response.
  const std::size_t at = out.size();
  const std::size_t body = 1 + 8 + 1 + schedule_bytes(schedule);
  out.resize(at + 4 + body);
  char* p = store_u32(out.data() + at, static_cast<std::uint32_t>(body));
  *p++ = static_cast<char>(kScheduleResponse);
  p = store_u32(p, static_cast<std::uint32_t>(id & 0xffffffffull));
  p = store_u32(p, static_cast<std::uint32_t>(id >> 32));
  *p++ = static_cast<char>(Status::Ok);
  [[maybe_unused]] const char* end = write_schedule(schedule, mask, p);
  assert(end == out.data() + out.size());
}

void encode_error_response(std::uint64_t id, Status status,
                           std::string_view message, std::string& out) {
  FrameWriter frame(out);
  out.push_back(static_cast<char>(kScheduleResponse));
  put_u64(out, id);
  out.push_back(static_cast<char>(status));
  put_u32(out, static_cast<std::uint32_t>(message.size()));
  out.append(message);
}

RequestMsg decode_request(std::string_view body) {
  Reader r(body);
  const std::uint8_t type = r.u8();
  if (type != kScheduleRequest) {
    throw ProtocolError("unexpected message type " + std::to_string(type) +
                        " (want schedule request)");
  }
  RequestMsg out;
  out.id = r.u64();
  out.dim = static_cast<hcube::Dim>(r.u8());
  if (out.dim < 1 || out.dim > hcube::kMaxDim) {
    throw ProtocolError("cube dimension " + std::to_string(out.dim) +
                        " outside [1, " + std::to_string(hcube::kMaxDim) +
                        "]");
  }
  const std::uint8_t res = r.u8();
  if (res > 1) {
    throw ProtocolError("bad resolution byte " + std::to_string(res));
  }
  out.resolution = static_cast<hcube::Resolution>(res);
  out.source = r.u32();
  const std::uint32_t count = r.u32();
  if (static_cast<std::size_t>(count) * 4 != r.remaining()) {
    throw ProtocolError("destination count " + std::to_string(count) +
                        " disagrees with body length");
  }
  out.destinations.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.destinations.push_back(r.u32());
  }
  r.expect_end("schedule request");
  return out;
}

ResponseMsg decode_response(std::string_view body) {
  Reader r(body);
  const std::uint8_t type = r.u8();
  if (type != kScheduleResponse) {
    throw ProtocolError("unexpected message type " + std::to_string(type) +
                        " (want schedule response)");
  }
  ResponseMsg out;
  out.id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(Status::InternalError)) {
    throw ProtocolError("bad status byte " + std::to_string(status));
  }
  out.status = static_cast<Status>(status);
  if (out.status == Status::Ok) {
    out.schedule_body = r.rest();
  } else {
    const std::uint32_t len = r.u32();
    out.message = std::string(r.bytes(len));
    r.expect_end("schedule response");
  }
  return out;
}

}  // namespace hypercast::net
