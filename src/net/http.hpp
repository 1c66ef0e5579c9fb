#ifndef HYPERCAST_NET_HTTP_HPP
#define HYPERCAST_NET_HTTP_HPP

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/protocol.hpp"

namespace hypercast::net {

/// Minimal HTTP/1.1 support for the serving front end's fallback
/// endpoints (`POST /schedule` with a JSON body, `GET /metrics`
/// Prometheus exposition, `GET /stats`, `GET /healthz`). This is not a
/// general web server: exactly the subset the endpoints need — request
/// line + headers + Content-Length body, keep-alive by default, no
/// chunked transfer, no multipart.

struct HttpRequest {
  std::string method;  ///< "GET" / "POST" (uppercased by the parser)
  std::string target;  ///< path only; any "?query" is split off
  std::string query;   ///< bytes after '?', if any
  std::vector<std::pair<std::string, std::string>> headers;  ///< lowercased keys
  std::string body;
  bool keep_alive = true;

  /// Header lookup by lowercase name; empty string when absent.
  std::string_view header(std::string_view name) const;
};

/// True when the start of a connection's first bytes look like an HTTP
/// method rather than a binary frame. Needs at most 8 bytes; callable
/// on shorter prefixes (returns false until enough bytes arrive, which
/// is fine — binary frames also need 4 bytes before progress).
bool looks_like_http(std::string_view prefix);

/// Extract one complete HTTP request from the front of `buffer`.
/// Returns the bytes consumed when complete, 0 when more input is
/// needed. Throws ProtocolError on malformed input or when the head or
/// body exceeds `max_bytes`.
std::size_t parse_http_request(std::string_view buffer, std::size_t max_bytes,
                               HttpRequest& out);

/// Serialize a response with Content-Length framing.
std::string http_response(int status, std::string_view content_type,
                          std::string_view body, bool keep_alive);

/// Parse a JSON schedule request body:
///   {"id": 7, "n": 8, "source": 3, "dests": [1,2,3], "res": "high"}
/// "id" and "res" are optional (default 0 / "high"). Unknown keys are
/// rejected — a typo should fail loudly, not silently serve defaults.
/// Throws ProtocolError with a position diagnostic on bad JSON.
RequestMsg parse_schedule_json(std::string_view body);

/// JSON rendering of a schedule (the HTTP mirror of encode_schedule):
///   {"source": u, "sends": [{"from": u, "to": v, "payload": [...]},...]}
/// Sends appear grouped by sender in ascending node order, preserving
/// each sender's issue order — the same deterministic order as the
/// binary encoding. A nonzero `mask` renders the XOR translation, as
/// encode_schedule does.
std::string schedule_to_json(const core::MulticastSchedule& schedule,
                             hcube::NodeId mask = 0);

}  // namespace hypercast::net

#endif  // HYPERCAST_NET_HTTP_HPP
