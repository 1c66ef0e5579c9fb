#include "net/http.hpp"

#include <algorithm>
#include <cctype>

#include "metrics/json.hpp"

namespace hypercast::net {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

/// Tiny recursive-descent JSON reader covering exactly the schedule
/// request shape: one object of unsigned integers, strings, and flat
/// arrays of unsigned integers. Anything else is a ProtocolError.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of JSON");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_if(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') fail("escape sequences are not supported here");
      out.push_back(c);
    }
  }

  std::uint64_t uint(std::uint64_t max) {
    skip_ws();
    if (pos_ >= text_.size() || !std::isdigit(
            static_cast<unsigned char>(text_[pos_]))) {
      fail("expected a non-negative integer");
    }
    std::uint64_t v = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      v = v * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      if (v > max) fail("integer out of range");
      ++pos_;
    }
    return v;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ProtocolError("bad JSON request at byte " + std::to_string(pos_) +
                        ": " + what);
  }

  std::size_t pos() const { return pos_; }
  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string_view HttpRequest::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

bool looks_like_http(std::string_view prefix) {
  // The binary protocol's first four bytes are a length prefix, so an
  // ASCII method verb + space is unambiguous.
  for (const std::string_view method :
       {"GET ", "POST ", "HEAD ", "PUT ", "DELETE "}) {
    if (prefix.substr(0, method.size()) == method) return true;
  }
  return false;
}

std::size_t parse_http_request(std::string_view buffer, std::size_t max_bytes,
                               HttpRequest& out) {
  const std::size_t head_end = buffer.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (buffer.size() > max_bytes) {
      throw ProtocolError("HTTP request head exceeds " +
                          std::to_string(max_bytes) + " bytes");
    }
    return 0;
  }
  out = HttpRequest{};
  const std::string_view head = buffer.substr(0, head_end);

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t line_end = head.find("\r\n");
  const std::string_view line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.substr(sp2 + 1).rfind("HTTP/1.", 0) != 0) {
    throw ProtocolError("malformed HTTP request line");
  }
  out.method = std::string(line.substr(0, sp1));
  std::transform(out.method.begin(), out.method.end(), out.method.begin(),
                 [](unsigned char c) {
                   return static_cast<char>(std::toupper(c));
                 });
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  if (q != std::string_view::npos) {
    out.query = std::string(target.substr(q + 1));
    target = target.substr(0, q);
  }
  out.target = std::string(target);
  out.keep_alive = line.substr(sp2 + 1) != "HTTP/1.0";

  // Headers.
  std::size_t content_length = 0;
  std::size_t cursor = line_end == std::string_view::npos
                           ? head.size()
                           : line_end + 2;
  while (cursor < head.size()) {
    std::size_t next = head.find("\r\n", cursor);
    if (next == std::string_view::npos) next = head.size();
    const std::string_view header_line = head.substr(cursor, next - cursor);
    cursor = next + 2;
    const std::size_t colon = header_line.find(':');
    if (colon == std::string_view::npos) {
      throw ProtocolError("malformed HTTP header line");
    }
    std::string key = to_lower(trim(header_line.substr(0, colon)));
    std::string value(trim(header_line.substr(colon + 1)));
    if (key == "content-length") {
      try {
        content_length = std::stoul(value);
      } catch (const std::exception&) {
        throw ProtocolError("bad Content-Length");
      }
      if (content_length > max_bytes) {
        throw ProtocolError("HTTP body exceeds " + std::to_string(max_bytes) +
                            " bytes");
      }
    } else if (key == "connection") {
      const std::string lowered = to_lower(value);
      if (lowered == "close") out.keep_alive = false;
      if (lowered == "keep-alive") out.keep_alive = true;
    } else if (key == "transfer-encoding") {
      throw ProtocolError("chunked transfer encoding is not supported");
    }
    out.headers.emplace_back(std::move(key), std::move(value));
  }

  const std::size_t total = head_end + 4 + content_length;
  if (buffer.size() < total) return 0;
  out.body = std::string(buffer.substr(head_end + 4, content_length));
  return total;
}

std::string http_response(int status, std::string_view content_type,
                          std::string_view body, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    reason_phrase(status) + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

RequestMsg parse_schedule_json(std::string_view body) {
  JsonReader r(body);
  RequestMsg out;
  bool have_n = false;
  r.expect('{');
  if (!r.consume_if('}')) {
    do {
      const std::string key = r.string();
      r.expect(':');
      if (key == "id") {
        out.id = r.uint(~std::uint64_t{0});
      } else if (key == "n") {
        out.dim = static_cast<hcube::Dim>(r.uint(hcube::kMaxDim));
        have_n = true;
      } else if (key == "source") {
        out.source = static_cast<hcube::NodeId>(r.uint(0xffffffffull));
      } else if (key == "res") {
        const std::string res = r.string();
        if (res == "high") {
          out.resolution = hcube::Resolution::HighToLow;
        } else if (res == "low") {
          out.resolution = hcube::Resolution::LowToHigh;
        } else {
          r.fail("\"res\" must be \"high\" or \"low\"");
        }
      } else if (key == "dests") {
        r.expect('[');
        if (!r.consume_if(']')) {
          do {
            out.destinations.push_back(
                static_cast<hcube::NodeId>(r.uint(0xffffffffull)));
          } while (r.consume_if(','));
          r.expect(']');
        }
      } else {
        r.fail("unknown key \"" + key + "\"");
      }
    } while (r.consume_if(','));
    r.expect('}');
  }
  if (!r.at_end()) r.fail("trailing bytes after the request object");
  if (!have_n || out.dim < 1) r.fail("missing required key \"n\"");
  return out;
}

std::string schedule_to_json(const core::MulticastSchedule& schedule,
                             hcube::NodeId mask) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("source").value(static_cast<std::uint64_t>(schedule.source() ^ mask));
  w.key("sends").begin_array();
  schedule.for_each_sender(
      [&](hcube::NodeId from, core::SendList sends) {
        for (const core::Send& send : sends) {
          w.begin_object();
          w.key("from").value(static_cast<std::uint64_t>(from ^ mask));
          w.key("to").value(static_cast<std::uint64_t>(send.to ^ mask));
          w.key("payload").begin_array();
          for (const hcube::NodeId node : send.payload) {
            w.value(static_cast<std::uint64_t>(node ^ mask));
          }
          w.end_array();
          w.end_object();
        }
      },
      mask);
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace hypercast::net
