#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "metrics/json.hpp"
#include "net/http.hpp"
#include "obs/registry.hpp"

namespace hypercast::net {

namespace {

/// stop() flushes admitted work for at most this long before
/// force-closing (a drain, not an accept timeout).
constexpr int kDrainTimeoutMs = 5000;

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

int http_status_for(Status status) {
  switch (status) {
    case Status::Ok: return 200;
    case Status::ShedQueueFull:
    case Status::ShedDeadline: return 429;
    case Status::BadRequest: return 400;
    case Status::ShuttingDown: return 503;
    case Status::InternalError: return 500;
  }
  return 500;
}

std::string http_error_body(Status status, std::string_view message) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("status").value(status_name(status));
  if (!message.empty()) w.key("error").value(message);
  w.end_object();
  return std::move(w).str();
}

/// One admitted request, decoded and waiting in its connection's
/// backlog.
struct Admitted {
  RequestMsg msg;
  std::uint64_t read_ns = 0;  ///< start of the loop turn that read it
  bool http_keep_alive = true;
};

}  // namespace

/// Instrument handles resolved once against the default registry; the
/// server's counters also back the /metrics endpoint, so they bump
/// unconditionally (the network path dwarfs a striped relaxed add) —
/// only latency/batch histograms stay behind the stats flag.
struct Server::Metrics {
  obs::Counter* accepted;
  obs::Counter* closed;
  obs::Counter* requests;       ///< admitted into a loop backlog
  obs::Counter* responses;      ///< Ok responses serialized
  obs::Counter* shed_queue_full;
  obs::Counter* shed_deadline;
  obs::Counter* bad_requests;
  obs::Counter* http_requests;  ///< HTTP requests of any kind
  obs::Counter* wakes;          ///< wake-fd signals: stop and accept
  obs::Counter* writes;         ///< send() calls on the response path
  obs::Counter* loop_turns;     ///< event-loop iterations
  obs::Histogram* request_ns;   ///< read turn -> response serialized
  obs::Histogram* queue_wait_ns;  ///< read turn -> serve start
  obs::Histogram* batch_size;
  obs::Histogram* decode_ns;  ///< decode_request, sampled
  obs::Histogram* encode_ns;  ///< Ok response serialization, sampled
  obs::Histogram* write_ns;   ///< flush send(), sampled
  obs::Histogram* turn_ns;    ///< poll() return -> last flush

  /// The stage histograms time one request in kSampleMask + 1, as the
  /// serve pipeline's stage timer does, so most requests read no clock.
  static constexpr unsigned kSampleMask = 15;

  static bool sampled(unsigned& tick) {
    return obs::stats_enabled() && (tick++ & kSampleMask) == 0;
  }

  static const Metrics& get() {
    static const Metrics m = [] {
      obs::Registry& r = obs::default_registry();
      return Metrics{&r.counter("net.accepted"),
                     &r.counter("net.closed"),
                     &r.counter("net.requests"),
                     &r.counter("net.responses"),
                     &r.counter("net.shed_queue_full"),
                     &r.counter("net.shed_deadline"),
                     &r.counter("net.bad_requests"),
                     &r.counter("net.http_requests"),
                     &r.counter("net.wakes"),
                     &r.counter("net.writes"),
                     &r.counter("net.loop_turns"),
                     &r.histogram("net.request_ns"),
                     &r.histogram("net.queue_wait_ns"),
                     &r.histogram("net.batch_size"),
                     &r.histogram("net.decode_ns"),
                     &r.histogram("net.encode_ns"),
                     &r.histogram("net.write_ns"),
                     &r.histogram("net.turn_ns")};
    }();
    return m;
  }
};

/// Per-connection state, owned by one loop.
struct Server::Conn {
  explicit Conn(int socket) : fd(socket) {}

  int fd;
  std::string in;          ///< received bytes not yet decoded
  std::string out;         ///< unsent response bytes
  std::size_t out_off = 0;
  /// Admitted requests; refilled only once all are served, so the
  /// served prefix is tracked by `pending_head` instead of erased.
  std::vector<Admitted> pending;
  std::size_t pending_head = 0;
  bool decided = false;    ///< protocol sniffed?
  bool http = false;
  bool close_after_flush = false;
  bool dirty = false;   ///< queued for this turn's flush
  bool closed = false;  ///< fd closed; freed at the end of the turn

  bool wants_write() const { return out.size() > out_off; }
  bool has_pending() const { return pending_head < pending.size(); }
};

/// One event loop: a thread that owns its connections and runs each
/// request they carry from read to flush.
struct Server::Loop {
  Loop(Server& owner, std::size_t loop_index)
      : server(owner),
        config(owner.config_),
        m(*owner.metrics_),
        index(loop_index) {}

  void run();
  /// Async-signal-safe: one eventfd write().
  void wake() const {
    const std::uint64_t one = 1;
    if (wake_fd >= 0) {
      [[maybe_unused]] const auto n = ::write(wake_fd, &one, sizeof(one));
    }
  }
  void hand_over(int fd) {
    {
      std::lock_guard<std::mutex> lock(handoff_mu);
      handoff.push_back(fd);
    }
    wake();
  }

  Server& server;
  const ServerConfig& config;
  const Metrics& m;
  const std::size_t index;
  int wake_fd = -1;
  std::atomic<std::size_t> backlog_gauge{0};  ///< backlog_, published

  std::mutex handoff_mu;
  std::vector<int> handoff;  ///< fds accepted for this loop by loop 0

 private:
  bool acceptor() const { return index == 0; }
  void take_handoff();
  void accept_ready();
  void read_conn(Conn& conn);
  void parse_input(Conn& conn);
  void parse_binary(Conn& conn);
  void parse_http(Conn& conn);
  void handle_http_request(Conn& conn, const HttpRequest& request);
  void admit(Conn& conn, RequestMsg msg, bool keep_alive);
  void respond_error(Conn& conn, std::uint64_t id, bool keep_alive,
                     Status status, std::string_view message);
  void serve_ready();
  void flush(Conn& conn);
  void mark_dirty(Conn& conn) {
    if (!conn.dirty) {
      conn.dirty = true;
      dirty_.push_back(&conn);
    }
  }
  void close_conn(Conn& conn);

  /// One request of this turn's batch.
  struct Slot {
    Conn* conn;
    Admitted request;
  };

  std::vector<std::unique_ptr<Conn>> conns_;
  bool draining_ = false;
  bool reap_ = false;          ///< a connection closed this turn
  std::size_t backlog_ = 0;    ///< admitted, not yet served
  std::size_t next_loop_ = 0;  ///< round-robin cursor (loop 0)
  std::uint64_t turn_ns_ = 0;  ///< this turn's start (0 = not timed)
  unsigned decode_tick_ = 0;
  unsigned encode_tick_ = 0;
  unsigned write_tick_ = 0;

  /// Scratch, reused every turn instead of reallocated.
  std::vector<pollfd> pollfds_;
  std::vector<Conn*> polled_;
  std::vector<Conn*> ready_;  ///< connections holding unserved requests
  std::vector<Conn*> dirty_;
  std::vector<Slot> batch_;
  std::vector<core::MulticastRequest> requests_;
  std::vector<std::size_t> live_;
  std::vector<std::uint64_t> deadlines_;

 public:
  std::thread thread;  ///< last: runs over every member above
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.batch_max == 0) config_.batch_max = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
}

Server::~Server() {
  stop();
}

std::size_t Server::outstanding() const {
  std::size_t total = 0;
  for (const auto& loop : loops_) {
    total += loop->backlog_gauge.load(std::memory_order_relaxed);
  }
  return total;
}

void Server::close_fds() {
  for (const auto& loop : loops_) {
    for (const int fd : loop->handoff) ::close(fd);  // never adopted
    loop->handoff.clear();
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    loop->wake_fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::start() {
  if (started_) throw std::logic_error("Server::start: already running");

  // Build the serving stack first: an unknown algorithm should fail
  // here, before any socket exists. Nothing registers with the metrics
  // registry until every throwing step has succeeded, so a failed
  // start() never leaves a gauge callback pointing at a dead server.
  if (!config_.cache) {
    throw std::invalid_argument(
        "ServerConfig::cache is always on: every server caches");
  }
  coll::ScheduleCache::Config cc;
  cc.shards = config_.cache_shards;
  if (config_.cache_bytes != 0) cc.max_bytes = config_.cache_bytes;
  cache_ = std::make_shared<coll::ScheduleCache>(cc);
  pipeline_ = std::make_unique<coll::ServePipeline>(config_.algorithm, cache_);
  metrics_ = &Metrics::get();

  // A serving process wants its own latency percentiles on /metrics
  // without a separate flag, so stats collection rides with the server.
  obs::set_stats_enabled(true);

  loops_.clear();
  try {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      throw std::invalid_argument("bad bind address '" +
                                  config_.bind_address + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd_, 128) < 0) {
      throw_errno("bind/listen");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
        0) {
      throw_errno("getsockname");
    }
    bound_port_ = ntohs(addr.sin_port);

    for (int i = 0; i < config_.workers; ++i) {
      loops_.push_back(
          std::make_unique<Loop>(*this, static_cast<std::size_t>(i)));
      loops_.back()->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loops_.back()->wake_fd < 0) throw_errno("eventfd");
    }
  } catch (...) {
    close_fds();
    loops_.clear();
    throw;
  }

  // Past this point nothing throws: registrations and threads are safe.
  cache_->attach_to_registry(obs::default_registry(), "cache");
  obs::default_registry().register_gauge_source("net", [this] {
    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("connections",
                     static_cast<double>(connections_.load()));
    out.emplace_back("backlog", static_cast<double>(outstanding()));
    out.emplace_back("queue_capacity",
                     static_cast<double>(config_.queue_capacity));
    return out;
  });

  stop_requested_ = false;
  accept_blocked_ = false;
  connections_ = 0;
  started_ = true;
  for (const auto& loop : loops_) {
    loop->thread = std::thread([&loop = *loop] { loop.run(); });
  }
}

void Server::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  for (const auto& loop : loops_) loop->wake();
}

void Server::stop() {
  if (!started_) return;
  request_stop();
  for (const auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  obs::default_registry().unregister_gauge_source("net");
  cache_->detach_from_registry();
  close_fds();  // the loops stay, so outstanding() reads their last backlog
  started_ = false;
}

// ---- event loop ----------------------------------------------------------

void Server::Loop::run() {
  using clock = std::chrono::steady_clock;
  clock::time_point drain_deadline{};
  const bool timed = config.deadline_ms != 0;

  while (true) {
    if (!draining_ && server.stop_requested_.load(std::memory_order_acquire)) {
      // Enter the drain: no new connections, no new reads; everything
      // already admitted is still served and flushed.
      draining_ = true;
      drain_deadline = clock::now() +
                       std::chrono::milliseconds(kDrainTimeoutMs);
      if (acceptor() && server.listen_fd_ >= 0) {
        ::close(server.listen_fd_);
        server.listen_fd_ = -1;
      }
    }
    if (draining_) {
      const bool flushed =
          std::none_of(conns_.begin(), conns_.end(),
                       [](const auto& conn) { return conn->wants_write(); });
      if ((backlog_ == 0 && flushed) || clock::now() >= drain_deadline) break;
    }

    // Build the poll set for this turn. Backpressure: a connection is
    // read only once everything it sent before is served and flushed.
    m.loop_turns->inc();
    pollfds_.clear();
    polled_.clear();
    pollfds_.push_back({wake_fd, POLLIN, 0});
    const bool listening = acceptor() && !draining_ &&
                           server.listen_fd_ >= 0 &&
                           !server.accept_blocked_.load();
    if (listening) pollfds_.push_back({server.listen_fd_, POLLIN, 0});
    const std::size_t conns_at = pollfds_.size();
    for (const auto& conn : conns_) {
      short events = 0;
      if (conn->wants_write()) {
        events = POLLOUT;
      } else if (!draining_ && !conn->has_pending() &&
                 !conn->close_after_flush) {
        events = POLLIN;
      }
      if (events == 0) continue;
      pollfds_.push_back({conn->fd, events, 0});
      polled_.push_back(conn.get());
    }

    // Unserved requests make the poll non-blocking: they are served this
    // turn, alongside whatever else is ready.
    const int rc =
        ::poll(pollfds_.data(), pollfds_.size(), ready_.empty() ? 50 : 0);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 && ready_.empty()) continue;

    turn_ns_ = obs::stats_enabled() || timed ? obs::now_ns() : 0;
    if (rc > 0) {
      if (pollfds_[0].revents != 0) take_handoff();
      if (listening && pollfds_[1].revents != 0) accept_ready();
      for (std::size_t i = conns_at; i < pollfds_.size(); ++i) {
        Conn& conn = *polled_[i - conns_at];
        const short revents = pollfds_[i].revents;
        if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
          // POLLHUP with readable data still pending is handled by the
          // read path returning 0/error; just close.
          close_conn(conn);
          continue;
        }
        if (revents & POLLIN) read_conn(conn);
        if ((revents & POLLOUT) && !conn.closed) mark_dirty(conn);
      }
    }

    serve_ready();
    // One send() per touched connection per turn, however many
    // responses it carries. A flush may close the connection.
    for (Conn* conn : dirty_) {
      conn->dirty = false;
      if (!conn->closed) flush(*conn);
    }
    dirty_.clear();
    if (turn_ns_ != 0 && obs::stats_enabled()) {
      m.turn_ns->record(obs::now_ns() - turn_ns_);
    }
    backlog_gauge.store(backlog_, std::memory_order_relaxed);

    if (reap_) {
      reap_ = false;
      std::erase_if(ready_, [](const Conn* conn) { return conn->closed; });
      std::erase_if(conns_, [](const auto& conn) { return conn->closed; });
    }
  }

  // Drain complete (or timed out): close everything still open.
  for (const auto& conn : conns_) {
    if (!conn->closed) close_conn(*conn);
  }
  conns_.clear();
  ready_.clear();
  backlog_gauge.store(backlog_, std::memory_order_relaxed);
}

void Server::Loop::take_handoff() {
  std::uint64_t signals = 0;
  if (::read(wake_fd, &signals, sizeof(signals)) ==
      static_cast<ssize_t>(sizeof(signals))) {
    m.wakes->add(signals);
  }
  std::lock_guard<std::mutex> lock(handoff_mu);
  for (const int fd : handoff) conns_.push_back(std::make_unique<Conn>(fd));
  handoff.clear();
}

void Server::Loop::accept_ready() {
  // Loop 0 owns the listener and deals accepted connections round-robin
  // over every loop. When it stops polling the listener it raises
  // accept_blocked_ first and then tries once more, so a close racing
  // the decision either shows up in the retry or sees the flag and
  // wakes this loop.
  bool raised = false;
  const auto block = [&] {
    raised = true;
    server.accept_blocked_.store(true);
  };
  while (true) {
    if (server.connections_.load() >= config.max_connections) {
      if (raised) return;
      block();
      continue;
    }
    const int fd = ::accept4(server.listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Out of fds or buffers: the waiting connection keeps the
      // listener readable, so polling it would spin. Stop until a
      // connection closes.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        if (raised) return;
        block();
        continue;
      }
      break;  // EAGAIN: the accept queue is empty
    }
    const int one = 1;
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
      ::close(fd);  // not a usable TCP socket; drop it, keep serving
      continue;
    }
    if (raised) {
      raised = false;
      server.accept_blocked_.store(false);
    }
    server.connections_.fetch_add(1);
    m.accepted->inc();
    Loop& owner = *server.loops_[next_loop_++ % server.loops_.size()];
    if (&owner == this) {
      conns_.push_back(std::make_unique<Conn>(fd));
    } else {
      owner.hand_over(fd);
    }
  }
  if (raised) server.accept_blocked_.store(false);
}

void Server::Loop::close_conn(Conn& conn) {
  ::close(conn.fd);
  conn.closed = true;
  backlog_ -= conn.pending.size() - conn.pending_head;  // client went away
  conn.pending.clear();
  conn.pending_head = 0;
  reap_ = true;
  m.closed->inc();
  server.connections_.fetch_sub(1);
  if (server.accept_blocked_.exchange(false) && !acceptor()) {
    server.loops_.front()->wake();
  }
}

void Server::Loop::read_conn(Conn& conn) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      break;
    }
    // Peer closed its write side, or the socket failed.
    close_conn(conn);
    return;
  }
  parse_input(conn);
}

void Server::Loop::parse_input(Conn& conn) {
  if (draining_) return;
  if (!conn.decided) {
    if (looks_like_http(conn.in)) {
      conn.decided = true;
      conn.http = true;
    } else if (conn.in.size() >= 8) {
      conn.decided = true;
      conn.http = false;
    } else {
      return;  // need more bytes to sniff
    }
  }
  if (conn.http) {
    parse_http(conn);
  } else {
    parse_binary(conn);
  }
}

void Server::Loop::parse_binary(Conn& conn) {
  // Decode every complete frame of this read into the connection's
  // backlog; frames past the loop's backlog bound are shed at once.
  std::size_t consumed = 0;
  while (!conn.close_after_flush) {
    const std::string_view rest = std::string_view(conn.in).substr(consumed);
    std::size_t size = 0;
    try {
      size = frame_size(rest, kMaxFrameBytes);
    } catch (const ProtocolError& e) {
      // An over-limit length prefix cannot be resynchronized; answer
      // and hang up.
      respond_error(conn, 0, true, Status::BadRequest, e.what());
      conn.close_after_flush = true;
      m.bad_requests->inc();
      break;
    }
    if (size == 0) break;
    const std::string_view body = rest.substr(4, size - 4);
    consumed += size;

    RequestMsg msg;
    const std::uint64_t t0 =
        Metrics::sampled(decode_tick_) ? obs::now_ns() : 0;
    try {
      msg = decode_request(body);
      if (t0 != 0) m.decode_ns->record(obs::now_ns() - t0);
    } catch (const ProtocolError& e) {
      // The frame boundary held, so the stream stays usable; only this
      // request fails.
      respond_error(conn, 0, true, Status::BadRequest, e.what());
      m.bad_requests->inc();
      continue;
    }
    admit(conn, std::move(msg), true);
  }
  conn.in.erase(0, consumed);
}

void Server::Loop::admit(Conn& conn, RequestMsg msg, bool keep_alive) {
  if (backlog_ >= config.queue_capacity) {
    m.shed_queue_full->inc();
    respond_error(conn, msg.id, keep_alive, Status::ShedQueueFull,
                  "server backlog full");
    return;
  }
  if (!conn.has_pending()) ready_.push_back(&conn);
  conn.pending.push_back(Admitted{std::move(msg), turn_ns_, keep_alive});
  ++backlog_;
  m.requests->inc();
}

void Server::Loop::respond_error(Conn& conn, std::uint64_t id,
                                 bool keep_alive, Status status,
                                 std::string_view message) {
  if (conn.http) {
    conn.out += http_response(http_status_for(status), "application/json",
                              http_error_body(status, message), keep_alive);
    if (!keep_alive) conn.close_after_flush = true;
  } else {
    encode_error_response(id, status, message, conn.out);
  }
  mark_dirty(conn);
}

void Server::Loop::handle_http_request(Conn& conn,
                                       const HttpRequest& request) {
  m.http_requests->inc();
  const auto respond = [&](int status, std::string_view type,
                           std::string_view body) {
    conn.out += http_response(status, type, body, request.keep_alive);
    if (!request.keep_alive) conn.close_after_flush = true;
    mark_dirty(conn);
  };

  if (request.method == "GET") {
    if (request.target == "/metrics") {
      respond(200, "text/plain; version=0.0.4",
              obs::default_registry().to_prometheus());
      return;
    }
    if (request.target == "/stats") {
      respond(200, "application/json",
              obs::default_registry().to_json());
      return;
    }
    if (request.target == "/healthz") {
      respond(200, "text/plain", draining_ ? "draining\n" : "ok\n");
      return;
    }
    respond(404, "application/json",
            http_error_body(Status::BadRequest, "unknown path"));
    return;
  }
  if (request.method != "POST" || request.target != "/schedule") {
    respond(request.method == "POST" ? 404 : 405, "application/json",
            http_error_body(Status::BadRequest,
                            "use POST /schedule, GET /metrics, GET /stats "
                            "or GET /healthz"));
    return;
  }

  RequestMsg msg;
  try {
    msg = parse_schedule_json(request.body);
  } catch (const ProtocolError& e) {
    respond(400, "application/json",
            http_error_body(Status::BadRequest, e.what()));
    m.bad_requests->inc();
    return;
  }
  admit(conn, std::move(msg), request.keep_alive);
}

void Server::Loop::parse_http(Conn& conn) {
  // One admitted schedule request at a time per HTTP connection keeps
  // keep-alive responses in request order: parsing stops behind it and
  // resumes once it is answered. Diagnostics endpoints are answered
  // inline and don't count.
  while (!conn.has_pending() && !conn.close_after_flush) {
    HttpRequest request;
    std::size_t consumed = 0;
    try {
      consumed = parse_http_request(conn.in, kMaxFrameBytes,
                                    request);
    } catch (const ProtocolError& e) {
      respond_error(conn, 0, false, Status::BadRequest, e.what());
      m.bad_requests->inc();
      return;
    }
    if (consumed == 0) return;
    conn.in.erase(0, consumed);
    handle_http_request(conn, request);
  }
}

void Server::Loop::serve_ready() {
  // This turn's batch: up to batch_max requests from every connection
  // holding any, in one serve_views call.
  batch_.clear();
  for (Conn* conn : ready_) {
    if (conn->closed) continue;
    const std::size_t take =
        std::min(config.batch_max, conn->pending.size() - conn->pending_head);
    for (std::size_t k = 0; k < take; ++k) {
      batch_.push_back(
          Slot{conn, std::move(conn->pending[conn->pending_head++])});
    }
    if (!conn->has_pending()) {
      conn->pending.clear();
      conn->pending_head = 0;
    }
  }
  std::erase_if(ready_, [](const Conn* conn) {
    return conn->closed || !conn->has_pending();
  });
  if (batch_.empty()) return;

  const bool stats = obs::stats_enabled();
  if (stats) {
    m.batch_size->record(batch_.size());
    const std::uint64_t start = obs::now_ns();
    for (const Slot& slot : batch_) {
      if (slot.request.read_ns != 0) {
        m.queue_wait_ns->record(start - slot.request.read_ns);
      }
    }
  }

  const auto respond_ok = [&](const Slot& slot,
                              const coll::ServePipeline::View& view) {
    Conn& conn = *slot.conn;
    const std::uint64_t t0 =
        Metrics::sampled(encode_tick_) ? obs::now_ns() : 0;
    if (conn.http) {
      conn.out += http_response(200, "application/json",
                                schedule_to_json(*view.tree, view.mask),
                                slot.request.http_keep_alive);
      if (!slot.request.http_keep_alive) conn.close_after_flush = true;
    } else {
      encode_ok_response(slot.request.msg.id, *view.tree, conn.out,
                         view.mask);
    }
    m.responses->inc();
    if (stats) {
      const std::uint64_t now = obs::now_ns();
      if (t0 != 0) m.encode_ns->record(now - t0);
      if (slot.request.read_ns != 0) {
        m.request_ns->record(now - slot.request.read_ns);
      }
    }
    mark_dirty(conn);
  };
  const auto respond_fail = [&](const Slot& slot, Status status,
                                std::string_view message) {
    respond_error(*slot.conn, slot.request.msg.id,
                  slot.request.http_keep_alive, status, message);
  };

  // Validate into the serve batch; a malformed request must fail alone,
  // not abort its whole batch. Each request keeps its own absolute
  // deadline (read turn + window), so one held in the backlog behind a
  // slow build is shed instead of served late.
  const std::uint64_t window = config.deadline_ms * std::uint64_t{1000000};
  requests_.clear();
  live_.clear();
  deadlines_.clear();
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    try {
      // Moves the destinations out; only the id is read afterwards.
      core::MulticastRequest request =
          std::move(batch_[i].request.msg).to_request();
      request.validate();
      requests_.push_back(std::move(request));
      live_.push_back(i);
      if (window != 0) deadlines_.push_back(batch_[i].request.read_ns + window);
    } catch (const std::exception& e) {
      m.bad_requests->inc();
      respond_fail(batch_[i], Status::BadRequest, e.what());
    }
  }

  if (!requests_.empty()) {
    std::vector<coll::ServePipeline::View> views;
    coll::CoschedPlan plan;
    try {
      views = server.pipeline_->serve_views(requests_, deadlines_);
      if (config.cosched && views.size() > 1) {
        plan = coll::ServePipeline::plan_views(views, config.cosched_policy);
      }
    } catch (const std::exception& e) {
      for (const std::size_t i : live_) {
        respond_fail(batch_[i], Status::InternalError, e.what());
      }
      live_.clear();
    }
    const auto respond_slot = [&](std::size_t k) {
      const Slot& slot = batch_[live_[k]];
      if (views[k].tree != nullptr) {
        respond_ok(slot, views[k]);
      } else {
        // Exactly one net.shed_deadline increment per shed request: the
        // pipeline's serve.deadline_shed counter is a different
        // namespace.
        m.shed_deadline->inc();
        respond_fail(slot, Status::ShedDeadline,
                     "deadline passed before construction");
      }
    };
    if (!live_.empty() && !plan.waves.empty()) {
      // Wave launch order: responses release clients wave by wave, so
      // the co-schedule's stagger survives the wire.
      std::vector<bool> responded(live_.size(), false);
      for (const auto& wave : plan.waves) {
        for (const std::size_t k : wave.members) {
          respond_slot(k);
          responded[k] = true;
        }
      }
      for (std::size_t k = 0; k < live_.size(); ++k) {
        if (!responded[k]) respond_slot(k);  // shed slots, not planned
      }
    } else {
      for (std::size_t k = 0; k < live_.size(); ++k) respond_slot(k);
    }
  }
  backlog_ -= batch_.size();

  // An HTTP connection's next request waited behind the one just
  // answered; it may already be buffered.
  for (const Slot& slot : batch_) {
    if (slot.conn->http && !slot.conn->in.empty()) parse_input(*slot.conn);
  }
}

void Server::Loop::flush(Conn& conn) {
  if (conn.wants_write()) {
    const std::uint64_t t0 =
        Metrics::sampled(write_tick_) ? obs::now_ns() : 0;
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (t0 != 0) m.write_ns->record(obs::now_ns() - t0);
    m.writes->inc();
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        close_conn(conn);
      }
      return;
    }
    conn.out_off += static_cast<std::size_t>(n);
    if (conn.wants_write()) return;  // socket buffer full: wait for POLLOUT
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.close_after_flush && !conn.has_pending()) close_conn(conn);
}

}  // namespace hypercast::net
