#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <unordered_map>

#include "metrics/json.hpp"
#include "net/http.hpp"
#include "obs/registry.hpp"

namespace hypercast::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
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

}  // namespace

/// Instrument handles resolved once against the default registry; the
/// server's counters also back the /metrics endpoint, so they bump
/// unconditionally (the network path dwarfs a striped relaxed add) —
/// only latency/batch histograms stay behind the stats flag.
struct Server::Metrics {
  obs::Counter* accepted;
  obs::Counter* closed;
  obs::Counter* requests;       ///< admitted into the queue
  obs::Counter* responses;      ///< Ok responses serialized
  obs::Counter* shed_queue_full;
  obs::Counter* shed_deadline;
  obs::Counter* bad_requests;
  obs::Counter* http_requests;  ///< HTTP requests of any kind
  obs::Counter* wakes;          ///< wake-pipe writes
  obs::Counter* writes;         ///< send() calls on the response path
  obs::Counter* loop_turns;     ///< event-loop iterations
  obs::Histogram* request_ns;   ///< admission -> response serialized
  obs::Histogram* queue_wait_ns;  ///< admission -> worker pop
  obs::Histogram* batch_size;
  obs::Histogram* decode_ns;  ///< decode_request, sampled
  obs::Histogram* encode_ns;  ///< Ok response serialization, sampled

  /// The stage histograms time one request in kSampleMask + 1, as the
  /// serve pipeline's stage timer does, so most requests read no clock.
  static constexpr unsigned kSampleMask = 15;

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
                     &r.histogram("net.encode_ns")};
    }();
    return m;
  }
};

/// Per-connection state, owned by the event loop.
struct Server::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::string in;          ///< unparsed received bytes
  std::string out;         ///< unsent response bytes
  std::size_t out_off = 0;
  std::size_t inflight = 0;  ///< admitted, response not yet in `out`
  bool decided = false;    ///< protocol sniffed?
  bool http = false;
  bool http_keep_alive = true;  ///< from the most recent HTTP request
  bool close_after_flush = false;
  bool dirty = false;  ///< queued for this turn's flush (apply_completions)

  bool wants_write() const { return out.size() > out_off; }
};

struct Server::ConnTable {
  std::unordered_map<int, std::unique_ptr<Conn>> by_fd;
  std::unordered_map<std::uint64_t, Conn*> by_id;
  std::atomic<std::size_t> count{0};
};

Server::Server(ServerConfig config)
    : config_(std::move(config)), conns_(std::make_unique<ConnTable>()) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.batch_max == 0) config_.batch_max = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.high_watermark == 0 || config_.high_watermark >
                                         config_.queue_capacity) {
    config_.high_watermark = config_.queue_capacity * 3 / 4;
    if (config_.high_watermark == 0) config_.high_watermark = 1;
  }
  if (config_.low_watermark == 0 ||
      config_.low_watermark > config_.high_watermark) {
    config_.low_watermark = config_.queue_capacity / 2;
  }
}

Server::~Server() {
  stop();
}

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void Server::start() {
  if (started_) throw std::logic_error("Server::start: already running");

  // Build the serving stack first: an unknown algorithm should fail
  // here, before any socket exists. Nothing registers with the metrics
  // registry until every throwing step has succeeded, so a failed
  // start() never leaves a gauge callback pointing at a dead server.
  if (config_.cache) {
    coll::ScheduleCache::Config cc;
    cc.shards = config_.cache_shards;
    if (config_.cache_bytes != 0) cc.max_bytes = config_.cache_bytes;
    cache_ = std::make_shared<coll::ScheduleCache>(cc);
  }
  pipeline_ = std::make_unique<coll::ServePipeline>(config_.algorithm, cache_);
  metrics_ = &Metrics::get();

  // A serving process wants its own latency percentiles on /metrics
  // without a separate flag, so stats collection rides with the server.
  obs::set_stats_enabled(true);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::invalid_argument("bad bind address '" + config_.bind_address +
                                "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(err, std::generic_category(), "bind/listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(err, std::generic_category(), "getsockname");
  }
  bound_port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(err, std::generic_category(), "pipe");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  // Past this point nothing throws: registrations and threads are safe.
  if (cache_) cache_->attach_to_registry(obs::default_registry(), "cache");
  obs::default_registry().register_gauge_source("net", [this] {
    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("connections",
                     static_cast<double>(conns_->count.load()));
    out.emplace_back("queue_depth", static_cast<double>(queue_depth()));
    out.emplace_back("outstanding", static_cast<double>(outstanding()));
    out.emplace_back("reads_paused", reads_paused_.load() ? 1.0 : 0.0);
    out.emplace_back("queue_capacity",
                     static_cast<double>(config_.queue_capacity));
    return out;
  });

  stop_requested_ = false;
  draining_ = false;
  worker_stop_ = false;
  started_ = true;
  loop_thread_ = std::thread([this] { event_loop(); });
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 's';
    [[maybe_unused]] const auto n = ::write(wake_write_fd_, &byte, 1);
  }
}

void Server::stop() {
  if (!started_) return;
  request_stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    worker_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  obs::default_registry().unregister_gauge_source("net");
  if (cache_) cache_->detach_from_registry();
  for (int* fd : {&listen_fd_, &wake_read_fd_, &wake_write_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  {
    // Drop any work the drain timeout abandoned.
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.clear();
  }
  completions_.clear();
  applying_.clear();
  started_ = false;
}

void Server::wake() {
  const char byte = 'w';
  [[maybe_unused]] const auto n = ::write(wake_write_fd_, &byte, 1);
  metrics_->wakes->inc();
}

void Server::drain_wake_pipe() {
  char buf[256];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
}

// ---- event loop ----------------------------------------------------------

void Server::event_loop() {
  using clock = std::chrono::steady_clock;
  clock::time_point drain_deadline{};

  while (true) {
    if (!draining_ && stop_requested_.load(std::memory_order_acquire)) {
      // Enter the drain: no new connections, no new reads; everything
      // already admitted is still served and flushed.
      draining_ = true;
      drain_deadline = clock::now() +
                       std::chrono::milliseconds(config_.drain_timeout_ms);
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }

    apply_completions();

    if (draining_) {
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_empty = queue_.empty();
      }
      bool flushed = true;
      for (const auto& [fd, conn] : conns_->by_fd) {
        if (conn->wants_write()) {
          flushed = false;
          break;
        }
      }
      if ((queue_empty && outstanding_.load() == 0 && flushed) ||
          clock::now() >= drain_deadline) {
        break;
      }
    }

    // Build the poll set for this round.
    metrics_->loop_turns->inc();
    std::vector<pollfd>& fds = pollfds_;
    std::vector<Conn*>& polled = polled_;
    fds.clear();
    polled.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    const bool accepting =
        !draining_ && listen_fd_ >= 0 &&
        conns_->by_fd.size() < config_.max_connections;
    if (accepting) fds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t conns_at = fds.size();
    for (auto& [fd, conn] : conns_->by_fd) {
      short events = 0;
      const bool read_ok = !draining_ && !reads_paused_.load() &&
                           conn->inflight < config_.max_inflight_per_conn &&
                           !(conn->http && conn->inflight > 0) &&
                           !conn->close_after_flush;
      if (read_ok) events |= POLLIN;
      if (conn->wants_write()) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back({fd, events, 0});
      polled.push_back(conn.get());
    }

    const int rc = ::poll(fds.data(), fds.size(), 50);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;

    if (fds[0].revents != 0) drain_wake_pipe();
    if (accepting && fds[1].revents != 0) accept_ready();
    for (std::size_t i = conns_at; i < fds.size(); ++i) {
      Conn* conn = polled[i - conns_at];
      // The conn may have been closed by an earlier event this round.
      if (conns_->by_fd.find(fds[i].fd) == conns_->by_fd.end()) continue;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // POLLHUP with readable data still pending is handled by the
        // read path returning 0/error; just close.
        close_conn(conn->fd);
        continue;
      }
      if (fds[i].revents & POLLIN) handle_readable(*conn);
      if (conns_->by_fd.find(fds[i].fd) == conns_->by_fd.end()) continue;
      if (fds[i].revents & POLLOUT) handle_writable(*conn);
    }
  }

  // Drain complete (or timed out): close everything still open.
  std::vector<int> open;
  open.reserve(conns_->by_fd.size());
  for (const auto& [fd, conn] : conns_->by_fd) open.push_back(fd);
  for (const int fd : open) close_conn(fd);
}

void Server::accept_ready() {
  while (conns_->by_fd.size() < config_.max_connections) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept errors: try again next round
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conns_->by_id.emplace(conn->id, conn.get());
    conns_->by_fd.emplace(fd, std::move(conn));
    conns_->count.store(conns_->by_fd.size());
    metrics_->accepted->inc();
  }
}

void Server::close_conn(int fd) {
  const auto it = conns_->by_fd.find(fd);
  if (it == conns_->by_fd.end()) return;
  conns_->by_id.erase(it->second->id);
  conns_->by_fd.erase(it);
  conns_->count.store(conns_->by_fd.size());
  ::close(fd);
  metrics_->closed->inc();
}

void Server::handle_readable(Conn& conn) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      // Peer closed its write side. Any fully buffered requests were
      // already parsed on arrival; drop the connection.
      close_conn(conn.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    close_conn(conn.fd);
    return;
  }
  parse_input(conn);
}

void Server::parse_input(Conn& conn) {
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

void Server::parse_binary(Conn& conn) {
  // Decode every complete frame of this read that the inflight cap
  // allows, then admit them together: one queue lock and one notify per
  // burst. A shed frame frees its slot again, so passes repeat until the
  // cap binds or no complete frame is left.
  std::size_t consumed = 0;
  while (!conn.close_after_flush &&
         conn.inflight < config_.max_inflight_per_conn) {
    burst_.clear();
    bool framed_all = false;
    while (conn.inflight + burst_.size() < config_.max_inflight_per_conn) {
      const std::string_view rest =
          std::string_view(conn.in).substr(consumed);
      std::size_t size = 0;
      try {
        size = frame_size(rest, config_.max_frame_bytes);
      } catch (const ProtocolError& e) {
        // An over-limit length prefix cannot be resynchronized; answer
        // and hang up.
        std::string out;
        encode_error_response(0, Status::BadRequest, e.what(), out);
        conn.out += out;
        conn.close_after_flush = true;
        metrics_->bad_requests->inc();
        break;
      }
      if (size == 0) {
        framed_all = true;
        break;
      }
      const std::string_view body = rest.substr(4, size - 4);
      consumed += size;

      RequestMsg msg;
      const std::uint64_t t0 =
          obs::stats_enabled() && (decode_tick_++ & Metrics::kSampleMask) == 0
              ? obs::now_ns()
              : 0;
      try {
        msg = decode_request(body);
        if (t0 != 0) metrics_->decode_ns->record(obs::now_ns() - t0);
      } catch (const ProtocolError& e) {
        // The frame boundary held, so the stream stays usable; only this
        // request fails.
        encode_error_response(0, Status::BadRequest, e.what(), conn.out);
        metrics_->bad_requests->inc();
        continue;
      }
      burst_.push_back(Pending{conn.id, false, true, std::move(msg), 0});
    }
    const std::size_t admitted = enqueue_burst(burst_);
    conn.inflight += admitted;
    for (std::size_t i = admitted; i < burst_.size(); ++i) {
      reject(conn, burst_[i]);
    }
    if (framed_all) break;
  }
  conn.in.erase(0, consumed);
}

void Server::handle_http_request(Conn& conn, const HttpRequest& request) {
  metrics_->http_requests->inc();
  conn.http_keep_alive = request.keep_alive;
  const auto respond = [&](int status, std::string_view type,
                           std::string_view body) {
    conn.out += http_response(status, type, body, request.keep_alive);
    if (!request.keep_alive) conn.close_after_flush = true;
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
    metrics_->bad_requests->inc();
    return;
  }
  burst_.clear();
  burst_.push_back(
      Pending{conn.id, true, request.keep_alive, std::move(msg), 0});
  if (enqueue_burst(burst_) == 1) {
    ++conn.inflight;
  } else {
    reject(conn, burst_.front());
  }
}

void Server::parse_http(Conn& conn) {
  // One queued schedule request at a time per HTTP connection keeps
  // keep-alive responses in request order without response reordering
  // machinery; diagnostics endpoints are answered inline and don't
  // count.
  while (conn.inflight == 0 && !conn.close_after_flush) {
    HttpRequest request;
    std::size_t consumed = 0;
    try {
      consumed = parse_http_request(conn.in, config_.max_frame_bytes,
                                    request);
    } catch (const ProtocolError& e) {
      conn.out += http_response(
          400, "application/json",
          http_error_body(Status::BadRequest, e.what()), false);
      conn.close_after_flush = true;
      metrics_->bad_requests->inc();
      return;
    }
    if (consumed == 0) return;
    conn.in.erase(0, consumed);
    handle_http_request(conn, request);
  }
}

void Server::handle_writable(Conn& conn) {
  while (conn.wants_write()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    metrics_->writes->inc();
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    close_conn(conn.fd);
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.close_after_flush) close_conn(conn.fd);
}

std::size_t Server::enqueue_burst(std::vector<Pending>& burst) {
  if (draining_ || burst.empty()) return 0;
  const std::uint64_t now = obs::now_ns();
  std::size_t admitted = 0;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    const std::size_t room = config_.queue_capacity -
                             std::min(queue_.size(), config_.queue_capacity);
    admitted = std::min(burst.size(), room);
    for (std::size_t i = 0; i < admitted; ++i) {
      burst[i].enqueue_ns = now;
      queue_.push_back(std::move(burst[i]));
    }
    depth = queue_.size();
    if (depth >= config_.high_watermark) {
      reads_paused_.store(true, std::memory_order_relaxed);
    }
  }
  if (admitted == 0) return 0;
  outstanding_.fetch_add(admitted, std::memory_order_relaxed);
  metrics_->requests->add(admitted);
  // One wake-up per burst. The fair-share take leaves part of a deeper
  // queue to every waiting worker, so wake them all.
  if (depth > 1) {
    queue_cv_.notify_all();
  } else {
    queue_cv_.notify_one();
  }
  return admitted;
}

void Server::reject(Conn& conn, const Pending& pending) {
  const Status status =
      draining_ ? Status::ShuttingDown : Status::ShedQueueFull;
  const std::string_view message =
      draining_ ? "server draining" : "server queue full";
  if (status == Status::ShedQueueFull) metrics_->shed_queue_full->inc();
  if (!pending.http) {
    encode_error_response(pending.msg.id, status, message, conn.out);
    return;
  }
  conn.out += http_response(http_status_for(status), "application/json",
                            http_error_body(status, message),
                            pending.http_keep_alive);
  if (!pending.http_keep_alive) conn.close_after_flush = true;
}

void Server::apply_completions() {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    applying_.swap(completions_);
  }
  if (applying_.empty()) return;
  outstanding_.fetch_sub(applying_.size(), std::memory_order_relaxed);
  // Append every response first, then flush each touched connection
  // once: one send() per connection per turn, however many responses.
  for (Completion& done : applying_) {
    const auto it = conns_->by_id.find(done.conn_id);
    if (it == conns_->by_id.end()) continue;  // client went away
    Conn& conn = *it->second;
    conn.out += done.bytes;
    if (conn.inflight > 0) --conn.inflight;
    if (!conn.dirty) {
      conn.dirty = true;
      dirty_.push_back(&conn);
    }
  }
  applying_.clear();
  for (Conn* conn : dirty_) {
    conn->dirty = false;
    // Response slots freed up: bytes buffered behind the per-conn
    // inflight cap (or an HTTP keep-alive turn) may now be parseable.
    if (!conn->in.empty()) parse_input(*conn);
    // Flush eagerly; most responses fit the socket buffer and waiting
    // for the next poll round would add latency. May close the conn.
    handle_writable(*conn);
  }
  dirty_.clear();
}

// ---- workers -------------------------------------------------------------

void Server::worker_loop() {
  std::vector<Pending> batch;
  std::vector<Completion> done;
  unsigned encode_tick = 0;  ///< net.encode_ns sampler
  while (true) {
    batch.clear();
    done.clear();
    bool resume = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      ++idle_workers_;
      queue_cv_.wait(lock, [&] { return worker_stop_ || !queue_.empty(); });
      --idle_workers_;
      if (queue_.empty()) return;  // worker_stop_ and drained
      // Fair share: split the queue evenly between this worker and the
      // ones still waiting for work, so a burst is served in parallel
      // instead of in series on one worker; with every other worker busy
      // it takes a full batch. Co-scheduling plans waves only within one
      // batch, so it keeps whole batches to coordinate across.
      std::size_t share = queue_.size();
      if (!config_.cosched) {
        share = (share + idle_workers_) / (idle_workers_ + 1);
      }
      const std::size_t take = std::min(config_.batch_max, share);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      // Paused and resumed under queue_mu_ only: a pause stored after
      // the lock could land after the last worker's check and strand
      // the connections' unread bytes behind an empty queue.
      resume = reads_paused_.load(std::memory_order_relaxed) &&
               queue_.size() <= config_.low_watermark;
      if (resume) reads_paused_.store(false, std::memory_order_relaxed);
    }
    if (resume) wake();

    const Metrics& m = *metrics_;
    if (obs::stats_enabled()) {
      m.batch_size->record(batch.size());
      const std::uint64_t popped = obs::now_ns();
      for (const Pending& p : batch) {
        m.queue_wait_ns->record(popped - p.enqueue_ns);
      }
    }
    const std::uint64_t deadline_window =
        config_.deadline_ms * std::uint64_t{1000000};

    done.reserve(batch.size());
    const auto respond = [&](const Pending& p,
                             const core::MulticastSchedule* schedule,
                             Status status, std::string_view message) {
      Completion c;
      c.conn_id = p.conn_id;
      const std::uint64_t t0 =
          schedule != nullptr && obs::stats_enabled() &&
                  (encode_tick++ & Metrics::kSampleMask) == 0
              ? obs::now_ns()
              : 0;
      if (p.http) {
        if (schedule != nullptr) {
          c.bytes = http_response(200, "application/json",
                                  schedule_to_json(*schedule),
                                  p.http_keep_alive);
        } else {
          c.bytes = http_response(http_status_for(status), "application/json",
                                  http_error_body(status, message),
                                  p.http_keep_alive);
        }
      } else if (schedule != nullptr) {
        encode_ok_response(p.msg.id, *schedule, c.bytes);
      } else {
        encode_error_response(p.msg.id, status, message, c.bytes);
      }
      if (schedule != nullptr) {
        m.responses->inc();
        if (obs::stats_enabled()) {
          const std::uint64_t now = obs::now_ns();
          if (t0 != 0) m.encode_ns->record(now - t0);
          m.request_ns->record(now - p.enqueue_ns);
        }
      }
      done.push_back(std::move(c));
    };

    // Shed already-expired requests and validate the rest into the
    // serve batch; a malformed request must fail alone, not abort its
    // whole batch. Each live request keeps its *own* absolute deadline
    // (admission + window): collapsing them into one batch deadline
    // would let the oldest request ride the newest one's slack and be
    // served past its SLO instead of shed.
    std::vector<core::MulticastRequest> requests;
    std::vector<std::size_t> live;
    std::vector<std::uint64_t> deadlines;
    requests.reserve(batch.size());
    live.reserve(batch.size());
    deadlines.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Pending& p = batch[i];
      const std::uint64_t deadline =
          deadline_window == 0 ? 0 : p.enqueue_ns + deadline_window;
      if (deadline != 0 && obs::now_ns() > deadline) {
        m.shed_deadline->inc();
        respond(p, nullptr, Status::ShedDeadline, "deadline passed in queue");
        continue;
      }
      try {
        core::MulticastRequest request = p.msg.to_request();
        request.validate();
        requests.push_back(std::move(request));
        live.push_back(i);
        deadlines.push_back(deadline);
      } catch (const std::exception& e) {
        m.bad_requests->inc();
        respond(p, nullptr, Status::BadRequest, e.what());
      }
    }

    if (!requests.empty()) {
      const coll::ServePipeline::BatchPolicy policy{1, 0, deadlines};
      std::vector<std::shared_ptr<const core::MulticastSchedule>> schedules;
      coll::CoschedPlan plan;
      try {
        if (config_.cosched && requests.size() > 1) {
          auto cosched = pipeline_->serve_batch_cosched(
              requests, policy, config_.cosched_policy);
          schedules = std::move(cosched.schedules);
          plan = std::move(cosched.plan);
        } else {
          schedules = pipeline_->serve_batch(requests, policy);
        }
      } catch (const std::exception& e) {
        for (const std::size_t i : live) {
          respond(batch[i], nullptr, Status::InternalError, e.what());
        }
        live.clear();
      }
      const auto respond_slot = [&](std::size_t k) {
        const Pending& p = batch[live[k]];
        if (schedules[k] != nullptr) {
          respond(p, schedules[k].get(), Status::Ok, {});
        } else {
          // Exactly one net.shed_deadline increment per shed request:
          // the pipeline's serve.deadline_shed counter is a different
          // namespace, and a request shed at pop time never reaches
          // this path.
          m.shed_deadline->inc();
          respond(p, nullptr, Status::ShedDeadline,
                  "deadline passed before construction");
        }
      };
      if (!live.empty() && !plan.waves.empty()) {
        // Wave launch order: responses release clients wave by wave, so
        // the co-schedule's stagger survives the wire.
        std::vector<bool> responded(live.size(), false);
        for (const auto& wave : plan.waves) {
          for (const std::size_t k : wave.members) {
            respond_slot(k);
            responded[k] = true;
          }
        }
        for (std::size_t k = 0; k < live.size(); ++k) {
          if (!responded[k]) respond_slot(k);  // shed slots, not planned
        }
      } else {
        for (std::size_t k = 0; k < live.size(); ++k) respond_slot(k);
      }
    }

    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      for (Completion& c : done) completions_.push_back(std::move(c));
    }
    wake();
  }
}

}  // namespace hypercast::net
