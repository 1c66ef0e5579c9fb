#ifndef HYPERCAST_NET_SERVER_HPP
#define HYPERCAST_NET_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coll/serve_pipeline.hpp"
#include "net/protocol.hpp"

namespace hypercast::net {

/// Tuning knobs for the serving front end. Defaults are sized for the
/// loopback SLO bench (BENCH_serve_net); production deployments mostly
/// tune `workers`, `queue_capacity` and `deadline_ms`.
struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via Server::port())

  /// Schedule-serving pipeline behind the socket.
  std::string algorithm = "wsort";
  bool cache = true;
  std::size_t cache_shards = 0;  ///< 0 = auto
  std::size_t cache_bytes = 0;   ///< 0 = library default

  int workers = 2;  ///< event loops, one thread each (>= 1)

  /// Per-loop backlog bound: complete requests a loop has read but not
  /// yet served. A request read past it is answered at once with
  /// ShedQueueFull (HTTP 429) and never admitted.
  std::size_t queue_capacity = 4096;

  std::size_t max_connections = 256;  ///< accept cap; excess wait unaccepted
  /// Requests served per connection per loop turn (one serve_batch call
  /// per turn covers every connection's share).
  std::size_t batch_max = 64;

  /// Backlog-time SLO: a request not yet served this long after the
  /// loop turn that read it is shed (ShedDeadline / 429) instead of
  /// served late. 0 disables. Each request carries its own deadline
  /// into serve_batch, so a request held in the backlog behind a slow
  /// build is shed exactly once, never served past its window.
  std::uint64_t deadline_ms = 0;

  /// Contention-aware co-scheduling of each served batch (opt-in;
  /// --cosched). When on, each loop turn's batch is planned into waves
  /// under `cosched_policy` (see coll::CoschedPolicy) and answered in
  /// wave launch order, so clients that fire requests on receipt
  /// inherit the contention-bounded stagger.
  bool cosched = false;
  coll::CoschedPolicy cosched_policy{};

  std::size_t max_frame_bytes = kMaxFrameBytes;

  /// stop() flushes admitted work for at most this long before
  /// force-closing (a drain, not an accept timeout).
  int drain_timeout_ms = 5000;
};

/// The serving front end: `workers` independent poll()-based event
/// loops, each on its own thread and each owning the connections handed
/// to it round-robin at accept. A loop runs every request to completion
/// on its own thread: read → decode → one ServePipeline::serve_batch
/// (or serve_batch_cosched) call over the requests it read this turn →
/// encode into each connection's output → one send() per connection.
/// No request crosses threads; the loops share only the immutable
/// pipeline and its sharded ScheduleCache. Binary ("hypercast-net-v1"
/// frames) and HTTP/JSON clients are detected per connection on the
/// same port; HTTP additionally exposes /metrics (Prometheus), /stats
/// (hypercast-stats-v1) and /healthz.
///
/// Backpressure is TCP's: a loop does not read a connection again while
/// that connection still holds unserved requests or unflushed output.
///
/// Shutdown is a drain: request_stop() (async-signal-safe — callable
/// from a SIGTERM handler) stops accepting and reading, every admitted
/// request is still served and its response flushed, then sockets
/// close. No admitted request is lost or answered twice.
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();  ///< stops (graceful drain) if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the event loops. Throws std::system_error on
  /// socket errors and std::invalid_argument for an unknown algorithm.
  void start();

  /// The bound port (after start(); useful with config.port = 0).
  std::uint16_t port() const { return bound_port_; }

  bool running() const { return started_; }

  /// Begin the drain from any thread or signal handler: one atomic
  /// store and one eventfd write() per loop.
  void request_stop();

  /// request_stop(), then join every loop once the drain completes (or
  /// the drain timeout forces the issue). Idempotent.
  void stop();

  const ServerConfig& config() const { return config_; }
  const std::shared_ptr<coll::ScheduleCache>& cache() const { return cache_; }

  /// Requests admitted and not yet answered (held in a loop backlog).
  std::size_t outstanding() const;

 private:
  struct Conn;
  struct Loop;
  struct Metrics;

  /// Close the listener, every loop's wake fd and any accepted fd no
  /// loop adopted.
  void close_fds();

  ServerConfig config_;
  std::shared_ptr<coll::ScheduleCache> cache_;
  std::unique_ptr<coll::ServePipeline> pipeline_;
  const Metrics* metrics_ = nullptr;

  int listen_fd_ = -1;  ///< owned by loop 0 while running
  std::uint16_t bound_port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::size_t> connections_{0};  ///< across every loop
  /// Loop 0 stopped polling the listener (connection cap, or out of
  /// fds); the next close clears it and wakes loop 0.
  std::atomic<bool> accept_blocked_{false};

  std::vector<std::unique_ptr<Loop>> loops_;
};

}  // namespace hypercast::net

#endif  // HYPERCAST_NET_SERVER_HPP
