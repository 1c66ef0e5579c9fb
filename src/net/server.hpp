#ifndef HYPERCAST_NET_SERVER_HPP
#define HYPERCAST_NET_SERVER_HPP

#include <poll.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

  int workers = 2;  ///< serving worker threads (>= 1)

  /// Bounded request queue between the event loop and the workers.
  /// Admission past `queue_capacity` is shed (ShedQueueFull / HTTP 429).
  /// Reads pause once the depth crosses `high_watermark` and resume
  /// below `low_watermark` (0 = derive: 3/4 and 1/2 of capacity) — TCP
  /// backpressure toward clients instead of unbounded memory.
  std::size_t queue_capacity = 4096;
  std::size_t high_watermark = 0;
  std::size_t low_watermark = 0;

  std::size_t max_connections = 256;      ///< accept cap; excess refused
  std::size_t max_inflight_per_conn = 128;  ///< per-conn admission cap
  std::size_t batch_max = 64;  ///< requests coalesced per serve_batch call

  /// Queue-time SLO: a request still queued this long after admission
  /// is shed (ShedDeadline) instead of served late. 0 disables. The
  /// deadline is per request (admission time + window): a request whose
  /// window expires while queued — or while batched behind
  /// later-admitted peers — is shed with the same ShedDeadline / 429
  /// accounting as one caught at pop time, never served late.
  std::uint64_t deadline_ms = 0;

  /// Contention-aware co-scheduling of each served batch (opt-in;
  /// --cosched). When on, the worker plans every batch's schedules into
  /// waves under `cosched_policy` (see coll::CoschedPolicy) and emits
  /// responses in wave launch order, so clients that fire requests on
  /// receipt inherit the contention-bounded stagger.
  bool cosched = false;
  coll::CoschedPolicy cosched_policy{};

  std::size_t max_frame_bytes = kMaxFrameBytes;

  /// stop() flushes admitted work for at most this long before
  /// force-closing (a drain, not an accept timeout).
  int drain_timeout_ms = 5000;
};

/// The async serving front end: one poll()-based event-loop thread owns
/// every socket (accept, framed reads, buffered writes); a pool of
/// worker threads pops coalesced batches from a bounded queue, serves
/// them through one shared coll::ServePipeline, and hands serialized
/// responses back through a completion queue + wake pipe. The handoff
/// is paid per burst, not per request: one read's frames are admitted
/// under one queue lock and one notify, a worker takes an even share of
/// the queue with the workers still waiting, each batch wakes the loop
/// once, and each connection is flushed once per turn. Binary
/// ("hypercast-net-v1" frames) and HTTP/JSON clients are detected per
/// connection on the same port; HTTP additionally exposes /metrics
/// (Prometheus), /stats (hypercast-stats-v1) and /healthz.
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

  /// Bind, listen and spawn the event loop + workers. Throws
  /// std::system_error on socket errors and std::invalid_argument for
  /// an unknown algorithm.
  void start();

  /// The bound port (after start(); useful with config.port = 0).
  std::uint16_t port() const { return bound_port_; }

  bool running() const { return started_; }

  /// Begin the drain from any thread or signal handler: one atomic
  /// store and one write() on the wake pipe.
  void request_stop();

  /// request_stop(), then join everything once the drain completes (or
  /// the drain timeout forces the issue). Idempotent.
  void stop();

  const ServerConfig& config() const { return config_; }
  const std::shared_ptr<coll::ScheduleCache>& cache() const { return cache_; }

  /// Requests admitted and not yet answered (queued or being served).
  std::size_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }
  std::size_t queue_depth() const;

 private:
  struct Conn;

  /// One admitted request travelling from the event loop to a worker.
  struct Pending {
    std::uint64_t conn_id = 0;
    bool http = false;
    bool http_keep_alive = true;
    RequestMsg msg;
    std::uint64_t enqueue_ns = 0;
  };

  /// One serialized response travelling back.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string bytes;
  };

  struct Metrics;

  void event_loop();
  void worker_loop();

  void accept_ready();
  void handle_readable(Conn& conn);
  void parse_input(Conn& conn);
  void parse_binary(Conn& conn);
  void parse_http(Conn& conn);
  void handle_http_request(Conn& conn, const struct HttpRequest& request);
  void handle_writable(Conn& conn);
  void close_conn(int fd);
  void apply_completions();

  /// Admit the longest prefix of `burst` the queue has room for, under
  /// one lock and one notify; returns its length (0 while draining).
  std::size_t enqueue_burst(std::vector<Pending>& burst);
  /// Answer a request the queue did not admit (queue full or draining).
  void reject(Conn& conn, const Pending& pending);

  void wake();
  void drain_wake_pipe();

  ServerConfig config_;
  std::shared_ptr<coll::ScheduleCache> cache_;
  std::unique_ptr<coll::ServePipeline> pipeline_;
  const Metrics* metrics_ = nullptr;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t bound_port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;  ///< event-loop private
  std::atomic<bool> reads_paused_{false};  ///< written under queue_mu_

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  std::size_t idle_workers_ = 0;  ///< workers waiting on queue_cv_
  bool worker_stop_ = false;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  std::atomic<std::size_t> outstanding_{0};

  /// Event-loop-private connection table (fd- and id-indexed).
  struct ConnTable;
  std::unique_ptr<ConnTable> conns_;
  std::uint64_t next_conn_id_ = 1;
  unsigned decode_tick_ = 0;  ///< net.decode_ns sampler

  /// Event-loop scratch, reused every turn instead of reallocated.
  std::vector<Pending> burst_;          ///< one read's decoded requests
  std::vector<Completion> applying_;    ///< completions swapped out
  std::vector<Conn*> dirty_;            ///< connections to flush
  std::vector<pollfd> pollfds_;
  std::vector<Conn*> polled_;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace hypercast::net

#endif  // HYPERCAST_NET_SERVER_HPP
