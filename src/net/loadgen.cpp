#include "net/loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "harness/bench.hpp"
#include "metrics/json.hpp"
#include "obs/obs.hpp"
#include "workload/random_sets.hpp"

namespace hypercast::net {

namespace {

/// Client request ids pack (connection, sequence) so responses —
/// which a batching server may reorder — map back to their send
/// timestamps.
constexpr int kSeqBits = 40;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::invalid_argument("bad loadgen host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

/// Per-connection tallies merged after the join.
struct ConnStats {
  std::uint64_t sent = 0;
  std::uint64_t counts[6] = {0, 0, 0, 0, 0, 0};  ///< indexed by Status
  std::uint64_t io_errors = 0;
  std::uint64_t outstanding_at_exit = 0;
  std::vector<std::uint64_t> latencies_ns;
};

/// One client connection's whole life, run on its own thread.
class ConnDriver {
 public:
  ConnDriver(const LoadgenConfig& config, int index,
             const std::vector<std::vector<hcube::NodeId>>& shapes,
             std::uint64_t origin_ns, std::uint64_t stop_at_ns,
             std::uint64_t budget)
      : config_(config),
        index_(index),
        shapes_(shapes),
        origin_ns_(origin_ns),
        stop_at_ns_(stop_at_ns),
        budget_(budget),
        rng_(workload::derive_seed(config.seed, 0x4c4f4144ull,
                                   static_cast<std::uint64_t>(index))),
        topo_(static_cast<hcube::Dim>(config.dim)) {}

  ConnStats run() {
    int fd = -1;
    try {
      fd = connect_to(config_.host, config_.port);
    } catch (const std::exception&) {
      stats_.io_errors = 1;
      return std::move(stats_);
    }
    drive(fd);
    ::close(fd);
    stats_.outstanding_at_exit = outstanding_;
    return std::move(stats_);
  }

 private:
  void drive(int fd) {
    const double per_conn_rate =
        config_.open_rate / std::max(1, config_.connections);
    const std::uint64_t interval_ns =
        per_conn_rate > 0.0
            ? static_cast<std::uint64_t>(1e9 / per_conn_rate)
            : 0;
    // Connections interleave evenly on the shared schedule.
    std::uint64_t next_send_ns =
        interval_ns == 0
            ? 0
            : origin_ns_ + interval_ns * static_cast<std::uint64_t>(index_) /
                               static_cast<std::uint64_t>(config_.connections);
    std::uint64_t drain_deadline_ns = 0;

    while (true) {
      const std::uint64_t now = obs::now_ns();
      if (!done_sending_) {
        if (interval_ns == 0) {
          done_sending_ = now >= stop_at_ns_ || stats_.sent >= budget_;
        } else {
          // Open loop: the *schedule*, not the wall clock, decides when
          // sending is over. next_send_ns only advances when an arrival
          // is actually generated, so a send that blocked (buffer cap
          // below) still owes every arrival scheduled before stop — the
          // offered count cannot drift under backpressure. The grace
          // window bounds how long a dead server can hold us past stop.
          done_sending_ = next_send_ns >= stop_at_ns_ ||
                          stats_.sent >= budget_;
          if (!done_sending_ && stop_at_ns_ != ~std::uint64_t{0} &&
              now >= stop_at_ns_ + static_cast<std::uint64_t>(
                                       config_.drain_timeout_s * 1e9)) {
            done_sending_ = true;  // give up on the blocked backlog
          }
        }
      }
      if (done_sending_) {
        if (outstanding_ == 0 && out_.empty()) return;
        if (drain_deadline_ns == 0) {
          drain_deadline_ns =
              now + static_cast<std::uint64_t>(config_.drain_timeout_s * 1e9);
        }
        if (now >= drain_deadline_ns) return;
      } else if (out_.size() < std::size_t{1} << 20) {
        // Generate what's due; the buffer cap propagates server-side
        // backpressure (paused reads) into the arrival process instead
        // of buffering unboundedly.
        if (interval_ns == 0) {
          while (!done_sending_ && outstanding_ < config_.depth &&
                 stats_.sent < budget_) {
            enqueue_request(now);
          }
        } else {
          while (now >= next_send_ns && next_send_ns < stop_at_ns_ &&
                 stats_.sent < budget_ &&
                 out_.size() < std::size_t{1} << 20) {
            enqueue_request(next_send_ns);  // latency runs from the due time
            next_send_ns += interval_ns;
          }
        }
      }

      if (!flush(fd)) return;

      // While the buffer cap has generation paused, wait for drain
      // (POLLOUT / responses) instead of spinning on the past-due
      // schedule.
      int timeout_ms = 50;
      if (!done_sending_ && interval_ns != 0 &&
          out_.size() < std::size_t{1} << 20) {
        const std::uint64_t later = obs::now_ns();
        timeout_ms = later >= next_send_ns
                         ? 0
                         : static_cast<int>(
                               std::min<std::uint64_t>(
                                   (next_send_ns - later) / 1000000 + 1, 50));
      }
      pollfd pfd{fd, POLLIN, 0};
      if (!out_.empty()) pfd.events |= POLLOUT;
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc < 0 && errno != EINTR) {
        stats_.io_errors += 1;
        return;
      }
      if (rc > 0 && (pfd.revents & POLLIN) && !read_responses(fd)) return;
    }
  }

  void enqueue_request(std::uint64_t stamp_ns) {
    RequestMsg msg;
    msg.id = (static_cast<std::uint64_t>(index_) << kSeqBits) | stats_.sent;
    msg.dim = static_cast<hcube::Dim>(config_.dim);
    msg.resolution = hcube::Resolution::HighToLow;
    if (config_.mix == "random") {
      msg.source = static_cast<hcube::NodeId>(rng_() % topo_.num_nodes());
      msg.destinations = workload::random_destinations(
          topo_, msg.source, config_.dest_count, rng_);
    } else {
      // XOR-translate a pooled canonical (source 0) shape to a random
      // source: every request is distinct on the wire yet hits the
      // translation cache's relative entry.
      const auto& shape = shapes_[stats_.sent % shapes_.size()];
      const auto t = static_cast<hcube::NodeId>(rng_() % topo_.num_nodes());
      msg.source = t;
      msg.destinations.resize(shape.size());
      for (std::size_t i = 0; i < shape.size(); ++i) {
        msg.destinations[i] = shape[i] ^ t;
      }
    }
    encode_request(msg, out_);
    send_ns_.push_back(stamp_ns);
    ++stats_.sent;
    ++outstanding_;
  }

  bool flush(int fd) {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd, out_.data() + out_off_,
                               out_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      stats_.io_errors += 1;
      return false;
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    return true;
  }

  bool read_responses(int fd) {
    char buf[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        in_.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        if (n == 0 && outstanding_ == 0 && done_sending_) return false;
        stats_.io_errors += 1;
        return false;
      }
      break;
    }

    std::size_t consumed = 0;
    while (true) {
      std::size_t size = 0;
      try {
        size = frame_size(std::string_view(in_).substr(consumed),
                          kMaxFrameBytes);
        if (size == 0) break;
        const ResponseMsg response = decode_response(
            std::string_view(in_).substr(consumed + 4, size - 4));
        consumed += size;
        const auto status = static_cast<std::size_t>(response.status);
        stats_.counts[status] += 1;
        if (outstanding_ > 0) --outstanding_;
        const std::uint64_t seq = response.id & kSeqMask;
        if (response.status == Status::Ok && seq < send_ns_.size()) {
          stats_.latencies_ns.push_back(obs::now_ns() - send_ns_[seq]);
        }
      } catch (const ProtocolError&) {
        stats_.io_errors += 1;
        return false;
      }
    }
    in_.erase(0, consumed);
    return true;
  }

  const LoadgenConfig& config_;
  const int index_;
  const std::vector<std::vector<hcube::NodeId>>& shapes_;
  const std::uint64_t origin_ns_;  ///< open loop: arrival 0 of connection 0
  const std::uint64_t stop_at_ns_;
  const std::uint64_t budget_;

  workload::Rng rng_;
  hcube::Topology topo_;
  ConnStats stats_;
  /// Latency origin per sequence number: due time (open) or send time.
  std::vector<std::uint64_t> send_ns_;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t outstanding_ = 0;
  bool done_sending_ = false;
};

}  // namespace

std::uint64_t LoadgenResult::latency_ns(double q) const {
  if (latencies_ns.empty()) return 0;
  const auto last = latencies_ns.size() - 1;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(last));
  return latencies_ns[std::min(rank, last)];
}

LoadgenResult run_loadgen(const LoadgenConfig& config) {
  if (config.connections < 1) {
    throw std::invalid_argument("loadgen needs at least one connection");
  }
  if (config.dim < 1 || config.dim > static_cast<int>(hcube::kMaxDim)) {
    throw std::invalid_argument("loadgen dim outside [1, kMaxDim]");
  }
  const hcube::Topology topo(static_cast<hcube::Dim>(config.dim));
  if (config.dest_count + 1 > topo.num_nodes()) {
    throw std::invalid_argument("dest_count must leave room for the source");
  }

  // The canonical shape pool all connections share ("translated" mix).
  std::vector<std::vector<hcube::NodeId>> shapes;
  shapes.reserve(std::max<std::size_t>(config.shape_pool, 1));
  workload::Rng shape_rng(
      workload::derive_seed(config.seed, 0x53484150ull, 0));
  for (std::size_t i = 0; i < std::max<std::size_t>(config.shape_pool, 1);
       ++i) {
    shapes.push_back(
        workload::random_destinations(topo, 0, config.dest_count, shape_rng));
  }

  const std::uint64_t start_ns = obs::now_ns();
  const std::uint64_t stop_at_ns =
      config.total_requests > 0
          ? ~std::uint64_t{0}
          : start_ns + static_cast<std::uint64_t>(config.duration_s * 1e9);
  const std::uint64_t budget =
      config.total_requests > 0
          ? (config.total_requests +
             static_cast<std::uint64_t>(config.connections) - 1) /
                static_cast<std::uint64_t>(config.connections)
          : ~std::uint64_t{0};

  std::vector<ConnStats> per_conn(
      static_cast<std::size_t>(config.connections));
  std::vector<std::thread> threads;
  threads.reserve(per_conn.size());
  for (int i = 0; i < config.connections; ++i) {
    threads.emplace_back([&, i] {
      ConnDriver driver(config, i, shapes, start_ns, stop_at_ns, budget);
      per_conn[static_cast<std::size_t>(i)] = driver.run();
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall =
      static_cast<double>(obs::now_ns() - start_ns) / 1e9;

  LoadgenResult result;
  result.wall_seconds = wall;
  for (const ConnStats& c : per_conn) {
    result.sent += c.sent;
    result.ok += c.counts[static_cast<std::size_t>(Status::Ok)];
    result.shed_queue_full +=
        c.counts[static_cast<std::size_t>(Status::ShedQueueFull)];
    result.shed_deadline +=
        c.counts[static_cast<std::size_t>(Status::ShedDeadline)];
    result.bad_request +=
        c.counts[static_cast<std::size_t>(Status::BadRequest)];
    result.shutting_down +=
        c.counts[static_cast<std::size_t>(Status::ShuttingDown)];
    result.internal_error +=
        c.counts[static_cast<std::size_t>(Status::InternalError)];
    result.io_errors += c.io_errors;
    result.lost += c.outstanding_at_exit;
    result.latencies_ns.insert(result.latencies_ns.end(),
                               c.latencies_ns.begin(), c.latencies_ns.end());
  }
  std::sort(result.latencies_ns.begin(), result.latencies_ns.end());
  return result;
}

std::string bench_artifact_json(const LoadgenConfig& config,
                                const LoadgenResult& result) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("schema").value("hypercast-bench-v1");
  w.key("name").value("serve_net");
  w.key("kind").value("micro");
  w.key("description")
      .value(std::string(config.open_rate > 0.0 ? "open" : "closed") +
             "-loop loopback SLO bench of the net serving front end");
  w.key("config").begin_object();
  w.key("connections")
      .value(static_cast<std::uint64_t>(config.connections));
  w.key("depth").value(static_cast<std::uint64_t>(config.depth));
  w.key("open_rate").value(config.open_rate);
  w.key("duration_s").value(config.duration_s);
  w.key("total_requests").value(config.total_requests);
  w.key("seed").value(config.seed);
  w.key("dim").value(static_cast<std::uint64_t>(config.dim));
  w.key("dest_count").value(static_cast<std::uint64_t>(config.dest_count));
  w.key("mix").value(config.mix);
  w.end_object();
  w.key("wall_seconds").begin_array().value(result.wall_seconds).end_array();
  w.key("metrics").begin_object();
  w.key("requests_per_sec").value(result.requests_per_sec());
  w.key("sent").value(static_cast<double>(result.sent));
  w.key("ok").value(static_cast<double>(result.ok));
  w.key("shed_rate").value(result.shed_rate());
  w.key("shed_queue_full").value(static_cast<double>(result.shed_queue_full));
  w.key("shed_deadline").value(static_cast<double>(result.shed_deadline));
  w.key("bad_request").value(static_cast<double>(result.bad_request));
  w.key("lost").value(static_cast<double>(result.lost));
  w.key("io_errors").value(static_cast<double>(result.io_errors));
  w.key("latency_p50_us")
      .value(static_cast<double>(result.latency_ns(0.50)) / 1e3);
  w.key("latency_p99_us")
      .value(static_cast<double>(result.latency_ns(0.99)) / 1e3);
  w.key("latency_p999_us")
      .value(static_cast<double>(result.latency_ns(0.999)) / 1e3);
  w.end_object();
  w.key("series").begin_array().end_array();
  bench::write_machine(w);
  w.end_object();
  return std::move(w).str();
}

}  // namespace hypercast::net
