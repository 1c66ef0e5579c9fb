#ifndef HYPERCAST_NET_LOADGEN_HPP
#define HYPERCAST_NET_LOADGEN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace hypercast::net {

/// Closed- and open-loop load generator for the binary serving
/// protocol. Deterministic by construction: the request mix is derived
/// from (seed, connection index, sequence number), so two runs against
/// the same server configuration issue byte-identical request streams.
struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  int connections = 4;  ///< one client thread per connection

  /// Closed loop (open_rate == 0): each connection keeps `depth`
  /// requests outstanding — throughput finds the server's capacity.
  std::size_t depth = 16;

  /// Open loop (open_rate > 0): requests arrive on a schedule at this
  /// aggregate rate (req/s across all connections), regardless of how
  /// fast responses come back — latency under a fixed offered load.
  /// Each request's latency runs from its due time, not from when it
  /// was actually sent, so a generator that falls behind its schedule
  /// shows the lag instead of hiding the backlog.
  double open_rate = 0.0;

  /// Stop criterion: a total request budget, or a wall-clock duration
  /// when the budget is 0.
  std::uint64_t total_requests = 0;
  double duration_s = 2.0;

  std::uint64_t seed = 0x5EEDCAFEull;

  /// Request shape: m destinations on an n-cube.
  int dim = 10;
  std::size_t dest_count = 48;
  std::size_t shape_pool = 64;  ///< distinct canonical destination sets

  /// "translated": every request is an XOR-translation of a pooled
  /// canonical shape (exercises the translation cache's steady state).
  /// "random": a fresh destination set per request (miss-heavy).
  std::string mix = "translated";

  double drain_timeout_s = 5.0;  ///< wait for trailing responses
};

struct LoadgenResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t shutting_down = 0;
  std::uint64_t internal_error = 0;
  std::uint64_t lost = 0;  ///< sent but never answered (drain timeout)
  std::uint64_t io_errors = 0;  ///< connections that died mid-run
  double wall_seconds = 0.0;

  /// One entry per Ok response, in nanoseconds up to its decode: from
  /// the due time (open loop) or the send (closed loop). Sorted
  /// ascending after the run.
  std::vector<std::uint64_t> latencies_ns;

  std::uint64_t answered() const {
    return ok + shed_queue_full + shed_deadline + bad_request +
           shutting_down + internal_error;
  }
  std::uint64_t shed() const { return shed_queue_full + shed_deadline; }
  double requests_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(ok) / wall_seconds : 0.0;
  }
  double shed_rate() const {
    return sent > 0 ? static_cast<double>(shed()) / static_cast<double>(sent)
                    : 0.0;
  }
  /// Latency quantile in nanoseconds (q in [0, 1]); 0 when empty.
  std::uint64_t latency_ns(double q) const;
};

/// Run the configured load against a listening server and block until
/// the budget/duration is exhausted and outstanding responses drained.
/// Throws std::system_error when no connection can be established.
LoadgenResult run_loadgen(const LoadgenConfig& config);

/// Render the result as a "hypercast-bench-v1" artifact (name
/// "serve_net") so the standard gates apply: requests_per_sec is the
/// rate metric check_bench_regression.py compares, latency quantiles
/// and the shed rate ride along as informational metrics.
std::string bench_artifact_json(const LoadgenConfig& config,
                                const LoadgenResult& result);

}  // namespace hypercast::net

#endif  // HYPERCAST_NET_LOADGEN_HPP
