#include "coll/all_to_all.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/worm_engine.hpp"

namespace hypercast::coll {

namespace {

using hcube::NodeId;
using hcube::Topology;
using sim::SimTime;

class ExchangeEngine {
 public:
  ExchangeEngine(const Topology& topo, const AllToAllConfig& config)
      : topo_(topo),
        config_(config),
        worms_(topo, config.cost, config.port, queue_, nullptr,
               config.record_trace) {
    worms_.set_delivery_handler(
        [](void* ctx, sim::MessageId m, SimTime tail) {
          ExchangeEngine* e = static_cast<ExchangeEngine*>(ctx);
          e->received(e->worms_.destination(m), m, tail);
        },
        this);
    kind_begin_round_ = queue_.register_handler(
        [](void* ctx, std::uint32_t u) {
          static_cast<ExchangeEngine*>(ctx)->begin_round(u);
        },
        this);
  }

  AllToAllResult run() {
    const std::size_t n_nodes = topo_.num_nodes();
    cpu_free_.assign(n_nodes, 0);
    round_.assign(n_nodes, 0);
    if (topo_.dim() == 0) return std::move(result_);
    for (NodeId u = 0; u < n_nodes; ++u) {
      begin_round(u);
    }
    queue_.run_to_completion();
    finish();
    return std::move(result_);
  }

 private:
  /// The dimension exchanged in logical round r follows the resolution
  /// order (the same order E-cube would route, for cache of thought;
  /// any fixed order works).
  hcube::Dim round_dim(int r) const {
    return topo_.resolution() == hcube::Resolution::HighToLow
               ? topo_.dim() - 1 - r
               : r;
  }

  std::size_t round_bytes() const {
    return (topo_.num_nodes() / 2) * config_.block_bytes;
  }

  /// Issues u's send for its current round, no earlier than now() and
  /// than its CPU is free.
  void begin_round(NodeId u) {
    const int r = round_[u];
    const NodeId peer = topo_.neighbor(u, round_dim(r));
    const SimTime issue = std::max(cpu_free_[u], queue_.now());
    const SimTime header_start = issue + config_.cost.send_startup;
    cpu_free_[u] = header_start;
    const sim::MessageId id =
        worms_.inject(u, peer, round_bytes(), header_start);
    if (worms_.recording_traces()) worms_.trace(id).issue = issue;
    ++result_.stats.messages;
  }

  void received(NodeId u, sim::MessageId id, SimTime tail) {
    const SimTime done =
        std::max(cpu_free_[u], tail) + config_.cost.recv_overhead;
    cpu_free_[u] = done;
    if (worms_.recording_traces()) worms_.trace(id).done = done;
    const int r = ++round_[u];
    if (r < topo_.dim()) {
      queue_.schedule(done, kind_begin_round_, u);
    } else {
      result_.finish[u] = done;
      result_.completion = std::max(result_.completion, done);
    }
  }

  void finish() {
    result_.stats.events = queue_.events_processed();
    result_.stats.blocked_acquisitions = worms_.blocked_acquisitions();
    result_.stats.total_blocked_ns = worms_.total_blocked_ns();
    if (result_.finish.size() != topo_.num_nodes() || !worms_.quiescent()) {
      throw std::logic_error("all-to-all drained before completing");
    }
    if (config_.record_trace) {
      for (sim::MessageId id = 0; id < worms_.num_messages(); ++id) {
        result_.trace.messages.push_back(worms_.trace(id));
      }
    }
  }

  Topology topo_;
  AllToAllConfig config_;
  sim::EventQueue queue_;
  sim::WormEngine worms_;
  std::uint16_t kind_begin_round_ = 0;
  std::vector<SimTime> cpu_free_;
  std::vector<int> round_;
  AllToAllResult result_;
};

}  // namespace

AllToAllResult simulate_all_to_all(const Topology& topo,
                                   const AllToAllConfig& config) {
  return ExchangeEngine(topo, config).run();
}

SimTime all_to_all_latency(const Topology& topo,
                           const AllToAllConfig& config) {
  const SimTime per_round =
      config.cost.send_startup + config.cost.per_hop +
      config.cost.body_time((topo.num_nodes() / 2) * config.block_bytes) +
      config.cost.recv_overhead;
  return topo.dim() * per_round;
}

}  // namespace hypercast::coll
