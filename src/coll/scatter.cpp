#include "coll/scatter.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/worm_engine.hpp"

namespace hypercast::coll {

namespace {

using hcube::NodeId;
using sim::SimTime;

class ScatterEngine {
 public:
  ScatterEngine(const core::MulticastSchedule& tree,
                const ScatterConfig& config)
      : tree_(tree),
        config_(config),
        worms_(tree.topo(), config.cost, config.port, queue_, nullptr,
               config.record_trace) {
    worms_.set_delivery_handler(
        [](void* ctx, sim::MessageId m, SimTime tail) {
          static_cast<ScatterEngine*>(ctx)->delivered(m, tail);
        },
        this);
    kind_start_node_ = queue_.register_handler(
        [](void* ctx, std::uint32_t node) {
          static_cast<ScatterEngine*>(ctx)->start_node(node);
        },
        this);
  }

  ScatterResult run() {
    cpu_free_.assign(tree_.topo().num_nodes(), 0);
    start_node(tree_.source());
    queue_.run_to_completion();
    finish();
    return std::move(result_);
  }

 private:
  /// Issues the node's sends, no earlier than now() and than its CPU is
  /// free.
  void start_node(NodeId node) {
    SimTime cpu = std::max(cpu_free_[node], queue_.now());
    for (const core::Send& send : tree_.sends_from(node)) {
      // The bundle for this subtree: the recipient's own block plus one
      // per payload destination.
      const std::size_t bytes =
          (send.payload.size() + 1) * config_.block_bytes;
      const SimTime issue = cpu;
      cpu += config_.cost.send_startup;
      const sim::MessageId id = worms_.inject(node, send.to, bytes, cpu);
      if (worms_.recording_traces()) worms_.trace(id).issue = issue;
      ++result_.stats.messages;
    }
    cpu_free_[node] = cpu;
  }

  void delivered(sim::MessageId id, SimTime tail) {
    const NodeId node = worms_.destination(id);
    const SimTime done =
        std::max(cpu_free_[node], tail) + config_.cost.recv_overhead;
    cpu_free_[node] = done;
    if (worms_.recording_traces()) worms_.trace(id).done = done;
    result_.delivery.emplace(node, done);
    queue_.schedule(done, kind_start_node_, node);
  }

  void finish() {
    result_.stats.events = queue_.events_processed();
    result_.stats.blocked_acquisitions = worms_.blocked_acquisitions();
    result_.stats.total_blocked_ns = worms_.total_blocked_ns();
    if (result_.delivery.size() != result_.stats.messages ||
        !worms_.quiescent()) {
      throw std::logic_error("scatter drained with undelivered bundles");
    }
    if (config_.record_trace) {
      for (sim::MessageId id = 0; id < worms_.num_messages(); ++id) {
        result_.trace.messages.push_back(worms_.trace(id));
      }
    }
  }

  const core::MulticastSchedule& tree_;
  ScatterConfig config_;
  sim::EventQueue queue_;
  sim::WormEngine worms_;
  std::uint16_t kind_start_node_ = 0;
  std::vector<SimTime> cpu_free_;
  ScatterResult result_;
};

}  // namespace

ScatterResult simulate_scatter(const core::MulticastSchedule& tree,
                               const ScatterConfig& config) {
  return ScatterEngine(tree, config).run();
}

}  // namespace hypercast::coll
