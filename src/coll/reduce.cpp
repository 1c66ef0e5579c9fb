#include "coll/reduce.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/reachable.hpp"
#include "sim/worm_engine.hpp"

namespace hypercast::coll {

namespace {

using hcube::NodeId;
using sim::SimTime;

/// Payload of barrier control messages: a few flits.
constexpr std::size_t kBarrierBytes = 8;

class ReduceEngine {
 public:
  ReduceEngine(const core::MulticastSchedule& tree, const ReduceConfig& config)
      : tree_(tree),
        config_(config),
        worms_(tree.topo(), config.cost, config.port, queue_, nullptr,
               config.record_trace) {
    worms_.set_delivery_handler(
        [](void* ctx, sim::MessageId m, SimTime tail) {
          ReduceEngine* e = static_cast<ReduceEngine*>(ctx);
          e->folded(e->worms_.destination(m), m, tail);
        },
        this);
  }

  ReduceResult run() {
    const auto info = core::tree_info(tree_);
    parent_ = info.parent;

    // Subtree sizes (for Gather-mode message growth) and child counts.
    const auto reach = core::all_reachable_sets(tree_);
    for (const auto& [node, set] : reach) {
      subtree_size_[node] = set.size();
    }
    pending_[tree_.source()] = tree_.sends_from(tree_.source()).size();
    for (const NodeId r : tree_.recipients()) {
      pending_[r] = tree_.sends_from(r).size();
    }

    // Everyone enters at t = 0; leaves send immediately.
    for (const auto& [node, count] : pending_) {
      cpu_free_[node] = 0;
      if (count == 0 && node != tree_.source()) {
        send_to_parent(node, 0);
      }
    }
    if (pending_.size() == 1) {
      // Root alone: nothing to reduce.
      result_.completion = 0;
    }
    queue_.run_to_completion();
    finish();
    return std::move(result_);
  }

 private:
  std::size_t message_bytes(NodeId sender) const {
    if (config_.mode == ReduceConfig::Mode::Gather) {
      return subtree_size_.at(sender) * config_.block_bytes;
    }
    return config_.block_bytes;
  }

  void send_to_parent(NodeId node, SimTime ready) {
    const auto it = parent_.find(node);
    assert(it != parent_.end());
    const NodeId parent = it->second;
    const SimTime issue = std::max(cpu_free_[node], ready);
    const SimTime header_start = issue + config_.cost.send_startup;
    cpu_free_[node] = header_start;
    const sim::MessageId id =
        worms_.inject(node, parent, message_bytes(node), header_start);
    if (worms_.recording_traces()) worms_.trace(id).issue = issue;
    result_.send_time[node] = header_start;
    ++result_.stats.messages;
  }

  void folded(NodeId node, sim::MessageId id, SimTime tail) {
    // Receive + (in Combine mode) fold into the accumulator; both
    // occupy the receiving CPU.
    SimTime cpu = std::max(cpu_free_[node], tail) + config_.cost.recv_overhead;
    if (config_.mode == ReduceConfig::Mode::Combine) {
      cpu += static_cast<SimTime>(config_.block_bytes) *
             config_.combine_ns_per_byte;
    }
    cpu_free_[node] = cpu;
    if (worms_.recording_traces()) worms_.trace(id).done = cpu;

    auto& left = pending_.at(node);
    assert(left > 0);
    if (--left > 0) return;
    if (node == tree_.source()) {
      result_.completion = cpu;
    } else {
      send_to_parent(node, cpu);
    }
  }

  void finish() {
    result_.stats.events = queue_.events_processed();
    result_.stats.blocked_acquisitions = worms_.blocked_acquisitions();
    result_.stats.total_blocked_ns = worms_.total_blocked_ns();
    if (!worms_.quiescent()) {
      throw std::logic_error("reduction drained with undelivered messages");
    }
    for (const auto& [node, count] : pending_) {
      if (count != 0) {
        throw std::logic_error("reduction finished with unfolded children");
      }
    }
    if (config_.record_trace) {
      for (sim::MessageId id = 0; id < worms_.num_messages(); ++id) {
        result_.trace.messages.push_back(worms_.trace(id));
      }
    }
  }

  const core::MulticastSchedule& tree_;
  ReduceConfig config_;
  sim::EventQueue queue_;
  sim::WormEngine worms_;
  std::unordered_map<NodeId, NodeId> parent_;
  std::unordered_map<NodeId, std::size_t> subtree_size_;
  std::unordered_map<NodeId, std::size_t> pending_;
  std::unordered_map<NodeId, SimTime> cpu_free_;
  ReduceResult result_;
};

}  // namespace

ReduceResult simulate_reduce(const core::MulticastSchedule& tree,
                             const ReduceConfig& config) {
  return ReduceEngine(tree, config).run();
}

SimTime barrier(const core::MulticastSchedule& tree) {
  ReduceConfig up;
  up.block_bytes = kBarrierBytes;
  up.combine_ns_per_byte = 0;  // a barrier folds nothing
  sim::SimConfig down;
  down.message_bytes = kBarrierBytes;
  return simulate_reduce(tree, up).completion +
         sim::simulate_multicast(tree, down).max_delay();
}

}  // namespace hypercast::coll
