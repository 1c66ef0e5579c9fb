#include "core/sf_tree.hpp"

#include <deque>

#include "hcube/bits.hpp"

namespace hypercast::core {

namespace {

struct Task {
  NodeId node;          ///< holder of the message
  Dim dims_remaining;   ///< may forward over key-space bits [0, dims_remaining)
  std::vector<std::uint32_t> targets;  ///< relative keys still to cover (not node)
};

}  // namespace

MulticastSchedule sf_tree(const MulticastRequest& req) {
  req.validate();
  const Topology& topo = req.topo;
  ScheduleBuilder schedule(topo, req.source);

  std::vector<std::uint32_t> targets;
  targets.reserve(req.destinations.size());
  for (const NodeId d : req.destinations) {
    targets.push_back(hcube::relative_key(topo, req.source, d));
  }

  const std::uint32_t source_key = topo.key(req.source);
  const auto to_node = [&](std::uint32_t rel) {
    return topo.unkey(rel ^ source_key);
  };
  // Key-space bit b corresponds to physical dimension b (HighToLow) or
  // n-1-b (LowToHigh); forwarding in key space descending matches the
  // resolution order either way.
  const auto rel_neighbor = [](std::uint32_t rel, Dim bit) {
    return rel ^ (std::uint32_t{1} << bit);
  };

  std::deque<Task> work;
  std::vector<NodeId> payload;  // per-send scratch, copied by add_send
  work.push_back(Task{req.source, topo.dim(), std::move(targets)});
  while (!work.empty()) {
    Task task = std::move(work.front());
    work.pop_front();
    const std::uint32_t here =
        hcube::relative_key(topo, req.source, task.node);
    for (Dim b = task.dims_remaining - 1; b >= 0; --b) {
      // Split the remaining targets by bit b relative to the holder.
      std::vector<std::uint32_t> far;
      std::vector<std::uint32_t> near;
      for (const std::uint32_t t : task.targets) {
        (hcube::test_bit(t, b) != hcube::test_bit(here, b) ? far : near)
            .push_back(t);
      }
      task.targets = std::move(near);
      if (far.empty()) continue;
      const std::uint32_t next_rel = rel_neighbor(here, b);
      const NodeId next = to_node(next_rel);
      payload.clear();
      std::vector<std::uint32_t> sub;
      for (const std::uint32_t t : far) {
        if (t != next_rel) {
          payload.push_back(to_node(t));
          sub.push_back(t);
        }
      }
      schedule.add_send(task.node, next, payload);
      // The relay keeps covering the far side with the lower dimensions.
      if (!sub.empty()) work.push_back(Task{next, b, std::move(sub)});
    }
  }
  return std::move(schedule).build();
}

}  // namespace hypercast::core
