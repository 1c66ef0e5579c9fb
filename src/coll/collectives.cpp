#include "coll/collectives.hpp"

#include "workload/patterns.hpp"

namespace hypercast::coll {

namespace {

/// Payload of barrier control messages: a few flits.
constexpr std::size_t kBarrierBytes = 8;

}  // namespace

Collectives::Collectives(Options options)
    : options_(std::move(options)),
      algo_(&core::find_algorithm(options_.algorithm)),
      pipeline_(std::make_unique<ServePipeline>(
          options_.algorithm,
          options_.cache_enabled
              ? std::make_shared<ScheduleCache>(options_.cache)
              : nullptr)) {}

ScheduleCache::Stats Collectives::cache_stats() const {
  return pipeline_->cache() ? pipeline_->cache()->stats()
                            : ScheduleCache::Stats{};
}

core::MulticastSchedule Collectives::plan(
    hcube::NodeId source, std::span<const hcube::NodeId> dests) const {
  return *plan_shared(source, dests);
}

std::shared_ptr<const core::MulticastSchedule> Collectives::plan_shared(
    hcube::NodeId source, std::span<const hcube::NodeId> dests) const {
  const core::MulticastRequest req{
      options_.topo, source, std::vector<hcube::NodeId>(dests.begin(),
                                                        dests.end())};
  return pipeline_->serve(req);
}

sim::SimResult Collectives::multicast(hcube::NodeId source,
                                      std::span<const hcube::NodeId> dests,
                                      std::size_t bytes) const {
  const auto schedule = plan_shared(source, dests);
  sim::SimConfig config;
  config.cost = options_.cost;
  config.port = options_.port;
  config.message_bytes = bytes;
  return sim::simulate_multicast(*schedule, config);
}

sim::SimResult Collectives::broadcast(hcube::NodeId source,
                                      std::size_t bytes) const {
  const auto dests = workload::broadcast_destinations(options_.topo, source);
  return multicast(source, dests, bytes);
}

ReduceResult Collectives::reduce(hcube::NodeId root,
                                 std::span<const hcube::NodeId> participants,
                                 std::size_t bytes) const {
  const auto tree = plan_shared(root, participants);
  ReduceConfig config;
  config.cost = options_.cost;
  config.port = options_.port;
  config.block_bytes = bytes;
  config.mode = ReduceConfig::Mode::Combine;
  return simulate_reduce(*tree, config);
}

ReduceResult Collectives::gather(hcube::NodeId root,
                                 std::span<const hcube::NodeId> participants,
                                 std::size_t bytes_per_node) const {
  const auto tree = plan_shared(root, participants);
  ReduceConfig config;
  config.cost = options_.cost;
  config.port = options_.port;
  config.block_bytes = bytes_per_node;
  config.mode = ReduceConfig::Mode::Gather;
  return simulate_reduce(*tree, config);
}

sim::SimTime Collectives::barrier(
    hcube::NodeId root, std::span<const hcube::NodeId> participants) const {
  const auto tree = plan_shared(root, participants);

  ReduceConfig up;
  up.cost = options_.cost;
  up.port = options_.port;
  up.block_bytes = kBarrierBytes;
  up.combine_ns_per_byte = 0;  // a barrier folds nothing
  const auto arrive = simulate_reduce(*tree, up);

  sim::SimConfig down;
  down.cost = options_.cost;
  down.port = options_.port;
  down.message_bytes = kBarrierBytes;
  const auto release = sim::simulate_multicast(*tree, down);

  return arrive.completion + release.max_delay(participants);
}

}  // namespace hypercast::coll
