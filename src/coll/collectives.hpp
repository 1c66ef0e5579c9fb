#ifndef HYPERCAST_COLL_COLLECTIVES_HPP
#define HYPERCAST_COLL_COLLECTIVES_HPP

#include <memory>
#include <string>

#include "coll/reduce.hpp"
#include "coll/serve_pipeline.hpp"
#include "core/registry.hpp"
#include "sim/wormhole_sim.hpp"

namespace hypercast::coll {

/// The adoptable front door: an MPI-flavoured collective-communication
/// planner/estimator for an all-port wormhole-routed hypercube. Every
/// operation plans a unicast-based schedule with the configured
/// algorithm (W-sort by default) and runs it through the wormhole
/// simulator, returning per-node timing — what a runtime system would
/// use to choose algorithms, and what a researcher uses to explore the
/// design space.
class Collectives {
 public:
  struct Options {
    hcube::Topology topo{6};
    core::PortModel port = core::PortModel::all_port();
    sim::CostModel cost = sim::CostModel::ncube2();
    std::string algorithm = "wsort";  ///< registry name

    /// Plan through the translation-invariant ScheduleCache (repeated
    /// and XOR-translated requests pay tree construction once). Cached
    /// and uncached planning produce bit-identical schedules; disable
    /// only to measure, or to shed the cache's memory footprint.
    bool cache_enabled = true;
    ScheduleCache::Config cache;
  };

  explicit Collectives(Options options);

  const Options& options() const { return options_; }

  /// The serving pipeline every plan goes through (its cache is null
  /// when cache_enabled is false).
  const ServePipeline& pipeline() const { return *pipeline_; }

  /// Planning-cache counters (all zero when the cache is disabled).
  ScheduleCache::Stats cache_stats() const;

  /// The multicast tree the configured algorithm plans for this
  /// source/destination set.
  core::MulticastSchedule plan(hcube::NodeId source,
                               std::span<const hcube::NodeId> dests) const;

  /// Same plan as an immutably shared, finalized schedule — what the
  /// simulating operations below consume; a cache hit costs a key sort
  /// plus (for non-zero sources) a linear XOR relabeling.
  std::shared_ptr<const core::MulticastSchedule> plan_shared(
      hcube::NodeId source, std::span<const hcube::NodeId> dests) const;

  /// One-to-many, arbitrary destination set.
  sim::SimResult multicast(hcube::NodeId source,
                           std::span<const hcube::NodeId> dests,
                           std::size_t bytes) const;

  /// One-to-all.
  sim::SimResult broadcast(hcube::NodeId source, std::size_t bytes) const;

  /// Many-to-one fold over the reverse tree: every participant
  /// contributes `bytes`; messages stay `bytes` long.
  ReduceResult reduce(hcube::NodeId root,
                      std::span<const hcube::NodeId> participants,
                      std::size_t bytes) const;

  /// Many-to-one concatenation: messages grow with subtree size.
  ReduceResult gather(hcube::NodeId root,
                      std::span<const hcube::NodeId> participants,
                      std::size_t bytes_per_node) const;

  /// Full-tree barrier: a minimal-payload reduction to `root` followed
  /// by a minimal-payload broadcast back. Returns the release time of
  /// the last participant.
  sim::SimTime barrier(hcube::NodeId root,
                       std::span<const hcube::NodeId> participants) const;

 private:
  Options options_;
  const core::AlgorithmEntry* algo_;
  std::unique_ptr<ServePipeline> pipeline_;
};

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_COLLECTIVES_HPP
