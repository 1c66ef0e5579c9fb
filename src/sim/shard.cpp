#include "sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <thread>
#include <utility>

#include "core/channel_load.hpp"

namespace hypercast::sim {

namespace {

/// Union-find over job indices, path-halving + union by size.
class JobDsu {
 public:
  explicit JobDsu(std::size_t n) : parent_(n), size_(n, 1) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

constexpr std::uint32_t kUnowned = static_cast<std::uint32_t>(-1);

}  // namespace

ShardPlan partition_collective_jobs(std::span<const CollectiveJob> jobs) {
  ShardPlan plan;
  if (jobs.empty()) return plan;
  const hcube::Topology& topo = jobs.front().schedule->topo();

  JobDsu dsu(jobs.size());
  // First job to stamp an arc / node owns it; later jobs touching the
  // same resource union with the owner. One pass over all footprints.
  std::vector<std::uint32_t> arc_owner(topo.num_arcs(), kUnowned);
  std::vector<std::uint32_t> node_owner(topo.num_nodes(), kUnowned);
  const auto claim = [&](std::vector<std::uint32_t>& owner, std::size_t index,
                         std::size_t job) {
    if (owner[index] == kUnowned) {
      owner[index] = static_cast<std::uint32_t>(job);
    } else {
      dsu.unite(job, owner[index]);
    }
  };

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const core::MulticastSchedule& s = *jobs[j].schedule;
    assert(s.topo() == topo && "all jobs must share one topology");
    const core::ArcFootprint fp = core::arc_footprint(topo, s);
    for (const std::uint32_t arc : fp.arcs) claim(arc_owner, arc, j);
    claim(node_owner, s.source(), j);
    for (const hcube::NodeId n : s.recipients()) {
      claim(node_owner, n, j);
    }
  }

  // Emit components ordered by smallest member, members ascending.
  std::vector<std::uint32_t> shard_of(jobs.size(), kUnowned);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t root = dsu.find(j);
    if (shard_of[root] == kUnowned) {
      shard_of[root] = static_cast<std::uint32_t>(plan.shards.size());
      plan.shards.emplace_back();
    }
    plan.shards[shard_of[root]].push_back(j);
  }
  return plan;
}

MultiSimResult simulate_collectives_sharded(
    std::span<const CollectiveJob> jobs, const SimConfig& config,
    unsigned threads) {
  if (jobs.empty()) {
    return simulate_collectives(jobs, config);
  }
  const ShardPlan plan = partition_collective_jobs(jobs);
  // One shard means every job interacts: nothing to parallelize, and
  // the joint run *is* the exact simulation.
  if (plan.shards.size() == 1) {
    MultiSimResult result = simulate_collectives(jobs, config);
    result.shards = 1;
    return result;
  }

  // Materialize each shard's contiguous job list once, up front.
  std::vector<std::vector<CollectiveJob>> shard_jobs(plan.shards.size());
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    shard_jobs[s].reserve(plan.shards[s].size());
    for (const std::size_t j : plan.shards[s]) {
      shard_jobs[s].push_back(jobs[j]);
    }
  }

  // Workers claim shards from an atomic cursor; results land in
  // per-shard slots, so completion order never shows in the output.
  std::vector<MultiSimResult> shard_results(plan.shards.size());
  std::vector<std::exception_ptr> shard_errors(plan.shards.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= plan.shards.size()) return;
      try {
        shard_results[s] = simulate_collectives(
            std::span<const CollectiveJob>(shard_jobs[s]), config);
      } catch (...) {
        shard_errors[s] = std::current_exception();
      }
    }
  };

  const std::size_t nworkers = std::max<std::size_t>(
      1, std::min<std::size_t>(threads, plan.shards.size()));
  if (nworkers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nworkers);
    for (std::size_t t = 0; t < nworkers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  // Rethrow deterministically: the first failing shard in plan order.
  for (const std::exception_ptr& e : shard_errors) {
    if (e) std::rethrow_exception(e);
  }

  // Merge in plan order (shard 0 first), scattering per-job results
  // back to original indices: fully deterministic at any thread count.
  MultiSimResult merged;
  merged.per_job.resize(jobs.size());
  merged.shards = plan.shards.size();
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    MultiSimResult& r = shard_results[s];
    merged.stats.messages += r.stats.messages;
    merged.stats.blocked_acquisitions += r.stats.blocked_acquisitions;
    merged.stats.total_blocked_ns += r.stats.total_blocked_ns;
    merged.stats.events += r.stats.events;
    for (std::size_t k = 0; k < plan.shards[s].size(); ++k) {
      merged.per_job[plan.shards[s][k]] = std::move(r.per_job[k]);
    }
    if (config.record_trace) {
      merged.trace.messages.insert(
          merged.trace.messages.end(),
          std::make_move_iterator(r.trace.messages.begin()),
          std::make_move_iterator(r.trace.messages.end()));
    }
  }
  return merged;
}

}  // namespace hypercast::sim
