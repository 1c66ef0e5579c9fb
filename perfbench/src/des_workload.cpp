// des_tenants: schedule-to-delivery on the paper's 10-cube at 4 KiB.
// A seed-determined, fixed set of 64 multi-tenant batches is served
// through ServePipeline::serve_batch_cosched (cache warm after set-up),
// expanded into launch waves and replayed in the wormhole DES. Every
// replay must deliver every requested destination and reproduce the
// first pass's virtual times exactly.

#include <algorithm>
#include <memory>
#include <vector>

#include "coll/coscheduler.hpp"
#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "common.hpp"
#include "core/bounds.hpp"
#include "core/stepwise.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/concurrent.hpp"

namespace perfbench {
namespace {

using namespace hypercast;

constexpr hcube::Dim kDim = 10;
constexpr std::size_t kTenants = 8;
constexpr std::size_t kPerTenant = 4;
constexpr std::size_t kDests = 64;
constexpr std::size_t kBatches = 64;
constexpr std::size_t kMessageBytes = 4096;

using Batch = std::vector<core::MulticastRequest>;

std::vector<Batch> make_batches(std::uint64_t seed) {
  const hcube::Topology topo(kDim);
  std::vector<Batch> batches;
  for (std::size_t b = 0; b < kBatches; ++b) {
    workload::Rng rng(workload::derive_seed(seed, 0x7e4a47ull, b));
    Batch batch;
    for (auto& r :
         workload::multi_tenant_mix(topo, kTenants, kPerTenant, kDests, rng)) {
      batch.push_back(core::MulticastRequest{topo, r.source,
                                             std::move(r.destinations)});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Virtual-time outcome of one batch replay.
struct BatchSim {
  double makespan_us = 0.0;
  double max_delay_us = 0.0;  ///< mean over multicasts of worst - launch
  double avg_delay_us = 0.0;  ///< mean over multicasts of mean - launch
  double blocked_us = 0.0;
  std::uint64_t events = 0;
  std::uint64_t blocked_acq = 0;
  std::uint64_t undelivered = 0;
  std::size_t waves = 0;

  bool same_virtual(const BatchSim& o) const {
    return makespan_us == o.makespan_us && max_delay_us == o.max_delay_us &&
           avg_delay_us == o.avg_delay_us && blocked_us == o.blocked_us;
  }
};

/// Serve, plan, replay and check one batch; spans around each call.
BatchSim run_batch(const coll::ServePipeline& pipeline, const Batch& batch,
                   std::uint64_t id, SpanLog& log) {
  const Scope root(log, "batch", id);
  coll::ServePipeline::CoschedBatch served;
  {
    const Scope s(log, "coll.serve_batch_cosched", id, root.index());
    served = pipeline.serve_batch_cosched(batch, {}, coll::CoschedPolicy{});
  }
  std::vector<const core::MulticastSchedule*> ptrs;
  ptrs.reserve(served.schedules.size());
  for (const auto& s : served.schedules) ptrs.push_back(s.get());
  const std::vector<sim::CollectiveJob> jobs =
      coll::CoScheduler::to_jobs(served.plan, ptrs);
  sim::SimConfig config;
  config.message_bytes = kMessageBytes;
  sim::MultiSimResult res;
  {
    const Scope s(log, "sim.simulate_collectives", id, root.index());
    res = sim::simulate_collectives(jobs, config);
  }
  BatchSim out;
  out.waves = served.plan.waves.size();
  out.makespan_us = sim::to_microseconds(res.makespan());
  out.blocked_us = static_cast<double>(res.stats.total_blocked_ns) / 1e3;
  out.events = res.stats.events;
  out.blocked_acq = res.stats.blocked_acquisitions;
  // Jobs are ordered by (wave, member); map each back to its request.
  std::size_t j = 0;
  double max_sum = 0.0, avg_sum = 0.0;
  for (const auto& wave : served.plan.waves) {
    for (const std::size_t member : wave.members) {
      const sim::SimResult& r = res.per_job[j];
      const auto start = static_cast<double>(jobs[j].start);
      const auto& dests = batch[member].destinations;
      for (const hcube::NodeId d : dests) {
        if (!r.delivery.contains(d)) ++out.undelivered;
      }
      if (r.delivery.contains(dests.front())) {
        max_sum += (static_cast<double>(r.max_delay(dests)) - start) / 1e3;
        avg_sum += (r.avg_delay(dests) - start) / 1e3;
      }
      ++j;
    }
  }
  out.undelivered += batch.size() - j;  // shed or unplanned requests
  out.max_delay_us = max_sum / static_cast<double>(batch.size());
  out.avg_delay_us = avg_sum / static_cast<double>(batch.size());
  return out;
}

}  // namespace

Result run_des(const Options& o) {
  Result r;
  r.threads = {{"main", 1}};
  const std::vector<Batch> batches = make_batches(o.seed);

  // Set-up: pipeline construction + one serving pass to warm the cache,
  // five times, median. The last pipeline stays.
  std::vector<double> setups, setup_walls;
  std::unique_ptr<coll::ServePipeline> pipeline;
  for (int rep = 0; rep < (o.trace ? 1 : 5); ++rep) {
    const std::uint64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    pipeline = std::make_unique<coll::ServePipeline>(
        "wsort", std::make_shared<coll::ScheduleCache>());
    for (const Batch& b : batches) pipeline->serve_batch(b);
    setups.push_back(process_cpu_s() - cpu0);
    setup_walls.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // The fixed set, first pass: the run's virtual-time figures.
  SpanLog quiet;
  std::vector<BatchSim> first;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    first.push_back(run_batch(*pipeline, batches[b], b, quiet));
  }
  const auto virt = [&](double BatchSim::*field) {
    double sum = 0.0;
    for (const BatchSim& s : first) sum += s.*field;
    return sum / static_cast<double>(first.size());
  };
  double step_ratio = 0.0;
  std::size_t multicasts = 0;
  for (const Batch& batch : batches) {
    for (const core::MulticastRequest& req : batch) {
      const auto schedule = pipeline->serve(req);
      step_ratio += static_cast<double>(
                        core::assign_steps(*schedule,
                                           core::PortModel::all_port(),
                                           req.destinations)
                            .total_steps) /
                    core::all_port_step_lower_bound(req.destinations.size(),
                                                    kDim);
      ++multicasts;
    }
  }
  step_ratio /= static_cast<double>(multicasts);
  for (const BatchSim& s : first) {
    r.attempted += 1;
    if (s.undelivered != 0) r.fail();
  }
  if (o.digest) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Batch& batch : batches) {
      for (const auto& req : batch) {
        h = fnv1a(&req.source, sizeof(req.source), h);
        h = fnv1a(req.destinations.data(),
                  req.destinations.size() * sizeof(hcube::NodeId), h);
      }
    }
    r.inputs_hash = h;
    r.metric("sim_makespan_us", virt(&BatchSim::makespan_us), "us");
    r.metric("sim_max_delay_us", virt(&BatchSim::max_delay_us), "us");
    r.metric("sim_avg_delay_us", virt(&BatchSim::avg_delay_us), "us");
    r.metric("sim_blocked_us", virt(&BatchSim::blocked_us), "us");
    return r;
  }

  // Timed loop: cycle the fixed set; each replay is checked against its
  // first-pass virtual times. Traced runs split the time between an
  // untraced and a traced pass over the same batch sequence.
  const auto budget_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
  SpanLog log(o.trace ? 4 * 200000 : 0);
  std::vector<std::uint64_t> batch_ns;
  // CPU time per batch. Its median is the gated cost: steadier than the
  // mean on a shared host, where other tenants inflate some batches.
  std::vector<double> op_cpu_us;
  std::uint64_t events = 0, blocked_acq = 0, waves = 0;
  const auto timed = [&](std::uint64_t duration_ns, std::size_t min_batches,
                         std::size_t max_batches,
                         std::vector<std::uint64_t>& lat) {
    const std::uint64_t t0 = now_ns();
    std::size_t i = 0;
    while ((now_ns() - t0 < duration_ns || i < min_batches) &&
           i < max_batches) {
      const std::size_t b = i % kBatches;
      const std::uint64_t s0 = now_ns();
      const double c0 = thread_cpu_s();
      const BatchSim s = run_batch(*pipeline, batches[b], i, log);
      op_cpu_us.push_back((thread_cpu_s() - c0) * 1e6);
      lat.push_back(now_ns() - s0);
      r.attempted += 1;
      if (s.undelivered != 0 || !s.same_virtual(first[b])) r.fail();
      events += s.events;
      blocked_acq += s.blocked_acq;
      waves += s.waves;
      ++i;
    }
    return now_ns() - t0;
  };

  if (!o.trace) {
    const std::uint64_t wall =
        timed(budget_ns, kBatches, ~std::size_t{0}, batch_ns);
    const double rate = static_cast<double>(batch_ns.size()) /
                        (static_cast<double>(wall) / 1e9);
    const double p50 = quantile_us(batch_ns, 0.50);
    const double p99 = quantile_us(batch_ns, 0.99);
    const double cpu_us = median(op_cpu_us);
    const double setup = median(setups);
    const double rss = peak_rss_mb();
    const double fail_frac =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    r.metric("setup_s", setup, "s");
    r.metric("rss_mb", rss, "MiB");
    r.metric("ok_frac", 1.0 - fail_frac, "ratio");
    r.metric("cpu_us_per_op", cpu_us, "us");
    r.metric("sim_max_delay_us", virt(&BatchSim::max_delay_us), "us");
    r.metric("sim_avg_delay_us", virt(&BatchSim::avg_delay_us), "us");

    r.note("setup_s", setup, "s");
    r.note("setup_wall_s", median(setup_walls), "s");
    r.note("cpu_us_per_op", cpu_us, "us");
    r.note("rss_mb", rss, "MiB");
    r.note("fail_frac", fail_frac, "ratio");
    r.note("des_batches_per_s", rate, "1/s");
    r.note("latency_p50_us", p50, "us");
    r.note("latency_p99_us", p99, "us");
    r.note("latency_samples", static_cast<double>(batch_ns.size()), "count");
    r.note("sim_makespan_us", virt(&BatchSim::makespan_us), "us");
    r.note("sim_max_delay_us", virt(&BatchSim::max_delay_us), "us");
    r.note("sim_avg_delay_us", virt(&BatchSim::avg_delay_us), "us");
    r.note("sim_blocked_us", virt(&BatchSim::blocked_us), "us");
    return r;
  }

  // ---- traced run
  std::vector<std::uint64_t> untraced_ns, traced_ns;
  const std::uint64_t untraced_wall =
      timed(budget_ns / 2, kBatches, 100000, untraced_ns);
  const std::size_t count = untraced_ns.size();
  const coll::ScheduleCache::Stats before = pipeline->cache()->stats();
  events = blocked_acq = waves = 0;
  log.enabled = true;
  const std::uint64_t traced_wall = timed(0, count, count, traced_ns);
  // Probe: the co-scheduler's plan alone, on each batch's schedules.
  coll::CoScheduler scheduler;
  for (std::size_t i = 0; i < count; ++i) {
    const Batch& batch = batches[i % kBatches];
    std::vector<std::shared_ptr<const core::MulticastSchedule>> schedules;
    for (const auto& req : batch) schedules.push_back(pipeline->serve(req));
    const Scope s(log, "coll.cosched_plan", i);
    scheduler.plan(schedules);
  }
  log.enabled = false;
  const coll::ScheduleCache::Stats after = pipeline->cache()->stats();
  if (!o.trace_out.empty()) log.write(o.trace_out);

  const auto aggs = log.self_times();
  const auto n = static_cast<double>(count);
  const auto span_total = [&](const char* name) {
    const auto it = aggs.find(name);
    return it == aggs.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count);
  };
  const double replay_ns = span_total("sim.simulate_collectives");
  const double requests = n * static_cast<double>(kTenants * kPerTenant);
  const auto lookups = static_cast<double>(after.lookups() - before.lookups());
  const auto hits =
      static_cast<double>(after.total_hits() - before.total_hits());
  init_layer_metrics(r);
  r.set("coll.serve_ns",
        span_total("coll.serve_batch_cosched") /
            static_cast<double>(kTenants * kPerTenant));
  r.set("coll.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  r.set("coll.lookups", lookups);
  r.set("coll.requests", requests);
  r.set("coll.evictions_per_req",
        static_cast<double>(after.evictions - before.evictions) / requests);
  r.set("core.step_ratio", step_ratio);
  r.set("coll.cosched_plan_us", span_total("coll.cosched_plan") / 1e3);
  r.set("coll.cosched_waves", static_cast<double>(waves) / n);
  r.set("sim.replay_ms", replay_ns / 1e6);
  r.set("sim.events", static_cast<double>(events) / n);
  r.set("sim.ns_per_event",
        events ? replay_ns * n / static_cast<double>(events) : 0.0);
  r.set("sim.blocked_acq", static_cast<double>(blocked_acq) / n);
  r.set("trace.overhead_pct", overhead_pct(untraced_wall, traced_wall));
  for (const auto& [name, v] : r.metrics) r.note(name, v.value, v.unit);
  return r;
}

}  // namespace perfbench
