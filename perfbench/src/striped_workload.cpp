// striped_faults: 1 MiB striped broadcasts on an 8-cube under link
// faults. Seeded draws alternate one link fault with k = 1 parity and
// two link faults with k = 2. Each draw is planned by StripedPlanner
// (repair ladder: drop -> paths disjoint repair -> fault greedy repair),
// Reed-Solomon encoded with split_stripes, replayed in the DES with the
// fault set armed, and rebuilt with reassemble_stripes from the
// surviving stripes only; the result must equal the payload.

#include <algorithm>
#include <memory>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/striped.hpp"
#include "common.hpp"
#include "core/bounds.hpp"
#include "core/stepwise.hpp"
#include "fault/fault_aware.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/random_sets.hpp"

namespace perfbench {
namespace {

using namespace hypercast;

constexpr hcube::Dim kDim = 8;
constexpr std::size_t kPayload = std::size_t{1} << 20;
constexpr std::size_t kFixedDraws = 32;  ///< the virtual-time set

struct Draw {
  std::size_t parity = 1;  ///< k
  fault::FaultSet faults{hcube::Topology(kDim)};
  core::MulticastRequest request{hcube::Topology(kDim), 0, {}};
};

Draw make_draw(std::uint64_t seed, std::uint64_t index) {
  const hcube::Topology topo(kDim);
  workload::Rng rng(workload::derive_seed(seed, 0x57a1bed5ull, index));
  Draw d;
  d.parity = 1 + index % 2;
  while (d.faults.num_failed_links() < d.parity) {
    const auto u = static_cast<hcube::NodeId>(rng() % topo.num_nodes());
    const auto dim = static_cast<hcube::Dim>(rng() % topo.dim());
    d.faults.fail_link(std::min(u, topo.neighbor(u, dim)), dim);
  }
  const auto source = static_cast<hcube::NodeId>(rng() % topo.num_nodes());
  d.request = core::MulticastRequest{topo, source, {}};
  for (hcube::NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (v != source) d.request.destinations.push_back(v);
  }
  return d;
}

/// The planners under test: one per parity level, sharing one cache.
struct Planners {
  std::shared_ptr<coll::ScheduleCache> cache;
  std::unique_ptr<coll::StripedPlanner> k1;
  std::unique_ptr<coll::StripedPlanner> k2;

  const coll::StripedPlanner& for_parity(std::size_t k) const {
    return k == 1 ? *k1 : *k2;
  }
};

Planners make_planners() {
  Planners p;
  p.cache = std::make_shared<coll::ScheduleCache>();
  coll::StripeOptions one;
  one.parity_stripes = 1;
  coll::StripeOptions two;
  two.parity_stripes = 2;
  p.k1 = std::make_unique<coll::StripedPlanner>(one, p.cache);
  p.k2 = std::make_unique<coll::StripedPlanner>(two, p.cache);
  return p;
}

struct DrawOutcome {
  bool ok = false;
  double makespan_us = 0.0;
  double avg_delay_us = 0.0;  ///< mean over destinations of last stripe in
  std::uint64_t events = 0;
  std::uint64_t blocked_acq = 0;
  std::size_t dropped = 0;
  std::size_t disjoint = 0;
  std::size_t greedy = 0;
};

/// Replay a plan under `faults` (nullptr: fault-free) and score it. A
/// destination can rebuild the payload once every active stripe is in.
DrawOutcome replay(const coll::StripedPlan& plan, const Draw& d,
                   const fault::FaultSet* faults, std::uint64_t id,
                   std::int64_t parent, SpanLog& log) {
  sim::SimConfig config;
  config.faults = faults;
  const std::vector<sim::CollectiveJob> jobs = plan.jobs();
  sim::MultiSimResult res;
  {
    const Scope s(log, "sim.simulate_collectives", id, parent);
    res = sim::simulate_collectives(jobs, config);
  }
  DrawOutcome out;
  out.ok = res.per_job.size() == plan.active_trees();
  double sum = 0.0;
  for (const hcube::NodeId v : d.request.destinations) {
    sim::SimTime last = 0;
    for (const sim::SimResult& r : res.per_job) {
      if (!r.delivery.contains(v)) {
        out.ok = false;
        continue;
      }
      last = std::max(last, r.delivery.at(v));
    }
    sum += static_cast<double>(last);
  }
  out.makespan_us = sim::to_microseconds(res.makespan());
  out.avg_delay_us =
      sum / static_cast<double>(d.request.destinations.size()) / 1e3;
  out.events = res.stats.events;
  out.blocked_acq = res.stats.blocked_acquisitions;
  return out;
}

/// Plan, encode, replay and rebuild one draw.
DrawOutcome run_draw(const Planners& planners, const Draw& d,
                     const std::vector<std::uint8_t>& payload, std::uint64_t id,
                     SpanLog& log) {
  const Scope root(log, "draw", id);
  coll::StripedPlan plan;
  try {
    const Scope s(log, "coll.striped_plan", id, root.index());
    plan = planners.for_parity(d.parity).plan(d.request, kPayload, d.faults);
  } catch (const fault::UnrepairableFault&) {
    return DrawOutcome{};
  }
  std::vector<std::vector<std::uint8_t>> stripes;
  {
    const Scope s(log, "code.split_stripes", id, root.index());
    stripes = coll::split_stripes(payload, plan.data_stripes,
                                  plan.parity_stripes);
  }
  DrawOutcome out = replay(plan, d, &d.faults, id, root.index(), log);
  // Dropped trees never delivered their stripes: wipe them and rebuild
  // the payload from the rest.
  std::vector<std::size_t> missing;
  for (const int t : plan.dropped_trees) {
    const auto i = static_cast<std::size_t>(t);
    std::fill(stripes[i].begin(), stripes[i].end(), std::uint8_t{0xa5});
    missing.push_back(i);
  }
  std::vector<std::uint8_t> rebuilt;
  {
    const Scope s(log, "code.reassemble_stripes", id, root.index());
    rebuilt = coll::reassemble_stripes(stripes, plan.data_stripes, kPayload,
                                       missing);
  }
  out.ok = out.ok && rebuilt == payload;
  out.dropped = plan.dropped_trees.size();
  out.disjoint = plan.repaired_disjoint;
  out.greedy = plan.repaired_greedy;
  return out;
}

double step_ratio(const coll::StripedPlan& plan, const Draw& d) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t t = 0; t < plan.trees.size(); ++t) {
    if (plan.dropped(t)) continue;
    const int steps = core::assign_steps(*plan.trees[t],
                                         core::PortModel::all_port(),
                                         d.request.destinations)
                          .total_steps;
    sum += static_cast<double>(steps) /
           core::all_port_step_lower_bound(d.request.destinations.size(), kDim);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

Result run_striped(const Options& o) {
  Result r;
  r.threads = {{"main", 1}};
  std::vector<std::uint8_t> payload(kPayload);
  {
    workload::Rng rng(workload::derive_seed(o.seed, 0x9a71, 0));
    for (std::size_t i = 0; i < kPayload; i += 8) {
      const std::uint64_t v = rng();
      for (std::size_t b = 0; b < 8 && i + b < kPayload; ++b) {
        payload[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
      }
    }
  }

  // Set-up: planners + cache, warmed with every source's fault-free plan
  // at both parity levels (the IST trees and their translations that
  // later plans reuse); median of 5.
  const hcube::Topology topo(kDim);
  std::vector<core::MulticastRequest> broadcasts;
  for (hcube::NodeId s = 0; s < topo.num_nodes(); ++s) {
    broadcasts.push_back(core::MulticastRequest{topo, s, {}});
    for (hcube::NodeId v = 0; v < topo.num_nodes(); ++v) {
      if (v != s) broadcasts.back().destinations.push_back(v);
    }
  }
  std::vector<double> setups, setup_walls;
  Planners planners;
  for (int rep = 0; rep < (o.trace ? 1 : 5); ++rep) {
    const std::uint64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    planners = make_planners();
    for (const core::MulticastRequest& b : broadcasts) {
      planners.k1->plan(b, kPayload);
      planners.k2->plan(b, kPayload);
    }
    setups.push_back(process_cpu_s() - cpu0);
    setup_walls.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // The fixed draw set: virtual-time figures against each draw's own
  // fault-free striped baseline.
  SpanLog quiet;
  std::vector<Draw> fixed;
  double retention = 0.0, makespan = 0.0, avg_delay = 0.0, ratio = 0.0;
  for (std::size_t i = 0; i < kFixedDraws; ++i) {
    fixed.push_back(make_draw(o.seed, i));
    const Draw& d = fixed.back();
    const coll::StripedPlan clean =
        planners.for_parity(d.parity).plan(d.request, kPayload);
    const DrawOutcome base = replay(clean, d, nullptr, i, -1, quiet);
    const coll::StripedPlan degraded =
        planners.for_parity(d.parity).plan(d.request, kPayload, d.faults);
    const DrawOutcome got = replay(degraded, d, &d.faults, i, -1, quiet);
    retention += base.makespan_us / got.makespan_us;
    makespan += got.makespan_us;
    avg_delay += got.avg_delay_us;
    ratio += step_ratio(degraded, d);
    r.attempted += 1;
    if (!got.ok || !base.ok) r.fail();
  }
  const auto fd = static_cast<double>(kFixedDraws);
  retention /= fd;
  makespan /= fd;
  avg_delay /= fd;
  ratio /= fd;
  if (o.digest) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Draw& d : fixed) {
      h = fnv1a(&d.request.source, sizeof(d.request.source), h);
      for (const fault::Link& l : d.faults.failed_links()) {
        h = fnv1a(&l.low, sizeof(l.low), h);
        h = fnv1a(&l.dim, sizeof(l.dim), h);
      }
    }
    r.inputs_hash = fnv1a(payload.data(), payload.size(), h);
    r.metric("bw_retention", retention, "ratio");
    r.metric("sim_max_delay_us", makespan, "us");
    r.metric("sim_avg_delay_us", avg_delay, "us");
    return r;
  }

  // Timed loop: fresh draws (indices past the fixed set), so every plan
  // runs the repair ladder instead of hitting a cached repair.
  const auto budget_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
  SpanLog log(o.trace ? 8 * 20000 : 0);
  std::uint64_t next = kFixedDraws;
  // CPU time per draw. Its median is the gated cost: steadier than the
  // mean on a shared host, where other tenants inflate some draws.
  std::vector<double> op_cpu_us;
  std::uint64_t events = 0, blocked = 0, dropped = 0, disjoint = 0, greedy = 0;
  const auto timed = [&](std::uint64_t duration_ns, std::size_t min_draws,
                         std::size_t max_draws,
                         std::vector<std::uint64_t>& lat) {
    const std::uint64_t t0 = now_ns();
    std::size_t i = 0;
    while ((now_ns() - t0 < duration_ns || i < min_draws) && i < max_draws) {
      const Draw d = make_draw(o.seed, next);
      const std::uint64_t s0 = now_ns();
      const double c0 = thread_cpu_s();
      const DrawOutcome out = run_draw(planners, d, payload, next, log);
      op_cpu_us.push_back((thread_cpu_s() - c0) * 1e6);
      lat.push_back(now_ns() - s0);
      r.attempted += 1;
      if (!out.ok) r.fail();
      events += out.events;
      blocked += out.blocked_acq;
      dropped += out.dropped;
      disjoint += out.disjoint;
      greedy += out.greedy;
      ++next;
      ++i;
    }
    return now_ns() - t0;
  };

  if (!o.trace) {
    std::vector<std::uint64_t> draw_ns;
    const std::uint64_t wall =
        timed(budget_ns, kFixedDraws, ~std::size_t{0}, draw_ns);
    const double rate =
        static_cast<double>(draw_ns.size()) / (static_cast<double>(wall) / 1e9);
    const double p50 = quantile_us(draw_ns, 0.50);
    const double p99 = quantile_us(draw_ns, 0.99);
    const double cpu_us = median(op_cpu_us);
    const double setup = median(setups);
    const double rss = peak_rss_mb();
    const double fail_frac =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    r.metric("setup_s", setup, "s");
    r.metric("rss_mb", rss, "MiB");
    r.metric("ok_frac", 1.0 - fail_frac, "ratio");
    r.metric("cpu_us_per_op", cpu_us, "us");
    r.metric("sim_max_delay_us", makespan, "us");
    r.metric("sim_avg_delay_us", avg_delay, "us");

    r.note("setup_s", setup, "s");
    r.note("setup_wall_s", median(setup_walls), "s");
    r.note("cpu_us_per_op", cpu_us, "us");
    r.note("rss_mb", rss, "MiB");
    r.note("fail_frac", fail_frac, "ratio");
    r.note("striped_per_s", rate, "1/s");
    r.note("latency_p50_us", p50, "us");
    r.note("latency_p99_us", p99, "us");
    r.note("latency_samples", static_cast<double>(draw_ns.size()), "count");
    r.note("bw_retention", retention, "ratio");
    r.note("sim_max_delay_us", makespan, "us");
    r.note("sim_avg_delay_us", avg_delay, "us");
    return r;
  }

  // ---- traced run
  std::vector<std::uint64_t> untraced_ns, traced_ns;
  const std::uint64_t untraced_wall =
      timed(budget_ns / 2, kFixedDraws, 20000, untraced_ns);
  const std::size_t count = untraced_ns.size();
  const coll::ScheduleCache::Stats before = planners.cache->stats();
  events = blocked = dropped = disjoint = greedy = 0;
  log.enabled = true;
  const std::uint64_t traced_wall = timed(0, count, count, traced_ns);
  log.enabled = false;
  const coll::ScheduleCache::Stats after = planners.cache->stats();
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
  const auto lookups = static_cast<double>(after.lookups() - before.lookups());
  const auto hits =
      static_cast<double>(after.total_hits() - before.total_hits());
  init_layer_metrics(r);
  r.set("coll.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  r.set("coll.lookups", lookups);
  r.set("coll.requests", n);
  r.set("coll.evictions_per_req",
        static_cast<double>(after.evictions - before.evictions) / n);
  r.set("core.step_ratio", ratio);
  r.set("sim.replay_ms", replay_ns / 1e6);
  r.set("sim.events", static_cast<double>(events) / n);
  r.set("sim.ns_per_event",
        events ? replay_ns * n / static_cast<double>(events) : 0.0);
  r.set("sim.blocked_acq", static_cast<double>(blocked) / n);
  r.set("coll.striped_plan_us", span_total("coll.striped_plan") / 1e3);
  r.set("coll.dropped_trees", static_cast<double>(dropped) / n);
  r.set("paths.disjoint_repairs", static_cast<double>(disjoint) / n);
  r.set("fault.greedy_repairs", static_cast<double>(greedy) / n);
  const double split_ns = span_total("code.split_stripes");
  const double join_ns = span_total("code.reassemble_stripes");
  r.set("code.encode_gbps", split_ns > 0 ? kPayload / split_ns : 0.0);
  r.set("code.decode_gbps", join_ns > 0 ? kPayload / join_ns : 0.0);
  r.set("trace.overhead_pct", overhead_pct(untraced_wall, traced_wall));
  for (const auto& [name, v] : r.metrics) r.note(name, v.value, v.unit);
  return r;
}

}  // namespace perfbench
