// hypercast_cli — plan, inspect and simulate hypercube multicasts from
// the command line.
//
//   hypercast_cli plan  --n 4 --algo wsort --source 0 --dests 1,3,5,7
//   hypercast_cli steps --n 6 --algo maxport --source 0 --m 20 --seed 7
//   hypercast_cli delay --n 10 --algo wsort --m 200 --bytes 4096 --port all
//   hypercast_cli chains --n 4 --source 0 --dests 1,3,5,7,11,12,14,15
//   hypercast_cli compare --n 6 --m 25 --seed 3
//   hypercast_cli faults --n 6 --faults 0.10 --fault-seed 42
//   hypercast_cli serve --n 8 --requests 5000 --shapes 4
//   hypercast_cli stripe --n 8 --bytes 1048576 --parity --faults 0.05
//   hypercast_cli stats --n 8 --requests 2048 --trace-out=trace.json
//
// Common options: --res high|low, --port one|all|k:<n>, --seed <u64>.
// Observability (all commands): --stats[=text|json] prints the obs
// registry exposition after the run; --trace-out=<file> writes Chrome
// trace-event JSON (worm timelines for delay/faults, pipeline spans for
// serve, both merged for stats).
// Fault injection (every command but chains): --faults <count|rate>
// [--fault-seed s], --fail-links u:d,..., --fail-nodes a,b. With faults
// present, trees are built by the requested algorithm and then repaired
// fault-aware; the simulator itself refuses to route a worm into a
// failed channel, so a clean `delay` run doubles as proof the repair
// worked. Each command reads its options before it starts work and
// exits 1 naming any option it did not read (a typo, or a flag the
// command does not take).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "core/chain_search.hpp"
#include "core/contention.hpp"
#include "core/registry.hpp"
#include "fault/fault_aware.hpp"
#include "harness/options.hpp"
#include "metrics/json.hpp"
#include "obs/registry.hpp"
#include "sim/trace.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

enum class StatsMode { Off, Text, Json, Prometheus };

StatsMode stats_mode(const harness::Options& opts) {
  if (!opts.has("stats")) return StatsMode::Off;
  if (opts.is_bare_flag("stats")) return StatsMode::Text;
  const std::string v = opts.get("stats");
  if (v == "text") return StatsMode::Text;
  if (v == "json") return StatsMode::Json;
  if (v == "prom") return StatsMode::Prometheus;
  throw std::invalid_argument("--stats expects text, json or prom, got '" +
                              v + "'");
}

void print_registry(StatsMode mode) {
  if (mode == StatsMode::Off) return;
  obs::Registry& registry = obs::default_registry();
  if (mode == StatsMode::Json) {
    std::printf("%s\n", registry.to_json().c_str());
  } else if (mode == StatsMode::Prometheus) {
    std::fputs(registry.to_prometheus().c_str(), stdout);
  } else {
    std::fputs(registry.format_text().c_str(), stdout);
  }
}

/// Print --stats output if requested. Commands call this *before* their
/// local gauge sources (e.g. the serve cache) go out of scope.
void finish_stats(const harness::Options& opts) {
  print_registry(stats_mode(opts));
}

void write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body << '\n';
  if (!out) throw std::runtime_error("failed to write " + path);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

core::MulticastRequest request_from(const harness::Options& opts) {
  const hcube::Dim n = static_cast<hcube::Dim>(opts.get_int("n"));
  const hcube::Topology topo(n, opts.resolution());
  const hcube::NodeId source =
      static_cast<hcube::NodeId>(opts.get_int_or("source", 0));
  std::vector<hcube::NodeId> dests;
  if (opts.has("dests")) {
    dests = opts.get_nodes("dests");
  } else {
    const std::size_t m = static_cast<std::size_t>(opts.get_int("m"));
    workload::Rng rng(
        static_cast<std::uint64_t>(opts.get_int_or("seed", 1)));
    dests = workload::random_destinations(topo, source, m, rng);
  }
  core::MulticastRequest req{topo, source, std::move(dests)};
  req.validate();
  return req;
}

/// Parse the fault flags (nullptr when none are given).
std::shared_ptr<const fault::FaultSet> setup_faults(
    const harness::Options& opts, const hcube::Topology& topo) {
  auto fs = opts.fault_set(topo);
  if (!fs) return nullptr;
  return std::make_shared<const fault::FaultSet>(std::move(*fs));
}

/// The repair summary plus the contention the detours introduced
/// (Definition 4 over the repaired schedule, all-port stepwise model).
std::string repair_summary(const fault::FaultAwareResult& repaired) {
  const std::size_t violations =
      core::check_contention(repaired.schedule, core::PortModel::all_port())
          .violations.size();
  return repaired.report.summary() + ", " + std::to_string(violations) +
         " contention violation" + (violations == 1 ? "" : "s");
}

/// Build the schedule for `algo`, repairing it against the fault set
/// when one is configured (printing the repair summary).
core::MulticastSchedule build_schedule(const core::AlgorithmEntry& algo,
                                       const core::MulticastRequest& req,
                                       const fault::FaultSet* faults,
                                       bool print_repairs = true) {
  if (faults == nullptr) return algo.build(req);
  auto result = fault::fault_aware_multicast(algo, req, *faults);
  if (print_repairs) {
    std::printf("faults: %s\n  %s\n", faults->format().c_str(),
                repair_summary(result).c_str());
  }
  return std::move(result.schedule);
}

int cmd_plan(const harness::Options& opts) {
  const auto req = request_from(opts);
  const auto faults = setup_faults(opts, req.topo);
  const auto& algo = core::find_algorithm(opts.get_or("algo", "wsort"));
  const core::PortModel port = opts.port();
  opts.reject_unread();
  const auto schedule = build_schedule(algo, req, faults.get());
  std::printf("%s tree, %zu destinations, %zu unicasts:\n",
              algo.display.c_str(), req.destinations.size(),
              schedule.num_unicasts());
  std::fputs(schedule.format_tree().c_str(), stdout);
  const auto steps = core::assign_steps(schedule, port, req.destinations);
  const auto report = core::check_contention(schedule, steps);
  std::printf("steps (%s): %d | %s\n", port.name(), steps.total_steps,
              report.contention_free() ? "contention-free"
                                       : report.summary(req.topo).c_str());
  finish_stats(opts);
  return 0;
}

int cmd_steps(const harness::Options& opts) {
  const auto req = request_from(opts);
  const auto faults = setup_faults(opts, req.topo);
  const auto& algo = core::find_algorithm(opts.get_or("algo", "wsort"));
  const core::PortModel port = opts.port();
  opts.reject_unread();
  const auto steps = core::assign_steps(build_schedule(algo, req, faults.get()),
                                        port, req.destinations);
  for (const auto& u : steps.unicasts) {
    std::printf("step %2d  %s -> %s\n", u.step,
                req.topo.format(u.from).c_str(),
                req.topo.format(u.to).c_str());
  }
  std::printf("total: %d steps\n", steps.total_steps);
  finish_stats(opts);
  return 0;
}

int cmd_delay(const harness::Options& opts) {
  const auto req = request_from(opts);
  const auto faults = setup_faults(opts, req.topo);
  const auto& algo = core::find_algorithm(opts.get_or("algo", "wsort"));
  const std::string trace_out = opts.get_or("trace-out", "");
  sim::SimConfig config;
  config.port = opts.port();
  config.message_bytes =
      static_cast<std::size_t>(opts.get_int_or("bytes", 4096));
  config.faults = faults.get();
  config.record_trace = !trace_out.empty();
  opts.reject_unread();
  const auto result =
      sim::simulate_multicast(build_schedule(algo, req, faults.get()), config);
  std::printf(
      "%s, %zu destinations, %zu-byte message (%s):\n"
      "  avg delay %10.1f us\n  max delay %10.1f us\n"
      "  blocked channel acquisitions: %llu\n",
      algo.display.c_str(), req.destinations.size(), config.message_bytes,
      config.port.name(), result.avg_delay(req.destinations) / 1000.0,
      sim::to_microseconds(result.max_delay(req.destinations)),
      static_cast<unsigned long long>(result.stats.blocked_acquisitions));
  if (!trace_out.empty()) {
    write_text_file(trace_out, result.trace.to_chrome_json(req.topo));
  }
  finish_stats(opts);
  return 0;
}

int cmd_chains(const harness::Options& opts) {
  const auto req = request_from(opts);
  const core::PortModel port = opts.port();
  opts.reject_unread();
  const auto best = core::best_cube_ordered_chain(req, port);
  std::printf("admissible cube-ordered chains: %zu\n", best.chains_examined);
  std::printf("best steps: %d\nbest chain:", best.best_steps);
  for (const auto node : best.best_chain) {
    std::printf(" %s", req.topo.format(node).c_str());
  }
  std::printf("\n");
  finish_stats(opts);
  return 0;
}

int cmd_compare(const harness::Options& opts) {
  const auto req = request_from(opts);
  const auto faults = setup_faults(opts, req.topo);
  sim::SimConfig config;
  config.port = opts.port();
  config.message_bytes =
      static_cast<std::size_t>(opts.get_int_or("bytes", 4096));
  opts.reject_unread();
  if (faults) {
    config.faults = faults.get();
    std::printf("faults: %s\n", faults->format().c_str());
  }
  std::printf("%-9s %6s %12s %12s %9s %8s\n", "algorithm", "steps", "avg us",
              "max us", "blocked", "repairs");
  for (const auto& algo : core::all_algorithms()) {
    std::size_t repairs = 0;
    core::MulticastSchedule schedule = [&] {
      if (!faults) return algo.build(req);
      auto result = fault::fault_aware_multicast(algo, req, *faults);
      repairs = result.report.broken;
      return std::move(result.schedule);
    }();
    const auto steps =
        core::assign_steps(schedule, config.port, req.destinations);
    const auto result = sim::simulate_multicast(schedule, config);
    std::printf("%-9s %6d %12.1f %12.1f %9llu %8zu\n", algo.display.c_str(),
                steps.total_steps,
                result.avg_delay(req.destinations) / 1000.0,
                sim::to_microseconds(result.max_delay(req.destinations)),
                static_cast<unsigned long long>(
                    result.stats.blocked_acquisitions),
                repairs);
  }
  finish_stats(opts);
  return 0;
}

int cmd_faults(const harness::Options& opts) {
  const hcube::Dim n = static_cast<hcube::Dim>(opts.get_int("n"));
  const hcube::Topology topo(n, opts.resolution());
  const auto faults = opts.fault_set(topo);
  // The degraded broadcast (--trace-out) runs under these.
  const std::string trace_out = opts.get_or("trace-out", "");
  const std::string algo_name = opts.get_or("algo", "wsort");
  sim::SimConfig config;
  config.port = opts.port();
  config.message_bytes =
      static_cast<std::size_t>(opts.get_int_or("bytes", 4096));
  opts.reject_unread();
  if (!faults) {
    std::puts("no faults configured (use --faults, --fail-links or "
              "--fail-nodes)");
    return 0;
  }
  const std::size_t links = topo.num_arcs() / 2;
  std::printf("%d-cube: %zu nodes, %zu links\n", n, topo.num_nodes(), links);
  std::printf("%s\n", faults->format().c_str());
  std::printf("live nodes: %zu / %zu\n", faults->live_nodes().size(),
              topo.num_nodes());
  std::printf("surviving cube %s\n", faults->surviving_connected()
                                         ? "is connected"
                                         : "is PARTITIONED");
  if (!trace_out.empty()) {
    // Broadcast to every live node from the first one, repaired against
    // the fault set, and dump the worm timelines — a visual proof of
    // where the repaired tree detours around the faults.
    const hcube::NodeId source = faults->live_nodes().front();
    std::vector<hcube::NodeId> dests;
    for (const hcube::NodeId u : faults->live_nodes()) {
      if (u != source) dests.push_back(u);
    }
    core::MulticastRequest req{topo, source, std::move(dests)};
    req.validate();
    const auto& algo = core::find_algorithm(algo_name);
    auto repaired =
        fault::repair_schedule(algo.build(req), req.destinations, *faults);
    std::printf("  %s\n", repair_summary(repaired).c_str());
    config.record_trace = true;
    config.faults = &*faults;
    const auto result = sim::simulate_multicast(repaired.schedule, config);
    std::printf("degraded broadcast max delay: %.1f us\n",
                sim::to_microseconds(result.max_delay(req.destinations)));
    write_text_file(trace_out, result.trace.to_chrome_json(topo));
  }
  finish_stats(opts);
  return 0;
}

/// `requests` serves cycling `shapes` relative destination chains of
/// size `m`, each XOR-translated to a pseudorandom source — the cache's
/// design-target workload (shared by the serve and stats commands).
std::vector<core::MulticastRequest> translated_stream(
    const hcube::Topology& topo, std::size_t shapes, std::size_t m,
    std::size_t requests, workload::Rng& rng) {
  std::vector<std::vector<hcube::NodeId>> chains;
  for (std::size_t s = 0; s < std::max<std::size_t>(shapes, 1); ++s) {
    chains.push_back(workload::random_destinations(topo, 0, m, rng));
  }
  std::vector<core::MulticastRequest> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const auto& shape = chains[i % chains.size()];
    const hcube::NodeId source =
        static_cast<hcube::NodeId>(rng() % topo.num_nodes());
    std::vector<hcube::NodeId> dests;
    dests.reserve(shape.size());
    for (const hcube::NodeId d : shape) {
      const hcube::NodeId t = d ^ source;
      if (t != source) dests.push_back(t);
    }
    stream.push_back(core::MulticastRequest{topo, source, std::move(dests)});
  }
  return stream;
}

/// The schedule cache sized by --cache-shards and --cache-bytes.
std::shared_ptr<coll::ScheduleCache> make_cache(const harness::Options& opts) {
  const harness::Options::CacheOptions sizing = opts.cache();
  coll::ScheduleCache::Config config;
  config.shards = sizing.shards;
  if (sizing.max_bytes != 0) config.max_bytes = sizing.max_bytes;
  return std::make_shared<coll::ScheduleCache>(config);
}

/// Serve a synthetic request stream through the schedule-serving
/// pipeline and report throughput plus the cache counters. The stream
/// cycles `--shapes` distinct destination shapes across random sources,
/// so every request past the first appearance of its shape is an
/// XOR-translation the cache can answer without rebuilding.
int cmd_serve(const harness::Options& opts) {
  const hcube::Dim n = static_cast<hcube::Dim>(opts.get_int("n"));
  const hcube::Topology topo(n, opts.resolution());
  const std::string algo = opts.get_or("algo", "wsort");
  const std::size_t requests =
      static_cast<std::size_t>(opts.get_int_or("requests", 1000));
  const std::size_t shapes =
      static_cast<std::size_t>(opts.get_int_or("shapes", 4));
  const std::size_t m = static_cast<std::size_t>(
      opts.get_int_or("m", static_cast<long>(topo.num_nodes() / 2)));
  const auto cache = make_cache(opts);
  const auto faults = setup_faults(opts, topo);
  workload::Rng rng(static_cast<std::uint64_t>(opts.get_int_or("seed", 1)));
  const std::string trace_out = opts.get_or("trace-out", "");
  opts.reject_unread();

  const auto stream = translated_stream(topo, shapes, m, requests, rng);
  cache->attach_to_registry(obs::default_registry(), "cache");
  const coll::ServePipeline pipeline(algo, cache, faults);

  const auto start = std::chrono::steady_clock::now();
  const auto schedules = pipeline.serve_batch(stream);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::size_t unicasts = 0;
  for (const auto& s : schedules) unicasts += s->num_unicasts();
  std::printf(
      "served %zu requests (%zu shapes, %zu dests each) on a %d-cube\n"
      "  algorithm: %s\n"
      "  wall: %.3fs  (%.0f requests/s), %zu unicasts planned\n",
      stream.size(), std::max<std::size_t>(shapes, 1), m, n, algo.c_str(),
      seconds,
      seconds > 0.0 ? static_cast<double>(stream.size()) / seconds : 0.0,
      unicasts);
  // Field names are Stats::for_each_field — identical to the "cache"
  // gauge source in the --stats JSON exposition by construction.
  std::printf("  cache:");
  cache->stats().for_each_field([](const char* field, double value) {
    std::printf(" %s=%.6g", field, value);
  });
  std::printf(" shards=%zu\n", cache->num_shards());
  if (!trace_out.empty()) {
    write_text_file(trace_out,
                    obs::default_registry().tracer().to_chrome_json());
  }
  finish_stats(opts);
  return 0;
}

/// Plan a striped delivery (payload split across the n arc-disjoint
/// spanning trees, coll/striped.hpp) and replay it through the DES next
/// to the single-tree plan for the same payload. With fault flags, the
/// degraded-mode planner runs (parity drop + detour repairs) and the
/// simulator replays against the armed fault set — completion is proof
/// of delivery. Below --stripe-threshold the pipeline falls back to the
/// latency-optimal single tree (that's the point of the threshold; use
/// --stripe-threshold 0 to force striping).
int cmd_stripe(const harness::Options& opts) {
  const auto req = request_from(opts);
  const auto faults = setup_faults(opts, req.topo);
  const std::size_t bytes =
      static_cast<std::size_t>(opts.get_int_or("bytes", 1 << 20));
  coll::StripeOptions stripe_opts;
  // Bare --parity reserves one XOR parity tree; --parity=<k> reserves
  // k Reed-Solomon parity trees (any k lost stripes recoverable).
  if (opts.has("parity")) {
    if (opts.is_bare_flag("parity")) {
      stripe_opts.parity_stripes = 1;
    } else {
      const long k = opts.get_int("parity");
      if (k < 0) throw std::invalid_argument("--parity expects k >= 0");
      stripe_opts.parity_stripes = static_cast<std::size_t>(k);
    }
  }
  stripe_opts.threshold_bytes = static_cast<std::size_t>(opts.get_int_or(
      "stripe-threshold", static_cast<long>(stripe_opts.threshold_bytes)));

  const std::string algo = opts.get_or("algo", "wsort");
  const coll::ServePipeline pipeline(algo, make_cache(opts), faults);
  sim::SimConfig config;
  config.port = opts.port();
  config.faults = faults.get();
  opts.reject_unread();
  const coll::StripedPlan plan =
      pipeline.serve_striped(req, bytes, stripe_opts);

  std::printf("%zu-byte payload to %zu destinations on a %d-cube\n", bytes,
              req.destinations.size(), req.topo.dim());
  if (faults) std::printf("faults: %s\n", faults->format().c_str());
  if (!plan.striped) {
    std::printf("below --stripe-threshold %zu: single %s tree (%zu unicasts%s)\n",
                stripe_opts.threshold_bytes, algo.c_str(),
                plan.trees.front()->num_unicasts(),
                plan.repaired_trees != 0 ? ", detour-repaired" : "");
  } else {
    if (plan.parity_stripes == 0) {
      std::printf("striped across %zu trees: %zu data stripes x %zu bytes\n",
                  plan.trees.size(), plan.data_stripes, plan.stripe_bytes);
    } else {
      std::printf(
          "striped across %zu trees: %zu data stripes x %zu bytes + %zu %s "
          "parity stripe%s\n",
          plan.trees.size(), plan.data_stripes, plan.stripe_bytes,
          plan.parity_stripes, plan.parity_stripes == 1 ? "XOR" : "RS",
          plan.parity_stripes == 1 ? "" : "s");
    }
    for (std::size_t t = 0; t < plan.trees.size(); ++t) {
      const char* note =
          plan.dropped(t) ? "  DROPPED (stripe reconstructed from parity)"
          : plan.parity_tree >= 0 && static_cast<int>(t) >= plan.parity_tree
              ? "  parity"
              : "";
      std::printf("  tree %zu: %zu unicasts%s\n", t,
                  plan.trees[t]->num_unicasts(), note);
    }
    if (plan.repaired_trees != 0) {
      std::printf(
          "  repaired trees: %zu (%zu certified disjoint, %zu greedy)%s\n",
          plan.repaired_trees, plan.repaired_disjoint, plan.repaired_greedy,
          plan.certified_disjoint ? " — plan stays arc-disjoint" : "");
    }
  }

  // DES replay, striped vs the single tree carrying the whole payload.
  const auto jobs = plan.jobs();
  const double striped_us = sim::to_microseconds(
      sim::simulate_collectives(jobs, config).makespan());
  const auto& single_algo = core::find_algorithm(algo);
  const auto single =
      build_schedule(single_algo, req, faults.get(), /*print_repairs=*/false);
  const sim::CollectiveJob single_job{&single, 0, bytes};
  const double single_us = sim::to_microseconds(
      sim::simulate_collectives(std::span(&single_job, 1), config).makespan());
  std::printf(
      "makespan: striped %.1f us, single %s tree %.1f us (%.2fx)\n"
      "effective bandwidth: %.2f MB/s striped, %.2f MB/s single\n",
      striped_us, algo.c_str(), single_us,
      striped_us > 0.0 ? single_us / striped_us : 0.0,
      striped_us > 0.0 ? static_cast<double>(bytes) / striped_us : 0.0,
      single_us > 0.0 ? static_cast<double>(bytes) / single_us : 0.0);
  finish_stats(opts);
  return 0;
}

/// Diagnostic one-stop shop: run a cached serving batch plus a
/// simulated broadcast with stats collection forced on and print the
/// registry exposition (JSON by default, --format text for the human
/// form). With --trace-out, pipeline spans and worm timelines land in
/// one Chrome trace document; the two sources are rebased independently
/// (spans are wall-clock nanoseconds, worm events virtual simulator
/// time), so the viewer shows both starting at t = 0.
int cmd_stats(const harness::Options& opts) {
  obs::set_stats_enabled(true);
  const std::string trace_out = opts.get_or("trace-out", "");
  if (!trace_out.empty()) obs::set_tracing_enabled(true);

  const hcube::Dim n = static_cast<hcube::Dim>(opts.get_int_or("n", 8));
  const hcube::Topology topo(n, opts.resolution());
  const std::string algo_name = opts.get_or("algo", "wsort");
  const std::size_t requests =
      static_cast<std::size_t>(opts.get_int_or("requests", 2048));
  const std::size_t shapes =
      static_cast<std::size_t>(opts.get_int_or("shapes", 4));
  const std::size_t m = static_cast<std::size_t>(
      opts.get_int_or("m", static_cast<long>(topo.num_nodes() / 2)));
  workload::Rng rng(static_cast<std::uint64_t>(opts.get_int_or("seed", 1)));
  sim::SimConfig config;
  config.port = opts.port();
  config.message_bytes =
      static_cast<std::size_t>(opts.get_int_or("bytes", 4096));
  config.record_trace = !trace_out.empty();
  const std::string format = opts.get_or("format", "json");
  opts.reject_unread();

  // A cached serving batch...
  const auto stream = translated_stream(topo, shapes, m, requests, rng);
  auto cache = std::make_shared<coll::ScheduleCache>();
  cache->attach_to_registry(obs::default_registry(), "cache");
  const coll::ServePipeline pipeline(algo_name, cache);
  (void)pipeline.serve_batch(stream);

  // ...then one full broadcast through the wormhole simulator.
  std::vector<hcube::NodeId> dests;
  for (hcube::NodeId u = 1; u < topo.num_nodes(); ++u) dests.push_back(u);
  core::MulticastRequest broadcast{topo, 0, std::move(dests)};
  broadcast.validate();
  const auto& algo = core::find_algorithm(algo_name);
  const auto result = sim::simulate_multicast(algo.build(broadcast), config);

  if (!trace_out.empty()) {
    metrics::JsonWriter w;
    w.begin_array();
    obs::Tracer& tracer = obs::default_registry().tracer();
    tracer.write_chrome_events(w, tracer.earliest_start_ns());
    result.trace.write_chrome_events(w, topo, result.trace.earliest_issue());
    w.end_array();
    write_text_file(trace_out, std::move(w).str());
  }

  if (format == "json") {
    print_registry(StatsMode::Json);
  } else if (format == "text") {
    print_registry(StatsMode::Text);
  } else if (format == "prom") {
    print_registry(StatsMode::Prometheus);
  } else {
    throw std::invalid_argument("--format expects json, text or prom, got '" +
                                format + "'");
  }
  return 0;
}

int usage() {
  std::fputs(
      "usage: hypercast_cli "
      "<plan|steps|delay|chains|compare|faults|serve|stripe|stats> "
      "[options]\n"
      "  common: --n <dim> (--dests a,b,c | --m <count> [--seed s])\n"
      "          [--source u] [--algo name] [--res high|low]\n"
      "          [--port one|all|k:<n>] [--bytes b] — each command\n"
      "          exits 1 naming any option it does not read\n"
      "  obs:    [--stats[=text|json|prom]] print obs counters/histograms\n"
      "          [--trace-out=<file>] Chrome trace JSON (delay/faults:\n"
      "          worm timelines; serve: pipeline spans; stats: merged)\n"
      "  faults: [--faults count|rate] [--fault-seed s]\n"
      "          [--fail-links u:d,...] [--fail-nodes a,b]\n"
      "  serve:  --n <dim> [--requests r] [--shapes k] [--m dests]\n"
      "          [--cache-shards n] [--cache-bytes b]\n"
      "  stripe: --n <dim> [--bytes b] [--parity[=k]] [--stripe-threshold b]\n"
      "          [--cache-shards n] [--cache-bytes b] — payload striped\n"
      "          over the n arc-disjoint trees vs the single tree,\n"
      "          DES-replayed\n"
      "  stats:  [--n dim] [--requests r] [--format json|text|prom] —\n"
      "          serving batch + simulated broadcast, stats forced on\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const auto opts = hypercast::harness::Options::parse(argc, argv, 2);
    // Flags go live before the command runs (stats_mode also validates
    // the value up front, so a typo fails before a long run, not after).
    if (stats_mode(opts) != StatsMode::Off) {
      hypercast::obs::set_stats_enabled(true);
    }
    if (!opts.get_or("trace-out", "").empty()) {
      hypercast::obs::set_tracing_enabled(true);
    }
    if (cmd == "plan") return cmd_plan(opts);
    if (cmd == "steps") return cmd_steps(opts);
    if (cmd == "delay") return cmd_delay(opts);
    if (cmd == "chains") return cmd_chains(opts);
    if (cmd == "compare") return cmd_compare(opts);
    if (cmd == "faults") return cmd_faults(opts);
    if (cmd == "serve") return cmd_serve(opts);
    if (cmd == "stripe") return cmd_stripe(opts);
    if (cmd == "stats") return cmd_stats(opts);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
