#include "harness/bench.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/experiment.hpp"
#include "metrics/json.hpp"
#include "obs/registry.hpp"

namespace hypercast::bench {

namespace {

std::vector<Benchmark>& registry() {
  static std::vector<Benchmark> benchmarks;
  return benchmarks;
}

std::string format_x(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return buf;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// The "model name" line of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t begin = line.find_first_not_of(" \t", colon + 1);
    return begin == std::string::npos ? "unknown" : line.substr(begin);
  }
  return "unknown";
}

}  // namespace

void write_machine(metrics::JsonWriter& w) {
  w.key("machine").begin_object();
#if defined(__linux__)
  w.key("os").value("linux");
#elif defined(__APPLE__)
  w.key("os").value("darwin");
#else
  w.key("os").value("unknown");
#endif
#if defined(__VERSION__)
  w.key("compiler").value(__VERSION__);
#else
  w.key("compiler").value("unknown");
#endif
  w.key("build_type").value(HYPERCAST_BUILD_TYPE);
  w.key("cxx_flags").value(HYPERCAST_CXX_FLAGS);
#if defined(NDEBUG)
  w.key("assertions").value(false);
#else
  w.key("assertions").value(true);
#endif
  w.key("cpu_model").value(cpu_model());
  w.key("hardware_threads")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("pointer_bits").value(static_cast<std::uint64_t>(sizeof(void*) * 8));
  w.key("timestamp_utc").value(utc_timestamp());
  w.end_object();
}

namespace {

void write_series(metrics::JsonWriter& w, const metrics::Series& series) {
  w.begin_object();
  w.key("title").value(series.title());
  w.key("x_label").value(series.x_label());
  w.key("y_label").value(series.y_label());
  w.key("curves").begin_array();
  for (const metrics::Curve& curve : series.curves()) {
    w.begin_object();
    w.key("name").value(curve.name);
    w.key("points").begin_array();
    for (const metrics::Point& p : curve.points) {
      w.begin_object();
      w.key("x").value(p.x);
      w.key("mean").value(p.stats.mean());
      w.key("min").value(p.stats.min());
      w.key("max").value(p.stats.max());
      w.key("stddev").value(p.stats.stddev());
      w.key("ci95").value(p.stats.ci95_half_width());
      w.key("count").value(static_cast<std::uint64_t>(p.stats.count()));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// The built-in smoke benchmark: a fast end-to-end pass through the
/// schedule builders, the stepwise model and the wormhole DES, small
/// enough for CI and the golden-schema test.
void run_smoke(const Context& ctx, Report& report) {
  harness::StepSweepConfig step;
  step.title = "smoke: stepwise 4-cube";
  step.n = 4;
  step.sizes = {3, 7, 15};
  step.sets_per_point = 4;
  step.seed = ctx.seed;
  step.threads = ctx.threads;
  summarize_series(report, harness::run_step_sweep(step));

  harness::DelaySweepConfig delay;
  delay.title = "smoke: delay 4-cube";
  delay.n = 4;
  delay.sizes = {5, 15};
  delay.sets_per_point = 3;
  delay.seed = ctx.seed;
  delay.threads = ctx.threads;
  const auto start = std::chrono::steady_clock::now();
  const auto result = harness::run_delay_sweep(delay);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  summarize_series(report, result.avg);
  summarize_series(report, result.max);
  report.metric("events", static_cast<double>(result.events));
  report.metric("events_per_sec",
                seconds > 0.0 ? static_cast<double>(result.events) / seconds
                              : 0.0);
  report.metric("blocked_acquisitions",
                static_cast<double>(result.blocked_acquisitions));
}

const Registration smoke_registration{
    {"smoke", Kind::Micro,
     "end-to-end smoke pass: schedule builders + stepwise model + DES on a "
     "4-cube (schema/CI check)",
     run_smoke}};

/// The repeats folded into one report: each metric is the median of its
/// values across the repeats (the lower middle one for an even count),
/// with its [min, max] across them as the spread when there are several,
/// and the series come from the final repeat. A benchmark reports the
/// same metrics in the same order on every repeat.
Report median_report(const std::vector<Report>& runs) {
  Report out;
  const auto& last = runs.back().metrics();
  std::vector<double> values(runs.size());
  for (std::size_t i = 0; i < last.size(); ++i) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      values[r] = runs[r].metrics().at(i).second;
    }
    const auto mid = values.begin() + (values.size() - 1) / 2;
    std::nth_element(values.begin(), mid, values.end());
    out.metric(last[i].first, *mid);
    if (runs.size() > 1) {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      out.spread(last[i].first, *lo, *hi);
    }
  }
  for (const metrics::Series& s : runs.back().series()) out.add_series(s);
  return out;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::Figure:
      return "figure";
    case Kind::Ablation:
      return "ablation";
    case Kind::Micro:
      return "micro";
  }
  return "unknown";
}

Registration::Registration(Benchmark benchmark) {
  registry().push_back(std::move(benchmark));
}

std::vector<const Benchmark*> all_benchmarks() {
  std::vector<const Benchmark*> out;
  out.reserve(registry().size());
  for (const Benchmark& b : registry()) out.push_back(&b);
  std::sort(out.begin(), out.end(),
            [](const Benchmark* a, const Benchmark* b) {
              return a->name < b->name;
            });
  return out;
}

bool matches(const Benchmark& benchmark, const std::string& filter) {
  if (filter.empty()) return true;
  if (benchmark.name.find(filter) != std::string::npos) return true;
  return filter == kind_name(benchmark.kind);
}

std::string benchmark_json(const Benchmark& benchmark, const RunOptions& opts,
                           const Report& report,
                           const std::vector<double>& wall_seconds,
                           const obs::Registry* stats) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("schema").value("hypercast-bench-v1");
  w.key("name").value(benchmark.name);
  w.key("kind").value(kind_name(benchmark.kind));
  w.key("description").value(benchmark.description);
  w.key("config").begin_object();
  w.key("quick").value(opts.quick);
  w.key("threads").value(static_cast<std::int64_t>(opts.threads));
  w.key("repeat").value(static_cast<std::int64_t>(opts.repeat));
  w.key("seed").value(static_cast<std::uint64_t>(opts.seed));
  w.end_object();
  w.key("wall_seconds").begin_array();
  for (const double s : wall_seconds) w.value(s);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, value] : report.metrics()) {
    w.key(name).value(value);
  }
  w.end_object();
  if (!report.spreads().empty()) {
    w.key("spread").begin_object();
    for (const Report::Spread& sp : report.spreads()) {
      w.key(sp.name).begin_array().value(sp.lo).value(sp.hi).end_array();
    }
    w.end_object();
  }
  w.key("series").begin_array();
  for (const metrics::Series& s : report.series()) write_series(w, s);
  w.end_array();
  if (stats != nullptr) {
    w.key("stats");
    stats->write_json(w);
  }
  write_machine(w);
  w.end_object();
  return std::move(w).str();
}

std::vector<RunRecord> run_benchmarks(const RunOptions& opts) {
  if (opts.repeat < 1) {
    throw std::invalid_argument("--repeat must be at least 1");
  }
  std::vector<const Benchmark*> selected;
  for (const Benchmark* b : all_benchmarks()) {
    if (matches(*b, opts.filter)) selected.push_back(b);
  }

  Context ctx;
  ctx.quick = opts.quick;
  ctx.threads = opts.threads;
  ctx.seed = opts.seed;
  ctx.cache_shards = opts.cache_shards;
  ctx.cache_bytes = opts.cache_bytes;

  if (!opts.out_dir.empty()) {
    std::filesystem::create_directories(opts.out_dir);
  }

  // --stats scope: collection on for the whole run, prior flag state
  // restored on exit (benchmarks that flip the flags themselves, like
  // micro_obs_overhead, save/restore with their own FlagsGuard).
  obs::FlagsGuard obs_flags;
  if (opts.stats) obs::set_stats_enabled(true);

  std::vector<RunRecord> records;
  records.reserve(selected.size());
  std::size_t index = 0;
  for (const Benchmark* b : selected) {
    ++index;
    if (opts.verbose) {
      std::printf("[%zu/%zu] %s (%s)\n", index, selected.size(),
                  b->name.c_str(), kind_name(b->kind));
      std::fflush(stdout);
    }
    RunRecord record;
    record.name = b->name;
    std::vector<Report> runs(static_cast<std::size_t>(opts.repeat));
    // Each artifact's stats block covers exactly its own benchmark.
    if (opts.stats) obs::default_registry().reset();
    for (Report& report : runs) {
      const auto start = std::chrono::steady_clock::now();
      b->fn(ctx, report);
      record.wall_seconds.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
    }
    record.json = benchmark_json(*b, opts, median_report(runs),
                                 record.wall_seconds,
                                 opts.stats ? &obs::default_registry()
                                            : nullptr);
    if (!opts.out_dir.empty()) {
      const std::filesystem::path path =
          std::filesystem::path(opts.out_dir) /
          ("BENCH_" + record.name + ".json");
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << record.json << '\n';
      if (!out) {
        throw std::runtime_error("failed to write " + path.string());
      }
      record.json_path = path.string();
    }
    if (opts.verbose) {
      std::printf("    %.3fs%s%s\n", record.wall_seconds.back(),
                  record.json_path.empty() ? "" : " -> ",
                  record.json_path.c_str());
      std::fflush(stdout);
    }
    records.push_back(std::move(record));
  }
  return records;
}

void report_delay_sweep(Report& report,
                        const harness::DelaySweepResult& result,
                        double seconds, bool want_avg, bool want_max) {
  if (want_avg) summarize_series(report, result.avg);
  if (want_max) summarize_series(report, result.max);
  report.metric("events", static_cast<double>(result.events));
  report.metric("events_per_sec",
                seconds > 0.0 ? static_cast<double>(result.events) / seconds
                              : 0.0);
  report.metric("blocked_acquisitions",
                static_cast<double>(result.blocked_acquisitions));
}

void summarize_series(Report& report, const metrics::Series& series) {
  for (const metrics::Curve& curve : series.curves()) {
    if (curve.points.empty()) continue;
    const metrics::Point* last = &curve.points.front();
    for (const metrics::Point& p : curve.points) {
      if (p.x > last->x) last = &p;
    }
    report.metric(curve.name + " " + series.y_label() + " @ x=" +
                      format_x(last->x),
                  last->stats.mean());
  }
  report.add_series(series);
}

}  // namespace hypercast::bench
