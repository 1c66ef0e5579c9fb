#ifndef HYPERCAST_HARNESS_BENCH_HPP
#define HYPERCAST_HARNESS_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics/series.hpp"

namespace hypercast::harness {
struct DelaySweepResult;
}

namespace hypercast::obs {
class Registry;
}

namespace hypercast::metrics {
class JsonWriter;
}

namespace hypercast::bench {

/// What a benchmark reproduces: a paper figure, an ablation study, or a
/// micro-benchmark of one subsystem.
enum class Kind { Figure, Ablation, Micro };

const char* kind_name(Kind kind);

/// Per-run knobs handed to every benchmark body.
struct Context {
  bool quick = false;  ///< shrink sweeps / timing budgets (CI smoke)
  int threads = 1;     ///< worker threads for parallel sweeps
  std::uint64_t seed = 0x5C93C0DE;  ///< experiment seed (sweep instances)

  /// Schedule-cache sizing for the benchmarks that build their own
  /// caches (--cache-shards, --cache-bytes).
  std::size_t cache_shards = 0;     ///< 0 = auto
  std::size_t cache_bytes = 0;      ///< 0 = library default

  /// Timing budget for rate measurements: the full budget, or a small
  /// fixed one under --quick.
  double min_time(double full_seconds) const {
    return quick ? 0.05 : full_seconds;
  }
};

/// What a benchmark reports back: named scalar metrics (insertion
/// order preserved) and any number of sweep series. Everything lands in
/// the BENCH_<name>.json artifact.
class Report {
 public:
  void metric(std::string name, double value) {
    metrics_.emplace_back(std::move(name), value);
  }
  void add_series(metrics::Series series) {
    series_.push_back(std::move(series));
  }

  /// A metric's [lo, hi] over repeated runs.
  struct Spread {
    std::string name;
    double lo = 0.0;
    double hi = 0.0;
  };
  void spread(std::string name, double lo, double hi) {
    spreads_.push_back({std::move(name), lo, hi});
  }

  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }
  const std::vector<metrics::Series>& series() const { return series_; }
  const std::vector<Spread>& spreads() const { return spreads_; }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<metrics::Series> series_;
  std::vector<Spread> spreads_;
};

using BenchFn = void (*)(const Context&, Report&);

struct Benchmark {
  std::string name;         ///< e.g. "fig09_steps_6cube"
  Kind kind = Kind::Micro;
  std::string description;  ///< one line, shown by --list
  BenchFn fn = nullptr;
};

/// Static registration hook; define one per benchmark translation unit:
///   const bench::Registration reg{{"fig09_steps_6cube",
///       bench::Kind::Figure, "Figure 9: ...", run}};
struct Registration {
  explicit Registration(Benchmark benchmark);
};

/// Every registered benchmark, sorted by name (stable across link order).
std::vector<const Benchmark*> all_benchmarks();

/// Filter predicate used by --filter: empty accepts everything,
/// otherwise substring match on the name or exact match on the kind
/// name ("figure", "ablation", "micro").
bool matches(const Benchmark& benchmark, const std::string& filter);

struct RunOptions {
  std::string filter;
  int repeat = 1;   ///< timed repetitions per benchmark
  int threads = 1;
  bool quick = false;
  std::uint64_t seed = 0x5C93C0DE;
  std::string out_dir = ".";  ///< BENCH_<name>.json directory; "" disables
  bool verbose = true;        ///< per-benchmark progress on stdout

  /// Schedule-cache sizing handed to every benchmark's Context.
  std::size_t cache_shards = 0;
  std::size_t cache_bytes = 0;

  /// Enable obs stats collection for the run and embed each benchmark's
  /// registry exposition (reset before every benchmark) as a "stats"
  /// object in its artifact.
  bool stats = false;
};

struct RunRecord {
  std::string name;
  std::string json;       ///< the BENCH_<name>.json document
  std::string json_path;  ///< file written; empty when out_dir == ""
  std::vector<double> wall_seconds;  ///< one entry per repeat
};

/// Run every registered benchmark accepted by opts.filter, repeat times
/// each, and write one BENCH_<name>.json per benchmark into
/// opts.out_dir (created if needed). Returns the records in run order;
/// metrics/series come from the final repetition, wall_seconds from all.
std::vector<RunRecord> run_benchmarks(const RunOptions& opts);

/// The JSON document for one benchmark result — exposed so tests can
/// validate the schema without spawning the runner binary. When `stats`
/// is non-null its exposition is embedded under the "stats" key.
std::string benchmark_json(const Benchmark& benchmark, const RunOptions& opts,
                           const Report& report,
                           const std::vector<double>& wall_seconds,
                           const obs::Registry* stats = nullptr);

// ---- helpers shared by benchmark definitions ----------------------------

/// Write the artifact's "machine" provenance object (os, compiler,
/// build type, optimisation flags, assertion mode, CPU model, hardware
/// threads, UTC timestamp). Shared by every artifact writer, including
/// the net load generator. check_bench_regression.py refuses to compare
/// artifacts whose build types differ.
void write_machine(metrics::JsonWriter& w);

/// Append `series` to the report plus one summary metric per curve:
/// "<curve> <y label> @ x=<last x>" -> the mean at the curve's largest x.
void summarize_series(Report& report, const metrics::Series& series);

/// Record a delay sweep: the selected series (summarized) plus the DES
/// totals — events, events_per_sec over `seconds`, blocked_acquisitions.
void report_delay_sweep(Report& report,
                        const harness::DelaySweepResult& result,
                        double seconds, bool want_avg, bool want_max);

/// Wall-clock stopwatch for events/sec style metrics.
class Stopwatch {
 public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Result of measure_rate: iterations completed in `seconds` wall time.
struct Rate {
  std::uint64_t iterations = 0;
  double seconds = 0.0;
  double per_second() const {
    return seconds > 0.0 ? static_cast<double>(iterations) / seconds : 0.0;
  }
};

/// Repeat fn() until at least min_seconds of wall time has elapsed
/// (after one untimed warm-up call).
template <typename Fn>
Rate measure_rate(double min_seconds, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up
  Rate rate;
  const auto start = clock::now();
  auto now = start;
  do {
    fn();
    ++rate.iterations;
    now = clock::now();
  } while (std::chrono::duration<double>(now - start).count() < min_seconds);
  rate.seconds = std::chrono::duration<double>(now - start).count();
  return rate;
}

}  // namespace hypercast::bench

#endif  // HYPERCAST_HARNESS_BENCH_HPP
