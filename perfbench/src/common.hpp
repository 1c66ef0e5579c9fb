#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;   ///< span dump path (traced runs); "" = none
  std::string result_out;  ///< full result document path; "" = none
  bool digest = false;     ///< print the input/virtual-time digest only
};

/// Everything one run measured. `metrics` holds the gated metrics in the
/// order they are printed in the final JSON line; `report` holds the
/// workload's full metric table under the names the README uses
/// (serve_rps, bw_retention, fail_frac, ...), printed before it. Units
/// travel with every value.
struct Result {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, Value>> metrics;
  std::vector<std::pair<std::string, Value>> report;
  /// Threads each role used (provenance).
  std::map<std::string, int> threads;
  int max_process_threads = 0;  ///< peak observed in /proc/self/status
  std::uint64_t inputs_hash = 0;  ///< digest runs: FNV-1a of the inputs

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Value{value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    report.emplace_back(name, Value{value, unit});
  }
  /// Overwrite an already listed metric's value.
  void set(const std::string& name, double value) {
    for (auto& [n, v] : metrics) {
      if (n == name) v.value = value;
    }
  }
  void fail(std::uint64_t n = 1) { failed += n; }
  bool correct() const { return failed == 0 && attempted > 0; }
};

/// The per-layer metrics of a traced run, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// List every per-layer metric in `r` at 0: a layer the workload does
/// not exercise does no work there.
void init_layer_metrics(Result& r);

// ---- time and statistics ------------------------------------------------

std::uint64_t now_ns();

double median(std::vector<double> values);

/// Tracing overhead in percent: traced minus untraced wall time of the
/// same number of operations, over untraced.
double overhead_pct(std::uint64_t untraced_ns, std::uint64_t traced_ns);

/// Quantile of integer nanosecond samples, in microseconds. Sorts in place.
double quantile_us(std::vector<std::uint64_t>& samples_ns, double q);

/// Seeded 64-bit mixer (splitmix64 finalizer).
std::uint64_t mix64(std::uint64_t x);

/// FNV-1a over bytes, chained from `h`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ull);

// ---- process facts ------------------------------------------------------

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();
/// Current thread count of this process (Threads: in /proc/self/status).
int process_threads();
/// CPU seconds consumed by the whole process / by the calling thread.
/// Time the host steals from the VM's vCPUs is not charged here, which
/// is what makes CPU-time metrics steadier than wall-clock ones on a
/// shared host.
double process_cpu_s();
double thread_cpu_s();

/// Build type, flags, compiler, CPU model, nproc, per-role threads and
/// the seed, as one JSON object.
std::string provenance_json(const Options& options, const Result& result);

/// The final line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(const Result& result);

/// Shortest round-trip decimal form of a double (JSON-safe).
std::string fmt(double v);
std::string json_escape(const std::string& s);

// ---- in-memory spans (traced runs) --------------------------------------

/// The traced run's span log: one span per public call the benchmark
/// makes into the program, each with a name, start, end and parent span,
/// kept in memory and written out when the run ends. Spans of one
/// request or batch share `id`. Disabled, a Scope costs one branch, so
/// the untraced and traced loops run identical code.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t id = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for roots
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };

  /// Self time per span name: duration minus the part of it covered by
  /// the span's children.
  struct Agg {
    std::uint64_t count = 0;
    double self_ns = 0.0;
    double total_ns = 0.0;
    double mean_self_ns() const { return count ? self_ns / count : 0.0; }
  };

  explicit SpanLog(std::size_t capacity = 0) { spans_.reserve(capacity); }

  bool enabled = false;

  std::int64_t open(const char* name, std::uint64_t id, std::int64_t parent) {
    if (!enabled) return -1;
    spans_.push_back(Span{name, id, parent, now_ns(), 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end = now_ns();
  }

  std::map<std::string, Agg> self_times() const;
  /// One JSON object per line: name, id, parent, start_ns, end_ns.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span over one call.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t id,
        std::int64_t parent = -1)
      : log_(log), index_(log.open(name, id, parent)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int64_t index_;
};

// ---- workloads -----------------------------------------------------------

Result run_serve(const Options& options);    // serve_hot, serve_cold
Result run_des(const Options& options);      // des_tenants
Result run_striped(const Options& options);  // striped_faults

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
