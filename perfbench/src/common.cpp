#include "common.hpp"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> table = {
      {"net.decode_ns", "ns"},          {"net.encode_ns", "ns"},
      {"net.response_bytes", "bytes"},  {"net.batch_size", "count"},
      {"net.e2e_p50_us", "us"},         {"net.unattributed_us", "us"},
      {"coll.serve_ns", "ns"},          {"coll.canonicalize_ns", "ns"},
      {"coll.translate_ns", "ns"},      {"coll.hit_ratio", "ratio"},
      {"coll.lookups", "count"},        {"coll.evictions_per_req", "ratio"},
      {"coll.requests", "count"},       {"core.build_ns", "ns"},
      {"core.step_ratio", "ratio"},     {"coll.cosched_plan_us", "us"},
      {"coll.cosched_waves", "count"},  {"sim.replay_ms", "ms"},
      {"sim.events", "count"},          {"sim.ns_per_event", "ns"},
      {"sim.blocked_acq", "count"},     {"coll.striped_plan_us", "us"},
      {"coll.dropped_trees", "count"},  {"paths.disjoint_repairs", "count"},
      {"fault.greedy_repairs", "count"}, {"code.encode_gbps", "GB/s"},
      {"code.decode_gbps", "GB/s"},     {"client.gen_lag_p99_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  return table;
}

void init_layer_metrics(Result& r) {
  for (const LayerMetric& m : layer_metrics()) r.metric(m.name, 0.0, m.unit);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double overhead_pct(std::uint64_t untraced_ns, std::uint64_t traced_ns) {
  return 100.0 *
         (static_cast<double>(traced_ns) - static_cast<double>(untraced_ns)) /
         static_cast<double>(untraced_ns);
}

double quantile_us(std::vector<std::uint64_t>& samples_ns, double q) {
  if (samples_ns.empty()) return 0.0;
  std::sort(samples_ns.begin(), samples_ns.end());
  const auto last = samples_ns.size() - 1;
  const auto rank =
      static_cast<std::size_t>(std::llround(q * static_cast<double>(last)));
  return static_cast<double>(samples_ns[std::min(rank, last)]) / 1e3;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// The value of a "Key:\t<number> ..." line of /proc/self/status.
long status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

double peak_rss_mb() {
  return static_cast<double>(status_field("VmHWM")) / 1024.0;
}

int process_threads() { return static_cast<int>(status_field("Threads")); }

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string provenance_json(const Options& options, const Result& result) {
  std::ostringstream o;
  o << "{\"workload\": \"" << json_escape(options.workload) << "\""
    << ", \"seed\": " << options.seed
    << ", \"seconds\": " << fmt(options.seconds)
    << ", \"trace\": " << (options.trace ? 1 : 0)
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
    << ", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS) << "\""
    << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\""
    << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"affinity_cpus\": " << affinity_cpus()
    << ", \"threads\": {";
  bool first = true;
  for (const auto& [role, n] : result.threads) {
    o << (first ? "" : ", ") << "\"" << json_escape(role) << "\": " << n;
    first = false;
  }
  o << "}, \"max_process_threads\": " << result.max_process_threads << "}";
  return o.str();
}

std::string result_line(const Result& result) {
  std::ostringstream o;
  o << "{\"correct\": " << (result.correct() ? "true" : "false")
    << ", \"attempted\": " << result.attempted
    << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : result.metrics) {
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
      << fmt(v.value) << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

std::map<std::string, SpanLog::Agg> SpanLog::self_times() const {
  // Children of each span, in start order (spans are appended in open
  // order, so a parent's children already appear sorted by start).
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, Agg> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;  // never closed
    // Union of the children's intervals, clipped to this span.
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start;
    for (const std::size_t c : children[i]) {
      const std::uint64_t a = std::max(spans_[c].start, reach);
      const std::uint64_t b = std::min(spans_[c].end, s.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    const auto total = static_cast<double>(s.end - s.start);
    Agg& agg = out[s.name];
    agg.count += 1;
    agg.total_ns += total;
    agg.self_ns += total - static_cast<double>(covered);
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start
        << ", \"end_ns\": " << s.end << "}\n";
  }
}

}  // namespace perfbench
