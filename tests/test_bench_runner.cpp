#include "harness/bench.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.hpp"
#include "metrics/json.hpp"

namespace hypercast::bench {
namespace {

// ---- minimal JSON syntax validator (tests only) --------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

RunOptions smoke_options(const std::string& out_dir) {
  RunOptions opts;
  opts.filter = "smoke";
  opts.quick = true;
  opts.out_dir = out_dir;
  opts.verbose = false;
  return opts;
}

// ---- JsonWriter ----------------------------------------------------------

TEST(JsonWriter, WritesNestedStructures) {
  metrics::JsonWriter w;
  w.begin_object()
      .key("name")
      .value("fig")
      .key("xs")
      .begin_array()
      .value(1.0)
      .value(2.5)
      .end_array()
      .key("ok")
      .value(true)
      .key("nothing")
      .null()
      .end_object();
  const std::string doc = std::move(w).str();
  EXPECT_EQ(doc, "{\"name\":\"fig\",\"xs\":[1,2.5],\"ok\":true,"
                 "\"nothing\":null}");
  EXPECT_TRUE(JsonChecker(doc).valid());
}

TEST(JsonWriter, EscapesStrings) {
  metrics::JsonWriter w;
  w.begin_object().key("s").value("a\"b\\c\nd\te").end_object();
  const std::string doc = std::move(w).str();
  EXPECT_EQ(doc, "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
  EXPECT_TRUE(JsonChecker(doc).valid());
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  metrics::JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(std::move(w).str(), "[null,null]");
}

// ---- registry and filters ------------------------------------------------

TEST(BenchRegistry, SmokeBenchmarkIsRegistered) {
  bool found = false;
  for (const Benchmark* b : all_benchmarks()) {
    if (b->name == "smoke") {
      found = true;
      EXPECT_EQ(b->kind, Kind::Micro);
      EXPECT_NE(b->fn, nullptr);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchRegistry, FilterMatchesNameSubstringAndKind) {
  const Benchmark b{"fig09_steps_6cube", Kind::Figure, "", nullptr};
  EXPECT_TRUE(matches(b, ""));
  EXPECT_TRUE(matches(b, "fig09"));
  EXPECT_TRUE(matches(b, "steps"));
  EXPECT_TRUE(matches(b, "figure"));
  EXPECT_FALSE(matches(b, "micro"));
  EXPECT_FALSE(matches(b, "fig10"));
}

// ---- golden schema -------------------------------------------------------

TEST(BenchRunner, SmokeEmitsValidSchema) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "hypercast_bench_schema";
  std::filesystem::remove_all(dir);

  const auto records = run_benchmarks(smoke_options(dir.string()));
  ASSERT_EQ(records.size(), 1u);
  ASSERT_FALSE(records[0].json_path.empty());
  ASSERT_TRUE(std::filesystem::exists(records[0].json_path));

  const std::string on_disk = slurp(records[0].json_path);
  EXPECT_EQ(on_disk, records[0].json + "\n");
  EXPECT_TRUE(JsonChecker(records[0].json).valid());

  // Required schema keys, in document order.
  const char* keys[] = {"\"schema\":\"hypercast-bench-v1\"",
                        "\"name\":\"smoke\"",
                        "\"kind\":\"micro\"",
                        "\"description\":",
                        "\"config\":",
                        "\"wall_seconds\":[",
                        "\"metrics\":{",
                        "\"series\":[",
                        "\"machine\":{"};
  std::size_t at = 0;
  for (const char* key : keys) {
    const std::size_t found = records[0].json.find(key, at);
    EXPECT_NE(found, std::string::npos) << "missing " << key;
    at = found;
  }
  ASSERT_EQ(records[0].wall_seconds.size(), 1u);
  EXPECT_GT(records[0].wall_seconds[0], 0.0);
  std::filesystem::remove_all(dir);
}

TEST(BenchRunner, MachineBlockRecordsBuildProvenance) {
  // check_bench_regression.py refuses rates across build types, so every
  // artifact must say how it was built and on what CPU.
  metrics::JsonWriter w;
  w.begin_object();
  write_machine(w);
  w.end_object();
  const std::string json = std::move(w).str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  for (const char* key : {"\"build_type\":\"", "\"cxx_flags\":\"",
                          "\"cpu_model\":\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_EQ(json.find("\"build_type\":\"\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"cpu_model\":\"\""), std::string::npos) << json;
}

TEST(BenchRunner, SmokeSeriesAreDeterministic) {
  // Sweep results (everything between "series" and "machine") must be
  // identical across runs — only timing metrics may differ.
  const auto run_once = [] {
    RunOptions opts = smoke_options("");
    const auto records = run_benchmarks(opts);
    const std::string& json = records.at(0).json;
    const std::size_t begin = json.find("\"series\":");
    const std::size_t end = json.find("\"machine\":");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return json.substr(begin, end - begin);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(BenchRunner, RejectsZeroRepeat) {
  RunOptions opts = smoke_options("");
  opts.repeat = 0;
  EXPECT_THROW(run_benchmarks(opts), std::invalid_argument);
}

/// Reports 5, 1, 3, 4, 2 on five successive runs.
void run_counter(const Context&, Report& report) {
  static const double values[] = {5, 1, 3, 4, 2};
  static int call = 0;
  report.metric("value", values[call++ % 5]);
}
const Registration counter_registration{
    {"test_repeat_counter", Kind::Micro,
     "reports 5, 1, 3, 4, 2 on successive runs", run_counter}};

TEST(BenchRunner, RepeatsReportEachMetricsMedian) {
  RunOptions opts = smoke_options("");
  opts.filter = "test_repeat_counter";
  opts.repeat = 5;
  const auto records = run_benchmarks(opts);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].wall_seconds.size(), 5u);
  EXPECT_NE(records[0].json.find("\"value\":3"), std::string::npos)
      << records[0].json;
  // The spread over the repeats rides next to the medians.
  EXPECT_NE(records[0].json.find("\"spread\":{\"value\":[1,5]}"),
            std::string::npos)
      << records[0].json;
}

// ---- parallel sweeps -----------------------------------------------------

TEST(ParallelSweep, StepSweepIsThreadCountInvariant) {
  harness::StepSweepConfig config;
  config.n = 4;
  config.sizes = {3, 7, 15};
  config.sets_per_point = 6;
  const auto serial = harness::run_step_sweep(config);
  config.threads = 4;
  const auto parallel = harness::run_step_sweep(config);

  ASSERT_EQ(serial.curves().size(), parallel.curves().size());
  for (std::size_t c = 0; c < serial.curves().size(); ++c) {
    const auto& sc = serial.curves()[c];
    const auto& pc = parallel.curves()[c];
    EXPECT_EQ(sc.name, pc.name);
    ASSERT_EQ(sc.points.size(), pc.points.size());
    for (std::size_t p = 0; p < sc.points.size(); ++p) {
      EXPECT_EQ(sc.points[p].x, pc.points[p].x);
      EXPECT_EQ(sc.points[p].stats.count(), pc.points[p].stats.count());
      EXPECT_DOUBLE_EQ(sc.points[p].stats.mean(), pc.points[p].stats.mean());
    }
  }
}

TEST(ParallelSweep, DelaySweepIsThreadCountInvariant) {
  harness::DelaySweepConfig config;
  config.n = 4;
  config.sizes = {5, 15};
  config.sets_per_point = 3;
  const auto serial = harness::run_delay_sweep(config);
  config.threads = 3;
  const auto parallel = harness::run_delay_sweep(config);

  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_GT(serial.events, 0u);
  EXPECT_EQ(serial.blocked_acquisitions, parallel.blocked_acquisitions);
  ASSERT_EQ(serial.avg.curves().size(), parallel.avg.curves().size());
  for (std::size_t c = 0; c < serial.avg.curves().size(); ++c) {
    const auto& sc = serial.avg.curves()[c];
    const auto& pc = parallel.avg.curves()[c];
    ASSERT_EQ(sc.points.size(), pc.points.size());
    for (std::size_t p = 0; p < sc.points.size(); ++p) {
      EXPECT_DOUBLE_EQ(sc.points[p].stats.mean(), pc.points[p].stats.mean());
    }
  }
}

}  // namespace
}  // namespace hypercast::bench
