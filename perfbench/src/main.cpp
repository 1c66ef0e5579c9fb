// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--result-out PATH] [--digest]
//
// Workloads: serve_hot, serve_cold, des_tenants, striped_faults.
// Prints the provenance line and the workload's full metric table, then,
// as the last line, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exits 0 only when every output checked out.
//
// --digest skips all timing and prints the workload's input digest and
// virtual-time figures (the benchmark's own determinism tests use it).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload serve_hot|serve_cold|"
               "des_tenants|striped_faults --seed N --seconds S --trace 0|1"
               " [--trace-out PATH] [--result-out PATH] [--digest]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--trace-out") {
        o.trace_out = value();
      } else if (arg == "--result-out") {
        o.result_out = value();
      } else if (arg == "--digest") {
        o.digest = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

void print_digest(const Result& r) {
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(r.inputs_hash));
  std::cout << "{\"inputs\": \"" << hash << "\", \"correct\": "
            << (r.correct() ? "true" : "false") << ", \"virtual\": {";
  bool first = true;
  for (const auto& [name, v] : r.metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name
              << "\": " << perfbench::fmt(v.value);
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Result r;
  try {
    if (o.workload == "serve_hot" || o.workload == "serve_cold") {
      r = perfbench::run_serve(o);
    } else if (o.workload == "des_tenants") {
      r = perfbench::run_des(o);
    } else if (o.workload == "striped_faults") {
      r = perfbench::run_striped(o);
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }

  r.max_process_threads =
      std::max(r.max_process_threads, perfbench::process_threads());
  if (o.digest) {
    print_digest(r);
    return r.correct() ? 0 : 1;
  }

  const std::string provenance = perfbench::provenance_json(o, r);
  std::cout << "provenance " << provenance << "\n";
  for (const auto& [name, v] : r.report) {
    std::printf("%-26s %18.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  std::fflush(stdout);
  const std::string line = perfbench::result_line(r);
  if (!o.result_out.empty()) {
    std::ofstream out(o.result_out, std::ios::trunc);
    out << "{\"provenance\": " << provenance << ", \"report\": {";
    bool first = true;
    for (const auto& [name, v] : r.report) {
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << perfbench::fmt(v.value) << ", \"unit\": \"" << v.unit << "\"}";
      first = false;
    }
    out << "}, \"result\": " << line << "}\n";
  }
  std::cout << line << std::endl;
  return r.correct() ? 0 : 1;
}
