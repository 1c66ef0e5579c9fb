// The single benchmark driver: every figure, ablation and
// microbenchmark registers itself (see harness/bench.hpp) and this
// binary selects, runs and records them as machine-readable
// BENCH_<name>.json artifacts.
//
// Usage:
//   bench_runner                          run everything, JSON into results/
//   bench_runner --list                   show the registered table
//   bench_runner --filter smoke           substring on name, or a kind
//                                         ("figure", "ablation", "micro")
//   bench_runner --repeat 5               timed repetitions per benchmark;
//                                         metrics are their medians
//   bench_runner --threads 8              parallel sweep points
//   bench_runner --quick                  shrunken sweeps (CI smoke)
//   bench_runner --out <dir>              artifact directory
//   bench_runner --seed <n>               experiment seed for the sweeps
//   bench_runner --cache on|off           schedule-cache mode for
//                                         cache-sensitive benchmarks;
//                                         "on" suffixes artifacts _cached
//   bench_runner --cache-shards <n>       lock stripes (0 = auto)
//   bench_runner --cache-bytes <b>        cache byte budget (0 = default)
//   bench_runner --stats                  collect obs counters/histograms
//                                         and embed a "stats" block per
//                                         artifact

#include <cstdio>
#include <exception>

#include "harness/bench.hpp"
#include "harness/options.hpp"

int main(int argc, char** argv) {
  using namespace hypercast;
  try {
    const auto options = harness::Options::parse(argc, argv);
    if (options.has("list")) {
      for (const bench::Benchmark* b : bench::all_benchmarks()) {
        std::printf("%-28s %-9s %s\n", b->name.c_str(),
                    bench::kind_name(b->kind), b->description.c_str());
      }
      return 0;
    }
    bench::RunOptions run;
    run.filter = options.get_or("filter", "");
    run.repeat = static_cast<int>(options.get_int_or("repeat", 1));
    run.threads = static_cast<int>(options.get_int_or("threads", 1));
    run.quick = options.has("quick");
    run.seed = static_cast<std::uint64_t>(
        options.get_int_or("seed", 0x5C93C0DE));
    run.out_dir = options.get_or("out", "results");
    const auto cache = options.cache(/*default_enabled=*/false);
    run.cache = cache.enabled;
    run.cache_shards = cache.shards;
    run.cache_bytes = cache.max_bytes;
    run.stats = options.has("stats");

    const auto records = bench::run_benchmarks(run);
    if (records.empty()) {
      std::fprintf(stderr, "no benchmark matches --filter '%s' (try --list)\n",
                   run.filter.c_str());
      return 1;
    }
    std::printf("%zu benchmark(s) done; artifacts in %s/\n", records.size(),
                run.out_dir.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_runner: %s\n", e.what());
    return 1;
  }
}
