// hypercast_served — the schedule-serving daemon.
//
// Puts a coll::ServePipeline behind the src/net/ front end: binary
// "hypercast-net-v1" frames and HTTP/JSON on one port, served by
// --workers independent event loops that each batch what they read
// into one serve_views call per turn, with TCP backpressure and a
// per-loop backlog cap, and Prometheus metrics on GET /metrics.
// SIGTERM/SIGINT trigger a graceful drain: every admitted request is
// answered before the process exits.
//
// Usage:
//   hypercast_served [--port P] [--bind ADDR] [--algo NAME]
//                    [--workers N] [--queue-cap N] [--batch-max N]
//                    [--deadline-ms MS] [--max-conns N]
//                    [--cache-shards N] [--cache-bytes B]
//                    [--cosched] [--cosched-overlap K]
//                    [--cosched-stagger-us US] [--cosched-max-waves N]
//                    [--port-file PATH] [--quiet]
//
// --cosched turns on contention-aware co-scheduling of each served
// batch (coll::CoScheduler): schedules are packed into waves so no
// directed channel is crossed by more than --cosched-overlap worms per
// wave, and responses are released in wave order.
//
// --workers N runs N event loops, one thread each; connections are
// dealt to them round-robin. --queue-cap N caps each loop's backlog
// (requests read but not yet served); requests read past it are shed
// with ShedQueueFull / HTTP 429. --batch-max N caps the requests one
// connection contributes to a loop turn's batch.
//
// --port 0 (the default) binds an ephemeral port; the bound port is
// printed on stdout and, with --port-file, written to PATH so scripts
// can pick it up race-free.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "harness/options.hpp"
#include "net/server.hpp"

namespace {

std::atomic<hypercast::net::Server*> g_server{nullptr};
std::atomic<bool> g_stop{false};

void handle_signal(int) {
  // Async-signal-safe: atomic stores and one eventfd write() per loop.
  g_stop.store(true);
  if (auto* server = g_server.load()) server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using hypercast::harness::Options;
  try {
    const Options opts = Options::parse(argc, argv);

    hypercast::net::ServerConfig config;
    config.bind_address = opts.get_or("bind", config.bind_address);
    config.port = static_cast<std::uint16_t>(opts.get_int_or("port", 0));
    config.algorithm = opts.get_or("algo", config.algorithm);
    config.workers = static_cast<int>(
        opts.get_int_or("workers", config.workers));
    config.queue_capacity = static_cast<std::size_t>(opts.get_int_or(
        "queue-cap", static_cast<long>(config.queue_capacity)));
    config.batch_max = static_cast<std::size_t>(
        opts.get_int_or("batch-max", static_cast<long>(config.batch_max)));
    config.deadline_ms = static_cast<std::uint64_t>(
        opts.get_int_or("deadline-ms", 0));
    config.max_connections = static_cast<std::size_t>(opts.get_int_or(
        "max-conns", static_cast<long>(config.max_connections)));
    const Options::CacheOptions cache = opts.cache();
    config.cache_shards = cache.shards;
    config.cache_bytes = cache.max_bytes;
    config.cosched = opts.has("cosched");
    config.cosched_policy.max_arc_overlap = static_cast<std::uint32_t>(
        opts.get_int_or("cosched-overlap",
                        config.cosched_policy.max_arc_overlap));
    config.cosched_policy.stagger_offset_ns = static_cast<std::uint64_t>(
        opts.get_int_or("cosched-stagger-us",
                        static_cast<long>(
                            config.cosched_policy.stagger_offset_ns / 1000))) *
        1000;
    config.cosched_policy.max_waves = static_cast<std::size_t>(
        opts.get_int_or("cosched-max-waves",
                        static_cast<long>(config.cosched_policy.max_waves)));
    const bool quiet = opts.has("quiet");
    const std::string port_file = opts.get_or("port-file", "");
    opts.reject_unread();  // before binding: a typo must not serve

    hypercast::net::Server server(config);
    server.start();
    g_server.store(&server);

    struct sigaction sa{};
    sa.sa_handler = handle_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    if (!quiet) {
      std::cout << "hypercast_served listening on " << config.bind_address
                << ":" << server.port() << " (algo=" << config.algorithm
                << ", loops=" << config.workers
                << ", backlog-cap=" << config.queue_capacity << " per loop)"
                << std::endl;
    }
    if (!port_file.empty()) {
      std::ofstream out(port_file, std::ios::trunc);
      out << server.port() << "\n";
    }

    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!quiet) std::cout << "draining..." << std::endl;
    g_server.store(nullptr);
    server.stop();
    if (!quiet) std::cout << "drained, bye" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hypercast_served: " << e.what() << "\n";
    return 2;
  }
}
