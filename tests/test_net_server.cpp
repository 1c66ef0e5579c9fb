// End-to-end loopback tests of the serving front end: byte-identical
// responses vs direct ServePipeline::serve, backlog shedding, the
// graceful drain (no lost or duplicated in-flight requests), the HTTP
// fallback endpoints, concurrent pipelined bursts, fairness and
// backpressure within one event loop, many loops at once, accept under
// fd exhaustion, and the in-process load generator.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coll/serve_pipeline.hpp"
#include "core/registry.hpp"
#include "net/http.hpp"
#include "net/loadgen.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "workload/random_sets.hpp"

namespace hypercast {
namespace {

using net::RequestMsg;
using net::ResponseMsg;
using net::Server;
using net::ServerConfig;
using net::Status;

/// Blocking loopback client socket (tests want simple sequential IO).
class Client {
 public:
  /// `buffer_bytes` > 0 shrinks both socket buffers before connecting.
  explicit Client(std::uint16_t port, int buffer_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    if (buffer_bytes > 0) {
      for (const int option : {SO_RCVBUF, SO_SNDBUF}) {
        ::setsockopt(fd_, SOL_SOCKET, option, &buffer_bytes,
                     sizeof(buffer_bytes));
      }
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << strerror(errno);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  /// True once a whole frame is buffered or bytes arrive within `ms`.
  bool readable_within(int ms) {
    if (net::frame_size(buffer_, net::kMaxFrameBytes) != 0) return true;
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, ms) > 0;
  }

  void close() {
    ::close(fd_);
    fd_ = -1;
  }

  /// Read one binary frame; false on clean EOF before any byte.
  bool read_frame(std::string& body) {
    while (true) {
      const std::size_t size = net::frame_size(buffer_, net::kMaxFrameBytes);
      if (size != 0) {
        body = buffer_.substr(4, size - 4);
        buffer_.erase(0, size);
        return true;
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Read until the connection closes (HTTP Connection: close replies).
  std::string read_to_eof() {
    std::string out = std::move(buffer_);
    buffer_.clear();
    char chunk[16384];
    ssize_t n;
    while ((n = ::recv(fd_, chunk, sizeof(chunk), 0)) > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Read until a full HTTP response (headers + Content-Length body).
  std::string read_http_response() {
    while (true) {
      const std::size_t head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t cl = buffer_.find("Content-Length: ");
        EXPECT_NE(cl, std::string::npos) << buffer_;
        const std::size_t len = std::stoul(buffer_.substr(cl + 16));
        const std::size_t total = head_end + 4 + len;
        if (buffer_.size() >= total) {
          std::string out = buffer_.substr(0, total);
          buffer_.erase(0, total);
          return out;
        }
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::move(buffer_);
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

RequestMsg make_request(std::uint64_t id, int dim, std::size_t m,
                        workload::Rng& rng) {
  const hcube::Topology topo(static_cast<hcube::Dim>(dim));
  RequestMsg msg;
  msg.id = id;
  msg.dim = static_cast<hcube::Dim>(dim);
  msg.source = static_cast<hcube::NodeId>(rng() % topo.num_nodes());
  msg.destinations = workload::random_destinations(topo, msg.source, m, rng);
  return msg;
}

TEST(NetServer, LoopbackResponsesAreByteIdenticalToDirectServe) {
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 3;
  config.batch_max = 8;
  Server server(config);
  server.start();

  // The reference: the core algorithm's own build (the cache is
  // bit-identical by the schedule-cache tests; here it must not matter).
  const core::AlgorithmEntry& direct = core::find_algorithm(config.algorithm);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerConn = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      workload::Rng rng(0xC11E47ull + static_cast<std::uint64_t>(t));
      Client client(server.port());
      std::string wire;
      std::map<std::uint64_t, RequestMsg> pending;
      for (int i = 0; i < kRequestsPerConn; ++i) {
        const auto id =
            static_cast<std::uint64_t>(t * kRequestsPerConn + i);
        RequestMsg msg = make_request(id, 6, 1 + (i % 40), rng);
        net::encode_request(msg, wire);
        pending.emplace(id, std::move(msg));
      }
      client.send_all(wire);  // all at once: maximal batching pressure
      std::string body;
      for (int i = 0; i < kRequestsPerConn; ++i) {
        if (!client.read_frame(body)) {
          ++failures;
          return;
        }
        const ResponseMsg response = net::decode_response(body);
        const auto it = pending.find(response.id);
        if (it == pending.end() || response.status != Status::Ok) {
          ++failures;
          continue;
        }
        std::string expected;
        net::encode_schedule(direct.build(it->second.to_request()),
                             expected);
        if (response.schedule_body != expected) ++failures;
        pending.erase(it);  // a duplicate response would fail the find
      }
      if (!pending.empty()) ++failures;
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.stop();
  EXPECT_EQ(server.outstanding(), 0u);
}

TEST(NetServer, TranslatedPoolStreamKeepsOneCacheEntryPerShape) {
  // The wire path answers a translated request from the relative tree
  // plus an XOR mask: a stream over a few shapes at many sources leaves
  // one cache entry per shape, and every response (binary and JSON) is
  // byte-identical to encoding the materialized translation.
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  server.start();
  const core::AlgorithmEntry& direct = core::find_algorithm(config.algorithm);

  constexpr std::size_t kShapes = 5;
  const hcube::Topology topo(7);
  workload::Rng rng(0x5a4e5ull);
  std::vector<std::vector<hcube::NodeId>> shapes;
  for (std::size_t s = 0; s < kShapes; ++s) {
    shapes.push_back(workload::random_destinations(topo, 0, 3 + 7 * s, rng));
  }
  std::string wire;
  std::map<std::uint64_t, RequestMsg> pending;
  for (std::uint64_t id = 0; id < 300; ++id) {
    RequestMsg msg;
    msg.id = id;
    msg.dim = 7;
    msg.source = static_cast<hcube::NodeId>(rng() % topo.num_nodes());
    for (const hcube::NodeId d : shapes[id % kShapes]) {
      msg.destinations.push_back(d ^ msg.source);
    }
    net::encode_request(msg, wire);
    pending.emplace(id, std::move(msg));
  }
  Client client(server.port());
  client.send_all(wire);
  std::string body;
  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(client.read_frame(body));
    const ResponseMsg response = net::decode_response(body);
    const auto it = pending.find(response.id);
    ASSERT_NE(it, pending.end());
    ASSERT_EQ(response.status, Status::Ok);
    std::string expected;
    net::encode_schedule(direct.build(it->second.to_request()), expected);
    EXPECT_TRUE(response.schedule_body == expected) << response.id;
    pending.erase(it);
  }
  // One translated JSON request through the HTTP fallback.
  const std::string json =
      R"({"n": 7, "source": 93, "dests": [)" + [&] {
        std::string list;
        for (const hcube::NodeId d : shapes[1]) {
          if (!list.empty()) list += ",";
          list += std::to_string(d ^ 93);
        }
        return list;
      }() + "]}";
  Client http(server.port());
  http.send_all("POST /schedule HTTP/1.1\r\nContent-Length: " +
                std::to_string(json.size()) + "\r\n\r\n" + json);
  const std::string response = http.read_http_response();
  core::MulticastRequest req{topo, 93, {}};
  for (const hcube::NodeId d : shapes[1]) req.destinations.push_back(d ^ 93);
  const std::string want = net::schedule_to_json(direct.build(req));
  ASSERT_GE(response.size(), want.size());
  EXPECT_EQ(response.substr(response.size() - want.size()), want);

  EXPECT_EQ(server.cache()->stats().entries, kShapes);
  server.stop();
}

TEST(NetServer, StartRefusesToServeWithoutACache) {
  ServerConfig config;
  config.cache = false;
  Server server(config);
  EXPECT_THROW(server.start(), std::invalid_argument);
  EXPECT_FALSE(server.running());
}

TEST(NetServer, QueueFullSheddingAndAccounting) {
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.batch_max = 1;
  Server server(config);
  server.start();

  obs::Counter& shed_counter =
      obs::default_registry().counter("net.shed_queue_full");
  const std::uint64_t shed_before = shed_counter.value();

  Client client(server.port());
  workload::Rng rng(0xBADCAFEull);

  // One write carrying an expensive request followed by a flood of
  // cheap ones. The lone loop decodes them in order: the big request
  // fills its capacity-1 backlog, and every frame read behind it must
  // be answered ShedQueueFull at once — not block, not vanish.
  constexpr int kFlood = 64;
  std::string wire;
  net::encode_request(make_request(0, 16, 20000, rng), wire);
  for (int i = 1; i <= kFlood; ++i) {
    net::encode_request(make_request(static_cast<std::uint64_t>(i), 6, 8,
                                     rng),
                        wire);
  }
  client.send_all(wire);

  int ok = 0, shed = 0, other = 0;
  std::string body;
  for (int i = 0; i < kFlood + 1; ++i) {
    ASSERT_TRUE(client.read_frame(body)) << "response " << i << " missing";
    const ResponseMsg response = net::decode_response(body);
    if (response.status == Status::Ok) {
      ++ok;
    } else if (response.status == Status::ShedQueueFull) {
      ++shed;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(ok + shed + other, kFlood + 1);
  EXPECT_EQ(other, 0);
  EXPECT_GE(ok, 1);    // the expensive request itself
  EXPECT_GE(shed, 1);  // a capacity-1 backlog cannot absorb the flood
  // Shed accounting matches responses one-for-one.
  EXPECT_EQ(shed_counter.value() - shed_before,
            static_cast<std::uint64_t>(shed));
  // Every served request was a real build: a miss, never a hit.
  const auto cache_stats = server.cache()->stats();
  EXPECT_EQ(cache_stats.misses, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(cache_stats.total_hits(), 0u);
  server.stop();
}

TEST(NetServer, QueuedExpiryShedsWithExactlyOneResponseAndOneCount) {
  // Requests whose deadline expires while they wait in the loop's
  // backlog behind a slow build must each get exactly one ShedDeadline
  // response and exactly one net.shed_deadline increment — never served
  // late, never a double count, never a silent drop. With batch_max 1
  // the lone loop serves the huge request alone in the turn that read
  // it; the cheap ones follow one per turn, long past their window.
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 1;
  config.batch_max = 1;
  config.deadline_ms = 1;
  Server server(config);
  server.start();

  obs::Counter& shed_counter =
      obs::default_registry().counter("net.shed_deadline");
  const std::uint64_t shed_before = shed_counter.value();

  Client client(server.port());
  workload::Rng rng(0xDEAD1135ull);
  // One write: a huge request that holds the lone loop far past the
  // 1 ms window, then cheap ones that expire in the backlog behind it.
  constexpr int kCheap = 8;
  std::string wire;
  net::encode_request(make_request(0, 16, 40000, rng), wire);
  for (int i = 1; i <= kCheap; ++i) {
    net::encode_request(make_request(static_cast<std::uint64_t>(i), 6, 8, rng),
                        wire);
  }
  client.send_all(wire);

  std::map<std::uint64_t, Status> answered;
  std::string body;
  for (int i = 0; i < kCheap + 1; ++i) {
    ASSERT_TRUE(client.read_frame(body)) << "response " << i << " missing";
    const ResponseMsg response = net::decode_response(body);
    EXPECT_EQ(answered.count(response.id), 0u)
        << "duplicate response for " << response.id;
    answered[response.id] = response.status;
  }
  ASSERT_EQ(answered.size(), static_cast<std::size_t>(kCheap + 1));
  std::uint64_t shed_responses = 0;
  for (const auto& [id, status] : answered) {
    EXPECT_TRUE(status == Status::Ok || status == Status::ShedDeadline)
        << "id " << id << " status " << static_cast<int>(status);
    if (status == Status::ShedDeadline) ++shed_responses;
  }
  // Every cheap request sat in the backlog for the big one's whole build
  // (>> 1 ms): all of them shed.
  EXPECT_GE(shed_responses, static_cast<std::uint64_t>(kCheap));
  // Shed accounting matches responses one-for-one (no double count).
  EXPECT_EQ(shed_counter.value() - shed_before, shed_responses);
  // Every served request was a real build: a miss, never a hit.
  const auto cache_stats = server.cache()->stats();
  EXPECT_EQ(cache_stats.misses, kCheap + 1 - shed_responses);
  EXPECT_EQ(cache_stats.total_hits(), 0u);

  server.stop();
  EXPECT_FALSE(client.read_frame(body));  // nothing extra after the drain
  EXPECT_EQ(server.outstanding(), 0u);
}

TEST(NetServer, CoschedServingAnswersEverythingByteIdentically) {
  // --cosched only reorders responses into wave launch order; payloads
  // and completeness must match plain serving exactly.
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 2;
  config.batch_max = 32;
  config.cosched = true;
  Server server(config);
  server.start();
  obs::Counter& plans = obs::default_registry().counter("cosched.plans");
  const std::uint64_t plans0 = plans.value();

  const core::AlgorithmEntry& direct = core::find_algorithm(config.algorithm);
  Client client(server.port());
  workload::Rng rng(0xC05C4EDull);
  constexpr int kRequests = 48;
  std::string wire;
  std::map<std::uint64_t, RequestMsg> pending;
  for (int i = 0; i < kRequests; ++i) {
    RequestMsg msg = make_request(static_cast<std::uint64_t>(i), 6,
                                  4 + (i % 24), rng);
    net::encode_request(msg, wire);
    pending.emplace(msg.id, std::move(msg));
  }
  client.send_all(wire);  // one write: maximal batching, real waves

  std::string body;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.read_frame(body)) << "response " << i << " missing";
    const ResponseMsg response = net::decode_response(body);
    const auto it = pending.find(response.id);
    ASSERT_NE(it, pending.end()) << "unknown/duplicate id " << response.id;
    ASSERT_EQ(response.status, Status::Ok);
    std::string expected;
    net::encode_schedule(direct.build(it->second.to_request()), expected);
    EXPECT_EQ(response.schedule_body, expected);
    pending.erase(it);
  }
  EXPECT_TRUE(pending.empty());
  server.stop();
  EXPECT_EQ(server.outstanding(), 0u);
  // Waves are planned only within one batch, and a loop turn takes up
  // to batch_max requests per connection: the one-write burst is planned
  // as 32 + 16. One spare plan allows for a read that the kernel splits.
  EXPECT_LE(plans.value() - plans0, 3u);
}

TEST(NetServer, GracefulDrainLosesAndDuplicatesNothing) {
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  server.start();

  Client client(server.port());
  workload::Rng rng(0xD1A1Aull);
  constexpr int kRequests = 64;
  std::string wire;
  for (int i = 0; i < kRequests; ++i) {
    net::encode_request(make_request(static_cast<std::uint64_t>(i), 8, 32,
                                     rng),
                        wire);
  }
  client.send_all(wire);
  // Begin the drain while requests are still in the backlog.
  server.request_stop();

  std::map<std::uint64_t, Status> answered;
  std::string body;
  while (client.read_frame(body)) {
    const ResponseMsg response = net::decode_response(body);
    // No duplicated responses.
    EXPECT_EQ(answered.count(response.id), 0u) << response.id;
    answered[response.id] = response.status;
    EXPECT_TRUE(response.status == Status::Ok ||
                response.status == Status::ShuttingDown)
        << static_cast<int>(response.status);
  }
  server.stop();  // joins; the drain flushed everything admitted
  EXPECT_EQ(server.outstanding(), 0u);
  EXPECT_LE(answered.size(), static_cast<std::size_t>(kRequests));
}

TEST(NetServer, ConcurrentPipelinedBurstsAnswerEveryIdExactlyOnce) {
  // Several loops under concurrency: binary clients pipeline bursts of
  // up to kMaxInflight frames, HTTP keep-alive clients pipeline POSTs,
  // and a small per-loop backlog forces queue-full sheds. Every id is
  // answered exactly once, admitted work reconciles with the counters,
  // and HTTP responses stay in order.
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 3;
  config.batch_max = 4;
  config.queue_capacity = 24;
  constexpr std::size_t kMaxInflight = 16;  // per binary connection
  Server server(config);
  server.start();

  obs::Registry& registry = obs::default_registry();
  obs::Counter& requests = registry.counter("net.requests");
  obs::Counter& responses = registry.counter("net.responses");
  obs::Counter& shed_full = registry.counter("net.shed_queue_full");
  obs::Counter& shed_deadline = registry.counter("net.shed_deadline");
  const std::uint64_t requests0 = requests.value();
  const std::uint64_t responses0 = responses.value();
  const std::uint64_t shed_full0 = shed_full.value();
  const std::uint64_t shed_deadline0 = shed_deadline.value();

  const core::AlgorithmEntry& direct = core::find_algorithm(config.algorithm);
  constexpr int kBinaryThreads = 4;
  constexpr int kBinaryRequests = 160;
  constexpr int kHttpThreads = 2;
  constexpr int kHttpRequests = 24;
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::vector<std::thread> clients;

  for (int t = 0; t < kBinaryThreads; ++t) {
    clients.emplace_back([&, t] {
      workload::Rng rng(0xB0857ull + static_cast<std::uint64_t>(t));
      Client client(server.port());
      std::map<std::uint64_t, RequestMsg> pending;
      int sent = 0;
      std::string body;
      while (sent < kBinaryRequests || !pending.empty()) {
        // Top the pipeline up in one write, never past kMaxInflight.
        const std::size_t room = kMaxInflight - pending.size();
        const std::size_t burst = std::min<std::size_t>(
            {room, 1 + rng() % kMaxInflight,
             static_cast<std::size_t>(kBinaryRequests - sent)});
        std::string wire;
        for (std::size_t k = 0; k < burst; ++k, ++sent) {
          const auto id = (static_cast<std::uint64_t>(t) << 32) |
                          static_cast<std::uint64_t>(sent);
          RequestMsg msg = make_request(id, 6, 1 + rng() % 24, rng);
          net::encode_request(msg, wire);
          pending.emplace(id, std::move(msg));
        }
        if (!wire.empty()) client.send_all(wire);
        // Then read a random share of what is outstanding.
        const std::size_t reads = 1 + rng() % pending.size();
        for (std::size_t r = 0; r < reads; ++r) {
          if (!client.read_frame(body)) {
            ++failures;
            return;
          }
          const ResponseMsg response = net::decode_response(body);
          const auto it = pending.find(response.id);
          if (it == pending.end()) {  // unknown or answered twice
            ++failures;
            continue;
          }
          if (response.status == Status::Ok) {
            std::string expected;
            net::encode_schedule(direct.build(it->second.to_request()),
                                 expected);
            if (response.schedule_body != expected) ++failures;
            ++ok;
          } else if (response.status == Status::ShedQueueFull ||
                     response.status == Status::ShedDeadline) {
            ++shed;
          } else {
            ++failures;
          }
          pending.erase(it);
        }
      }
    });
  }
  for (int t = 0; t < kHttpThreads; ++t) {
    clients.emplace_back([&, t] {
      workload::Rng rng(0x477Bull + static_cast<std::uint64_t>(t));
      Client client(server.port());
      int sent = 0;
      while (sent < kHttpRequests) {
        // Pipeline a burst of POSTs on the keep-alive connection; the
        // replies must come back in request order.
        const int burst =
            std::min(1 + static_cast<int>(rng() % 4), kHttpRequests - sent);
        std::string wire;
        std::vector<int> sources;
        for (int k = 0; k < burst; ++k, ++sent) {
          const int s = (sent * 5 + t) % 64;
          const std::string json =
              "{\"n\": 6, \"source\": " + std::to_string(s) +
              ", \"dests\": [" + std::to_string(s ^ 1) + "," +
              std::to_string(s ^ 6) + "," + std::to_string(s ^ 56) + "]}";
          wire += "POST /schedule HTTP/1.1\r\nContent-Length: " +
                  std::to_string(json.size()) + "\r\n\r\n" + json;
          sources.push_back(s);
        }
        client.send_all(wire);
        for (const int s : sources) {
          const std::string response = client.read_http_response();
          if (response.find("HTTP/1.1 200") == 0) {
            const std::string want = "{\"source\":" + std::to_string(s) + ",";
            if (response.find(want) == std::string::npos) ++failures;
            ++ok;
          } else if (response.find("HTTP/1.1 429") == 0) {
            ++shed;
          } else {
            ++failures;
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  server.stop();

  EXPECT_EQ(failures.load(), 0);
  const std::uint64_t total =
      kBinaryThreads * kBinaryRequests + kHttpThreads * kHttpRequests;
  EXPECT_EQ(ok.load() + shed.load(), total);
  EXPECT_EQ(server.outstanding(), 0u);
  // Every admitted request was served or shed by its deadline; backlog-
  // full sheds were never admitted.
  const std::uint64_t admitted = requests.value() - requests0;
  const std::uint64_t served = responses.value() - responses0;
  const std::uint64_t late = shed_deadline.value() - shed_deadline0;
  EXPECT_EQ(admitted, served + late);
  EXPECT_EQ(served, ok.load());
  EXPECT_EQ(shed_full.value() - shed_full0 + late, shed.load());
}

TEST(NetServer, OneLoopInterleavesConnectionsFairly) {
  // A loop turn serves at most batch_max requests per connection, so a
  // deep pipeline on one connection cannot starve another on the same
  // loop: B's one request is answered before A's last (one shared FIFO
  // would answer B after all of them).
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 1;
  config.batch_max = 4;
  Server server(config);
  server.start();
  obs::Counter& served = obs::default_registry().counter("net.responses");
  const std::uint64_t served0 = served.value();

  constexpr int kDeep = 256;
  Client a(server.port());
  Client b(server.port());
  workload::Rng rng(0xFA1Aull);
  std::string wire;
  for (int i = 0; i < kDeep; ++i) {
    net::encode_request(
        make_request(static_cast<std::uint64_t>(i), 11, 400, rng), wire);
  }
  std::thread a_writer([&] { a.send_all(wire); });  // one write, unread
  while (server.outstanding() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  std::string b_wire;
  net::encode_request(make_request(kDeep, 11, 400, rng), b_wire);
  b.send_all(b_wire);
  std::string body;
  ASSERT_TRUE(b.read_frame(body));
  const std::uint64_t served_by_b = served.value() - served0;
  EXPECT_EQ(net::decode_response(body).status, Status::Ok);
  EXPECT_LT(served_by_b, static_cast<std::uint64_t>(kDeep))
      << "B waited behind all of A's pipeline";

  std::map<std::uint64_t, Status> a_status;
  for (int i = 0; i < kDeep; ++i) {
    ASSERT_TRUE(a.read_frame(body)) << "response " << i << " missing";
    const ResponseMsg response = net::decode_response(body);
    EXPECT_EQ(a_status.count(response.id), 0u) << response.id;
    a_status.emplace(response.id, response.status);
    EXPECT_EQ(response.status, Status::Ok);
  }
  a_writer.join();
  EXPECT_EQ(a_status.size(), static_cast<std::size_t>(kDeep));
  // Every A request and B's were real builds: misses, never hits.
  const auto cache_stats = server.cache()->stats();
  EXPECT_EQ(cache_stats.misses, static_cast<std::uint64_t>(kDeep + 1));
  EXPECT_EQ(cache_stats.total_hits(), 0u);
  server.stop();
  EXPECT_EQ(server.outstanding(), 0u);
}

TEST(NetServer, SlowReaderIsThrottledWithoutStallingItsLoop) {
  // A client that pipelines and never reads: once its output cannot
  // flush, the loop stops reading it, so its requests back up in the
  // kernel instead of in server memory. Another connection on the same
  // loop is still answered, and once the slow client reads, every one
  // of its ids arrives exactly once.
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  server.start();
  obs::Counter& admitted = obs::default_registry().counter("net.requests");
  const std::uint64_t admitted0 = admitted.value();

  // 10-cube broadcasts: each response is several times its request.
  constexpr int kRequests = 300;
  Client slow(server.port(), 4096);
  workload::Rng rng(0x510Bull);
  std::vector<std::string> frames(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    net::encode_request(
        make_request(static_cast<std::uint64_t>(i), 10, 1023, rng),
        frames[static_cast<std::size_t>(i)]);
  }
  std::thread sender([&] {
    for (const std::string& frame : frames) slow.send_all(frame);
  });

  // Wait for admissions to stop moving: the loop no longer reads it.
  std::uint64_t seen = admitted.value();
  for (int quiet_polls = 0; quiet_polls < 3;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t now = admitted.value();
    quiet_polls = now == seen ? quiet_polls + 1 : 0;
    seen = now;
  }
  EXPECT_GT(seen - admitted0, 0u);
  EXPECT_LT(seen - admitted0, static_cast<std::uint64_t>(kRequests))
      << "the loop kept reading a client whose output could not flush";

  {
    Client other(server.port());
    std::string wire;
    net::encode_request(make_request(kRequests, 6, 8, rng), wire);
    other.send_all(wire);
    ASSERT_TRUE(other.readable_within(10000))
        << "a slow reader stalled its loop";
    std::string body;
    ASSERT_TRUE(other.read_frame(body));
    const ResponseMsg response = net::decode_response(body);
    EXPECT_EQ(response.id, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(response.status, Status::Ok);
  }

  std::map<std::uint64_t, Status> answered;
  std::string body;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(slow.read_frame(body)) << "response " << i << " missing";
    const ResponseMsg response = net::decode_response(body);
    EXPECT_EQ(answered.count(response.id), 0u) << response.id;
    answered[response.id] = response.status;
    EXPECT_EQ(response.status, Status::Ok);
  }
  sender.join();
  EXPECT_EQ(answered.size(), static_cast<std::size_t>(kRequests));
  server.stop();
  EXPECT_EQ(server.outstanding(), 0u);
}

TEST(NetServer, FourLoopsAnswerEveryIdExactlyOnceByteIdentically) {
  // Connections are dealt round-robin over the loops, so 8 connections
  // keep all 4 loops serving through the shared cache at once.
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 4;
  config.batch_max = 8;
  Server server(config);
  server.start();
  const core::AlgorithmEntry& direct = core::find_algorithm(config.algorithm);

  constexpr int kConns = 8;
  constexpr int kRequestsPerConn = 48;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kConns; ++t) {
    clients.emplace_back([&, t] {
      workload::Rng rng(0x4100Bull + static_cast<std::uint64_t>(t));
      Client client(server.port());
      std::map<std::uint64_t, RequestMsg> pending;
      std::string wire;
      for (int i = 0; i < kRequestsPerConn; ++i) {
        const auto id = static_cast<std::uint64_t>(t * kRequestsPerConn + i);
        // Few shapes, so the loops hit and fill the same cache entries.
        RequestMsg msg = make_request(id, 7, 4 + (i % 6), rng);
        net::encode_request(msg, wire);
        pending.emplace(id, std::move(msg));
      }
      client.send_all(wire);
      std::string body;
      for (int i = 0; i < kRequestsPerConn; ++i) {
        if (!client.read_frame(body)) {
          ++failures;
          return;
        }
        const ResponseMsg response = net::decode_response(body);
        const auto it = pending.find(response.id);
        if (it == pending.end() || response.status != Status::Ok) {
          ++failures;  // unknown, duplicated or not served
          continue;
        }
        std::string expected;
        net::encode_schedule(direct.build(it->second.to_request()),
                             expected);
        if (response.schedule_body != expected) ++failures;
        pending.erase(it);
      }
      if (!pending.empty()) ++failures;
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  server.stop();
  EXPECT_EQ(server.outstanding(), 0u);
}

TEST(NetServer, FdExhaustionPausesAcceptWithoutSpinning) {
  // Out of file descriptors, a pending connection keeps the listener
  // readable; polling it anyway would spin the loop. The server runs in
  // a forked child whose RLIMIT_NOFILE leaves room for exactly two
  // connections; the parent drives the clients and asks the child for
  // net.loop_turns over a pipe.
  int to_child[2];
  int to_parent[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(to_parent), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest assertions, only a status on exit.
    ::close(to_child[1]);
    ::close(to_parent[0]);
    ServerConfig config;
    config.workers = 1;
    Server server(config);
    server.start();
    {
      // Serve and encode one request of the clients' shape before the
      // limit drops: the first request's path then runs with descriptors
      // to spare (UBSan's vptr check probes memory through a pipe on its
      // first sight of a type).
      workload::Rng warm_rng(1);
      const coll::ServePipeline warm(config.algorithm,
                                     std::make_shared<coll::ScheduleCache>());
      const auto view =
          warm.serve_view(make_request(0, 6, 8, warm_rng).to_request());
      std::string out;
      net::encode_ok_response(0, *view.tree, out, view.mask);
    }
    rlimit limit{};
    ::getrlimit(RLIMIT_NOFILE, &limit);
    int free_fds = 0;
    rlim_t cap = 0;
    for (int fd = 0; free_fds < 2; ++fd) {
      if (::fcntl(fd, F_GETFD) == -1 && errno == EBADF) ++free_fds;
      cap = static_cast<rlim_t>(fd) + 1;
    }
    limit.rlim_cur = cap;
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(3);
    const std::uint16_t port = server.port();
    if (::write(to_parent[1], &port, sizeof(port)) != sizeof(port)) {
      ::_exit(4);
    }
    obs::Counter& turns = obs::default_registry().counter("net.loop_turns");
    char command = 0;
    while (::read(to_child[0], &command, 1) == 1 && command == 't') {
      const std::uint64_t value = turns.value();
      if (::write(to_parent[1], &value, sizeof(value)) != sizeof(value)) {
        ::_exit(5);
      }
    }
    server.stop();
    ::_exit(0);
  }
  ::close(to_child[0]);
  ::close(to_parent[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(to_parent[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  const auto loop_turns = [&] {
    const char command = 't';
    std::uint64_t value = 0;
    EXPECT_EQ(::write(to_child[1], &command, 1), 1);
    EXPECT_EQ(::read(to_parent[0], &value, sizeof(value)),
              static_cast<ssize_t>(sizeof(value)));
    return value;
  };

  // Four clients: the first two are accepted, the other two wait in the
  // listen backlog. Each sends one request.
  workload::Rng rng(0xEF11Eull);
  std::vector<std::unique_ptr<Client>> clients;
  for (std::uint64_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(port));
    std::string wire;
    net::encode_request(make_request(i, 6, 8, rng), wire);
    clients.back()->send_all(wire);
  }
  const auto answered = [&](std::size_t i, int ms) {
    std::string body;
    return clients[i]->readable_within(ms) && clients[i]->read_frame(body) &&
           net::decode_response(body).id == i;
  };
  EXPECT_TRUE(answered(0, 10000));
  EXPECT_TRUE(answered(1, 10000));
  EXPECT_FALSE(clients[2]->readable_within(200));

  // While the limit holds, the loop sleeps in poll() (50 ms timeouts)
  // instead of returning at once on every turn.
  const std::uint64_t turns0 = loop_turns();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t turns = loop_turns() - turns0;
  EXPECT_LT(turns, 50u) << "the loop spun on an unacceptable listener";

  // A disconnect frees a descriptor; accepting resumes, one at a time.
  clients[0]->close();
  EXPECT_TRUE(answered(2, 10000));
  clients[1]->close();
  EXPECT_TRUE(answered(3, 10000));

  ::close(to_child[1]);  // EOF: the child drains and exits
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  ::close(to_parent[0]);
}

TEST(NetServer, HttpEndpoints) {
  obs::FlagsGuard flags;
  Server server(ServerConfig{});
  server.start();

  {
    Client client(server.port());
    client.send_all(
        "POST /schedule HTTP/1.1\r\nContent-Length: 39\r\n\r\n"
        R"({"n": 4, "source": 0, "dests": [1,2,3]})");
    const std::string response = client.read_http_response();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
        << response;
    EXPECT_NE(response.find(R"("source":0)"), std::string::npos) << response;
  }
  {
    Client client(server.port());
    client.send_all("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    const std::string response = client.read_to_eof();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("# TYPE hypercast_net_requests_total counter"),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("hypercast_net_connections"), std::string::npos);
  }
  {
    Client client(server.port());
    client.send_all("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
    const std::string response = client.read_to_eof();
    EXPECT_NE(response.find(R"("schema":"hypercast-stats-v1")"),
              std::string::npos)
        << response;
  }
  {
    Client client(server.port());
    client.send_all("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_NE(client.read_to_eof().find("ok"), std::string::npos);
  }
  {
    Client client(server.port());
    client.send_all("GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_NE(client.read_to_eof().find("404"), std::string::npos);
  }
  {
    Client client(server.port());
    client.send_all(
        "POST /schedule HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!");
    const std::string response = client.read_http_response();
    EXPECT_NE(response.find("400"), std::string::npos) << response;
  }
  {
    // Keep-alive: two requests on one connection, answered in order.
    Client client(server.port());
    const std::string post =
        "POST /schedule HTTP/1.1\r\nContent-Length: 39\r\n\r\n"
        R"({"n": 4, "source": 0, "dests": [1,2,3]})";
    client.send_all(post);
    client.send_all(post);
    EXPECT_NE(client.read_http_response().find("200"), std::string::npos);
    EXPECT_NE(client.read_http_response().find("200"), std::string::npos);
  }
  server.stop();
}

TEST(NetServer, InProcessLoadgenClosedLoop) {
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  server.start();

  net::LoadgenConfig load;
  load.port = server.port();
  load.connections = 2;
  load.depth = 8;
  load.total_requests = 400;
  load.dim = 8;
  load.dest_count = 24;
  load.shape_pool = 16;
  const net::LoadgenResult result = net::run_loadgen(load);

  EXPECT_EQ(result.sent, 400u);
  EXPECT_EQ(result.ok, 400u);
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.io_errors, 0u);
  EXPECT_EQ(result.shed(), 0u);
  EXPECT_EQ(result.latencies_ns.size(), 400u);
  EXPECT_GT(result.latency_ns(0.99), 0u);
  EXPECT_GE(result.latency_ns(0.99), result.latency_ns(0.50));

  const std::string artifact = net::bench_artifact_json(load, result);
  EXPECT_NE(artifact.find(R"("schema":"hypercast-bench-v1")"),
            std::string::npos);
  EXPECT_NE(artifact.find(R"("name":"serve_net")"), std::string::npos);
  EXPECT_NE(artifact.find("requests_per_sec"), std::string::npos);
  EXPECT_NE(artifact.find("shed_rate"), std::string::npos);
  EXPECT_NE(artifact.find("latency_p99_us"), std::string::npos);

  server.stop();
}

TEST(NetServer, OpenLoopLoadgenAndMixes) {
  obs::FlagsGuard flags;
  Server server(ServerConfig{});
  server.start();

  net::LoadgenConfig load;
  load.port = server.port();
  load.connections = 2;
  load.open_rate = 2000.0;
  load.duration_s = 0.3;
  load.dim = 7;
  load.dest_count = 16;
  load.mix = "random";
  const net::LoadgenResult result = net::run_loadgen(load);
  EXPECT_GT(result.sent, 0u);
  EXPECT_EQ(result.ok, result.sent);
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.io_errors, 0u);
  server.stop();
}

TEST(NetServer, OpenLoopOfferedRateDoesNotDrift) {
  // Regression: the open-loop generator used to decide "done sending"
  // from the wall clock, so arrivals scheduled before stop but delayed
  // by a blocked send were silently dropped — the offered load drifted
  // below the configured rate whenever the server pushed back. The
  // schedule itself now decides: every arrival with next_send < stop is
  // owed. At 4000 req/s across 2 connections for 1 s the generator owes
  // 2000 sends per connection; accept 1% for thread start-up skew
  // (a late-starting connection owes proportionally fewer).
  obs::FlagsGuard flags;
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  server.start();

  net::LoadgenConfig load;
  load.port = server.port();
  load.connections = 2;
  load.open_rate = 4000.0;
  load.duration_s = 1.0;
  load.dim = 6;
  load.dest_count = 8;
  load.shape_pool = 8;
  const net::LoadgenResult result = net::run_loadgen(load);

  const double offered = load.open_rate * load.duration_s;
  EXPECT_LE(result.sent, static_cast<std::uint64_t>(offered));
  EXPECT_GE(static_cast<double>(result.sent), 0.99 * offered)
      << "sent " << result.sent << " of " << offered;
  EXPECT_EQ(result.ok, result.sent);
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.io_errors, 0u);
  server.stop();
}

TEST(NetServer, OpenLoopLatencyIncludesGeneratorLag) {
  // Regression: open-loop latency used to start at the actual send, so
  // a generator that fell behind its schedule hid its backlog. Latency
  // now runs from each arrival's due time. The peer below reads nothing
  // for its first 200 ms. With 16 KiB requests the generator fills the
  // socket and its 1 MiB send cap within a few hundred arrivals, then
  // falls behind and owes the rest of those due in the stall. Every
  // arrival due in the first 150 ms waited at least 50 ms for the peer,
  // but only the few hundred sent before the cap bound were *sent* that
  // early: send-time stamps would hide the rest of the lag.
  constexpr int kStallMs = 200;
  constexpr std::uint64_t kWaitNs = 50'000'000;

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const int small_buffer = 4096;
  ::setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &small_buffer,
               sizeof(small_buffer));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), addr_len),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);

  // Any valid schedule will do: the generator only times Ok responses.
  workload::Rng rng(0x1A7Eull);
  const core::MulticastSchedule schedule = core::find_algorithm("wsort").build(
      make_request(0, 6, 8, rng).to_request());
  std::thread peer([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
    std::string in;
    std::string out;
    char chunk[64 * 1024];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      in.append(chunk, static_cast<std::size_t>(n));
      std::size_t off = 0;
      std::size_t size;
      while ((size = net::frame_size(std::string_view(in).substr(off),
                                     net::kMaxFrameBytes)) != 0) {
        const RequestMsg msg = net::decode_request(
            std::string_view(in).substr(off + 4, size - 4));
        net::encode_ok_response(msg.id, schedule, out);
        off += size;
      }
      in.erase(0, off);
      for (std::size_t sent = 0; sent < out.size();) {
        const ssize_t w = ::send(fd, out.data() + sent, out.size() - sent,
                                 MSG_NOSIGNAL);
        if (w <= 0) break;
        sent += static_cast<std::size_t>(w);
      }
      out.clear();
    }
    ::close(fd);
  });

  net::LoadgenConfig load;
  load.port = ntohs(addr.sin_port);
  load.connections = 1;
  load.open_rate = 5000.0;
  load.duration_s = 0.4;
  load.dim = 12;
  load.dest_count = 4000;
  load.shape_pool = 4;
  const net::LoadgenResult result = net::run_loadgen(load);
  ::shutdown(listener, SHUT_RDWR);  // frees the peer if nobody connected
  peer.join();
  ::close(listener);

  EXPECT_EQ(result.sent, 2000u);  // rate x duration, backlog included
  EXPECT_EQ(result.ok, result.sent);
  EXPECT_EQ(result.lost, 0u);
  const auto waited = std::count_if(
      result.latencies_ns.begin(), result.latencies_ns.end(),
      [&](std::uint64_t ns) { return ns >= kWaitNs; });
  // 750 arrivals fall due in the first 150 ms; allow 10% for start-up.
  EXPECT_GE(waited, 675) << "p50 " << result.latency_ns(0.5) << " ns";
}

TEST(NetServer, ConfigValidationAndEphemeralPorts) {
  EXPECT_THROW(
      {
        Server bad(ServerConfig{.algorithm = "no-such-algorithm"});
        bad.start();
      },
      std::invalid_argument);

  // Two servers on ephemeral ports coexist; start/stop is clean.
  Server a((ServerConfig{}));
  Server b((ServerConfig{}));
  a.start();
  b.start();
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
  a.stop();
  b.stop();
}

}  // namespace
}  // namespace hypercast
