// serve_hot / serve_cold: wire-to-wire serving through an in-process
// net::Server on loopback TCP, driven by the benchmark's own one-thread
// load client (closed loop for capacity, open loop for latency timed
// from each request's due send time), with every set-up response and
// a deterministic share of timed responses checked byte for byte
// against a locally encoded ServePipeline::serve result.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <unordered_map>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "common.hpp"
#include "core/bounds.hpp"
#include "core/cache_key.hpp"
#include "core/registry.hpp"
#include "core/stepwise.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/random_sets.hpp"

namespace perfbench {
namespace {

using namespace hypercast;

// ---- workload shape -------------------------------------------------------

struct ServeSpec {
  bool hot = true;
  hcube::Dim dim = 8;
  std::size_t dests = 24;
  std::size_t shapes = 64;  ///< hot: canonical shape pool size
  /// Fixed open-loop offered rate (requests/s), about half the closed-loop
  /// capacity measured when the benchmark was defined. It stays the same
  /// on every later commit so latency compares at equal load.
  double open_rate = 0.0;
  std::size_t warm_requests = 0;  ///< cold: distinct set-up requests
  std::size_t sample_every = 1;   ///< timed responses checked: 1 in N
};

ServeSpec spec_for(const std::string& workload) {
  ServeSpec s;
  if (workload == "serve_hot") {
    s.hot = true;
    s.dim = 8;
    s.dests = 24;
    s.shapes = 64;
    s.open_rate = 25000.0;
    s.sample_every = 1;  // a memcmp per response: check them all
  } else {
    s.hot = false;
    s.dim = 10;
    s.dests = 48;
    s.open_rate = 12000.0;
    s.warm_requests = 2048;
    s.sample_every = 16;
  }
  return s;
}

constexpr int kConnections = 8;
constexpr std::size_t kWindow = 128;  ///< closed-loop requests in flight
constexpr int kWindows = 10;  ///< closed/open window pairs per run
constexpr std::uint64_t kDrainNs = 3'000'000'000ull;
constexpr std::uint64_t kWakeMarginNs = 60'000;  ///< open-loop early wake
constexpr int kIdShift = 40;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIdShift) - 1;
constexpr std::size_t kIdOffset = 5;  ///< frame: u32 length, u8 type, u64 id
constexpr std::size_t kStatusOffset = 13;

void patch_id(std::string& frame, std::size_t at, std::uint64_t id) {
  for (int b = 0; b < 8; ++b) {
    frame[at + kIdOffset + static_cast<std::size_t>(b)] =
        static_cast<char>((id >> (8 * b)) & 0xff);
  }
}

/// A response frame equals the expected one everywhere but the id.
bool same_response(std::string_view got, std::string_view want) {
  return got.size() == want.size() && got.size() > kStatusOffset &&
         got.compare(0, kIdOffset, want.substr(0, kIdOffset)) == 0 &&
         got.compare(kStatusOffset, std::string_view::npos,
                     want.substr(kStatusOffset)) == 0;
}

// ---- request streams --------------------------------------------------------

/// serve_hot: XOR-translations of a pooled canonical shape. Every
/// (source, shape) pair is pre-encoded once; the stream picks pairs by a
/// seeded hash of the stream index (the set-up pass walks them in order).
struct HotStream {
  const std::vector<std::string>* frames = nullptr;
  const std::vector<std::string>* expected = nullptr;
  std::uint64_t stream_seed = 0;
  bool sequential = false;

  std::size_t pair_of(std::uint64_t index) const {
    return sequential ? static_cast<std::size_t>(index)
                      : static_cast<std::size_t>(mix64(stream_seed ^ index) %
                                                 frames->size());
  }
  void append(std::uint64_t index, std::uint64_t id, std::string& out) {
    const std::size_t at = out.size();
    out += (*frames)[pair_of(index)];
    patch_id(out, at, id);
  }
  /// Returns false on a byte mismatch.
  bool check(std::uint64_t index, std::string_view frame) {
    return same_response(frame, (*expected)[pair_of(index)]);
  }
};

/// serve_cold: a fresh random destination set per request, drawn from
/// one sequential seeded RNG (requests are generated in index order, so
/// the stream is a pure function of the seed). One request in
/// `sample_every` (0: none) is kept together with its response and
/// verified after the phase, off the clock.
struct ColdStream {
  hcube::Topology topo;
  std::size_t dests = 0;
  workload::Rng rng;
  std::size_t sample_every = 1;
  std::vector<std::pair<std::uint64_t, net::RequestMsg>> sampled;
  std::unordered_map<std::uint64_t, std::string> responses;

  ColdStream(hcube::Dim dim, std::size_t m, std::uint64_t seed,
             std::size_t every)
      : topo(dim), dests(m), rng(seed), sample_every(every) {}

  net::RequestMsg next_request(std::uint64_t id) {
    net::RequestMsg msg;
    msg.id = id;
    msg.dim = topo.dim();
    msg.resolution = hcube::Resolution::HighToLow;
    msg.source = static_cast<hcube::NodeId>(rng() % topo.num_nodes());
    msg.destinations =
        workload::random_destinations(topo, msg.source, dests, rng);
    return msg;
  }
  void append(std::uint64_t index, std::uint64_t id, std::string& out) {
    net::RequestMsg msg = next_request(id);
    net::encode_request(msg, out);
    if (sample_every != 0 && index % sample_every == 0) {
      sampled.emplace_back(index, std::move(msg));
    }
  }
  bool check(std::uint64_t index, std::string_view frame) {
    if (sample_every != 0 && index % sample_every == 0) {
      responses.emplace(index, std::string(frame));
    }
    return true;
  }
};

// ---- the load client ---------------------------------------------------

/// What one client phase observed.
struct Phase {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t ok_in_window = 0;  ///< Ok responses received before stop
  std::uint64_t not_ok = 0;        ///< shed / bad request / internal error
  std::uint64_t mismatched = 0;
  std::uint64_t lost = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t response_bytes = 0;
  double seconds = 0.0;             ///< sending window
  double wall_s = 0.0;              ///< whole phase, drain included
  double process_cpu_s = 0.0;       ///< all threads, whole phase
  double client_cpu_s = 0.0;        ///< the client thread's share

  /// Server CPU microseconds per Ok response (client excluded).
  double server_cpu_us_per_ok() const {
    return ok ? (process_cpu_s - client_cpu_s) * 1e6 / static_cast<double>(ok)
              : 0.0;
  }
  std::vector<std::uint64_t> latency_ns;  ///< open loop, from due time
  std::vector<std::uint64_t> gen_lag_ns;  ///< open loop, send - due

  std::uint64_t failures() const {
    return not_ok + mismatched + lost + io_errors;
  }
};

bool would_block() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::system_error(errno, std::generic_category(), "socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// One client thread multiplexing `connections` sockets with poll().
/// Closed loop: each connection keeps window/connections requests in
/// flight. Open loop: request i is due at t0 + i / rate and goes out on
/// connection i mod connections as soon as it is due; its latency runs
/// from the due time, so a stalled generator shows up as latency and as
/// gen lag rather than vanishing.
class Client {
 public:
  Client(std::uint16_t port, int connections) {
    for (int i = 0; i < connections; ++i) {
      conns_.push_back(Conn{connect_loopback(port), {}, 0, {}, 0});
    }
  }
  ~Client() {
    for (const Conn& c : conns_) ::close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  struct Loop {
    std::uint64_t duration_ns = 0;
    std::uint64_t limit = ~std::uint64_t{0};  ///< max requests sent
    std::size_t window = 0;                    ///< 0 = open loop
    double rate = 0.0;                         ///< open loop requests/s
  };

  template <typename Stream>
  Phase run(const Loop& loop, Stream& stream) {
    Phase ph;
    const std::uint64_t tag = ++phase_tag_;
    const bool open = loop.window == 0;
    const std::size_t per_conn =
        open ? 0 : std::max<std::size_t>(1, loop.window / conns_.size());
    const double interval_ns = open ? 1e9 / loop.rate : 0.0;
    const double cpu0 = thread_cpu_s();
    const double process0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t stop = t0 + loop.duration_ns;
    const auto due = [&](std::uint64_t i) {
      return t0 + static_cast<std::uint64_t>(static_cast<double>(i) *
                                             interval_ns);
    };
    std::vector<std::uint64_t> stamp;  // per index: due (open) / send time
    std::uint64_t next = 0;
    std::uint64_t outstanding = 0;
    bool sending = true;
    std::uint64_t drain_deadline = 0;
    std::vector<pollfd> fds(conns_.size());

    const auto send_one = [&](Conn& c, std::uint64_t stamp_ns,
                              std::uint64_t now) {
      stream.append(next, (tag << kIdShift) | next, c.out);
      stamp.push_back(stamp_ns);
      if (open) ph.gen_lag_ns.push_back(now - stamp_ns);
      ++c.outstanding;
      ++outstanding;
      ++next;
      ++ph.sent;
    };

    while (true) {
      std::uint64_t now = now_ns();
      if (sending) {
        sending = next < loop.limit && (open ? due(next) < stop : now < stop);
        if (!sending) drain_deadline = std::max(now, stop) + kDrainNs;
      }
      if (sending) {
        if (open) {
          while (next < loop.limit && due(next) <= now && due(next) < stop) {
            send_one(conns_[next % conns_.size()], due(next), now);
          }
        } else {
          for (Conn& c : conns_) {
            while (c.outstanding < per_conn && next < loop.limit) {
              send_one(c, now, now);
            }
          }
        }
      }
      for (Conn& c : conns_) {
        if (!flush(c)) ++ph.io_errors;
      }
      if (!sending && (outstanding == 0 || now >= drain_deadline)) break;

      // Wait for a response, or in the open loop until shortly before the
      // next due send (ppoll: sub-millisecond wake-ups; spins when the
      // next send is closer than the wake-up margin).
      std::uint64_t wait_ns = 20'000'000;
      if (open && sending) {
        const std::uint64_t d = due(next);
        wait_ns = d > now + kWakeMarginNs ? d - now - kWakeMarginNs : 0;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const bool pending_out = conns_[i].out.size() > conns_[i].out_off;
        const short events = POLLIN | (pending_out ? POLLOUT : 0);
        fds[i] = pollfd{conns_[i].fd, events, 0};
      }
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
      ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        if (!read_responses(conns_[i], tag, stamp, stop, open, stream, ph,
                            outstanding)) {
          ++ph.io_errors;
        }
      }
    }
    ph.lost = outstanding;
    ph.seconds = static_cast<double>(loop.duration_ns) / 1e9;
    ph.client_cpu_s = thread_cpu_s() - cpu0;
    ph.process_cpu_s = process_cpu_s() - process0;
    ph.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    for (Conn& c : conns_) {
      c.outstanding = 0;
      c.out.clear();
      c.out_off = 0;
      c.in.clear();
    }
    return ph;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t outstanding = 0;
  };

  static bool flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && would_block()) {
        break;
      }
      return false;
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    return true;
  }

  template <typename Stream>
  static bool read_responses(Conn& c, std::uint64_t tag,
                             const std::vector<std::uint64_t>& stamp,
                             std::uint64_t stop, bool open, Stream& stream,
                             Phase& ph, std::uint64_t& outstanding) {
    char buf[1 << 16];
    bool alive = true;
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && would_block()) {
        break;
      }
      alive = false;  // peer closed or socket error
      break;
    }
    const std::uint64_t now = now_ns();
    std::size_t pos = 0;
    const std::string_view in(c.in);
    while (true) {
      std::size_t size = 0;
      try {
        size = net::frame_size(in.substr(pos), net::kMaxFrameBytes);
      } catch (const net::ProtocolError&) {
        return false;
      }
      if (size == 0) break;
      const std::string_view frame = in.substr(pos, size);
      pos += size;
      net::ResponseMsg msg;
      try {
        msg = net::decode_response(frame.substr(4));
      } catch (const net::ProtocolError&) {
        ++ph.mismatched;
        continue;
      }
      const std::uint64_t index = msg.id & kIndexMask;
      if ((msg.id >> kIdShift) != tag || index >= stamp.size()) {
        ++ph.mismatched;  // a response this phase never asked for
        continue;
      }
      if (c.outstanding > 0) --c.outstanding;
      if (outstanding > 0) --outstanding;
      if (msg.status != net::Status::Ok) {
        ++ph.not_ok;
        continue;
      }
      ++ph.ok;
      ph.response_bytes += frame.size();
      if (now < stop) ++ph.ok_in_window;
      if (open) ph.latency_ns.push_back(now - stamp[index]);
      if (!stream.check(index, frame)) ++ph.mismatched;
    }
    c.in.erase(0, pos);
    return alive;
  }

  std::vector<Conn> conns_;
  std::uint64_t phase_tag_ = 0;
};

// ---- the program under test -------------------------------------------------

net::ServerConfig server_config() {
  net::ServerConfig config;
  config.algorithm = "wsort";
  config.cache = true;
  config.workers = 2;
  return config;
}

/// Inputs shared by every phase of a serving run.
struct ServeInputs {
  ServeSpec spec;
  std::uint64_t seed = 0;
  hcube::Topology topo{1};
  // serve_hot: every (source, shape) pair, encoded, plus its expected
  // response (id 0) from the local oracle pipeline.
  std::vector<std::string> pair_frames;
  std::vector<std::string> pair_expected;
  // Requests whose served schedules are replayed in the DES (virtual
  // delivery delay of the answers) and scored against the step bound.
  std::vector<core::MulticastRequest> sim_sample;
};

std::uint64_t stream_seed(const ServeInputs& in, std::uint64_t phase) {
  return workload::derive_seed(in.seed, 0x5e57e000ull + phase, in.spec.dim);
}

ServeInputs make_inputs(const std::string& workload, std::uint64_t seed,
                        const coll::ServePipeline& oracle) {
  ServeInputs in;
  in.spec = spec_for(workload);
  in.seed = seed;
  in.topo = hcube::Topology(in.spec.dim);
  if (in.spec.hot) {
    workload::Rng rng(workload::derive_seed(seed, 0x53484150ull, 0));
    std::vector<std::vector<hcube::NodeId>> shapes;
    for (std::size_t s = 0; s < in.spec.shapes; ++s) {
      shapes.push_back(
          workload::random_destinations(in.topo, 0, in.spec.dests, rng));
    }
    const std::size_t n = in.topo.num_nodes();
    in.pair_frames.reserve(in.spec.shapes * n);
    in.pair_expected.reserve(in.spec.shapes * n);
    for (std::size_t s = 0; s < in.spec.shapes; ++s) {
      for (std::size_t t = 0; t < n; ++t) {
        net::RequestMsg msg;
        msg.dim = in.spec.dim;
        msg.source = static_cast<hcube::NodeId>(t);
        for (const hcube::NodeId d : shapes[s]) {
          msg.destinations.push_back(d ^ msg.source);
        }
        std::string frame;
        net::encode_request(msg, frame);
        in.pair_frames.push_back(std::move(frame));
        std::string expected;
        net::encode_ok_response(0, *oracle.serve(msg.to_request()), expected);
        in.pair_expected.push_back(std::move(expected));
      }
      in.sim_sample.push_back(
          core::MulticastRequest{in.topo, 0, shapes[s]});
    }
  } else {
    ColdStream warm(in.spec.dim, in.spec.dests, stream_seed(in, 0), 1);
    for (std::size_t i = 0; i < 512; ++i) {
      const net::RequestMsg msg = warm.next_request(i);
      in.sim_sample.push_back(msg.to_request());
    }
  }
  return in;
}

/// Verify the cold stream's kept samples against the oracle.
std::uint64_t verify_cold(ColdStream& stream,
                          const coll::ServePipeline& oracle) {
  std::uint64_t bad = 0;
  std::string expected;
  for (const auto& [index, msg] : stream.sampled) {
    const auto it = stream.responses.find(index);
    if (it == stream.responses.end()) continue;  // lost: counted already
    expected.clear();
    net::encode_ok_response(msg.id, *oracle.serve(msg.to_request()), expected);
    if (!same_response(it->second, expected)) ++bad;
  }
  stream.sampled.clear();
  stream.responses.clear();
  return bad;
}

/// Start a server and push the set-up pass through it: every pair once
/// (serve_hot) or the distinct warm requests (serve_cold), each response
/// checked. Returns the running server with the set-up cost: the
/// server's CPU seconds for start + warm-up (the client's excluded) and
/// the wall time.
struct Started {
  std::unique_ptr<net::Server> server;
  std::unique_ptr<Client> client;
  double setup_cpu_s = 0.0;
  double setup_wall_s = 0.0;
  Phase warm;
};

Started start_and_warm(const ServeInputs& in,
                       const coll::ServePipeline& oracle) {
  Started st;
  const std::uint64_t t0 = now_ns();
  const double cpu0 = process_cpu_s();
  st.server = std::make_unique<net::Server>(server_config());
  st.server->start();
  st.client = std::make_unique<Client>(st.server->port(), kConnections);
  Client::Loop loop;
  loop.duration_ns = 600'000'000'000ull;
  loop.window = kWindow;
  ColdStream cold(in.spec.dim, in.spec.dests, stream_seed(in, 0), 1);
  if (in.spec.hot) {
    HotStream stream{&in.pair_frames, &in.pair_expected, 0, true};
    loop.limit = in.pair_frames.size();
    st.warm = st.client->run(loop, stream);
  } else {
    loop.limit = in.spec.warm_requests;
    st.warm = st.client->run(loop, cold);
  }
  st.setup_wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  st.setup_cpu_s = process_cpu_s() - cpu0 - st.warm.client_cpu_s;
  st.warm.mismatched += verify_cold(cold, oracle);
  return st;
}

/// Run one timed client phase over the workload's stream for `phase`.
Phase timed_phase(Client& client, const ServeInputs& in,
                  const coll::ServePipeline& oracle, const Client::Loop& loop,
                  std::uint64_t phase) {
  if (in.spec.hot) {
    HotStream stream{&in.pair_frames, &in.pair_expected, stream_seed(in, phase),
                     false};
    return client.run(loop, stream);
  }
  ColdStream stream(in.spec.dim, in.spec.dests, stream_seed(in, phase),
                    in.spec.sample_every);
  Phase ph = client.run(loop, stream);
  ph.mismatched += verify_cold(stream, oracle);
  return ph;
}

void account(Result& r, const Phase& ph) {
  r.attempted += ph.sent;
  r.fail(ph.failures());
}

/// Virtual-time quality of the served answers: each sampled request's
/// schedule replayed alone through the DES at 4 KiB.
struct SimQuality {
  double max_delay_us = 0.0;
  double avg_delay_us = 0.0;
  double step_ratio = 0.0;
  std::uint64_t undelivered = 0;
};

SimQuality score_answers(const ServeInputs& in,
                         const coll::ServePipeline& oracle) {
  SimQuality q;
  const sim::SimConfig config;
  const auto& port = core::PortModel::all_port();
  double max_sum = 0.0, avg_sum = 0.0, ratio_sum = 0.0;
  for (const core::MulticastRequest& req : in.sim_sample) {
    const auto schedule = oracle.serve(req);
    const sim::SimResult res = sim::simulate_multicast(*schedule, config);
    for (const hcube::NodeId d : req.destinations) {
      if (!res.delivery.contains(d)) ++q.undelivered;
    }
    max_sum += sim::to_microseconds(res.max_delay(req.destinations));
    avg_sum += res.avg_delay(req.destinations) / 1e3;
    const int steps =
        core::assign_steps(*schedule, port, req.destinations).total_steps;
    ratio_sum += static_cast<double>(steps) /
                 core::all_port_step_lower_bound(req.destinations.size(),
                                                 req.topo.dim());
  }
  const auto n = static_cast<double>(in.sim_sample.size());
  q.max_delay_us = max_sum / n;
  q.avg_delay_us = avg_sum / n;
  q.step_ratio = ratio_sum / n;
  return q;
}

// ---- the traced in-process replay --------------------------------------

/// Request frames for the in-process replay: the same seeded stream the
/// wire open-loop phase sent.
std::vector<std::string> replay_frames(const ServeInputs& in,
                                       std::uint64_t phase, std::size_t count) {
  std::vector<std::string> frames(count);
  if (in.spec.hot) {
    HotStream stream{&in.pair_frames, &in.pair_expected, stream_seed(in, phase),
                     false};
    for (std::size_t i = 0; i < count; ++i) stream.append(i, i, frames[i]);
  } else {
    ColdStream stream(in.spec.dim, in.spec.dests, stream_seed(in, phase), 0);
    for (std::size_t i = 0; i < count; ++i) stream.append(i, i, frames[i]);
  }
  return frames;
}

/// decode -> validate -> serve -> encode for frames [begin, end), one
/// root span per request with the stage spans as children. Returns the
/// wall time and the number of mismatched responses.
struct ReplayTimes {
  std::uint64_t wall_ns = 0;
  std::uint64_t mismatched = 0;
};

ReplayTimes replay(const std::vector<std::string>& frames, std::size_t begin,
                   std::size_t end, const coll::ServePipeline& pipeline,
                   SpanLog& log) {
  ReplayTimes t;
  std::string out;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = begin; i < end; ++i) {
    const Scope root(log, "request", i);
    std::optional<core::MulticastRequest> request;
    {
      const Scope s(log, "net.decode", i, root.index());
      const net::RequestMsg msg =
          net::decode_request(std::string_view(frames[i]).substr(4));
      request.emplace(msg.to_request());
      request->validate();
    }
    std::shared_ptr<const core::MulticastSchedule> schedule;
    {
      const Scope s(log, "coll.serve", i, root.index());
      schedule = pipeline.serve(*request);
    }
    {
      const Scope s(log, "net.encode", i, root.index());
      out.clear();
      net::encode_ok_response(i, *schedule, out);
    }
    if (out.size() <= kStatusOffset) ++t.mismatched;
  }
  t.wall_ns = now_ns() - t0;
  return t;
}

/// A fresh wsort pipeline with its own cache, warmed the way the set-up
/// pass warms the server's (serve_hot: every pair once).
std::unique_ptr<coll::ServePipeline> warm_pipeline(const ServeInputs& in) {
  auto pipeline = std::make_unique<coll::ServePipeline>(
      "wsort", std::make_shared<coll::ScheduleCache>());
  if (in.spec.hot) {
    for (const std::string& f : in.pair_frames) {
      pipeline->serve(
          net::decode_request(std::string_view(f).substr(4)).to_request());
    }
  }
  return pipeline;
}

/// Stage probes outside the serve call: canonicalization, a registry
/// wsort build of the request's relative form, and the XOR translation
/// the cache pays on a relative hit.
void probe_stages(const std::vector<std::string>& frames, std::size_t count,
                  SpanLog& log) {
  const core::AlgorithmEntry& wsort = core::find_algorithm("wsort");
  core::CacheKey key;
  const std::uint64_t hash_seed = coll::ScheduleCache::Config{}.hash_seed;
  core::MulticastSchedule translated(hcube::Topology(1), 0);
  for (std::size_t i = 0; i < count; ++i) {
    const net::RequestMsg msg =
        net::decode_request(std::string_view(frames[i]).substr(4));
    const core::MulticastRequest request = msg.to_request();
    const Scope root(log, "probe", i);
    {
      const Scope s(log, "coll.canonicalize", i, root.index());
      core::canonical_key_into(request.topo, request.source,
                               request.destinations, 1, false, hash_seed, key);
    }
    core::MulticastRequest relative{request.topo, 0, {}};
    relative.destinations.reserve(request.destinations.size());
    for (const hcube::NodeId d : request.destinations) {
      relative.destinations.push_back(d ^ request.source);
    }
    core::MulticastSchedule built(request.topo, 0);
    {
      const Scope s(log, "core.build", i, root.index());
      built = wsort.build(relative);
      built.finalize();
    }
    {
      const Scope s(log, "coll.translate", i, root.index());
      translated.assign_translated(built, request.source);
    }
  }
}

double agg_ns(const std::map<std::string, SpanLog::Agg>& aggs,
              const char* name) {
  const auto it = aggs.find(name);
  return it == aggs.end() ? 0.0 : it->second.mean_self_ns();
}

}  // namespace

Result run_serve(const Options& o) {
  Result r;
  r.threads = {{"event_loop", 1}, {"workers", 2}, {"client", 1}};
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  auto oracle_cache = std::make_shared<coll::ScheduleCache>();
  const coll::ServePipeline oracle("wsort", oracle_cache);
  const ServeInputs in = make_inputs(o.workload, o.seed, oracle);
  const SimQuality quality = score_answers(in, oracle);
  r.attempted += in.sim_sample.size();
  r.fail(quality.undelivered);
  if (o.digest) {
    // Every request byte the run would send first: the set-up pass and
    // the head of both timed streams.
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::vector<std::string> head;
    if (in.spec.hot) {
      head = in.pair_frames;
    } else {
      ColdStream warm(in.spec.dim, in.spec.dests, stream_seed(in, 0), 0);
      head.resize(in.spec.warm_requests);
      for (std::size_t i = 0; i < head.size(); ++i) warm.append(i, i, head[i]);
    }
    for (const std::uint64_t phase : {1, 2}) {
      for (std::string& f : replay_frames(in, phase, 4096)) {
        head.push_back(std::move(f));
      }
    }
    for (const std::string& f : head) h = fnv1a(f.data(), f.size(), h);
    r.inputs_hash = h;
    r.metric("sim_max_delay_us", quality.max_delay_us, "us");
    r.metric("sim_avg_delay_us", quality.avg_delay_us, "us");
    r.metric("core.step_ratio", quality.step_ratio, "ratio");
    return r;
  }

  // Set-up: start + warm-up, three times, median; the last server stays.
  std::vector<double> setups, setup_walls;
  Started st;
  for (int rep = 0; rep < (o.trace ? 1 : 3); ++rep) {
    st = Started{};  // the previous client disconnects, its server drains
    st = start_and_warm(in, oracle);
    setups.push_back(st.setup_cpu_s);
    setup_walls.push_back(st.setup_wall_s);
    account(r, st.warm);
    r.max_process_threads = std::max(r.max_process_threads, process_threads());
  }

  const auto budget_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
  Client::Loop open_loop;
  open_loop.rate = in.spec.open_rate;

  if (!o.trace) {
    // Alternate closed- and open-loop windows so slow drifts of the host
    // hit both alike; each figure is the median over windows.
    std::vector<double> rps_w, p50_w, p99_w, lag_w, cpu_per_ok, cpu_closed,
        cpu_open;
    std::size_t samples = 0;
    for (int w = 0; w < kWindows; ++w) {
      Client::Loop closed;
      closed.window = kWindow;
      closed.duration_ns = budget_ns * 6 / 10 / kWindows;
      const Phase cl = timed_phase(*st.client, in, oracle, closed, 1 + 2 * w);
      account(r, cl);
      open_loop.duration_ns = budget_ns * 4 / 10 / kWindows;
      Phase op = timed_phase(*st.client, in, oracle, open_loop, 2 + 2 * w);
      account(r, op);
      rps_w.push_back(static_cast<double>(cl.ok_in_window) / cl.seconds);
      p50_w.push_back(quantile_us(op.latency_ns, 0.50));
      p99_w.push_back(quantile_us(op.latency_ns, 0.99));
      lag_w.push_back(quantile_us(op.gen_lag_ns, 0.99));
      cpu_per_ok.push_back(cl.server_cpu_us_per_ok());
      cpu_closed.push_back(cl.client_cpu_s / cl.wall_s);
      cpu_open.push_back(op.client_cpu_s / op.wall_s);
      samples += op.latency_ns.size();
      std::printf("window %d: closed %.0f req/s, open p50 %.1f us p99 %.1f "
                  "us lag p99 %.1f us\n",
                  w, rps_w.back(),
                  p50_w.back(), p99_w.back(), lag_w.back());
    }
    r.max_process_threads = std::max(r.max_process_threads, process_threads());
    st.client.reset();
    st.server->stop();

    const double cpu_us = median(cpu_per_ok);
    const double rps = median(rps_w);
    const double p50 = median(p50_w);
    const double p99 = median(p99_w);
    const double setup = median(setups);
    const double rss = peak_rss_mb();
    const double fail_frac =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);

    r.metric("setup_s", setup, "s");
    r.metric("rss_mb", rss, "MiB");
    r.metric("ok_frac", 1.0 - fail_frac, "ratio");
    r.metric("cpu_us_per_op", cpu_us, "us");
    r.metric("sim_max_delay_us", quality.max_delay_us, "us");
    r.metric("sim_avg_delay_us", quality.avg_delay_us, "us");

    r.note("setup_s", setup, "s");
    r.note("setup_wall_s", median(setup_walls), "s");
    r.note("cpu_us_per_op", cpu_us, "us");
    r.note("rss_mb", rss, "MiB");
    r.note("fail_frac", fail_frac, "ratio");
    r.note("serve_rps", rps, "1/s");
    r.note("latency_p50_us", p50, "us");
    r.note("latency_p99_us", p99, "us");
    r.note("latency_samples", static_cast<double>(samples), "count");
    r.note("open_rate", in.spec.open_rate, "1/s");
    r.note("client_cpu_closed", median(cpu_closed), "ratio");
    r.note("client_cpu_open", median(cpu_open), "ratio");
    r.note("client.gen_lag_p99_us", median(lag_w), "us");
    r.note("sim_max_delay_us", quality.max_delay_us, "us");
    r.note("sim_avg_delay_us", quality.avg_delay_us, "us");
    return r;
  }

  // ---- traced run: wire open loop for the end-to-end p50, registry and
  // cache stats for the server's layers, then the same stream replayed
  // in-process with spans around each public call.
  obs::default_registry().reset();
  const coll::ScheduleCache::Stats before = st.server->cache()->stats();
  open_loop.duration_ns = budget_ns * 5 / 10;
  Phase op = timed_phase(*st.client, in, oracle, open_loop, 2);
  account(r, op);
  const coll::ScheduleCache::Stats after = st.server->cache()->stats();
  const obs::HistogramSnapshot batch =
      obs::default_registry().histogram("net.batch_size").snapshot();
  r.max_process_threads = std::max(r.max_process_threads, process_threads());
  st.client.reset();
  st.server->stop();
  const double e2e_p50_us = quantile_us(op.latency_ns, 0.50);

  // In-process replay: a fresh pipeline warmed by the same set-up pass.
  const auto warmed = warm_pipeline(in);
  const coll::ServePipeline& pipeline = *warmed;
  const std::size_t per_pass = std::min<std::size_t>(
      in.spec.hot ? 60000 : 20000, std::max<std::uint64_t>(op.sent / 2, 1000));
  const std::vector<std::string> frames = replay_frames(in, 2, 2 * per_pass);
  SpanLog log(per_pass * 9 + 16);
  // Untraced pass over the first half, traced pass over the second (the
  // cold stream must not hit entries the first pass inserted).
  const ReplayTimes untraced = replay(frames, 0, per_pass, pipeline, log);
  log.enabled = true;
  const ReplayTimes traced =
      replay(frames, per_pass, 2 * per_pass, pipeline, log);
  probe_stages(frames, std::min<std::size_t>(per_pass, 5000), log);
  log.enabled = false;
  r.attempted += 2 * per_pass;
  r.fail(untraced.mismatched + traced.mismatched);
  if (!o.trace_out.empty()) log.write(o.trace_out);

  const auto aggs = log.self_times();
  const double decode = agg_ns(aggs, "net.decode");
  const double serve = agg_ns(aggs, "coll.serve");
  const double encode = agg_ns(aggs, "net.encode");
  const auto lookups = static_cast<double>(after.lookups() - before.lookups());
  const auto hits =
      static_cast<double>(after.total_hits() - before.total_hits());
  const auto evictions =
      static_cast<double>(after.evictions - before.evictions);

  init_layer_metrics(r);
  r.set("net.decode_ns", decode);
  r.set("net.encode_ns", encode);
  r.set("net.response_bytes",
      op.ok ? static_cast<double>(op.response_bytes) / op.ok : 0.0);
  r.set("net.batch_size", batch.mean());
  r.set("net.e2e_p50_us", e2e_p50_us);
  r.set("net.unattributed_us", e2e_p50_us - (decode + serve + encode) / 1e3);
  r.set("coll.serve_ns", serve);
  r.set("coll.canonicalize_ns", agg_ns(aggs, "coll.canonicalize"));
  r.set("coll.translate_ns", agg_ns(aggs, "coll.translate"));
  r.set("coll.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  r.set("coll.lookups", lookups);
  r.set("coll.requests", static_cast<double>(op.sent));
  r.set("coll.evictions_per_req",
      op.sent ? evictions / static_cast<double>(op.sent) : 0.0);
  r.set("core.build_ns", agg_ns(aggs, "core.build"));
  r.set("core.step_ratio", quality.step_ratio);
  r.set("client.gen_lag_p99_us", quantile_us(op.gen_lag_ns, 0.99));
  r.set("trace.overhead_pct", overhead_pct(untraced.wall_ns, traced.wall_ns));
  for (const auto& [name, v] : r.metrics) r.note(name, v.value, v.unit);
  r.note("replay_requests_per_pass", static_cast<double>(per_pass), "count");
  return r;
}

}  // namespace perfbench
