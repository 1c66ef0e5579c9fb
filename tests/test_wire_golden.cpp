// Golden wire bytes: the one-pass schedule encoder and the HTTP/JSON
// rendering must produce exactly the bytes of the straightforward
// per-word encoder kept below as the reference (senders() then
// sends_from() per sender, one u32 appended at a time). The corpus
// spans 1- to 12-cubes: empty schedules, sparse and broadcast wsort
// trees, IST broadcast trees, XOR-translated schedules (from finalized
// and from unfinalized relative schedules) and fault-repaired ones. The
// masked encoders must write exactly the reference bytes of the
// materialized XOR translation, for the four paper algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/ist.hpp"
#include "core/registry.hpp"
#include "fault/fault_aware.hpp"
#include "metrics/json.hpp"
#include "net/http.hpp"
#include "net/protocol.hpp"
#include "workload/random_sets.hpp"

namespace hypercast {
namespace {

using core::MulticastRequest;
using core::MulticastSchedule;
using hcube::NodeId;
using hcube::Topology;

// ---- reference encoders -----------------------------------------------------

void ref_put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out.append(b, 4);
}

void ref_encode_schedule(const MulticastSchedule& schedule, std::string& out) {
  ref_put_u32(out, schedule.source());
  const std::vector<NodeId> senders = schedule.senders();
  ref_put_u32(out, static_cast<std::uint32_t>(senders.size()));
  for (const NodeId from : senders) {
    ref_put_u32(out, from);
    const auto sends = schedule.sends_from(from);
    ref_put_u32(out, static_cast<std::uint32_t>(sends.size()));
    for (const core::Send& send : sends) {
      ref_put_u32(out, send.to);
      ref_put_u32(out, static_cast<std::uint32_t>(send.payload.size()));
      for (const NodeId node : send.payload) ref_put_u32(out, node);
    }
  }
}

void ref_encode_ok_response(std::uint64_t id, const MulticastSchedule& schedule,
                            std::string& out) {
  const std::size_t header_at = out.size();
  ref_put_u32(out, 0);
  out.push_back(static_cast<char>(net::kScheduleResponse));
  ref_put_u32(out, static_cast<std::uint32_t>(id & 0xffffffffull));
  ref_put_u32(out, static_cast<std::uint32_t>(id >> 32));
  out.push_back(static_cast<char>(net::Status::Ok));
  ref_encode_schedule(schedule, out);
  std::string header;
  ref_put_u32(header, static_cast<std::uint32_t>(out.size() - header_at - 4));
  out.replace(header_at, 4, header);
}

std::string ref_schedule_to_json(const MulticastSchedule& schedule) {
  metrics::JsonWriter w;
  w.begin_object();
  w.key("source").value(static_cast<std::uint64_t>(schedule.source()));
  w.key("sends").begin_array();
  for (const NodeId from : schedule.senders()) {
    for (const core::Send& send : schedule.sends_from(from)) {
      w.begin_object();
      w.key("from").value(static_cast<std::uint64_t>(from));
      w.key("to").value(static_cast<std::uint64_t>(send.to));
      w.key("payload").begin_array();
      for (const NodeId node : send.payload) {
        w.value(static_cast<std::uint64_t>(node));
      }
      w.end_array();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

// ---- corpus -----------------------------------------------------------------

struct Case {
  std::string name;
  MulticastSchedule schedule;
};

std::vector<Case> corpus() {
  workload::Rng rng(90125);
  const core::AlgorithmEntry& wsort = core::find_algorithm("wsort");
  std::vector<Case> out;
  for (int dim = 1; dim <= 12; ++dim) {
    const Topology topo(dim);
    const std::size_t n = topo.num_nodes();
    const std::string cube = std::to_string(dim) + "-cube ";
    const auto source = static_cast<NodeId>(rng() % n);

    out.push_back({cube + "empty", MulticastSchedule(topo, source)});
    out.push_back({cube + "no destinations",
                   wsort.build(MulticastRequest{topo, source, {}})});
    for (const std::size_t m : {std::size_t{1}, std::size_t{3}, n / 8, n - 1}) {
      if (m == 0 || m > n - 1) continue;
      out.push_back(
          {cube + "wsort m=" + std::to_string(m),
           wsort.build(MulticastRequest{
               topo, source,
               workload::random_destinations(topo, source, m, rng)})});
    }
    out.push_back({cube + "ist broadcast", core::build_ist_tree0(topo, 0)});

    // Translations of a relative tree and of a copy of it (a copy owns
    // its own block).
    const MulticastSchedule relative = wsort.build(MulticastRequest{
        topo, 0,
        workload::random_destinations(topo, 0, std::max<std::size_t>(1, n / 4),
                                      rng)});
    const auto mask = static_cast<NodeId>(rng() % n);
    const MulticastSchedule copy = relative;
    MulticastSchedule copy_translated(topo, 0);
    copy_translated.assign_translated(copy, mask);
    out.push_back({cube + "translated, copied relative",
                   std::move(copy_translated)});
    MulticastSchedule translated(topo, 0);
    translated.assign_translated(relative, mask);
    out.push_back({cube + "translated", std::move(translated)});

    if (dim >= 3) {
      // Greedy repair of a sparse tree around a failed link of its source,
      // and the arc-disjoint repair of an IST broadcast tree.
      const auto dests = workload::random_destinations(topo, source, n / 4, rng);
      fault::FaultSet faults(topo);
      faults.fail_link(source, 0);
      out.push_back({cube + "greedy repair",
                     fault::repair_schedule(
                         wsort.build(MulticastRequest{topo, source, dests}),
                         dests, faults)
                         .schedule});
      std::vector<NodeId> all;
      for (NodeId v = 1; v < n; ++v) all.push_back(v);
      for (hcube::Dim t = 0; t < topo.dim(); ++t) {
        const MulticastSchedule tree = core::build_ist_tree0(topo, t);
        if (fault::blocked_unicasts(tree, faults) == 0) continue;
        core::ArcOwnerTable owners(topo);
        auto repaired = fault::repair_disjoint(tree, all, faults, owners, t);
        if (repaired.has_value()) {
          out.push_back({cube + "disjoint repair of ist tree " +
                             std::to_string(t),
                         std::move(repaired->schedule)});
          break;
        }
      }
    }
  }
  return out;
}

TEST(WireGolden, OkResponseBytesMatchTheReferenceEncoder) {
  std::uint64_t id = 0x0123456789abcdefull;
  std::size_t repaired = 0;
  for (const Case& c : corpus()) {
    if (c.name.find("repair") != std::string::npos) ++repaired;
    // Append after existing bytes, as a connection's output buffer does.
    std::string got = "prefix";
    std::string want = "prefix";
    net::encode_ok_response(id, c.schedule, got);
    ref_encode_ok_response(id, c.schedule, want);
    // Not EXPECT_EQ: gtest would try to diff up to 200 KB of binary.
    EXPECT_TRUE(got == want) << c.name << ": " << got.size() << " vs "
                             << want.size() << " bytes";

    std::string body_got = "x";
    std::string body_want = "x";
    net::encode_schedule(c.schedule, body_got);
    ref_encode_schedule(c.schedule, body_want);
    EXPECT_TRUE(body_got == body_want) << c.name;
    id = id * 6364136223846793005ull + 1442695040888963407ull;
  }
  // The repaired cases must really be in the corpus.
  EXPECT_GE(repaired, 10u);
}

TEST(WireGolden, JsonMatchesTheReferenceRendering) {
  for (const Case& c : corpus()) {
    EXPECT_TRUE(net::schedule_to_json(c.schedule) ==
                ref_schedule_to_json(c.schedule))
        << c.name;
  }
}

// Masked encoding: the server answers a translated request from the
// cached relative tree and the request's source as an XOR mask. The
// bytes must be those of the materialized translation, run through the
// reference encoders.
TEST(WireGolden, MaskedEncodingMatchesTheMaterializedTranslation) {
  workload::Rng rng(0x3a5c);
  std::size_t checked = 0;
  for (const char* name : {"ucube", "maxport", "combine", "wsort"}) {
    const core::AlgorithmEntry& algo = core::find_algorithm(name);
    for (const hcube::Resolution res :
         {hcube::Resolution::HighToLow, hcube::Resolution::LowToHigh}) {
      for (int dim = 1; dim <= 8; ++dim) {
        const Topology topo(dim, res);
        const std::size_t n = topo.num_nodes();
        for (const std::size_t m : {std::size_t{1}, (n + 2) / 3, n - 1}) {
          const std::string what = std::string(name) + " " +
                                   std::to_string(dim) + "-cube m=" +
                                   std::to_string(m);
          MulticastSchedule rel = algo.build(MulticastRequest{
              topo, 0, workload::random_destinations(topo, 0, m, rng)});
          std::vector<NodeId> masks;
          if (dim <= 6) {
            for (NodeId mask = 0; mask < n; ++mask) masks.push_back(mask);
          } else {
            masks.push_back(0);
            for (int k = 0; k < 32; ++k) {
              masks.push_back(static_cast<NodeId>(rng() % n));
            }
          }
          for (const NodeId mask : masks) {
            MulticastSchedule translated(topo, 0);
            translated.assign_translated(rel, mask);
            const std::uint64_t id = rng();
            std::string got = "prefix";
            std::string want = "prefix";
            net::encode_ok_response(id, rel, got, mask);
            ref_encode_ok_response(id, translated, want);
            EXPECT_TRUE(got == want) << what << " mask " << mask;
            std::string body_got;
            std::string body_want;
            net::encode_schedule(rel, body_got, mask);
            ref_encode_schedule(translated, body_want);
            EXPECT_TRUE(body_got == body_want) << what << " mask " << mask;
            EXPECT_TRUE(net::schedule_to_json(rel, mask) ==
                        ref_schedule_to_json(translated))
                << what << " mask " << mask;
            if (mask == 0) {
              // Mask 0 is the unmasked encoding of the tree itself.
              std::string plain = "prefix";
              net::encode_ok_response(id, rel, plain);
              EXPECT_TRUE(got == plain) << what;
              std::string ref = "prefix";
              ref_encode_ok_response(id, rel, ref);
              EXPECT_TRUE(got == ref) << what;
              EXPECT_TRUE(net::schedule_to_json(rel, 0) ==
                          ref_schedule_to_json(rel))
                  << what;
            }
            ++checked;
          }
        }
      }
    }
  }
  // 4 algorithms x 2 resolutions x 3 sizes x (2+4+...+64 + 2 x 33).
  EXPECT_EQ(checked, 4u * 2 * 3 * (126 + 2 * 33));
}

}  // namespace
}  // namespace hypercast
