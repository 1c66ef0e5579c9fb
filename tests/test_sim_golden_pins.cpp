// Exact-output pin for the flit engine, which the relational tests
// (closed forms, "never slower") leave unpinned. Every per-node time and
// every stats counter, events included, was recorded from the engine
// before its continuations moved onto raw event-queue handlers; any
// change to event order or count shows up here as a diff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/chain_algorithms.hpp"
#include "sim/flit_sim.hpp"
#include "test_util.hpp"

namespace hypercast {
namespace {

using hcube::NodeId;
using sim::SimTime;
using testutil::random_request;
using testutil::Topology;

using Times = std::vector<std::pair<NodeId, SimTime>>;

/// (node, time) pairs sorted by node, from any map-like range.
template <typename Map>
Times sorted_times(const Map& map) {
  Times out(map.begin(), map.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Renders `times` as the initializer this file pins, so a deliberate
/// change can be re-recorded by pasting the failure message.
std::string as_initializer(const Times& times) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < times.size(); ++i) {
    os << (i % 4 == 0 ? "\n    " : " ") << "{" << times[i].first << ", "
       << times[i].second << "},";
  }
  os << "}";
  return os.str();
}

TEST(SimGoldenPins, FlitUcubeOnePortSingleFlitBuffers) {
  const Topology topo(5);
  workload::Rng rng(190519);
  const auto req = random_request(topo, 20, rng);
  sim::FlitConfig config;
  config.port = core::PortModel::one_port();
  config.buffer_flits = 1;
  const auto result = sim::simulate_multicast_flit(core::ucube(req), config);

  const Times want = {
      {0, 14108800},  {1, 8216000},   {2, 12204000},  {3, 14318000},
      {5, 6102000},   {7, 10090000},  {9, 11964000},  {10, 15952000},
      {12, 19763600}, {13, 3988000},  {14, 11724000}, {15, 7976000},
      {17, 11726000}, {18, 15714000}, {20, 13540400}, {21, 15654400},
      {22, 7707200},  {23, 13542400}, {24, 9552400},  {31, 13300400}};
  const Times got = sorted_times(result.delivery);
  EXPECT_EQ(got, want) << as_initializer(got);
  EXPECT_EQ(result.stats.messages, 20u);
  EXPECT_EQ(result.stats.flit_transfers, 2340u);
  EXPECT_EQ(result.stats.blocked_acquisitions, 7u);
  EXPECT_EQ(result.stats.total_blocked_ns, 29927200);
  EXPECT_EQ(result.stats.events, 2387u);
  EXPECT_EQ(result.max_delay(), 19763600);
}

}  // namespace
}  // namespace hypercast
