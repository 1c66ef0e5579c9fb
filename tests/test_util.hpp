#ifndef HYPERCAST_TESTS_TEST_UTIL_HPP
#define HYPERCAST_TESTS_TEST_UTIL_HPP

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <set>
#include <thread>
#include <vector>

#include "core/chain_algorithms.hpp"
#include "core/multicast.hpp"
#include "core/registry.hpp"
#include "core/stepwise.hpp"
#include "core/tree_builder.hpp"
#include "core/weighted_sort.hpp"
#include "hcube/bits.hpp"
#include "hcube/chain.hpp"
#include "workload/random_sets.hpp"

namespace hypercast::testutil {

using core::MulticastRequest;
using core::MulticastSchedule;
using hcube::NodeId;
using hcube::Resolution;
using hcube::Topology;

/// Owned copy of a payload view (schedule sends carry spans into the
/// schedule's pool; copy before comparing or outliving the schedule).
inline std::vector<NodeId> to_vec(std::span<const NodeId> payload) {
  return {payload.begin(), payload.end()};
}

/// The children of `from` in issue order.
inline std::vector<NodeId> children_of(const MulticastSchedule& s,
                                       NodeId from) {
  std::vector<NodeId> out;
  for (const core::Send& send : s.sends_from(from)) out.push_back(send.to);
  return out;
}

/// Sorted recipient set.
inline std::set<NodeId> recipient_set(const MulticastSchedule& s) {
  const auto r = s.recipients();
  return {r.begin(), r.end()};
}

/// Draw a random request: random source, m random destinations.
inline MulticastRequest random_request(const Topology& topo, std::size_t m,
                                       workload::Rng& rng) {
  const NodeId source =
      static_cast<NodeId>(rng() % static_cast<std::uint64_t>(topo.num_nodes()));
  auto dests = workload::random_destinations(topo, source, m, rng);
  return MulticastRequest{topo, source, std::move(dests)};
}

/// Assert-style helper: schedule is structurally valid and reaches
/// exactly the requested destinations (no extra processor involvement),
/// returning the recipients for further checks.
inline ::testing::AssertionResult covers_exactly(
    const MulticastSchedule& schedule, const MulticastRequest& req) {
  try {
    schedule.validate();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "invalid schedule: " << e.what();
  }
  const auto got = recipient_set(schedule);
  const std::set<NodeId> want(req.destinations.begin(),
                              req.destinations.end());
  if (got != want) {
    return ::testing::AssertionFailure()
           << "recipients != destinations (got " << got.size() << ", want "
           << want.size() << ")";
  }
  return ::testing::AssertionSuccess();
}

/// As above, but allowing relay recipients (store-and-forward trees).
inline ::testing::AssertionResult covers_at_least(
    const MulticastSchedule& schedule, const MulticastRequest& req) {
  try {
    schedule.validate();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure() << "invalid schedule: " << e.what();
  }
  if (!schedule.covers(req.destinations)) {
    return ::testing::AssertionFailure() << "some destination never receives";
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Reference trees: the original recursive-delivery builder (owned
// payload vectors, a deque of Delivery records) over the sorted
// make_relative_chain, kept independent of TreeBuilder so any drift in
// the library's build path shows up as a schedule mismatch.
// ---------------------------------------------------------------------------

struct RefSend {
  NodeId to = 0;
  std::vector<NodeId> payload;  // owned copy, as the old code made
};

inline std::vector<RefSend> ref_local_sends(const Topology& topo,
                                            NodeId local,
                                            std::span<const NodeId> field,
                                            core::NextRule rule) {
  std::vector<RefSend> sends;
  if (field.empty()) return sends;

  std::vector<std::uint32_t> key(field.size() + 1);
  key[0] = topo.key(local);
  for (std::size_t i = 0; i < field.size(); ++i) {
    key[i + 1] = topo.key(field[i]);
  }
  const auto chain_at = [&](std::size_t i) {
    return i == 0 ? local : field[i - 1];
  };

  std::size_t left = 0;
  std::size_t right = field.size();
  while (left < right) {
    const hcube::Dim x = hcube::highest_bit(key[left] ^ key[right]);
    std::size_t highdim = left + 1;
    const bool left_side = hcube::test_bit(key[left], x);
    while (hcube::test_bit(key[highdim], x) == left_side) ++highdim;
    const std::size_t center = left + (right - left + 1) / 2;
    std::size_t next = 0;
    switch (rule) {
      case core::NextRule::Center:
        next = center;
        break;
      case core::NextRule::HighDim:
        next = highdim;
        break;
      case core::NextRule::MaxOfBoth:
        next = std::max(highdim, center);
        break;
    }
    RefSend send;
    send.to = chain_at(next);
    send.payload.reserve(right - next);
    for (std::size_t i = next + 1; i <= right; ++i) {
      send.payload.push_back(chain_at(i));
    }
    sends.push_back(std::move(send));
    right = next - 1;
  }
  return sends;
}

inline MulticastSchedule ref_build_chain_schedule(
    const Topology& topo, std::span<const NodeId> chain,
    core::NextRule rule) {
  core::ScheduleBuilder schedule(topo, chain[0]);
  if (chain.size() == 1) return std::move(schedule).build();

  struct Delivery {
    NodeId node;
    std::vector<NodeId> field;
  };
  std::deque<Delivery> inbox;
  inbox.push_back(
      Delivery{chain[0], std::vector<NodeId>(chain.begin() + 1, chain.end())});
  while (!inbox.empty()) {
    Delivery d = std::move(inbox.front());
    inbox.pop_front();
    for (RefSend& send : ref_local_sends(topo, d.node, d.field, rule)) {
      schedule.add_send(d.node, send.to, send.payload);
      if (!send.payload.empty()) {
        inbox.push_back(Delivery{send.to, std::move(send.payload)});
      }
    }
  }
  return std::move(schedule).build();
}

inline MulticastSchedule ref_chain_algorithm(const MulticastRequest& req,
                                             core::NextRule rule) {
  req.validate();
  const auto chain =
      hcube::make_relative_chain(req.topo, req.source, req.destinations);
  return ref_build_chain_schedule(req.topo, chain, rule);
}

/// Reference W-sort goes through the faithful (paper-literal, O(m^2))
/// weighted sort, so this also pins the builder's one-pass build to the
/// faithful semantics end to end.
inline MulticastSchedule ref_wsort(const MulticastRequest& req) {
  req.validate();
  auto chain =
      hcube::make_relative_chain(req.topo, req.source, req.destinations);
  core::weighted_sort_faithful(req.topo, chain);
  return ref_build_chain_schedule(req.topo, chain, core::NextRule::HighDim);
}

/// Same source and, at every node, the same sends in issue order with
/// the same payloads. Unlike operator==, blind to the order in which a
/// builder appended different senders' sends.
inline ::testing::AssertionResult same_sends(const MulticastSchedule& a,
                                             const MulticastSchedule& b) {
  if (a.source() != b.source() || a.num_unicasts() != b.num_unicasts()) {
    return ::testing::AssertionFailure() << "source or unicast count differs";
  }
  for (NodeId u = 0; u < a.topo().num_nodes(); ++u) {
    const auto x = a.sends_from(u);
    const auto y = b.sends_from(u);
    if (x.size() != y.size()) {
      return ::testing::AssertionFailure() << "node " << u << " send count";
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].to != y[i].to || to_vec(x[i].payload) != to_vec(y[i].payload)) {
        return ::testing::AssertionFailure() << "node " << u << " send " << i;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// A paper algorithm with its reference: the chain rule (HighDim for
/// W-sort, over the weighted chain) and the library's id.
struct PaperAlgo {
  const char* name;
  core::NextRule rule;
  core::CacheAlgoId id;
};
inline constexpr PaperAlgo kPaperAlgos[] = {
    {"ucube", core::NextRule::Center, core::kAlgoUcube},
    {"maxport", core::NextRule::HighDim, core::kAlgoMaxport},
    {"combine", core::NextRule::MaxOfBoth, core::kAlgoCombine},
    {"wsort", core::NextRule::HighDim, core::kAlgoWsort}};

/// The reference tree of a paper algorithm.
inline MulticastSchedule ref_paper_tree(const PaperAlgo& algo,
                                        const MulticastRequest& req) {
  return algo.id == core::kAlgoWsort ? ref_wsort(req)
                                     : ref_chain_algorithm(req, algo.rule);
}

/// The library's build of a paper algorithm: the request's sorted
/// relative keys, built at its source through `builder`.
inline MulticastSchedule keyed_build(core::TreeBuilder& builder,
                                     const MulticastRequest& req,
                                     core::CacheAlgoId algo) {
  std::vector<std::uint32_t> keys;
  core::sorted_relative_keys(req.topo, req.source, req.destinations, keys);
  MulticastSchedule out(req.topo, req.source);
  builder.build_into(req.topo, req.source, keys, algo, out);
  return out;
}

/// Run body(t) for every t < threads, each on its own thread, all
/// released at once: the server's model, one event loop per thread
/// serving through one shared pipeline and cache.
template <typename Body>
void on_threads(int threads, Body&& body) {
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      try {
        body(t);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "thread " << t << " threw: " << e.what();
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

}  // namespace hypercast::testutil

#endif  // HYPERCAST_TESTS_TEST_UTIL_HPP
