#include "core/channel_load.hpp"

#include <algorithm>
#include <bit>

#include "hcube/bits.hpp"
#include "hcube/ecube.hpp"

namespace hypercast::core {

ChannelLoadReport analyze_channel_load(const MulticastSchedule& schedule,
                                       const StepResult& steps) {
  const Topology& topo = schedule.topo();
  ChannelLoadReport report;

  // Flat per-arc counters indexed by the dense arc index — the maps this
  // replaces dominated the analyser's profile on 10-cube sweeps.
  const std::size_t num_arcs = topo.num_arcs();
  std::vector<std::size_t> load(num_arcs, 0);

  int max_step = 0;
  for (const TimedUnicast& u : steps.unicasts) {
    max_step = std::max(max_step, u.step);
  }
  // slot[arc * (max_step + 1) + step] = crossings of `arc` during `step`
  // (steps are 1-based; row 0 stays unused).
  const std::size_t stride = static_cast<std::size_t>(max_step) + 1;
  std::vector<std::size_t> slot(num_arcs * stride, 0);

  for (const TimedUnicast& u : steps.unicasts) {
    hcube::for_each_ecube_arc(topo, u.from, u.to, [&](hcube::Arc a) {
      const std::size_t arc = topo.arc_index(a);
      ++load[arc];
      ++slot[arc * stride + static_cast<std::size_t>(u.step)];
    });
  }

  for (const std::size_t count : load) {
    if (count == 0) continue;
    ++report.channels_used;
    report.total_crossings += count;
    report.max_load = std::max(report.max_load, count);
  }
  report.avg_load =
      report.channels_used == 0
          ? 0.0
          : static_cast<double>(report.total_crossings) /
                static_cast<double>(report.channels_used);
  report.load_histogram.assign(report.max_load + 1, 0);
  for (const std::size_t count : load) {
    if (count != 0) ++report.load_histogram[count];
  }
  for (const std::size_t count : slot) {
    report.max_step_channel_reuse =
        std::max(report.max_step_channel_reuse, count);
  }
  return report;
}

namespace {

/// Multiplicity of the most repeated entry, counted in an open-addressing
/// table sized to the list (not to the cube's arcs, which would pin
/// O(num_arcs) scratch on a million-node run). Slots hold
/// (arc + 1) << 32 | count; 0 marks an empty slot.
std::uint32_t max_multiplicity(const std::vector<std::uint32_t>& arcs) {
  if (arcs.empty()) return 0;
  const std::size_t slots = std::bit_ceil(arcs.size() * 2);
  const int shift = 64 - std::countr_zero(slots);
  std::vector<std::uint64_t> table(slots, 0);
  std::uint32_t best = 0;
  for (const std::uint32_t arc : arcs) {
    const std::uint64_t tag = (std::uint64_t{arc} + 1) << 32;
    // Fibonacci hashing: the product's top bits pick the slot.
    std::size_t i = (arc * 0x9E3779B97F4A7C15ull) >> shift;
    while (table[i] != 0 && (table[i] & ~0xFFFFFFFFull) != tag) {
      i = (i + 1) & (slots - 1);
    }
    table[i] = tag | ((table[i] & 0xFFFFFFFFull) + 1);
    best = std::max(best, static_cast<std::uint32_t>(table[i]));
  }
  return best;
}

}  // namespace

ArcFootprint arc_footprint(const Topology& topo,
                           const MulticastSchedule& schedule) {
  // An E-cube route crosses one arc per differing address bit, so the
  // list's exact size is known before the walk.
  std::size_t crossings = 0;
  schedule.for_each_sender([&](NodeId from, SendList sends) {
    for (const Send& s : sends) crossings += hcube::popcount64(from ^ s.to);
  });
  ArcFootprint fp;
  fp.arcs.reserve(crossings);
  const hcube::Dim n = topo.dim();
  schedule.for_each_sender([&](NodeId from, SendList sends) {
    for (const Send& s : sends) {
      hcube::for_each_ecube_arc(topo, from, s.to, [&](hcube::Arc a) {
        fp.arcs.push_back(static_cast<NodeId>(a.dim) << n | a.from);
      });
    }
  });
  fp.self_max = max_multiplicity(fp.arcs);
  return fp;
}

}  // namespace hypercast::core
