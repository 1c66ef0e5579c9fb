#include "core/channel_load.hpp"

#include <algorithm>

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

ArcFootprint arc_footprint(const Topology& topo,
                           const MulticastSchedule& schedule) {
  ArcFootprint fp;
  // Collect raw arc indices, then sort + run-length encode: a tree
  // touches O(m log N) arcs, so the sort beats a num_arcs-sized scratch
  // for the small batches the co-scheduler scores.
  std::vector<std::uint32_t> touched;
  schedule.for_each_sender([&](NodeId from, std::span<const Send> sends) {
    for (const Send& s : sends) {
      hcube::for_each_ecube_arc(topo, from, s.to, [&](hcube::Arc a) {
        touched.push_back(static_cast<std::uint32_t>(topo.arc_index(a)));
      });
    }
  });
  std::sort(touched.begin(), touched.end());
  for (std::size_t i = 0; i < touched.size();) {
    std::size_t j = i;
    while (j < touched.size() && touched[j] == touched[i]) ++j;
    const auto count = static_cast<std::uint32_t>(j - i);
    fp.arcs.emplace_back(touched[i], count);
    fp.self_max = std::max(fp.self_max, count);
    i = j;
  }
  return fp;
}

ArcFootprint merge_footprints(std::span<const ArcFootprint> parts) {
  ArcFootprint out;
  if (parts.size() == 1) return parts.front();
  // Each part's arc list is already sorted; concatenate and re-encode
  // (k-way merging buys nothing at co-scheduler batch sizes).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> all;
  std::size_t total = 0;
  for (const ArcFootprint& p : parts) total += p.arcs.size();
  all.reserve(total);
  for (const ArcFootprint& p : parts) {
    all.insert(all.end(), p.arcs.begin(), p.arcs.end());
  }
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size();) {
    std::uint32_t count = 0;
    std::size_t j = i;
    while (j < all.size() && all[j].first == all[i].first) {
      count += all[j].second;
      ++j;
    }
    out.arcs.emplace_back(all[i].first, count);
    out.self_max = std::max(out.self_max, count);
    i = j;
  }
  return out;
}

}  // namespace hypercast::core
