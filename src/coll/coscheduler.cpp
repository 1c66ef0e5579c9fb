#include "coll/coscheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"

namespace hypercast::coll {

namespace {

/// Instrument handles resolved once against the default registry, same
/// pattern as serve_metrics / the net.* block: the planning path only
/// dereferences pointers.
struct CoschedMetrics {
  obs::Counter* plans;
  obs::Counter* waves;
  obs::Counter* deferred;
  obs::Counter* fallback;
  obs::Histogram* wave_size;
  obs::Histogram* peak_overlap;
  obs::Histogram* plan_ns;
};

const CoschedMetrics& cosched_metrics() {
  static const CoschedMetrics m = [] {
    obs::Registry& r = obs::default_registry();
    return CoschedMetrics{&r.counter("cosched.plans"),
                          &r.counter("cosched.waves"),
                          &r.counter("cosched.deferred"),
                          &r.counter("cosched.fallback"),
                          &r.histogram("cosched.wave_size"),
                          &r.histogram("cosched.peak_overlap"),
                          &r.histogram("cosched.plan_ns")};
  }();
  return m;
}

}  // namespace

std::size_t CoschedPlan::wave_of(std::size_t index) const {
  for (std::size_t w = 0; w < waves.size(); ++w) {
    const auto& members = waves[w].members;
    if (std::binary_search(members.begin(), members.end(), index)) return w;
  }
  return size();
}

CoschedPlan CoScheduler::plan(
    std::span<const std::shared_ptr<const core::MulticastSchedule>>
        schedules) {
  std::vector<const core::MulticastSchedule*> raw(schedules.size(), nullptr);
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    raw[i] = schedules[i].get();
  }
  return plan(std::span<const core::MulticastSchedule* const>(raw));
}

CoschedPlan CoScheduler::plan(
    std::span<const core::MulticastSchedule* const> schedules,
    std::span<const core::NodeId> masks) {
  if (!masks.empty() && masks.size() != schedules.size()) {
    throw std::invalid_argument("CoScheduler::plan: one mask per schedule");
  }
  const bool stats = obs::stats_enabled();
  const std::uint64_t t_start = stats ? obs::now_ns() : 0;
  const core::Topology* topo = nullptr;
  std::vector<std::size_t> remaining;  // batch indices still to place
  footprints_.assign(schedules.size(), nullptr);
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const core::MulticastSchedule* s = schedules[i];
    if (s == nullptr) continue;
    if (topo == nullptr) {
      topo = &s->topo();
    } else if (s->topo() != *topo) {
      throw std::invalid_argument(
          "CoScheduler::plan: schedules span different topologies");
    }
    if (!masks.empty() && !topo->contains(masks[i])) {
      throw std::invalid_argument("CoScheduler::plan: mask outside the cube");
    }
    footprints_[i] = &s->cached_arc_footprint();
    remaining.push_back(i);
  }
  if (topo == nullptr) return CoschedPlan{};  // nothing to plan
  CoschedPlan out;

  // Heaviest-footprint-first, original index breaking ties: packing the
  // widest trees before the narrow ones is the classic first-fit-
  // decreasing move, and the deterministic order is what keeps the plan
  // identical at any serving thread count.
  std::stable_sort(remaining.begin(), remaining.end(),
                   [&](std::size_t a, std::size_t b) {
                     const std::size_t ca = footprints_[a]->total_crossings();
                     const std::size_t cb = footprints_[b]->total_crossings();
                     if (ca != cb) return ca > cb;
                     return a < b;
                   });

  const std::uint32_t bound = std::max<std::uint32_t>(policy_.max_arc_overlap, 1);
  std::vector<std::size_t> next_round;
  while (!remaining.empty()) {
    const std::size_t wave_index = out.waves.size();
    const bool final_wave =
        policy_.max_waves != 0 && wave_index + 1 >= policy_.max_waves;
    CoschedPlan::Wave wave;
    wave.start_offset_ns = wave_index * policy_.stagger_offset_ns;
    wave_load_.reset(*topo);
    next_round.clear();

    for (std::size_t k = 0; k < remaining.size(); ++k) {
      const std::size_t idx = remaining[k];
      const core::ArcFootprint& fp = *footprints_[idx];
      const core::NodeId mask = masks.empty() ? 0 : masks[idx];
      // Add, then take back out if rejected: the peak over the arcs the
      // tree touched is its admission score. The peak is never below the
      // tree's own self_max, so fitting the bound implies self_max does.
      const std::uint32_t peak = wave_load_.add(fp, mask);
      const bool fits_bound = peak <= bound;
      // Three ways in: it fits under the bound; the wave cap forces the
      // remainder into this final wave obliviously; or the tree's own
      // footprint exceeds the bound (unachievable for any wave), in
      // which case it gets an otherwise-empty wave to itself.
      const bool self_unschedulable = fp.self_max > bound;
      const bool admit =
          fits_bound || final_wave ||
          (self_unschedulable && wave.members.empty());
      if (!admit) {
        wave_load_.remove(fp, mask);
        next_round.push_back(idx);
        ++out.deferred;
        continue;
      }
      if (!fits_bound) ++out.oblivious_fallback;
      wave.peak_overlap = std::max(wave.peak_overlap, peak);
      wave.members.push_back(idx);
      // A tree above the bound owns its wave: piling more on top only
      // deepens the hot arc it already saturates.
      if (self_unschedulable && !final_wave) {
        for (std::size_t j = k + 1; j < remaining.size(); ++j) {
          next_round.push_back(remaining[j]);
          ++out.deferred;
        }
        break;
      }
    }

    std::sort(wave.members.begin(), wave.members.end());
    out.peak_overlap = std::max(out.peak_overlap, wave.peak_overlap);
    out.waves.push_back(std::move(wave));
    std::swap(remaining, next_round);
  }

  if (stats) {
    const CoschedMetrics& m = cosched_metrics();
    m.plans->inc();
    m.waves->add(out.waves.size());
    m.deferred->add(out.deferred);
    m.fallback->add(out.oblivious_fallback);
    for (const CoschedPlan::Wave& w : out.waves) {
      m.wave_size->record(w.members.size());
    }
    m.peak_overlap->record(out.peak_overlap);
    m.plan_ns->record(obs::now_ns() - t_start);
  }
  return out;
}

std::vector<sim::CollectiveJob> CoScheduler::to_jobs(
    const CoschedPlan& plan,
    std::span<const core::MulticastSchedule* const> schedules,
    sim::SimTime base_start) {
  std::vector<sim::CollectiveJob> jobs;
  jobs.reserve(plan.size());
  for (const CoschedPlan::Wave& wave : plan.waves) {
    const auto start =
        base_start + static_cast<sim::SimTime>(wave.start_offset_ns);
    for (const std::size_t idx : wave.members) {
      jobs.push_back(sim::CollectiveJob{schedules[idx], start});
    }
  }
  return jobs;
}

}  // namespace hypercast::coll
