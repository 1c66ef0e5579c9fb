#include "coll/striped.hpp"

#include <algorithm>
#include <stdexcept>

#include "code/rs.hpp"
#include "coll/serve_pipeline.hpp"
#include "fault/fault_aware.hpp"
#include "obs/registry.hpp"

namespace hypercast::coll {

namespace {

void bump(const char* name, std::uint64_t by = 1) {
  if (by != 0 && obs::stats_enabled()) {
    obs::default_registry().counter(name).add(by);
  }
}

/// The canonical key of the plan this thread last made.
core::CacheKey& plan_key() {
  thread_local core::CacheKey key;
  return key;
}

}  // namespace

std::vector<sim::CollectiveJob> StripedPlan::jobs(sim::SimTime start) const {
  std::vector<sim::CollectiveJob> out;
  out.reserve(active_trees());
  for (std::size_t t = 0; t < trees.size(); ++t) {
    if (dropped(t)) continue;
    out.push_back(sim::CollectiveJob{trees[t].get(), start, stripe_bytes});
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> split_stripes(
    std::span<const std::uint8_t> payload, std::size_t data_stripes,
    std::size_t parity_stripes) {
  if (data_stripes == 0) {
    throw std::invalid_argument("split_stripes: zero data stripes");
  }
  const std::size_t width =
      (payload.size() + data_stripes - 1) / data_stripes;
  std::vector<std::vector<std::uint8_t>> stripes;
  stripes.reserve(data_stripes + parity_stripes);
  for (std::size_t i = 0; i < data_stripes; ++i) {
    const std::size_t begin = std::min(payload.size(), i * width);
    const std::size_t end = std::min(payload.size(), begin + width);
    stripes.emplace_back(payload.begin() + static_cast<std::ptrdiff_t>(begin),
                         payload.begin() + static_cast<std::ptrdiff_t>(end));
  }
  if (parity_stripes > 0) {
    // Reed-Solomon over the data stripes, each notionally zero-padded
    // to `width` (short tail bytes contribute nothing, so padding is
    // implicit). One parity stripe is the all-ones row — plain XOR.
    const code::RsCode rs(data_stripes, parity_stripes);
    std::vector<std::vector<std::uint8_t>> parity;
    rs.encode(std::span<const std::vector<std::uint8_t>>(stripes.data(),
                                                         data_stripes),
              parity, width);
    for (std::vector<std::uint8_t>& p : parity) {
      stripes.push_back(std::move(p));
    }
  }
  return stripes;
}

std::vector<std::uint8_t> reassemble_stripes(
    std::span<const std::vector<std::uint8_t>> stripes,
    std::size_t data_stripes, std::size_t payload_bytes,
    std::span<const std::size_t> missing) {
  if (data_stripes == 0 || stripes.size() < data_stripes) {
    throw std::invalid_argument("reassemble_stripes: too few stripes");
  }
  const std::size_t width =
      (payload_bytes + data_stripes - 1) / data_stripes;
  // The decoder for this erasure pattern (it also rejects repeated,
  // out-of-range or too many losses, whatever the stripe type).
  code::Recovery rec;
  if (!missing.empty()) {
    rec = code::RsCode(data_stripes, stripes.size() - data_stripes)
              .recovery(missing);
  }
  // Each data slice of the payload is written once: surviving stripes
  // are copied in, lost ones are rebuilt in place over the bytes the
  // payload keeps (the last stripe may be short).
  std::vector<std::uint8_t> out;
  out.reserve(payload_bytes);
  for (std::size_t i = 0; i < data_stripes && out.size() < payload_bytes;
       ++i) {
    const std::size_t keep = std::min(width, payload_bytes - out.size());
    const auto lost = std::find(rec.lost.begin(), rec.lost.end(), i);
    if (lost != rec.lost.end()) {
      out.resize(out.size() + keep);
      rec.rebuild(static_cast<std::size_t>(lost - rec.lost.begin()), stripes,
                  width, out.data() + out.size() - keep, keep);
      continue;
    }
    const std::vector<std::uint8_t>& s = stripes[i];
    const std::size_t take = std::min(keep, s.size());
    out.insert(out.end(), s.begin(),
               s.begin() + static_cast<std::ptrdiff_t>(take));
    if (take < keep) break;
  }
  if (out.size() != payload_bytes) {
    throw std::invalid_argument(
        "reassemble_stripes: stripes shorter than payload");
  }
  return out;
}

StripedPlanner::StripedPlanner(StripeOptions options,
                               std::shared_ptr<ScheduleCache> cache)
    : options_(options),
      cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<ScheduleCache>()) {}

std::size_t StripedPlanner::effective_parity(hcube::Dim dim) const {
  if (dim < 2) return 0;
  return std::min(options_.parity_stripes, static_cast<std::size_t>(dim) - 1);
}

bool StripedPlanner::should_verify(hcube::Dim dim) const {
  switch (options_.verify) {
    case StripeOptions::Verify::kOn:
      return true;
    case StripeOptions::Verify::kOff:
      return false;
    case StripeOptions::Verify::kAuto:
      break;
  }
#ifndef NDEBUG
  return true;  // debug builds always pay for the proof
#else
  return dim < 10;  // O(n * 2^n) — off on the large-cube hot path
#endif
}

StripedPlan StripedPlanner::plan(const core::MulticastRequest& request,
                                 std::size_t payload_bytes) const {
  HYPERCAST_OBS_SPAN("striped.plan");
  // The one canonicalization of the plan (it validates the request):
  // every tree below, and every repair of a degraded plan, names itself
  // by re-tagging this key.
  core::CacheKey& key = plan_key();
  core::canonical_key_into(request.topo, request.source, request.destinations,
                           core::kAlgoIst, /*absolute=*/false,
                           cache_->config().hash_seed, key);
  const hcube::Dim n = core::ist_tree_count(request.topo);
  const std::size_t k = effective_parity(n);
  StripedPlan plan;
  plan.striped = true;
  plan.payload_bytes = payload_bytes;
  plan.parity_stripes = k;
  plan.data_stripes = static_cast<std::size_t>(n) - k;
  plan.stripe_bytes = std::max<std::size_t>(
      1, (payload_bytes + plan.data_stripes - 1) / plan.data_stripes);
  plan.parity_tree = k > 0 ? static_cast<int>(n - k) : -1;
  plan.trees.reserve(n);
  for (hcube::Dim t = 0; t < n; ++t) {
    plan.trees.push_back(ServePipeline::materialize(
        ServePipeline::serve_ist(*cache_, request, key, t)));
  }
  bump("striped.plans");
  return plan;
}

StripedPlan StripedPlanner::plan(const core::MulticastRequest& request,
                                 std::size_t payload_bytes,
                                 const fault::FaultSet& faults) const {
  StripedPlan out = plan(request, payload_bytes);
  core::CacheKey& key = plan_key();  // the request's words, from plan()
  const std::size_t n = out.trees.size();
  // Which trees does the fault set actually touch? Every tree arc is a
  // single hop, so blocked_unicasts counts exactly the tree edges that
  // land on a failed resource. A single link fault has two directed
  // arcs and can therefore hit two different trees.
  std::vector<std::size_t> blocked(n, 0);
  std::vector<char> root_blocked(n, 0);
  std::vector<int> damaged;
  for (std::size_t t = 0; t < n; ++t) {
    blocked[t] = fault::blocked_unicasts(*out.trees[t], faults);
    if (blocked[t] == 0) continue;
    damaged.push_back(static_cast<int>(t));
    for (const core::Send& s : out.trees[t]->sends_from(request.source)) {
      if (faults.path_blocked(request.source, s.to)) root_blocked[t] = 1;
    }
  }
  if (damaged.empty()) return out;  // fault-free replay: nothing to do
  bump("striped.fault_plans");

  // Tier 1 — drop up to k damaged trees outright (their stripes are
  // RS-reconstructed at the receivers). Root-blocked trees first: an
  // IST root has exactly one child, so on a spanning request nothing
  // has delivered anywhere when a repair would run, and without freed
  // arcs such a tree has no repair of any kind. Then most-blocked
  // first — the trees whose detours would cost the most.
  std::vector<int> order = damaged;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (root_blocked[a] != root_blocked[b]) {
      return root_blocked[a] > root_blocked[b];
    }
    return blocked[a] > blocked[b];
  });
  for (const int t : order) {
    if (out.dropped_trees.size() >= out.parity_stripes) break;
    out.dropped_trees.push_back(t);
  }
  std::sort(out.dropped_trees.begin(), out.dropped_trees.end());
  bump("striped.dropped_trees", out.dropped_trees.size());
  bump("striped.repair_rs", out.dropped_trees.size());

  std::vector<int> to_repair;
  for (const int t : damaged) {
    if (!out.dropped(t)) to_repair.push_back(t);
  }
  if (!to_repair.empty()) {
    // Salt for the degraded-entry cache keys: the repaired tree is a
    // function of the fault set, the parity config and the drop
    // decisions, all of which are deterministic given the request — so
    // fold them all in.
    std::uint64_t drop_mask = 0;
    for (const int d : out.dropped_trees) drop_mask |= std::uint64_t{1} << d;
    std::uint64_t salt = faults.fingerprint(cache_->config().hash_seed);
    salt ^= ((std::uint64_t{out.parity_stripes} << 32) | drop_mask) *
            0x9e3779b97f4a7c15ull;

    // Tier 2 — certified disjoint repair: every surviving untouched
    // tree claims its footprint, and each damaged tree is patched
    // through the remaining free arcs (fault::repair_disjoint), so the
    // repaired family stays pairwise arc-disjoint by construction.
    core::ArcOwnerTable owners(request.topo);
    for (std::size_t t = 0; t < n; ++t) {
      if (!out.dropped(t) && blocked[t] == 0) {
        owners.claim_schedule(*out.trees[t], static_cast<int>(t));
      }
    }
    for (const int t : to_repair) {
      // The probe below and, on a disjoint repair, the offer share the
      // re-tagged key.
      core::set_header(key,
                       static_cast<std::uint8_t>(core::kAlgoIstRepaired + t),
                       /*absolute=*/true, request.source, salt);
      if (auto hit = cache_->get(key)) {
        // Only certified disjoint repairs are ever cached, so a hit
        // re-claims its footprint and keeps the certificate.
        out.trees[static_cast<std::size_t>(t)] = hit;
        owners.claim_schedule(*hit, t);
        ++out.repaired_disjoint;
        bump("striped.repair_cached");
        continue;
      }
      std::optional<fault::FaultAwareResult> res = fault::repair_disjoint(
          *out.trees[static_cast<std::size_t>(t)], request.destinations,
          faults, owners, t);
      if (res) {
        auto fixed = std::make_shared<const core::MulticastSchedule>(
            std::move(res->schedule));
        out.trees[static_cast<std::size_t>(t)] = fixed;
        ++out.repaired_disjoint;
        bump("striped.repair_disjoint");
        cache_->offer(key, fixed);
        continue;
      }
      // Tier 3 — greedy detours: delivery at the price of
      // arc-disjointness. The result still claims what it can so later
      // repairs in this plan avoid its arcs where possible. Throws
      // UnrepairableFault when even greedy routing cannot deliver
      // (e.g. a root-blocked tree with no drop budget and no freed
      // arcs).
      fault::FaultAwareResult greedy = fault::repair_schedule(
          *out.trees[static_cast<std::size_t>(t)], request.destinations,
          faults);
      auto fixed = std::make_shared<const core::MulticastSchedule>(
          std::move(greedy.schedule));
      out.trees[static_cast<std::size_t>(t)] = fixed;
      owners.claim_schedule(*fixed, t);
      ++out.repaired_greedy;
      out.certified_disjoint = false;
      bump("striped.repair_greedy");
    }
  }
  out.repaired_trees = out.repaired_disjoint + out.repaired_greedy;
  bump("striped.repaired_trees", out.repaired_trees);

  // Gated verification (StripeOptions::verify): re-prove the active
  // family's pairwise arc-disjointness with the owner table — the same
  // check tests/test_ist.cpp runs on the pristine trees, now applied to
  // the surgery's output. A certified plan failing it is a logic error,
  // not a degraded mode.
  if (should_verify(request.topo.dim())) {
    std::vector<const core::MulticastSchedule*> active;
    active.reserve(out.active_trees());
    for (std::size_t t = 0; t < n; ++t) {
      if (!out.dropped(t)) active.push_back(out.trees[t].get());
    }
    const core::IstDisjointReport report = core::verify_arc_disjoint(
        request.topo,
        std::span<const core::MulticastSchedule* const>(active));
    out.verified = true;
    if (out.certified_disjoint && !report.disjoint) {
      throw std::logic_error("striped degraded plan failed verification: " +
                             report.summary(request.topo));
    }
  }
  return out;
}

}  // namespace hypercast::coll
