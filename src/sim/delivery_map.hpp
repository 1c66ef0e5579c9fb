#ifndef HYPERCAST_SIM_DELIVERY_MAP_HPP
#define HYPERCAST_SIM_DELIVERY_MAP_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hcube/types.hpp"
#include "sim/cost_model.hpp"

namespace hypercast::sim {

/// Map from destination node to delivery time, built once per simulated
/// job and then read.
///
/// A drop-in subset of the std::unordered_map interface the simulators
/// used to fill, but flat: entries live densely in one vector (insertion
/// order — deterministic for a deterministic simulation) and lookups go
/// through an open-addressed index of entry positions. Filling a
/// 1K-destination result costs two allocations total instead of one
/// heap node per recipient — the node churn was ~15% of a whole 10-cube
/// broadcast replay — and iteration is a linear walk over packed pairs.
///
/// Equality is order-independent (set semantics, like unordered_map),
/// so results assembled in different insertion orders still compare
/// equal when the times agree.
class DeliveryMap {
 public:
  using value_type = std::pair<hcube::NodeId, SimTime>;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// Pre-size for `n` recipients: one entry-array and one index
  /// allocation up front, no rehash during the fill.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    rehash(slot_count_for(n));
  }

  /// Insert node -> t unless the node is already present. Returns the
  /// address of the (existing or new) time and whether it was inserted —
  /// the shape of unordered_map::emplace the simulators' duplicate
  /// checks rely on.
  std::pair<SimTime*, bool> emplace(hcube::NodeId node, SimTime t) {
    if (2 * (entries_.size() + 1) > slots_.size()) {
      rehash(slot_count_for(entries_.size() + 1));
    }
    const std::size_t s = find_slot(node);
    if (slots_[s] != kEmpty) {
      return {&entries_[slots_[s]].second, false};
    }
    slots_[s] = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back(node, t);
    return {&entries_.back().second, true};
  }

  const SimTime* find(hcube::NodeId node) const {
    if (entries_.empty()) return nullptr;
    const std::size_t s = find_slot(node);
    return slots_[s] == kEmpty ? nullptr : &entries_[slots_[s]].second;
  }

  bool contains(hcube::NodeId node) const { return find(node) != nullptr; }

  SimTime at(hcube::NodeId node) const {
    const SimTime* p = find(node);
    if (p == nullptr) {
      throw std::out_of_range("DeliveryMap::at: node was not delivered to");
    }
    return *p;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Drop every entry but keep both allocations — a job loop replaying
  /// many collectives (e.g. the n jobs of a striped launch) refills the
  /// same map with zero further heap traffic.
  void clear() {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmpty);
  }

  /// Latest time over `targets`, or over every entry when `targets` is
  /// empty (0 for an empty map). Throws like at() for a missing target.
  SimTime max_time(std::span<const hcube::NodeId> targets = {}) const {
    SimTime worst = 0;
    if (targets.empty()) {
      for (const auto& [node, t] : entries_) worst = std::max(worst, t);
    } else {
      for (const hcube::NodeId n : targets) worst = std::max(worst, at(n));
    }
    return worst;
  }

  /// Mean time over `targets`, or over every entry when `targets` is
  /// empty (0 for an empty map).
  double mean_time(std::span<const hcube::NodeId> targets = {}) const {
    double sum = 0;
    if (targets.empty()) {
      if (entries_.empty()) return 0.0;
      for (const auto& [node, t] : entries_) sum += static_cast<double>(t);
      return sum / static_cast<double>(entries_.size());
    }
    for (const hcube::NodeId n : targets) sum += static_cast<double>(at(n));
    return sum / static_cast<double>(targets.size());
  }

  /// Iteration in insertion order over packed (node, time) pairs.
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  friend bool operator==(const DeliveryMap& a, const DeliveryMap& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [node, t] : a.entries_) {
      const SimTime* p = b.find(node);
      if (p == nullptr || *p != t) return false;
    }
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  static std::size_t slot_count_for(std::size_t n) {
    // Power-of-two table at most half full: probes stay short and the
    // hash folds to a mask.
    return std::bit_ceil(std::max<std::size_t>(8, 2 * n));
  }

  /// Slot holding `node`, or the empty slot where it would go.
  /// Precondition: slots_ is non-empty and not full.
  std::size_t find_slot(hcube::NodeId node) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = (node * 2654435761u) & mask;  // Fibonacci hashing
    while (true) {
      const std::uint32_t e = slots_[s];
      if (e == kEmpty || entries_[e].first == node) return s;
      s = (s + 1) & mask;
    }
  }

  void rehash(std::size_t nslots) {
    if (nslots <= slots_.size()) return;
    slots_.assign(nslots, kEmpty);
    const std::size_t mask = nslots - 1;
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      std::size_t s = (entries_[i].first * 2654435761u) & mask;
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = i;
    }
  }

  std::vector<value_type> entries_;    ///< packed, insertion order
  std::vector<std::uint32_t> slots_;   ///< open-addressed index into
                                       ///< entries_ (kEmpty = free)
};

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_DELIVERY_MAP_HPP
