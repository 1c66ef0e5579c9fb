#ifndef HYPERCAST_CORE_REGISTRY_HPP
#define HYPERCAST_CORE_REGISTRY_HPP

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache_key.hpp"

namespace hypercast::core {

/// A named multicast algorithm, as the harness and benches drive them.
struct AlgorithmEntry {
  std::string name;         ///< e.g. "wsort"
  std::string display;      ///< e.g. "W-sort"
  std::function<MulticastSchedule(const MulticastRequest&)> build;
  /// The paper algorithms' id for TreeBuilder::build_into; none for the
  /// baselines, whose trees may depend on the destinations' order.
  std::optional<CacheAlgoId> paper_id;
};

/// The four algorithms the paper evaluates (Figures 9-14), in the
/// paper's curve order: U-cube, Maxport, Combine, W-sort.
std::span<const AlgorithmEntry> paper_algorithms();

/// Paper algorithms plus the baselines (separate addressing and the
/// store-and-forward tree).
std::span<const AlgorithmEntry> all_algorithms();

/// Lookup by name; throws std::invalid_argument listing every known
/// name for unknown ones, so CLI typos are self-diagnosing. The table is
/// fixed at compile time: fault tolerance is a value handed to the
/// consumer (fault::fault_aware_multicast, coll::ServePipeline), not a
/// separately named algorithm.
const AlgorithmEntry& find_algorithm(std::string_view name);

/// Every known algorithm name, in all_algorithms() order.
std::vector<std::string> algorithm_names();

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_REGISTRY_HPP
