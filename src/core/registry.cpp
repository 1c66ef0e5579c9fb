#include "core/registry.hpp"

#include <stdexcept>

#include "core/chain_algorithms.hpp"
#include "core/separate.hpp"
#include "core/sf_tree.hpp"
#include "core/wsort.hpp"

namespace hypercast::core {

namespace {

const std::vector<AlgorithmEntry>& table() {
  static const std::vector<AlgorithmEntry> entries = {
      {"ucube", "U-cube", [](const MulticastRequest& r) { return ucube(r); },
       kAlgoUcube},
      {"maxport", "Maxport",
       [](const MulticastRequest& r) { return maxport(r); }, kAlgoMaxport},
      {"combine", "Combine",
       [](const MulticastRequest& r) { return combine(r); }, kAlgoCombine},
      {"wsort", "W-sort", [](const MulticastRequest& r) { return wsort(r); },
       kAlgoWsort},
      {"separate", "Separate",
       [](const MulticastRequest& r) { return separate_addressing(r); },
       std::nullopt},
      {"sftree", "SF-tree",
       [](const MulticastRequest& r) { return sf_tree(r); }, std::nullopt},
  };
  return entries;
}

}  // namespace

std::span<const AlgorithmEntry> paper_algorithms() {
  return std::span<const AlgorithmEntry>(table()).subspan(0, 4);
}

std::span<const AlgorithmEntry> all_algorithms() { return table(); }

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  names.reserve(table().size());
  for (const AlgorithmEntry& e : table()) names.push_back(e.name);
  return names;
}

const AlgorithmEntry& find_algorithm(std::string_view name) {
  for (const AlgorithmEntry& e : table()) {
    if (e.name == name) return e;
  }
  std::string known;
  for (const std::string& n : algorithm_names()) {
    known += known.empty() ? n : ", " + n;
  }
  throw std::invalid_argument("unknown multicast algorithm: '" +
                              std::string(name) + "' (known: " + known + ")");
}

}  // namespace hypercast::core
