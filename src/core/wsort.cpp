#include "core/wsort.hpp"

#include "core/tree_builder.hpp"

namespace hypercast::core {

std::vector<NodeId> wsort_chain(const MulticastRequest& req) {
  req.validate();
  auto chain = hcube::make_relative_chain(req.topo, req.source, req.destinations);
  weighted_sort_fast(req.topo, chain);
  return chain;
}

MulticastSchedule wsort(const MulticastRequest& req) {
  thread_local TreeBuilder builder;
  return builder.build_wsort(req);
}

}  // namespace hypercast::core
