#include "core/wsort.hpp"

#include "core/tree_builder.hpp"

namespace hypercast::core {

namespace {

TreeBuilder& local_builder() {
  thread_local TreeBuilder builder;
  return builder;
}

}  // namespace

std::vector<NodeId> wsort_chain(const MulticastRequest& req) {
  TreeBuilder& builder = local_builder();
  MulticastSchedule tree(req.topo, req.source);
  builder.build_wsort_into(req, tree);
  return {builder.chain().begin(), builder.chain().end()};
}

MulticastSchedule wsort(const MulticastRequest& req) {
  return local_builder().build_wsort(req);
}

}  // namespace hypercast::core
