#include "core/separate.hpp"

namespace hypercast::core {

MulticastSchedule separate_addressing(const MulticastRequest& req) {
  req.validate();
  ScheduleBuilder schedule(req.topo, req.source);
  const auto chain =
      hcube::make_relative_chain(req.topo, req.source, req.destinations);
  schedule.reserve(chain.size() - 1, 0);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    schedule.add_send(req.source, chain[i]);
  }
  return std::move(schedule).build();
}

}  // namespace hypercast::core
