#ifndef HYPERCAST_SIM_FLIT_SIM_HPP
#define HYPERCAST_SIM_FLIT_SIM_HPP

#include "core/multicast.hpp"
#include "sim/wormhole_sim.hpp"

namespace hypercast::sim {

/// Flit-level wormhole simulation — the fine-grained counterpart of the
/// message-level engine in wormhole_sim.hpp, used to validate it (the
/// same methodological move the paper makes by validating MultiSim
/// against the nCUBE-2).
///
/// Model: a message is one header flit plus ceil(bytes / flit_bytes)
/// body flits, the last body flit being the tail. Each directed channel
/// transfers one flit at a time (flit_bytes * ns_per_byte each; the
/// header additionally pays the per_hop routing decision); each router
/// buffers at most `buffer_flits` flits per in-transit worm, so a
/// blocked header backpressures its body flits hop by hop. A channel is
/// owned by one worm from the moment its header starts crossing until
/// its TAIL has crossed — i.e. channels release *early*, as real
/// wormhole hardware does, unlike the message-level engine's
/// hold-until-delivery approximation. Injection slots release when the
/// tail leaves the source; consumption slots when the tail arrives.
///
/// For contention-free schedules the two engines agree exactly up to
/// the header pipelining term (the flit header pays t_flit per hop that
/// the message-level header does not); under contention the flit engine
/// is never slower — both properties are asserted in tests.
struct FlitConfig {
  CostModel cost = CostModel::ncube2();
  PortModel port = core::PortModel::all_port();
  std::size_t message_bytes = 4096;
  std::size_t flit_bytes = 64;  ///< physical flit payload
  int buffer_flits = 2;         ///< per-router FIFO depth per worm
  bool record_trace = false;
};

struct FlitStats {
  std::uint64_t messages = 0;
  std::uint64_t flit_transfers = 0;      ///< link crossings simulated
  std::uint64_t blocked_acquisitions = 0; ///< header waits on owned channels
  SimTime total_blocked_ns = 0;
  std::uint64_t events = 0;
};

struct FlitResult {
  DeliveryMap delivery;
  FlitStats stats;
  Trace trace;

  SimTime delay(hcube::NodeId node) const { return delivery.at(node); }
  SimTime max_delay(std::span<const hcube::NodeId> targets = {}) const {
    return delivery.max_time(targets);
  }
};

/// Replay a multicast schedule at flit granularity. CPU modelling
/// (send startups, receive overheads) matches the message-level engine.
FlitResult simulate_multicast_flit(const core::MulticastSchedule& schedule,
                                   const FlitConfig& config);

/// Closed-form contention-free unicast latency under the flit model:
/// startup + h * (per_hop + header t_flit) + body streaming + receive.
SimTime flit_unicast_latency(const FlitConfig& config, int hops,
                             std::size_t bytes);

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_FLIT_SIM_HPP
