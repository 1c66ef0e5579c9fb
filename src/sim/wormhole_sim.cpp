#include "sim/wormhole_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/worm_engine.hpp"

namespace hypercast::sim {

namespace {

/// Registry handles resolved once; the simulator publishes aggregate
/// run/message/event counts plus a per-delivery latency histogram.
struct SimMetrics {
  obs::Counter* runs;
  obs::Counter* jobs;
  obs::Counter* messages;
  obs::Counter* events;
  obs::Counter* blocked_acquisitions;
  obs::Histogram* delay_ns;
};

const SimMetrics& sim_metrics() {
  static const SimMetrics m = [] {
    obs::Registry& r = obs::default_registry();
    return SimMetrics{&r.counter("sim.runs"),
                      &r.counter("sim.jobs"),
                      &r.counter("sim.messages"),
                      &r.counter("sim.events"),
                      &r.counter("sim.blocked_acquisitions"),
                      &r.histogram("sim.delay_ns")};
  }();
  return m;
}

/// Replays multicast schedules over a shared WormEngine, adding the
/// processor model: send startups and receive overheads serialize on
/// each node's CPU across every job it participates in.
///
/// Every continuation is an event-queue handler: worm deliveries arrive
/// via the engine-wide delivery handler, a node's post-receive
/// forwarding is a ticket whose arg is the MessageId (job and node
/// recovered from job_of_/destination, the time from now()), and each
/// job's kick-off is a ticket whose arg is the job index.
class Engine {
 public:
  Engine(std::span<const CollectiveJob> jobs, const SimConfig& config)
      : jobs_(jobs),
        config_(config),
        topo_(jobs.empty() ? Topology(0) : jobs.front().schedule->topo()),
        worms_(topo_, config.cost, config.port, queue_, config.faults,
               config.record_trace) {
    worms_.set_delivery_handler(&Engine::delivered_thunk, this);
    kind_forward_ = queue_.register_handler(&Engine::forward_thunk, this);
    kind_job_start_ = queue_.register_handler(&Engine::job_start_thunk, this);
    result_.per_job.resize(jobs.size());
    cpu_free_.assign(topo_.num_nodes(), 0);
    std::size_t total_unicasts = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      total_unicasts += jobs[j].schedule->num_unicasts();
      result_.per_job[j].delivery.reserve(jobs[j].schedule->num_unicasts());
    }
    worms_.reserve(total_unicasts, topo_.dim() / 2 + 2);
    // A worm has at most one pending ticket (header, tail, resume or
    // post-receive forward), and each job one start.
    queue_.reserve(total_unicasts + jobs.size());
    job_of_.reserve(total_unicasts);
    // MessageIds are assigned densely by injection order, so the flat
    // done-time table can be sized exactly once up front.
    done_.assign(total_unicasts, kUndelivered);
#ifndef NDEBUG
    for (const CollectiveJob& job : jobs_) {
      assert(job.schedule != nullptr);
      assert(job.schedule->topo() == topo_ &&
             "all jobs must share one topology");
      assert(job.start >= 0);
    }
#endif
  }

  MultiSimResult run() {
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      queue_.schedule(jobs_[j].start, kind_job_start_,
                      static_cast<std::uint32_t>(j));
    }
    queue_.run_to_completion();
    finish();
    return std::move(result_);
  }

 private:
  static void delivered_thunk(void* ctx, MessageId id, SimTime tail) {
    static_cast<Engine*>(ctx)->delivered(id, tail);
  }
  static void forward_thunk(void* ctx, std::uint32_t id) {
    Engine* e = static_cast<Engine*>(ctx);
    // Fires at the receive-done time: resume forwarding from there.
    e->start_node(e->job_of_[id], e->worms_.destination(id),
                  e->queue_.now());
  }
  static void job_start_thunk(void* ctx, std::uint32_t job) {
    Engine* e = static_cast<Engine*>(ctx);
    e->start_node(job, e->jobs_[job].schedule->source(), e->queue_.now());
  }

  /// The node's processor issues this job's sends, startup by startup,
  /// beginning no earlier than `ready` and no earlier than the CPU is
  /// free from other work.
  void start_node(std::size_t job, hcube::NodeId node, SimTime ready) {
    SimTime cpu = std::max(cpu_free_[node], ready);
    const std::size_t bytes = jobs_[job].message_bytes != 0
                                  ? jobs_[job].message_bytes
                                  : config_.message_bytes;
    for (const core::Send& send : jobs_[job].schedule->sends_from(node)) {
      const SimTime issue = cpu;
      cpu += config_.cost.send_startup;
      const MessageId id = worms_.inject(node, send.to, bytes, cpu);
      if (worms_.recording_traces()) worms_.trace(id).issue = issue;
      job_of_.push_back(static_cast<std::uint32_t>(job));
      ++result_.stats.messages;
      ++result_.per_job[job].stats.messages;
    }
    cpu_free_[node] = cpu;
  }

  void delivered(MessageId id, SimTime tail) {
    // The receiving processor copies the message out of the network
    // (serialized with whatever else that CPU is doing), then continues
    // this job's forwarding. The delivery-map entry is deferred to
    // finish(): hashing into per-job maps is batch work, not per-event
    // work.
    const hcube::NodeId node = worms_.destination(id);
    const SimTime done =
        std::max(cpu_free_[node], tail) + config_.cost.recv_overhead;
    cpu_free_[node] = done;
    if (worms_.recording_traces()) worms_.trace(id).done = done;
    done_[id] = done;
    queue_.schedule(done, kind_forward_, id);
  }

  void finish() {
    result_.stats.events = queue_.events_processed();
    result_.stats.blocked_acquisitions = worms_.blocked_acquisitions();
    result_.stats.total_blocked_ns = worms_.total_blocked_ns();
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      result_.per_job[j].stats.events = result_.stats.events;
    }
    // Materialize the per-job delivery maps from the flat done_ array.
    std::size_t delivered_total = 0;
    for (MessageId id = 0; id < done_.size(); ++id) {
      if (done_[id] == kUndelivered) continue;
      ++delivered_total;
      const auto [it, inserted] = result_.per_job[job_of_[id]].delivery.emplace(
          worms_.destination(id), done_[id]);
      (void)it;
      assert(inserted && "schedule delivers to a node twice");
    }
    if (delivered_total != result_.stats.messages || !worms_.quiescent()) {
      throw std::logic_error(
          "simulation drained with undelivered messages (deadlock?)");
    }
    // Per-job blocking stats (and traces when recorded) come from the
    // engine's per-worm accounting.
    for (MessageId id = 0; id < worms_.num_messages(); ++id) {
      const std::size_t job = job_of_[id];
      result_.per_job[job].stats.blocked_acquisitions +=
          static_cast<std::uint64_t>(worms_.blocked_times(id));
      result_.per_job[job].stats.total_blocked_ns += worms_.blocked_ns(id);
      if (config_.record_trace) {
        const MessageTrace& t = worms_.trace(id);
        result_.trace.messages.push_back(t);
        result_.per_job[job].trace.messages.push_back(t);
      }
    }
    if (obs::stats_enabled()) {
      const SimMetrics& m = sim_metrics();
      m.runs->inc();
      m.jobs->add(jobs_.size());
      m.messages->add(result_.stats.messages);
      m.events->add(result_.stats.events);
      m.blocked_acquisitions->add(result_.stats.blocked_acquisitions);
      for (const SimResult& r : result_.per_job) {
        for (const auto& [node, done] : r.delivery) {
          (void)node;
          m.delay_ns->record(static_cast<std::uint64_t>(done));
        }
      }
    }
    return;
  }

  std::span<const CollectiveJob> jobs_;
  SimConfig config_;
  Topology topo_;
  EventQueue queue_;
  WormEngine worms_;
  std::uint16_t kind_forward_ = 0;
  std::uint16_t kind_job_start_ = 0;
  std::vector<std::uint32_t> job_of_;  ///< indexed by MessageId
  static constexpr SimTime kUndelivered = -1;
  std::vector<SimTime> done_;  ///< indexed by MessageId; scattered into
                               ///< per-job delivery maps in finish()
  std::vector<SimTime> cpu_free_;
  MultiSimResult result_;
};

}  // namespace

SimTime MultiSimResult::makespan() const {
  SimTime worst = 0;
  for (const SimResult& r : per_job) {
    worst = std::max(worst, r.max_delay());
  }
  return worst;
}

MultiSimResult simulate_collectives(std::span<const CollectiveJob> jobs,
                                    const SimConfig& config) {
  HYPERCAST_OBS_SPAN("sim.run");
  return Engine(jobs, config).run();
}

SimResult simulate_multicast(const core::MulticastSchedule& schedule,
                             const SimConfig& config) {
  const CollectiveJob job{&schedule, 0};
  auto multi = simulate_collectives(std::span<const CollectiveJob>(&job, 1),
                                    config);
  SimResult out = std::move(multi.per_job.front());
  out.stats.events = multi.stats.events;
  return out;
}

SimTime simulate_unicast(const hcube::Topology& topo, const SimConfig& config,
                         hcube::NodeId from, hcube::NodeId to) {
  core::MulticastSchedule schedule(topo, from);
  schedule.add_send(from, to);
  return simulate_multicast(schedule, config).delay(to);
}

}  // namespace hypercast::sim
