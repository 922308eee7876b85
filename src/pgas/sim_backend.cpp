#include "pgas/sim_backend.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "fault/fault.hpp"
#include "trace/trace.hpp"

namespace scioto::pgas {

SimBackend::SimBackend(int nranks, sim::MachineModel machine,
                       std::size_t stack_bytes)
    : nranks_(nranks), machine_(std::move(machine)),
      stack_bytes_(stack_bytes) {}

void SimBackend::run(const std::function<void(Rank)>& body) {
  sim::Engine::Config cfg;
  cfg.nranks = nranks_;
  cfg.machine = machine_;
  cfg.stack_bytes = stack_bytes_;
  engine_ = std::make_unique<sim::Engine>(cfg, body);
  engine_->run();
}

Rank SimBackend::me() const { return engine_->current_rank(); }

TimeNs SimBackend::now() { return engine_->now(); }

void SimBackend::charge(TimeNs dt) { engine_->charge(dt); }

void SimBackend::sync() { engine_->sync(); }

void SimBackend::relax() {
  engine_->charge(machine_.poll);
  engine_->sync();
}

Backend::Slept SimBackend::relax_sleep(TimeNs loop_charge,
                                       std::int64_t max_polls, TimeNs due) {
  engine_->charge(machine_.poll);
  const TimeNs delta =
      engine_->scaled(loop_charge) + engine_->scaled(machine_.poll);
  if (due != kTimeNever) {
    // Polls run at c0 + k * delta; the first at or past `due` must run.
    const TimeNs c0 = engine_->now();
    max_polls = due <= c0 || delta < 1
                    ? 0
                    : std::min(max_polls, (due - c0 - 1) / delta + 1);
  }
  sim::Engine::Slept s = engine_->sleep(delta, max_polls);
  return {s.polls, s.deadline};
}

// Per-op constants depend on whether initiator and target share a node:
// intra-node "one-sided" access is a cache-coherent shared-memory
// operation, not a NIC traversal (MachineModel::cores_per_node).
SimBackend::OpCosts SimBackend::costs_for(Rank target) const {
  Rank me = engine_->current_rank();
  if (machine_.cores_per_node > 1 && machine_.same_node(me, target)) {
    return {machine_.intra_rma_latency, machine_.intra_rma_service,
            machine_.intra_rmw_service, machine_.intra_bytes_per_ns};
  }
  return {machine_.rma_latency, machine_.rma_service, machine_.rmw_service,
          machine_.bytes_per_ns};
}

void SimBackend::rma_charge(Rank target, std::size_t bytes) {
  engine_->wake(target);
  engine_->sync();
  engine_->wake(target);
  // Initiation latency, then occupancy (base service + wire time) on the
  // target's RMA queue, then completion notification back to us.
  OpCosts k = costs_for(target);
  TimeNs service = k.service + static_cast<TimeNs>(
                                   static_cast<double>(bytes) / k.bytes_per_ns);
  TimeNs done = engine_->rma_occupy(target, k.latency, service);
  engine_->advance_to(done + k.latency);
}

void SimBackend::rma_charge_oneway(Rank target, std::size_t bytes) {
  engine_->wake(target);
  engine_->sync();
  engine_->wake(target);
  OpCosts k = costs_for(target);
  TimeNs service = k.service + static_cast<TimeNs>(
                                   static_cast<double>(bytes) / k.bytes_per_ns);
  TimeNs done = engine_->rma_occupy(target, k.latency, service);
  // Fire-and-forget: the initiator only pays local injection overhead and
  // may proceed before the op lands at `done`.
  engine_->advance_unsynced(k.service);
  (void)done;
}

void SimBackend::rmw_charge(Rank target) {
  engine_->wake(target);
  engine_->sync();
  engine_->wake(target);
  OpCosts k = costs_for(target);
  TimeNs done = engine_->rma_occupy(target, k.latency, k.rmw_service);
  engine_->advance_to(done + k.latency);
}

int SimBackend::lockset_create(int n) {
  int base = -1;
  for (int i = 0; i < n; ++i) {
    int id = engine_->lock_create();
    if (i == 0) base = id;
  }
  return base;
}

void SimBackend::lock(int base, int idx, Rank home) {
  // A lock acquisition is an RMA round trip that may additionally queue
  // behind the current holder (Engine::lock_acquire hands the clock off).
  engine_->wake(home);
  OpCosts k = costs_for(home);
  TimeNs done = engine_->rma_occupy(home, k.latency, k.service);
  engine_->advance_to(done);
  engine_->lock_acquire(base + idx);
  engine_->wake(home);
  engine_->advance_unsynced(k.latency);
  // Injected lock-holder stall: the new holder hangs inside the critical
  // section, and everyone queued behind it inherits the delay through the
  // lock's clock handoff.
  if (fault::active()) {
    TimeNs stall = fault::stall_time(engine_->current_rank());
    if (stall > 0) {
      engine_->advance_unsynced(stall);
    }
  }
}

void SimBackend::unlock(int base, int idx, Rank home) {
  // Unlock is a one-way notification: pay injection + delivery, release at
  // the delivery time so a queued competitor cannot acquire "too early".
  engine_->wake(home);  // no sync: one wake covers the segment
  OpCosts k = costs_for(home);
  TimeNs done = engine_->rma_occupy(home, k.latency, k.service);
  engine_->advance_to(done);
  engine_->lock_release(base + idx);
}

void SimBackend::critical(const std::function<void()>& fn) { fn(); }

void SimBackend::idle_wait() { engine_->idle_wait(); }

void SimBackend::notify(Rank r) {
  engine_->notify(r, engine_->now() + machine_.msg_latency);
}

TimeNs SimBackend::msg_send_time(Rank to, std::size_t bytes) {
  engine_->charge(machine_.msg_overhead);
  (void)to;
  return engine_->now() + machine_.msg_latency + machine_.transfer_time(bytes);
}

void SimBackend::msg_recv_charge(std::size_t bytes) {
  engine_->charge(machine_.msg_overhead);
  (void)bytes;
}

int SimBackend::barrier_stages() const {
  int stages = 0;
  int n = 1;
  while (n < nranks_) {
    n *= 2;
    ++stages;
  }
  return std::max(stages, 1);
}

void SimBackend::barrier() {
  SCIOTO_TRACE_EVENT(engine_->current_rank(), trace::Ev::Barrier, 0, 0, 0);
  engine_->barrier(barrier_stages() * machine_.barrier_stage_armci);
}

void SimBackend::barrier_mpi() {
  engine_->barrier(barrier_stages() * machine_.barrier_stage_mpi);
}

}  // namespace scioto::pgas
