// Virtual-time backend: ranks are fibers under sim::Engine and every
// operation charges MachineModel costs. See backend.hpp for semantics.
#pragma once

#include <cmath>
#include <memory>

#include "pgas/backend.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace scioto::pgas {

class SimBackend : public Backend {
 public:
  SimBackend(int nranks, sim::MachineModel machine,
             std::size_t stack_bytes = 256 * 1024);

  /// Runs `body(rank)` SPMD across all ranks to completion.
  void run(const std::function<void(Rank)>& body);

  /// The engine is valid only during run(); exposed for benches that want
  /// the final virtual makespan.
  sim::Engine* engine() { return engine_.get(); }
  const sim::MachineModel& machine() const { return machine_; }

  // Backend interface.
  int nranks() const override { return nranks_; }
  Rank me() const override;
  bool concurrent() const override { return false; }
  bool simulated() const override { return true; }
  TimeNs now() override;
  void charge(TimeNs dt) override;
  void sync() override;
  void relax() override;
  Slept relax_sleep(TimeNs loop_charge, std::int64_t max_polls,
                    TimeNs due) override;
  void rma_charge(Rank target, std::size_t bytes) override;
  void rma_charge_oneway(Rank target, std::size_t bytes) override;
  void rmw_charge(Rank target) override;
  int lockset_create(int n) override;
  void lock(int base, int idx, Rank home) override;
  void unlock(int base, int idx, Rank home) override;
  void critical(const std::function<void()>& fn) override;
  void idle_wait() override;
  void notify(Rank r) override;
  TimeNs msg_send_time(Rank to, std::size_t bytes) override;
  void msg_recv_charge(std::size_t bytes) override;
  void barrier() override;
  void barrier_mpi() override;

 private:
  struct OpCosts {
    TimeNs latency;
    TimeNs service;
    TimeNs rmw_service;
    double bytes_per_ns;
  };
  OpCosts costs_for(Rank target) const;
  int barrier_stages() const;

  int nranks_;
  sim::MachineModel machine_;
  std::size_t stack_bytes_;
  std::unique_ptr<sim::Engine> engine_;
};

}  // namespace scioto::pgas
