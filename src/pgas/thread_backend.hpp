// Real-concurrency backend: each rank is a std::thread, costs are no-ops,
// synchronization uses OS primitives. See backend.hpp for semantics.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "pgas/backend.hpp"

namespace scioto::pgas {

class ThreadBackend : public Backend {
 public:
  explicit ThreadBackend(int nranks);

  /// Spawns one thread per rank running `body(rank)` and joins them.
  /// Exceptions escaping any rank are rethrown (first one wins).
  void run(const std::function<void(Rank)>& body);

  // Backend interface.
  int nranks() const override { return nranks_; }
  Rank me() const override;
  bool concurrent() const override { return true; }
  bool simulated() const override { return false; }
  TimeNs now() override;
  void charge(TimeNs dt) override {(void)dt;}
  void sync() override {}
  void relax() override { std::this_thread::yield(); }
  Slept relax_sleep(TimeNs, std::int64_t, TimeNs) override {
    relax();
    return {};
  }
  void rma_charge(Rank, std::size_t) override {}
  void rma_charge_oneway(Rank, std::size_t) override {}
  void rmw_charge(Rank) override {}
  int lockset_create(int n) override;
  void lock(int base, int idx, Rank home) override;
  void unlock(int base, int idx, Rank home) override;
  void critical(const std::function<void()>& fn) override;
  void idle_wait() override;
  void notify(Rank r) override;
  TimeNs msg_send_time(Rank to, std::size_t bytes) override;
  void msg_recv_charge(std::size_t bytes) override {(void)bytes;}
  void barrier() override;
  void barrier_mpi() override { barrier(); }

 private:
  struct EventCount {
    std::mutex m;
    std::condition_variable cv;
    bool pending = false;
  };

  int nranks_;
  std::chrono::steady_clock::time_point start_;

  // Locks: deque keeps element addresses stable across growth.
  std::mutex locks_growth_mutex_;
  std::deque<std::mutex> locks_;

  std::mutex critical_mutex_;

  std::vector<std::unique_ptr<EventCount>> events_;

  // Central sense-reversing barrier.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
};

}  // namespace scioto::pgas
