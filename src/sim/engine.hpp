// Conservative virtual-time execution engine.
//
// Every simulated process (rank) runs as a fiber with its own virtual
// clock. A single scheduler always resumes the runnable fiber with the
// smallest clock (ties broken by rank), so the execution is sequentially
// consistent in virtual time and bit-deterministic. Fibers advance their
// clocks by charging compute/communication costs and yield back to the
// scheduler at synchronization points:
//
//   * sync()        -- re-enter the scheduler; resumed once minimal again.
//   * charge()      -- add scaled compute cost; auto-syncs every
//                      MachineModel::sync_quantum of accumulated run-ahead,
//                      bounding how far a rank races ahead of its peers.
//   * lock_*()      -- FIFO virtual-time mutexes with direct handoff; the
//                      waiter inherits the releaser's clock, which is what
//                      models contention on a victim's shared queue.
//   * idle_wait()/notify() -- an eventcount per rank for blocking message
//                      receive.
//   * barrier()     -- all ranks meet; released at max(arrival) + cost.
//   * rma_occupy()  -- serializes RMA operations through a per-target
//                      service queue (NIC occupancy), which is what makes
//                      a hot shared counter a bottleneck.
//   * sleep()/wake() -- an idle rank skips a run of identical polls.
//
// The engine is strictly single-threaded; "shared memory" between ranks is
// ordinary process memory touched only by the currently running fiber.
//
// Run queue. An indexed 4-ary min-heap with at most one entry per rank,
// keyed by one unsigned __int128, (clock << 32) | rank: the (clock, rank)
// order, compared as one integer. The scheduler resumes the root without
// popping it; the running rank keeps its entry under its resume key until
// it yields. sync() then re-keys the entry in place (one sift-down),
// sleep() re-keys it to the deadline or removes it when there is none, and
// block() and fiber exit remove it. Every yield leaves the same set of
// (clock, rank) keys as a pop followed by a push would, so the resume
// order is unchanged.
//
// Idle sleep. A segment is what a fiber runs between two resumes; its key
// is (clock at resume, rank), the heap order. A rank whose polls each
// charge a fixed Delta, read only its own words and would repeat unchanged
// may call sleep(Delta, K) at clock c0 instead of sync(). Polling would
// have run segments at keys (c0 + k*Delta, r), k = 0, 1, ...; sleeping
// skips them. Invariant: the sleeper resumes at the first of those keys
// that sorts after every segment in which another rank touched it, and
// at c0 + K*Delta when nobody did. Other ranks call wake(r) from any
// segment that may touch r's words; the sleeper then resumes at the
// smallest c0 + k*Delta whose key sorts after every segment run so far --
// exactly the poll that would have first seen the access, since a rank's
// pending poll is always the smallest of its keys above everything resumed
// (resumed keys rise in clock, but a lock handoff can lower the rank
// within one clock, so the bound is the running maximum, not the waker's
// key). The wake is a decrease-key on the sleeper's deadline entry, or an
// insert when it sleeps with no deadline. Skipped polls neither write nor
// hold a heap entry, so every other segment runs in the same order and
// virtual time is bit-identical. Unlike a sync() fast path that only skips
// the yield (measured as noise), a sleep also skips the heap update and
// the sleeper's cold stack for every poll it does not run.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "base/types.hpp"
#include "sim/fiber.hpp"
#include "sim/machine.hpp"

namespace scioto::sim {

class Engine {
 public:
  struct Config {
    int nranks = 1;
    MachineModel machine;
    std::size_t stack_bytes = 256 * 1024;
  };

  /// `rank_main(r)` is the SPMD body executed by each rank's fiber.
  Engine(Config cfg, std::function<void(Rank)> rank_main);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs all fibers to completion. Aborts with a state dump if the
  /// simulation deadlocks (no runnable fiber but unfinished ranks remain).
  void run();

  // ---- Introspection ----
  int nranks() const { return cfg_.nranks; }
  const MachineModel& machine() const { return cfg_.machine; }
  /// Rank of the currently executing fiber; kNoRank from outside run().
  Rank current_rank() const { return current_; }
  /// Virtual clock of the current rank.
  TimeNs now() const;
  TimeNs now(Rank r) const;
  /// Compute-cost multiplier of rank r under the machine model.
  double cpu_scale(Rank r) const { return cpu_scale_[static_cast<size_t>(r)]; }
  /// Largest clock reached by any rank (the "makespan" after run()).
  TimeNs max_clock() const;
  /// Fiber resumes so far (host cost; one per segment run).
  std::uint64_t resumes() const { return resumes_; }

  // ---- Clock manipulation (current rank only) ----
  /// Adds raw (unscaled) time without yielding; used for latency terms.
  void advance_unsynced(TimeNs dt);
  /// Adds compute time scaled by the rank's cpu_scale; yields to the
  /// scheduler whenever accumulated run-ahead exceeds the sync quantum.
  void charge(TimeNs dt);
  /// Sets the clock forward to `t` (no-op if already past); does not yield.
  void advance_to(TimeNs t);
  /// Yields; resumed when this rank is again the minimum runnable clock.
  void sync();
  /// Rounds `dt` the way charge() does for the current rank.
  TimeNs scaled(TimeNs dt) const;

  // ---- Idle sleep (see the header comment) ----
  struct Slept {
    /// Polls skipped; the clock advanced by polls * delta.
    std::int64_t polls = 0;
    /// True when the sleep ran to its deadline without a wake().
    bool deadline = false;
  };
  /// No deadline: sleep until woken.
  static constexpr std::int64_t kForever = INT64_MAX;
  /// In place of sync(): sleeps through up to `max_polls` polls of `delta`
  /// each. Falls back to a plain sync() (nothing skipped) when the sleep
  /// could not be exact: max_polls < 1, delta < 1, delta above the sync
  /// quantum (a poll would then auto-sync mid-way), or no clock advance
  /// since this segment began.
  Slept sleep(TimeNs delta, std::int64_t max_polls);
  /// Ends rank r's sleep at the first of its polls that sorts after every
  /// segment run so far; a no-op unless r is asleep. Call from every
  /// segment that may touch r's words.
  void wake(Rank r);

  // ---- Virtual-time mutexes ----
  int lock_create();
  void lock_acquire(int id);
  void lock_release(int id);
  /// True if the lock is currently held (by anyone).
  bool lock_held(int id) const;

  // ---- Eventcount (blocking notification) ----
  /// Blocks the current rank until a notify() is pending, consuming it.
  void idle_wait();
  /// Makes rank r's next (or current) idle_wait return, no earlier than
  /// virtual time `deliver_at`.
  void notify(Rank r, TimeNs deliver_at);

  // ---- RMA target occupancy ----
  /// Reserves `service` time on target's RMA service queue starting no
  /// earlier than the current rank's clock + `arrival_offset`; returns the
  /// completion time. Does not modify the caller's clock.
  TimeNs rma_occupy(Rank target, TimeNs arrival_offset, TimeNs service);

  // ---- Collectives ----
  /// Rendezvous of all unfinished ranks; everyone leaves with clock
  /// max(arrival clocks) + total_cost.
  void barrier(TimeNs total_cost);

 private:
  struct RankState {
    std::unique_ptr<Fiber> fiber;
    TimeNs clock = 0;
    TimeNs last_sync_clock = 0;
    bool blocked = false;
    bool finished = false;
    // Eventcount state.
    bool ev_pending = false;
    bool ev_waiting = false;
    // Idle sleep: polls at sleep_c0 + k * sleep_delta, deadline at k =
    // sleep_polls.
    bool asleep = false;
    bool woken = false;
    TimeNs sleep_c0 = 0;
    TimeNs sleep_delta = 0;
    std::int64_t sleep_polls = 0;
  };

  struct LockState {
    bool held = false;
    Rank holder = kNoRank;
    std::deque<Rank> waiters;
  };

  struct BarrierState {
    int arrived = 0;
    TimeNs max_arrival = 0;
    TimeNs max_cost = 0;
    std::vector<Rank> waiting;
  };

  RankState& cur();
  const RankState& cur() const;
  /// Marks the current fiber blocked and yields; returns after unblock().
  void block();
  /// Reschedules blocked rank r at virtual time >= at.
  void unblock(Rank r, TimeNs at);

  // ---- Run queue (see the header comment) ----
  using Key = unsigned __int128;
  static constexpr Key kNoKey = ~Key{0};  // sorts after every real key
  static Key key(TimeNs clock, Rank r) {
    return Key{static_cast<std::uint64_t>(clock)} << 32 |
           static_cast<std::uint32_t>(r);
  }
  static Rank rank_of(Key k) {
    return static_cast<Rank>(static_cast<std::uint32_t>(k));
  }
  static TimeNs clock_of(Key k) { return static_cast<TimeNs>(k >> 32); }
  /// Gives rank r the key (clock, r): inserts its entry or moves it.
  void enqueue(Rank r, TimeNs clock);
  /// Removes rank r's entry.
  void dequeue(Rank r);
  void sift_up(std::size_t i, Key k);
  void sift_down(std::size_t i, Key k);
  /// Wakes everyone parked in the barrier; returns the release time.
  TimeNs release_barrier();
  /// Releases the pending barrier if every still-unfinished rank has
  /// arrived (called when a rank finishes early, e.g. fault-injected).
  void maybe_release_barrier();
  [[noreturn]] void report_deadlock();

  Config cfg_;
  std::function<void(Rank)> rank_main_;
  std::vector<RankState> ranks_;
  std::vector<double> cpu_scale_;
  std::vector<LockState> locks_;
  std::vector<TimeNs> rma_busy_until_;
  BarrierState barrier_;
  int unfinished_ = 0;

  // heap_[0, size_) is the heap; the 3 slots past it hold kNoKey, so a
  // parent's last child group is always 4 wide. pos_[r] is rank r's slot,
  // or -1 when it has no entry.
  std::vector<Key> heap_;
  std::vector<std::int32_t> pos_;
  std::size_t size_ = 0;
  // Largest key resumed so far: every poll a sleeper skipped sorts below.
  Key top_ = 0;
  Rank current_ = kNoRank;
  bool running_ = false;
  std::uint64_t resumes_ = 0;
};

/// Ambient access to the engine from inside rank code (set during run()).
/// Null when no simulation is active on this thread.
Engine* current_engine();

/// Virtual clock of the currently executing fiber, or -1 when the calling
/// thread is not inside a simulation (used by the trace clock and the log
/// context without requiring a Runtime reference).
TimeNs current_virtual_time();

}  // namespace scioto::sim
