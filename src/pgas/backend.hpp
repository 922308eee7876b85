// Execution backend abstraction for the PGAS runtime.
//
// The Runtime (runtime.hpp) implements ARMCI-style semantics -- shared
// segments, one-sided put/get/acc, remote mutexes, collectives, two-sided
// messages -- once, against this interface. Two backends exist:
//
//   * SimBackend   -- ranks are fibers under the virtual-time Engine; every
//                     operation charges a MachineModel cost. All figure
//                     benches use this: deterministic and scalable to
//                     hundreds of ranks on one core.
//   * ThreadBackend-- ranks are real std::threads; costs are no-ops and
//                     synchronization uses real mutexes/condvars. Unit
//                     tests use this to expose real data races.
//
// Both run inside one address space, so "one-sided remote access" is a
// memcpy plus (under sim) a cost-model charge; this mirrors what ARMCI
// does over RDMA-capable networks, where the target CPU is uninvolved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "base/types.hpp"

namespace scioto::pgas {

class Backend {
 public:
  virtual ~Backend() = default;

  // ---- Identity ----
  virtual int nranks() const = 0;
  /// Rank of the calling fiber/thread.
  virtual Rank me() const = 0;
  /// True if ranks run truly concurrently (threads backend).
  virtual bool concurrent() const = 0;
  /// True if time is virtual (sim backend).
  virtual bool simulated() const = 0;

  // ---- Time ----
  /// Virtual (sim) or wall-clock (threads) nanoseconds for this rank.
  virtual TimeNs now() = 0;
  /// Charges local compute cost (scaled by the rank's cpu speed in sim;
  /// no-op under threads where the work itself takes real time).
  virtual void charge(TimeNs dt) = 0;
  /// Scheduler synchronization point (no-op under threads).
  virtual void sync() = 0;
  /// Polite busy-wait step: charges a poll cost in sim, yields the CPU
  /// under threads.
  virtual void relax() = 0;
  struct Slept {
    /// Polls skipped; the clock moved past them.
    std::int64_t polls = 0;
    /// True when nobody touched this rank during the sleep.
    bool deadline = false;
  };
  /// relax() at the end of a quiet idle poll: a loop iteration that read
  /// only this rank's own words, wrote nothing, and would repeat unchanged
  /// until another rank touches this one. Each such iteration charges
  /// `loop_charge` before its relax(). Under sim the rank then sleeps
  /// through up to `max_polls` further iterations (sim::Engine::sleep),
  /// and never past the first one whose clock after relax() reaches
  /// `due` (kTimeNever: no such bound); it wakes earlier at the poll that
  /// would first see a remote access. Threads: relax(), nothing skipped.
  virtual Slept relax_sleep(TimeNs loop_charge, std::int64_t max_polls,
                            TimeNs due) = 0;

  // ---- One-sided cost accounting ----
  //
  // Every op that targets another rank (these three and the lock ops)
  // also wakes that rank from an idle sleep, in the segment before its
  // scheduler sync and in the one after, so the memory effect shares a
  // segment with a wake on whichever side of the charge the caller
  // writes it.
  /// Accounts a blocking round-trip RMA of `bytes` payload against
  /// `target`'s service queue (initiation latency + target occupancy +
  /// completion latency). The caller performs the actual memcpy afterwards.
  virtual void rma_charge(Rank target, std::size_t bytes) = 0;
  /// Accounts a fire-and-forget RMA (initiation + occupancy, no completion
  /// wait), e.g. an unlock notification.
  virtual void rma_charge_oneway(Rank target, std::size_t bytes) = 0;
  /// Accounts a blocking remote atomic (fetch-add / swap): a round trip
  /// whose target-side occupancy is MachineModel::rmw_service -- far
  /// larger than a plain RMA's, since 2008-era atomics were host-assisted.
  virtual void rmw_charge(Rank target) = 0;

  // ---- Remote mutexes ----
  /// Creates `n` locks and returns their base id. Called by rank 0 only
  /// (the Runtime makes creation collective and broadcasts the id).
  virtual int lockset_create(int n) = 0;
  /// Acquires lock `base+idx`, whose home is rank `home` (used for cost
  /// accounting; the lock state itself lives in the backend).
  virtual void lock(int base, int idx, Rank home) = 0;
  virtual void unlock(int base, int idx, Rank home) = 0;

  // ---- Atomicity escape hatch ----
  /// Runs fn atomically with respect to all other critical() calls. Under
  /// sim this is a plain call (execution is single-threaded); under
  /// threads it serializes through one real mutex. Used for mailbox
  /// manipulation and accumulate loops; carries no cost-model charge.
  virtual void critical(const std::function<void()>& fn) = 0;

  // ---- Eventcount ----
  /// Blocks until a notify() aimed at this rank is pending; consumes it.
  /// May return spuriously under threads -- callers must re-check their
  /// condition in a loop.
  virtual void idle_wait() = 0;
  /// Releases rank r's pending/next idle_wait (in sim, no earlier than
  /// now + message latency).
  virtual void notify(Rank r) = 0;

  // ---- Two-sided message timing ----
  /// Charges the sender-side overhead of a short message to `to` and
  /// returns the virtual time at which it becomes visible to the receiver
  /// (0 under threads = immediately visible).
  virtual TimeNs msg_send_time(Rank to, std::size_t bytes) = 0;
  /// Charges receiver-side message-handling overhead.
  virtual void msg_recv_charge(std::size_t bytes) = 0;

  // ---- Collectives ----
  /// ARMCI-flavored barrier (the framework's default).
  virtual void barrier() = 0;
  /// MPI-flavored barrier (distinct cost constant; used by Figure 4).
  virtual void barrier_mpi() = 0;
};

}  // namespace scioto::pgas
