// The PGAS runtime: ARMCI-flavored one-sided communication plus a small
// two-sided message layer, implemented once over the Backend abstraction.
//
// Semantics follow ARMCI/MPI-2 style one-sided models:
//   * Memory is exposed in collectively allocated *segments*; each rank
//     owns an equal-sized patch. Any rank may get/put/accumulate into any
//     patch; only `acc` and the RMW ops are atomic, plain get/put require
//     the application to synchronize (exactly as on real RDMA networks).
//   * Remote mutexes (LockSet: one lock homed on each rank) provide the
//     synchronization Scioto's shared queue portions need.
//   * Collectives: barrier, broadcast, allreduce.
//   * send/recv/iprobe mailboxes back the paper's two-sided MPI baseline.
//
// One Runtime instance is shared by all ranks of a run (single address
// space); its methods are called concurrently from rank context.
#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "base/error.hpp"
#include "base/types.hpp"
#include "fault/fault.hpp"
#include "pgas/backend.hpp"
#include "sim/machine.hpp"

namespace scioto::pgas {

using SegId = int;
inline constexpr Rank kAnyRank = -1;
inline constexpr int kAnyTag = -1;

/// A collective set of remote mutexes, one homed on each rank.
struct LockSet {
  int base = -1;
};

struct MsgInfo {
  Rank from = kNoRank;
  int tag = 0;
  std::size_t bytes = 0;
};

/// Result of a failure-aware one-sided op (the *_checked variants).
enum class OpStatus {
  Ok,          // applied
  Dropped,     // a fault rule dropped it; no memory effect -- retry
  TargetDead,  // applied (recoverable-segment model), but the target rank
               // is dead; the caller should reroute future traffic
};

class Runtime {
 public:
  Runtime(Backend& backend, std::uint64_t seed, sim::MachineModel machine);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // ---- Identity & time ----
  int nprocs() const { return backend_.nranks(); }
  Rank me() const { return backend_.me(); }
  TimeNs now() { return backend_.now(); }
  std::uint64_t seed() const { return seed_; }
  bool simulated() const { return backend_.simulated(); }
  /// Machine model constants (meaningful under sim; defaults otherwise).
  const sim::MachineModel& machine() const { return machine_; }
  Backend& backend() { return backend_; }

  /// Charges local compute cost (scaled by this rank's CPU speed in sim).
  void charge(TimeNs dt) { backend_.charge(dt); }
  /// Charges the cost of one local atomic publish with fences, such as a
  /// heartbeat store. Modelled as a local queue-op cost (no round trip, no
  /// lock service slot).
  void atomic_publish_charge();
  /// Polite progress step for spin loops.
  void relax() { backend_.relax(); }
  /// relax() for a quiet idle poll; see Backend::relax_sleep.
  Backend::Slept relax_sleep(TimeNs loop_charge, std::int64_t max_polls,
                             TimeNs due) {
    return backend_.relax_sleep(loop_charge, max_polls, due);
  }

  // ---- Shared segments ----
  /// Collective. Allocates `bytes_per_rank` of shared space on every rank;
  /// all ranks receive the same id. Every byte reads zero until written,
  /// so callers never clear a fresh segment. The segment is one private
  /// anonymous mapping without huge pages: the kernel zero-fills and
  /// commits each page on first touch, so a run pays memory only for the
  /// pages it writes, and clearing would commit them all. The last rank's slice ends on a
  /// PROT_NONE guard page, so a write past the segment faults.
  SegId seg_alloc(std::size_t bytes_per_rank);
  /// Collective. Releases the segment's memory (the id is not reused).
  void seg_free(SegId id);
  /// Direct pointer to rank r's patch (owner-local access is free; remote
  /// access through this pointer must be paired with rma_charge for
  /// honest accounting -- prefer get/put).
  std::byte* seg_ptr(SegId id, Rank r);
  std::size_t seg_bytes(SegId id) const;

  // ---- One-sided data movement ----
  void get(SegId id, Rank target, std::size_t offset, void* dst,
           std::size_t n);
  void put(SegId id, Rank target, std::size_t offset, const void* src,
           std::size_t n);
  /// Strided one-sided get (ARMCI_GetS): copies `nrows` runs of
  /// `row_bytes` from the target patch, source rows `src_stride` apart,
  /// into dst rows `dst_stride` apart. One cost-model charge covers the
  /// whole transfer, as ARMCI's strided descriptors do.
  void get_strided(SegId id, Rank target, std::size_t offset,
                   std::size_t src_stride, std::size_t nrows,
                   std::size_t row_bytes, void* dst, std::size_t dst_stride);
  /// Strided one-sided put (ARMCI_PutS).
  void put_strided(SegId id, Rank target, std::size_t offset,
                   std::size_t dst_stride, std::size_t nrows,
                   std::size_t row_bytes, const void* src,
                   std::size_t src_stride);

  // ---- Failure-aware one-sided ops ----
  //
  // Same data movement as get/put, but consulting the fault session: an
  // armed Drop rule makes the op report Dropped (wire time is still
  // charged, no memory effect); Delay charges extra latency; Dup applies
  // and charges twice. With no fault session active these reduce to the
  // plain ops returning Ok. Available on both backends.
  OpStatus get_checked(SegId id, Rank target, std::size_t offset, void* dst,
                       std::size_t n);
  OpStatus put_checked(SegId id, Rank target, std::size_t offset,
                       const void* src, std::size_t n);
  /// Retries a Dropped op with deterministic jittered exponential backoff
  /// (fault::backoff) up to fault::policy().max_attempts attempts. The
  /// attempt count actually used is reported via `attempts` when non-null.
  OpStatus get_with_retry(SegId id, Rank target, std::size_t offset,
                          void* dst, std::size_t n, int* attempts = nullptr);
  OpStatus put_with_retry(SegId id, Rank target, std::size_t offset,
                          const void* src, std::size_t n,
                          int* attempts = nullptr);

  /// Failure-aware atomic probe read of two adjacent u64 slots (the
  /// heartbeat counter + membership-epoch pair the failure detector
  /// publishes). Unlike get_checked's memcpy this loads each word with
  /// acquire semantics, so concurrent owner-side publishes are race-free
  /// on the threads backend. Same fault consultation as get_checked.
  OpStatus probe_pair_checked(SegId id, Rank target, std::size_t offset,
                              std::uint64_t* w0, std::uint64_t* w1);

  /// Failure-aware atomic read of one u64 control word, retried past
  /// drops like get_with_retry (fault::policy().max_attempts). Unlike the
  /// memcpy gets this loads through an acquire atomic_ref, so it is
  /// race-free against atomic writers -- token mailboxes, fetch_add
  /// counters -- on the threads backend.
  OpStatus get_u64_with_retry(SegId id, Rank target, std::size_t offset,
                              std::uint64_t* out, int* attempts = nullptr);

  /// Reliable one-sided control-word put (termination tokens, votes,
  /// dirty marks). Consults the fault machinery as a Token op and retries
  /// dropped sends with jittered exponential backoff WITHOUT an attempt
  /// bound: a silently lost token wedges the protocol, and fault plans
  /// carry finite drop budgets, so the loop terminates. `width` must be 4
  /// or 8 and the word width-aligned; the store is an atomic release
  /// through atomic_ref, race-free against the owner's polling loads.
  /// Returns TargetDead -- after storing; the mailbox stays addressable --
  /// when the membership view says the target is gone. `attempts` reports
  /// the number of retries (dropped sends) performed. The caller records
  /// the put (the termination detector's TokenSend event counts it).
  OpStatus put_word_reliable(SegId id, Rank target, std::size_t offset,
                             std::uint64_t value, std::size_t width,
                             int* attempts = nullptr);

  /// Atomic accumulate: patch[offset ..] += alpha * src[0..n). Atomic with
  /// respect to other acc/RMW calls (not plain put).
  void acc(SegId id, Rank target, std::size_t offset, const double* src,
           std::size_t n, double alpha);
  /// Atomic fetch-and-add on an 8-byte-aligned int64 slot.
  std::int64_t fetch_add(SegId id, Rank target, std::size_t offset,
                         std::int64_t delta);
  /// Atomic swap on an 8-byte-aligned int64 slot.
  std::int64_t swap(SegId id, Rank target, std::size_t offset,
                    std::int64_t value);
  /// Atomic compare-and-swap on an 8-byte-aligned int64 slot: installs
  /// `desired` iff the slot holds `expected`. Returns the value observed
  /// before the operation (== expected on success). Costs one RMW like
  /// fetch_add/swap; the DAG engine's conflict-group locks are built on it.
  std::int64_t compare_swap(SegId id, Rank target, std::size_t offset,
                            std::int64_t expected, std::int64_t desired);
  /// Cost accounting for callers that use seg_ptr directly for fine-grained
  /// remote atomics (the Scioto queue does); pairs a charge with a
  /// scheduler sync so simulated ordering stays honest.
  void rma_charge(Rank target, std::size_t bytes) {
    backend_.rma_charge(target, bytes);
  }
  /// Accounting for a strided/batched one-sided transfer: remote targets
  /// pay the full RMA cost, local transfers only a memory-copy cost
  /// (~8 bytes/ns).
  void rma_charge_span(Rank target, std::size_t bytes) {
    if (target == me()) {
      backend_.charge(static_cast<TimeNs>(bytes / 8) + 60);
    } else {
      backend_.rma_charge(target, bytes);
    }
  }
  /// Blocks until previously issued one-sided ops to `target` complete
  /// (ARMCI_Fence analog). Free when `target` is this rank.
  void fence(Rank target);

  // ---- Remote mutexes ----
  /// Collective: creates one lock per rank.
  LockSet lockset_create();
  void lock(const LockSet& ls, Rank r) { backend_.lock(ls.base, r, r); }
  void unlock(const LockSet& ls, Rank r) { backend_.unlock(ls.base, r, r); }

  // ---- Collectives ----
  void barrier() { backend_.barrier(); }
  void barrier_mpi() { backend_.barrier_mpi(); }

  template <class T>
  T broadcast(const T& value, Rank root) {
    static_assert(std::is_trivially_copyable_v<T>);
    SCIOTO_REQUIRE(sizeof(T) <= kCollSlotBytes, "broadcast value too large");
    if (me() == root) {
      std::memcpy(coll_slot(root), &value, sizeof(T));
    }
    barrier();
    T out;
    std::memcpy(&out, coll_slot(root), sizeof(T));
    barrier();
    return out;
  }

  template <class T, class F>
  T allreduce(const T& value, F combine) {
    static_assert(std::is_trivially_copyable_v<T>);
    SCIOTO_REQUIRE(sizeof(T) <= kCollSlotBytes, "allreduce value too large");
    std::memcpy(coll_slot(me()), &value, sizeof(T));
    barrier();
    // Dead ranks never reached this collective, so their slots hold stale
    // bytes from an earlier reduction: skip them. Ranks cannot die inside
    // the collective (no safepoints here), so all survivors skip the same
    // set and still agree on the result.
    T acc{};
    bool have = false;
    for (Rank r = 0; r < nprocs(); ++r) {
      if (!fault::alive(r)) continue;
      T v;
      std::memcpy(&v, coll_slot(r), sizeof(T));
      acc = have ? combine(acc, v) : v;
      have = true;
    }
    barrier();
    return acc;
  }

  template <class T>
  T allreduce_sum(const T& value) {
    return allreduce(value, [](T a, T b) { return a + b; });
  }
  template <class T>
  T allreduce_max(const T& value) {
    return allreduce(value, [](T a, T b) { return a > b ? a : b; });
  }
  template <class T>
  T allreduce_min(const T& value) {
    return allreduce(value, [](T a, T b) { return a < b ? a : b; });
  }

  // ---- Two-sided messages (MPI-1 style subset) ----
  void send(Rank to, int tag, const void* data, std::size_t n);
  /// Non-blocking probe; fills `info` if a matching message has arrived.
  bool iprobe(Rank from, int tag, MsgInfo* info);
  /// Non-blocking receive.
  bool try_recv(Rank from, int tag, void* buf, std::size_t cap,
                MsgInfo* info);
  /// Blocking receive.
  MsgInfo recv(Rank from, int tag, void* buf, std::size_t cap);

 private:
  static constexpr std::size_t kCollSlotBytes = 256;
  static constexpr std::size_t kMaxSegments = 4096;

  struct Unmap {
    std::size_t bytes;  // the whole mapping; unique_ptr value-initializes it
    void operator()(std::byte* map) const;
  };

  struct Segment {
    // The mapping: the ranks' slices, then the guard page.
    std::unique_ptr<std::byte, Unmap> mem;
    // Placed so the last slice ends exactly on the guard page. 64-byte
    // aligned, since the stride and the page size are, so every rank's
    // slice can hold cache-line-aligned control blocks (e.g.
    // termination's alignas(64) TdCtl).
    std::byte* base = nullptr;
    std::size_t per_rank = 0;
    std::size_t stride = 0;
    bool live = false;
  };

  struct PendingMsg {
    Rank from;
    int tag;
    TimeNs arrival;
    std::vector<std::byte> data;
  };

  struct Inbox {
    std::deque<PendingMsg> q;
  };

  /// Checks, charges and records one atomic on the int64 word at
  /// `offset` of target's patch; returns the word.
  std::int64_t* rmw_word(SegId id, Rank target, std::size_t offset);
  std::byte* coll_slot(Rank r) {
    return coll_space_.get() + static_cast<std::size_t>(r) * kCollSlotBytes;
  }
  bool match(const PendingMsg& m, Rank from, int tag) const {
    return (from == kAnyRank || m.from == from) &&
           (tag == kAnyTag || m.tag == tag);
  }

  Backend& backend_;
  std::uint64_t seed_;
  sim::MachineModel machine_;

  std::vector<Segment> segments_;  // pre-sized; only rank 0 appends between
  std::atomic<int> nsegments_{0};  // barriers, so no growth races
  std::unique_ptr<std::byte[]> coll_space_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
};

enum class BackendKind { Sim, Threads };

struct Config {
  int nranks = 4;
  BackendKind backend = BackendKind::Sim;
  sim::MachineModel machine = sim::test_machine();
  std::size_t stack_bytes = 256 * 1024;
  std::uint64_t seed = 42;
};

struct RunResult {
  /// Virtual makespan under sim (max rank clock); wall time under threads.
  TimeNs elapsed = 0;
};

/// Launches `body` SPMD across cfg.nranks ranks on the chosen backend and
/// runs to completion. Exceptions thrown by any rank are rethrown here.
RunResult run_spmd(const Config& cfg,
                   const std::function<void(Runtime&)>& body);

}  // namespace scioto::pgas
