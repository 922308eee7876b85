// The split task queue (paper §5, Figure 2) and its no-split ablation.
//
// Each rank owns one circular array of fixed-size task slots living in
// PGAS shared space. Three monotone-ish 64-bit indices partition it:
//
//      steal_head              split              priv_tail
//          |--- shared portion ---|--- private portion ---|
//        (thieves steal oldest/    (owner-only, no lock;
//         lowest-affinity tasks     owner pushes and pops
//         from this end)            LIFO at this end)
//
// * The owner pushes/pops at priv_tail without any lock: thieves never
//   touch indices >= split.
// * release(): the owner donates the oldest private tasks to the shared
//   portion by raising `split` -- a single store, no lock, no copying
//   (this is the paper's "simply adjusting the queue's split pointer").
// * Low-affinity adds and remote adds enter at the steal end
//   (steal_head - 1), so they are the first candidates to migrate --
//   this is how affinity ordering is realized.
//
// Queue modes (QueueMode):
//
// * Split (the paper's design, and the only steal protocol): thieves lock
//   the victim's queue, steal from [steal_head, split), and advance
//   steal_head. reacquire() lowers `split` under the lock.
//
// * NoSplit (the paper's original implementation, Figure 7's ablation):
//   one region, every operation -- including the owner's local push/pop --
//   takes the lock. Figure 7 measures the collapse this causes.
//
// Steal width is the one policy both modes share: with steal-half (the
// default) min(ceil(shared depth / 2), chunk), else the thief's live chunk
// (the paper's fixed-chunk steal). Steals block on the victim's lock and
// copy the chunk inside the critical section, as in the paper.
//
// Cost model: local unlocked ops charge MachineModel::local_insert/get;
// remote ops charge lock/RMA/RMW costs through the runtime, which under
// sim also serializes contenders in virtual time.
//
// Fault tolerance (runs with an active fault session only): each rank's
// patch additionally carries a steal-transaction table -- one record and
// one chunk-sized buffer per potential thief. A locked steal logs the
// stolen chunk into the victim's buffer and opens the record before
// releasing the victim's lock; the thief closes it (commit_steal) only
// after requeueing every stolen task locally. If the thief dies in
// between, the victim replays the chunk from its own buffer
// (recover_open_txns); if the victim dies, its successor ward adopts the
// whole queue plus any orphaned transactions (drain_dead). Because a
// remote add overwrites ring slots just below steal_head, the ring itself
// cannot serve as the recovery log -- the side buffer can. Exactly-once
// completion holds because kills fire only at safepoints and the
// requeue+commit sequence contains none.
#pragma once

#include <atomic>
#include <cstdint>

#include "control/knobs.hpp"
#include "metrics/metrics.hpp"
#include "pgas/runtime.hpp"

namespace scioto {

enum class QueueMode {
  Split,    // §5: unlocked private portion + locked shared portion
  NoSplit,  // original fully locked queue (Figure 7 ablation)
};

const char* queue_mode_name(QueueMode mode);

class SplitQueue {
 public:
  struct Config {
    /// Whole-descriptor slot size in bytes (header + max body); rounded
    /// up to a multiple of 8 internally (slots stay word-aligned).
    std::size_t slot_bytes = 64;
    /// Byte offset of the causal-lineage trailer inside each slot, or 0
    /// when no lineage session is armed. Nonzero makes a successful
    /// steal_from bump each landed record's hop count and emit one
    /// MigrateEdge per task -- the single choke point every steal funnels
    /// through (a rank stealing from itself is exempt). Set by
    /// TaskCollection; collectively uniform.
    std::size_t lineage_off = 0;
    /// Per-rank capacity in tasks (the paper's max_tasks).
    std::uint64_t capacity = 1 << 16;
    /// Steal granularity in tasks (the paper's chunk_size): the initial
    /// value of the queue's live StealChunk knob.
    int chunk = 10;
    /// Upper bound for the live steal-chunk knob. Steal/reacquire buffers
    /// and the fault-mode transaction log are sized for this at
    /// construction, so the control plane can raise the chunk at runtime
    /// without reallocation. 0 means "= chunk" (no headroom), which keeps
    /// control-off layouts and traces byte-identical to pre-control runs.
    /// Collective: must match across ranks (it shapes the patch layout).
    int chunk_max = 0;
    QueueMode mode = QueueMode::Split;
    /// Owner releases work when private > release_threshold tasks and the
    /// shared portion has fewer than `chunk` tasks. Must be >= 1 (the
    /// initial ReleaseThreshold knob, whose lower bound is 1).
    std::uint64_t release_threshold = 2 * 10;
    /// Steal-half: a steal takes min(ceil(shared_depth / 2), chunk) tasks
    /// instead of the fixed `chunk`, so a deep victim sheds half its
    /// exposed work in one get while a nearly-dry one is not stripped
    /// bare. Initial StealHalf knob. The same default as
    /// TcConfig::steal_half; false is the paper's fixed-chunk steal.
    bool steal_half = true;
  };

  struct Counters {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t releases = 0;
    std::uint64_t reacquires = 0;
    std::uint64_t steals_in = 0;        // successful steals we performed
    std::uint64_t steal_attempts = 0;   // including empty-handed
    std::uint64_t tasks_stolen_in = 0;  // tasks obtained by stealing
    std::uint64_t remote_adds = 0;      // tasks we pushed to other ranks
    std::uint64_t steals_aborted = 0;   // fault-truncated to zero tasks
    std::uint64_t tasks_recovered = 0;  // replayed txns + adopted queues
    std::uint64_t commit_retries = 0;   // dropped commit writes retried
    std::uint64_t owner_lock_acqs = 0;   // owner took its own queue's lock
  };

  /// Collective: allocates the queue segment and its lock set.
  SplitQueue(pgas::Runtime& rt, Config cfg);

  /// Collective: releases shared space.
  void destroy();

  // ---- Owner-side operations (current rank's queue) ----
  /// Pushes one descriptor. High affinity enters the private end
  /// (unlocked), low affinity enters the shared steal end (locked).
  /// Returns false when the queue is full.
  bool push_local(const std::byte* task, int affinity);
  /// Pops the newest private task (LIFO). Returns false if the private
  /// portion is empty (shared tasks need reacquire()).
  bool pop_local(std::byte* out);
  /// Moves up to half of the shared portion back to private by lowering
  /// the split under the lock. Returns the number of tasks reclaimed.
  std::uint64_t reacquire();
  /// Donates oldest private tasks to the shared portion when the release
  /// policy triggers. Returns tasks released.
  std::uint64_t release_maybe();

  std::uint64_t private_size() const;
  std::uint64_t shared_size() const;
  std::uint64_t size() const { return private_size() + shared_size(); }
  bool empty() const { return size() == 0; }

  // ---- Remote operations ----
  /// Unlocked peek at a victim's stealable-task count (one 16-byte get).
  std::uint64_t peek_shared(Rank victim);
  /// Steals up to cfg.chunk tasks from the victim's shared portion into
  /// `out` (which must hold chunk * slot_bytes). Returns tasks stolen.
  int steal_from(Rank victim, std::byte* out);
  /// Adds one descriptor to `target`'s shared end.
  /// Returns false if the target queue is full.
  bool add_remote(Rank target, const std::byte* task);

  // ---- Fault recovery (active fault session only; no-ops otherwise) ----
  /// Thief side: closes the steal transaction opened by the last
  /// steal_from(victim). Call only after every stolen task has been
  /// requeued locally -- with no safepoint in between (exactly-once).
  void commit_steal(Rank victim);
  /// Victim side: replays chunks whose thief died mid-steal from our own
  /// transaction buffers. Returns tasks re-enqueued.
  std::uint64_t recover_open_txns();
  /// Ward side: adopts a dead rank's entire queue (shared + orphaned
  /// private portion) plus transactions whose thief also died. Returns
  /// tasks adopted. Safe to call repeatedly; later calls find nothing.
  std::uint64_t drain_dead(Rank dead);
  /// Owner side, after a false suspicion: under our own lock, atomically
  /// clears the fence word, thaws the frozen priv_tail, and re-admits us
  /// to the membership view (detect::rejoin). Holding the lock across the
  /// rejoin is load-bearing: a ward that already passed its under-lock
  /// alive() re-check serializes here, so it either installed its fence
  /// before we took the lock (cleared below) or re-checks after the rejoin
  /// and bails -- a fence can never be installed between an unlocked
  /// fence==0 read and the rejoin, where nobody would ever clear it.
  /// Returns the old fence word (0 when we were never fenced). The drained
  /// queue stays drained; nothing is executed twice.
  std::uint64_t fence_ack();
  /// Thief side, after discovering we were falsely confirmed dead with a
  /// steal transaction still open on `victim`: tries to take the open txn
  /// back (CAS state 1 -> 0). True: the chunk is ours again, requeue our
  /// copy. False: a replayer (victim or ward) owns it, discard our copy.
  bool reclaim_txn(Rank victim);
  /// True when recovered tasks are parked in the local overflow stash
  /// (they count as live work for termination purposes).
  bool overflow_pending() const;
  /// Moves stashed overflow tasks back into the queue as space allows.
  std::uint64_t flush_overflow();

  // ---- Checkpoint (elastic quiesce only) ----
  /// Owner-serialized snapshot of this rank's live descriptors -- the ring
  /// span [steal_head, priv_tail) plus any overflow-stashed tasks --
  /// appended to `out` as raw slot-sized records. Call only while the
  /// fleet is quiesced: no concurrent thief can move steal_head and every
  /// steal transaction is closed (an open one would double-count its chunk
  /// -- the thief requeues it locally before arriving at the rendezvous).
  /// Returns the number of descriptors appended. Restore is plain
  /// push_local of each record (the private/shared split is not
  /// checkpointed: it is policy, not state, and the restored owner's
  /// release machinery rebuilds it).
  std::uint64_t snapshot_local(std::vector<std::byte>& out);

  /// Collective: empties every queue (tc_reset).
  void reset_collective();

  const Config& config() const { return cfg_; }
  /// This rank's live policy knobs (steal width, steal-half, release
  /// threshold), initialized from the Config and read on every decision,
  /// so writes take effect mid-run. Owner-context only (control/knobs.hpp).
  control::KnobSet& knobs() { return knobs_; }
  const control::KnobSet& knobs() const { return knobs_; }
  std::size_t slot_bytes() const { return cfg_.slot_bytes; }
  Counters& counters() { return counters_; }
  pgas::Runtime& runtime() { return rt_; }

  // ---- Test/debug inspection (no charges; not part of the model) ----
  /// Atomic snapshot of one rank's queue indices (also the idle-sleep
  /// check in TaskCollection::process).
  struct Snapshot {
    std::uint64_t steal_head = 0;
    std::uint64_t split = 0;
    std::uint64_t priv_tail = 0;
    bool operator==(const Snapshot&) const = default;
  };
  Snapshot debug_snapshot(Rank r);

 private:
  // All indices start at kIndexBase so the steal end can grow downward
  // (remote adds decrement steal_head) without underflow.
  static constexpr std::uint64_t kIndexBase = 1ull << 32;

  /// Freeze tag a ward installs in priv_tail while it adopts the queue
  /// (drain_dead). No reachable index ever carries this bit, so a falsely
  /// suspected owner's unlocked push/pop CAS -- whose expected value is
  /// always a previously *loaded* priv_tail -- can never succeed against a
  /// frozen word, no matter whether the load happened before or after the
  /// freeze: pre-freeze loads mismatch the tag, post-freeze loads bail on
  /// it before touching a slot. Only fence_ack (owner, under its own lock)
  /// thaws the index. This is what makes the freeze a real fence rather
  /// than a value that an owner mid-task-body could legally re-read and
  /// CAS right through while the ward is still copying slots out.
  static constexpr std::uint64_t kFrozenBit = 1ull << 63;
  static constexpr std::uint64_t unfrozen(std::uint64_t v) {
    return v & ~kFrozenBit;
  }

  /// Internal push outcome. `Fenced`: the queue is adopted (fence set /
  /// priv_tail frozen) and the task was NOT enqueued or stashed -- the
  /// caller decides (push_local stashes; flush_overflow keeps the task in
  /// the stash and bails instead of re-stashing the same task forever).
  enum class PushOutcome { Ok, Full, Fenced };

  struct alignas(64) Ctl {
    std::atomic<std::uint64_t> steal_head{kIndexBase};
    std::atomic<std::uint64_t> split{kIndexBase};
    std::atomic<std::uint64_t> priv_tail{kIndexBase};
    /// Adoption lease fence: (membership epoch << 16) | (adopter + 1),
    /// 0 when unfenced. A ward CAS-installs it under the victim's lock
    /// before draining; a falsely-suspected owner observes it on its next
    /// lock/CAS acquisition and aborts its work loop (fence_ack).
    std::atomic<std::uint64_t> fence{0};
  };

  /// Per-thief steal-transaction record in the victim's patch. `state` is
  /// 0 closed, 1 open (chunk copied out but not yet requeued+committed by
  /// the thief), 2 replay-in-progress. Replayers claim an open record with
  /// CAS 1 -> 2 and close it with a store; a falsely-dead thief reclaims
  /// with CAS 1 -> 0 (reclaim_txn) -- exactly one side wins, so the chunk
  /// is requeued exactly once even when detection was wrong.
  struct TxnRecord {
    std::atomic<std::uint64_t> state{0};
    std::atomic<std::uint64_t> count{0};
  };

  Ctl& ctl(Rank r);
  std::byte* slot(Rank r, std::uint64_t index);
  TxnRecord& txn(Rank victim, Rank thief);
  std::byte* txn_buf(Rank victim, Rank thief);
  /// push_local without the stash-on-fence fallback (see PushOutcome).
  PushOutcome try_push_local(const std::byte* task, int affinity);
  void stash_overflow(const std::byte* task);
  /// Steal boundary as seen by thieves: split in Split mode, the whole
  /// deque in NoSplit.
  std::uint64_t steal_boundary(const Ctl& c) const;
  void copy_out_span(Rank victim, std::uint64_t first, std::uint64_t count,
                     std::byte* out);
  /// The raw two-segment ring copy of copy_out_span without its RMA
  /// charge (snapshot_local copies the owner's own ring).
  void copy_span_raw(Rank victim, std::uint64_t first, std::uint64_t count,
                     std::byte* out);
  int live_chunk() const {
    return static_cast<int>(knobs_.get(control::Knob::StealChunk));
  }
  bool live_steal_half() const {
    return knobs_.get(control::Knob::StealHalf) != 0;
  }
  std::uint64_t live_release_threshold() const {
    return static_cast<std::uint64_t>(
        knobs_.get(control::Knob::ReleaseThreshold));
  }
  /// Steal width: fixed live chunk, or ceil(avail/2) capped at the live
  /// chunk when steal-half is on.
  std::uint64_t steal_width(std::uint64_t avail) const;
  int steal_from_locked(Rank victim, std::byte* out);
  /// Telemetry: record an owner-op latency sample (t0 taken at op entry)
  /// and refresh this rank's queue gauges. One predicted-false branch when
  /// no metrics session is active.
  void metrics_owner_op(metrics::Hist h, TimeNs t0);
  /// Publish this rank's queue depth / shared size / split position into
  /// its metrics patch. Owner-only: thieves never write a victim's gauges
  /// (single-writer seqlock), so a steal shows up at the victim's next op.
  void metrics_queue_gauges();

  pgas::Runtime& rt_;
  Config cfg_;
  control::KnobSet knobs_;
  /// Normalized cfg_.chunk_max (>= chunk). Everything sized at
  /// construction -- buffers, txn log, internal capacity headroom -- uses
  /// this bound, never the live chunk.
  int chunk_max_ = 0;
  /// Internal capacity adds headroom so concurrent remote adds (bounded by
  /// nranks) cannot overflow between an owner's stale capacity check and
  /// its slot write.
  std::uint64_t internal_cap_ = 0;
  pgas::SegId seg_ = -1;
  pgas::LockSet locks_;
  /// Fault mode: patch layout is [Ctl][TxnRecord x n][bufs x n][slots];
  /// otherwise [Ctl][slots] and the txn offsets are unused.
  bool ft_ = false;
  std::size_t txn_off_ = 0;
  std::size_t buf_off_ = 0;
  std::size_t slots_off_ = 0;
  Counters counters_;
  /// chunk_max-sized scratch (fault mode only): a ward's drain_dead copy
  /// batches land here.
  std::vector<std::byte> drain_buf_;
  /// Stash for recovered tasks that did not fit the queue.
  std::vector<std::byte> overflow_;
};

}  // namespace scioto
