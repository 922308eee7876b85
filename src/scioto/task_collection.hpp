// The task collection: Scioto's global view of a distributed set of task
// objects (paper §2, §3, §5).
//
// A task collection aggregates one SplitQueue patch per process. Programs
// begin SPMD, seed the collection with tc_add-style calls, then
// collectively enter process() -- a MIMD region in which every process
// executes local tasks, steals when empty, and spawns subtasks, until
// wave-based termination detection observes a globally idle state.
//
// Scheduling policy (paper §2, §5.1):
//   * local processing pops the newest high-affinity task (LIFO head);
//   * steals take the oldest low-affinity tasks (tail), chunk at a time;
//   * victims are chosen uniformly at random among the other ranks;
//   * the owner releases private tasks to the shared portion when thieves
//     have drained it, and reacquires shared tasks when it runs dry.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "base/table.hpp"
#include "control/knobs.hpp"
#include "detect/detect.hpp"
#include "scioto/clo.hpp"
#include "scioto/queue.hpp"
#include "scioto/task.hpp"
#include "scioto/termination.hpp"

namespace scioto {

struct TcConfig {
  /// Maximum user body size a task descriptor may carry (the paper's
  /// task_sz, bytes).
  std::int32_t max_task_body = 256;
  /// Steal granularity in tasks (the paper's chunk_sz). With the control
  /// plane this is the *initial* value of the steal_chunk knob.
  int chunk_size = 10;
  /// Upper bound for the live steal-chunk knob; steal buffers and the
  /// fault-mode transaction log are sized for it at construction.
  /// 0 = auto: chunk_size (no headroom, pre-control layouts), except when
  /// a control session is active at construction, where it becomes
  /// max(chunk_size, 64) so the controller has room to raise the chunk.
  /// Collective: must match across ranks (it shapes the queue layout).
  int chunk_max = 0;
  /// Per-rank queue capacity in tasks (the paper's max_sz).
  std::int64_t max_tasks_per_rank = 1 << 16;
  /// Queue variant: Split (the paper's design), NoSplit (the original
  /// fully locked queue, Figure 7's ablation), or LockFree (Chase-Lev CAS
  /// steals with the split machinery live -- the §8 lock-free steal
  /// path). Overridable at construction by the SCIOTO_QUEUE env knob
  /// (locked | aborting | lockfree).
  QueueMode queue_mode = QueueMode::Split;
  /// The paper allows disabling dynamic load balancing before process().
  bool load_balancing = true;
  /// §5.3 token-coloring optimization.
  bool color_optimization = true;
  /// Tasks released from private to shared when private exceeds this and
  /// the shared portion is nearly empty (0 = 2 * chunk_size).
  std::uint64_t release_threshold = 0;
  /// Failed steal attempts on distinct victims per termination-detection
  /// poll while idle.
  int steals_per_td_poll = 1;
  /// Exponential backoff on consecutive failed steal rounds: an idle rank
  /// doubles the number of cheap termination-detection polls between
  /// (expensive, one-sided) steal attempts, capped at this many polls.
  /// This is what lets the token wave propagate at poll speed once the
  /// system drains (Figure 4's ~2x-barrier detection cost). 0 disables.
  int steal_backoff_max = 64;
  /// §8 "multicore scheduling enhancements": probability that a steal
  /// attempt targets a victim on the *same node* (cheap shared-memory
  /// transfer) instead of a uniformly random rank. Only meaningful when
  /// the machine model has cores_per_node > 1. 0 = the paper's uniform
  /// victim selection.
  double node_steal_bias = 0.0;
  /// Aborting steals: a thief trylocks its victim and, when the lock is
  /// held, immediately re-targets a different victim after a short seeded
  /// backoff instead of convoying on the lock.
  bool aborting_steals = false;
  /// Steal-half adaptive chunking: steals take min(ceil(depth/2),
  /// chunk_size) tasks based on the victim's shared depth instead of the
  /// fixed chunk_size.
  bool adaptive_steal = false;
  /// Lock-light owner fast path: split-pointer reacquires become a single
  /// validated atomic publish when the shared portion is deep enough; the
  /// owner takes its own lock only when it is nearly empty.
  bool owner_fastpath = false;
  /// Pay the stolen chunk's wire time after the victim's lock is released
  /// (shrinks the steal critical section to pointer updates + txn record).
  bool deferred_steal_copy = false;
  /// Aborting steals: victims re-targeted after a busy abort before the
  /// thief gives the round up (0 = abort straight to the TD poll).
  int steal_retarget_max = 4;
};

/// Aggregated execution statistics (per-rank, summable across ranks).
struct TcStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_spawned_local = 0;
  std::uint64_t tasks_spawned_remote = 0;
  std::uint64_t steals = 0;
  std::uint64_t steals_same_node = 0;  // subset of steals (multicore topo)
  std::uint64_t steal_attempts = 0;
  std::uint64_t tasks_stolen = 0;
  std::uint64_t releases = 0;
  std::uint64_t reacquires = 0;
  std::uint64_t td_waves_voted = 0;
  std::uint64_t td_black_votes = 0;
  std::uint64_t td_marks_sent = 0;
  std::uint64_t td_marks_skipped = 0;
  // Fault-recovery work (all zero without an active fault session):
  std::uint64_t tasks_recovered = 0;  // replayed txns + adopted queues
  std::uint64_t steals_aborted = 0;   // steals truncated to zero tasks
  std::uint64_t op_retries = 0;       // dropped commit/token sends retried
  std::uint64_t td_resplices = 0;     // spanning-tree reconfigurations
  // Adaptive steal engine (all zero with the knobs off):
  std::uint64_t steals_lock_busy = 0;  // aborting steals hit a held lock
  std::uint64_t steal_retargets = 0;   // victims re-picked after an abort
  std::uint64_t owner_lock_acqs = 0;   // owner took its own queue's lock
  std::uint64_t reacquires_fast = 0;   // lock-free fast-path reacquires
  TimeNs time_total = 0;
  TimeNs time_working = 0;   // executing task callbacks
  TimeNs time_searching = 0; // stealing + termination detection

  TcStats& operator+=(const TcStats& o);
};

/// Renders a stats snapshot as a two-column metric/value table, including
/// derived columns (steal success rate, % of time working/searching).
/// Usable on any TcStats -- a rank-local snapshot, a global sum, or one
/// carried home in a result struct.
Table tc_stats_table(const TcStats& s);

class TaskCollection {
 public:
  /// Collective: all ranks construct with identical cfg.
  TaskCollection(pgas::Runtime& rt, TcConfig cfg = {});

  /// Collective: releases shared space (tc_destroy).
  void destroy();

  pgas::Runtime& runtime() { return rt_; }
  const TcConfig& config() const { return cfg_; }
  /// Effective queue mode after the SCIOTO_QUEUE env override.
  QueueMode queue_mode() const { return cfg_.queue_mode; }

  // ---- Collective registration (before first process()) ----
  /// Registers a task callback; all ranks must register the same callbacks
  /// in the same order (tc_register_callback).
  TaskHandle register_callback(TaskFn fn);
  /// Registers this rank's instance of a common local object (§2.3).
  CloHandle register_clo(void* local_instance);
  /// Looks up the executing rank's instance of a CLO.
  template <class T>
  T& clo(CloHandle h) {
    return clos_.lookup_as<T>(h);
  }

  // ---- Task management ----
  /// Builds an owning descriptor buffer (tc_task_create).
  Task task_create(std::int32_t body_bytes, TaskHandle handle) const;
  /// Adds a copy of the task to `where`'s patch with the given affinity
  /// (tc_add). Copy-in semantics: the Task buffer is reusable on return.
  /// Throws scioto::Error if the destination queue is full.
  void add(Rank where, int affinity, const Task& task) {
    add_raw(where, affinity, task.data(), task.size());
  }
  /// Same, from a raw descriptor (header + body) of `size` bytes; used by
  /// the C API shim.
  void add_raw(Rank where, int affinity, const std::byte* descriptor,
               std::size_t size);
  /// Convenience: add to the local patch.
  void add_local(const Task& task, int affinity = kAffinityHigh) {
    add(rt_.me(), affinity, task);
  }

  // ---- Execution ----
  /// Collective: processes the collection to global termination (the MIMD
  /// region; tc_process). Tasks may call add() to spawn subtasks.
  void process();
  /// Collective: rearms an already processed collection (tc_reset).
  void reset();
  /// May be toggled (collectively) between phases.
  void set_load_balancing(bool enabled) { cfg_.load_balancing = enabled; }

  // ---- Live knobs ----
  /// This rank's live tuning parameters. The queue and the steal path read
  /// through these on every decision, so writes take effect mid-process()
  /// -- unlike the TcConfig fields, which only seed the initial values.
  const control::KnobSet& knobs() const { return queue_->knobs(); }
  /// Current value of one knob.
  std::int64_t knob(control::Knob k) const { return knobs().get(k); }
  /// Clamped live write (rank-local, callable mid-run); returns the value
  /// actually applied. Republishes to the control session's row (for the
  /// dashboard and ward inheritance) when a controller is active.
  std::int64_t set_knob(control::Knob k, std::int64_t v);

  // ---- Scheduler-extension hooks (single consumer; the DAG engine in
  // src/dag installs these around its execute()). Both are rank-local:
  // each rank's TaskCollection instance calls only its own hooks from its
  // own process() loop, so no synchronization is involved. Pass nullptr
  // (the default) to uninstall; with no hooks installed process() behaves
  // -- and traces -- exactly as before.
  /// Called in the idle section of process(); returns the number of tasks
  /// it injected into the local queue (parked dataflow nodes whose gates
  /// opened). A non-zero return marks this rank's termination vote black.
  void set_idle_hook(std::function<std::uint64_t()> fn) {
    idle_hook_ = std::move(fn);
  }
  /// Checked before each termination-detection step; returning true
  /// reports rank-local deferred work invisible to the queues (parked
  /// nodes), forcing a black vote so no wave concludes over it.
  void set_pending_hook(std::function<bool()> fn) {
    pending_hook_ = std::move(fn);
  }

  // ---- Checkpoint hooks (elastic sessions; see src/elastic) ----
  /// Installs rank-local serialization hooks for application state that
  /// must ride along with a checkpoint (e.g. a rank's durable result
  /// counters). The writer returns this rank's opaque blob at snapshot
  /// time; the reader is invoked at restore once per source-rank blob this
  /// rank was dealt. Rank-local like the scheduler hooks above; pass
  /// empty functions to uninstall.
  void set_ckpt_hooks(
      std::function<std::vector<std::byte>()> writer,
      std::function<void(Rank, const std::vector<std::byte>&)> reader) {
    ckpt_writer_ = std::move(writer);
    ckpt_reader_ = std::move(reader);
  }

  // ---- Statistics ----
  /// This rank's counters from the last process() call.
  const TcStats& stats_local() const {
    return stats_[static_cast<std::size_t>(rt_.me())];
  }
  /// Collective: sum over all ranks.
  TcStats stats_global();
  /// Collective: renders stats_global() through tc_stats_table(). Only the
  /// returned table on rank 0 is typically printed.
  Table stats_table() { return tc_stats_table(stats_global()); }

  /// Tasks currently queued on this rank (diagnostics).
  std::uint64_t local_queue_size() const { return queue_->size(); }

  /// Descriptor slot size (header + max body, padded).
  std::size_t slot_bytes() const { return queue_->slot_bytes(); }

 private:
  void execute(std::byte* descriptor);
  /// Detector-mode false-suspicion recovery: acknowledge the adoption
  /// fence on our queue, re-enter the membership view in a new epoch, and
  /// force our next termination vote black.
  void fence_abort_and_rejoin();
  /// Ward/victim-pool recomputation when the membership epoch moved.
  void refresh_membership();
  // ---- Elastic membership (src/elastic; bodies gated on the
  // SCIOTO_ELASTIC build option) ----
  /// Parked-rank wait loop: publishes the join request when due; returns
  /// true on admission, false when the phase ended (termination broadcast
  /// or fleet halt) while this rank was still parked.
  bool parked_wait(TcStats& st);
  /// Admitter duty (lowest joined-alive rank): batch-admits parked ranks
  /// with a published join request under one membership epoch bump.
  void elastic_admit_scan();
  /// Quiesces the fleet at checkpoint generation `gen` and writes this
  /// rank's part file (the leader also writes the manifest). Returns
  /// false when the snapshot was aborted because the phase terminated
  /// underneath it.
  bool quiesce_and_checkpoint(std::uint64_t gen, TcStats& st);
  /// Collective restore at process() entry: deals the manifest's
  /// descriptors round-robin across the joined ranks of this (possibly
  /// different-sized) fleet.
  void restore_from(const std::string& path);
  TcStats& my_stats() { return stats_[static_cast<std::size_t>(rt_.me())]; }

  pgas::Runtime& rt_;
  TcConfig cfg_;
  std::unique_ptr<SplitQueue> queue_;
  /// Byte offset of the lineage trailer inside a slot while a lineage
  /// session is armed; 0 disables every lineage hook (the off-path cost
  /// is this one comparison).
  std::size_t lineage_off_ = 0;
  std::unique_ptr<TerminationDetector> td_;
  /// Heartbeat publisher/prober, present iff the failure detector is
  /// armed; pumped from the top of the process() loop.
  std::unique_ptr<detect::HeartbeatProbe> hb_;
  CloRegistry clos_;
  /// Per-rank callback tables (identical contents by SPMD discipline).
  std::vector<CallbackRegistry> registries_;
  /// Per-rank scratch for padding descriptors to slot size.
  std::vector<std::vector<std::byte>> scratch_;
  std::vector<Xoshiro256> rngs_;
  std::vector<TcStats> stats_;
  std::vector<std::vector<std::byte>> steal_bufs_;
  std::vector<std::vector<std::byte>> exec_bufs_;
  /// Fault-recovery state, per rank (used only with an active session).
  /// epoch_seen_ starts at ~0 so the first idle pass populates the lists.
  std::vector<std::uint64_t> epoch_seen_;
  /// Dead ranks whose queues this rank adopts (successor(dead) == me).
  std::vector<std::vector<Rank>> wards_;
  /// Alive ranks other than me: the fault-aware victim pool.
  std::vector<std::vector<Rank>> alive_others_;
  /// Scheduler-extension hooks (see set_idle_hook / set_pending_hook).
  std::function<std::uint64_t()> idle_hook_;
  std::function<bool()> pending_hook_;
  /// Elastic control patch (join-request / quiesce-arrival / ckpt-done
  /// words), allocated only when an elastic session is armed.
  pgas::SegId eseg_ = -1;
  std::uint64_t ckpt_gen_done_ = 0;  // latest checkpoint generation handled
  bool restore_done_ = false;  // the collective restore ran at first entry
  std::function<std::vector<std::byte>()> ckpt_writer_;
  std::function<void(Rank, const std::vector<std::byte>&)> ckpt_reader_;
  bool live_ = true;
};

}  // namespace scioto
