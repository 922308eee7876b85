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
//   * victims are chosen uniformly at random among the other ranks
//     (VictimPolicy, scioto/victim.hpp, holds the refinements);
//   * the owner releases private tasks to the shared portion when thieves
//     have drained it, and reacquires shared tasks when it runs dry.
//
// Subsystems beyond the paper attach to process() through one ordered
// list of LoopHooks, built at each entry from the sessions armed then:
// metrics, control, fault, detector and elastic (ElasticLoop, in
// src/elastic) in that order, then the scheduler extension (the DAG
// engine). With nothing armed the list is empty and the loop is the
// paper's.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "base/rng.hpp"
#include "base/table.hpp"
#include "control/knobs.hpp"
#include "detect/detect.hpp"
#include "scioto/clo.hpp"
#include "scioto/queue.hpp"
#include "scioto/stats.hpp"
#include "scioto/task.hpp"
#include "scioto/termination.hpp"
#include "scioto/victim.hpp"

namespace scioto {

struct TcConfig {
  /// Maximum user body size a task descriptor may carry (the paper's
  /// task_sz, bytes).
  std::int32_t max_task_body = 256;
  /// Steal granularity in tasks (the paper's chunk_sz). With the control
  /// plane this is the *initial* value of the steal_chunk knob.
  int chunk_size = 10;
  /// Upper bound for the live steal-chunk knob; the fault-mode
  /// transaction log is sized for it at construction.
  /// 0 = auto: chunk_size (no headroom, pre-control layouts), except when
  /// a control session is active at construction, where it becomes
  /// max(chunk_size, SplitQueue::kDeepStealCap = 64) so the controller has
  /// room to raise the chunk.
  /// Collective: must match across ranks (it shapes the queue layout).
  int chunk_max = 0;
  /// Per-rank queue capacity in tasks (the paper's max_sz).
  std::int64_t max_tasks_per_rank = 1 << 16;
  /// Queue variant: Split (the paper's design, and the only steal
  /// protocol) or NoSplit (the original fully locked queue, Figure 7's
  /// ablation). Construction fails if the removed SCIOTO_QUEUE env knob
  /// is set.
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
  /// Steal-half: steals take min(ceil(depth/2), chunk_size) tasks based
  /// on the victim's shared depth instead of the fixed chunk_size, and up
  /// to 64 from a victim whose shared depth reaches chunk_size * nprocs
  /// (SplitQueue::Config::steal_half). Fixed
  /// for the collection's lifetime (not a live knob). On by default: it
  /// beat the paper's fixed-chunk steals on UTS makespan (EXPERIMENTS.md,
  /// "Steal-half as the default"); false restores the paper's §5 steal.
  bool steal_half = true;
};

/// Renders a stats snapshot as a two-column metric/value table, including
/// derived columns (steal success rate, % of time working/searching).
/// Usable on any TcStats -- a rank-local snapshot, a global sum, or one
/// carried home in a result struct.
Table tc_stats_table(const TcStats& s);

/// A subsystem's seat in the process() loop (DESIGN.md, "Loop hooks").
/// Every slot is rank-local and called only from this rank's own loop;
/// the defaults do nothing (the default next_due keeps the rank polling),
/// so a hook overrides just the slots it fills.
class LoopHook {
 public:
  enum class Top { Go, Restart, Leave };
  /// next_due(): only a remote op can give this hook work.
  static constexpr TimeNs kForever = kTimeNever;
  virtual ~LoopHook() = default;
  /// The earliest virtual time at which top(), idle() or pending() could
  /// act or charge unless another rank first touches this one (which
  /// wakes a sleeping rank). An idle rank sleeps through its quiet polls
  /// up to the first one whose top-of-loop clock reaches the least
  /// next_due of the armed hooks. The default, `now`, polls every
  /// iteration.
  virtual TimeNs next_due(TimeNs now) { return now; }
  /// Runs at the top of every iteration, before local work. Restart goes
  /// round again without touching the queue (later hooks skip this
  /// pass); Leave ends this rank's phase. `idled` says the loop came up
  /// empty-handed since the last pass that reached every hook.
  virtual Top top(bool /*idled*/) { return Top::Go; }
  /// Runs when the rank found no local work, before it steals. Returns
  /// how many tasks it made local without a steal; non-zero skips the
  /// steal and marks this rank's termination vote black.
  virtual std::uint64_t idle() { return 0; }
  /// Runs before each termination-detection step; true reports work the
  /// queues cannot see, which keeps this rank's vote black.
  virtual bool pending() { return false; }
};

class ElasticLoop;

class TaskCollection {
 public:
  /// Collective: all ranks construct with identical cfg.
  TaskCollection(pgas::Runtime& rt, TcConfig cfg = {});
  ~TaskCollection();

  /// Collective: releases shared space (tc_destroy).
  void destroy();

  pgas::Runtime& runtime() { return rt_; }
  const TcConfig& config() const { return cfg_; }
  /// The configured queue mode.
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

  // ---- Scheduler extension ----
  /// Attaches a rank-local hook after the built-in subsystems' hooks (the
  /// DAG engine installs itself around its execute()); nullptr detaches
  /// it. With no extension process() behaves -- and traces -- exactly as
  /// before.
  void set_extension(LoopHook* hook) { extension_ = hook; }

  // ---- Checkpoint hooks (elastic sessions; see src/elastic) ----
  /// Installs rank-local serialization hooks for application state that
  /// must ride along with a checkpoint (e.g. a rank's durable result
  /// counters). The writer returns this rank's opaque blob at snapshot
  /// time; the reader is invoked at restore once per source-rank blob this
  /// rank was dealt. Rank-local like the extension above; pass empty
  /// functions to uninstall.
  void set_ckpt_hooks(
      std::function<std::vector<std::byte>()> writer,
      std::function<void(Rank, const std::vector<std::byte>&)> reader) {
    ckpt_writer_ = std::move(writer);
    ckpt_reader_ = std::move(reader);
  }

  // ---- Statistics ----
  /// This rank's counters over every process() since construction or the
  /// last reset().
  const TcStats& stats_local() const { return stats_; }
  /// Collective: sum over all ranks.
  TcStats stats_global();
  /// Collective: renders stats_global() through tc_stats_table(). Only the
  /// returned table on rank 0 is typically printed.
  Table stats_table() { return tc_stats_table(stats_global()); }

  /// Tasks currently queued on this rank (diagnostics).
  std::uint64_t local_queue_size() const { return queue_->size(); }

  /// Descriptor slot size (header + max body, padded).
  std::size_t slot_bytes() const { return queue_->slot_bytes(); }

  /// The config this rank's queue was built from (steal-half included,
  /// which is fixed for the collection's lifetime).
  const SplitQueue::Config& queue_config() const { return queue_->config(); }

 private:
  friend class ElasticLoop;
  struct Hook;
  struct MetricsHook;
  struct ControlHook;
  struct FaultHook;
  struct DetectorHook;

  /// Builds this phase's hook list and runs the elastic entry. Returns
  /// false when the phase ended while this rank was still parked.
  bool attach_hooks();
  /// Phase exit: the elastic sentinel and the phase time.
  void leave_phase(TimeNs t_begin);
  LoopHook::Top hooks_top(bool idled);
  /// The least next_due of this phase's hooks; kForever with none.
  TimeNs hooks_due(TimeNs now);
  std::uint64_t hooks_idle();
  bool hooks_pending();
  /// Runs one task to completion, charges it to time_working, and offers
  /// surplus work to thieves.
  void execute(std::byte* descriptor);
  /// One steal round (up to steals_per_td_poll victims). Returns true
  /// when it got work, which has then been queued or run.
  bool steal(TimeNs idle_begin);
  /// Charges the idle spell since `since` to searching time.
  void charge_search(TimeNs since);
  /// Emits the coalesced Search event for the spell charged so far.
  void flush_search();
  /// Drains the fault-recovery paths into the local queue: replayed
  /// steal transactions, the queues of dead wards, overflow-stashed
  /// tasks. Returns the tasks recovered.
  std::uint64_t recover(bool inherit_knobs);
  /// Detector-mode false-suspicion recovery: acknowledge the adoption
  /// fence on our queue, re-enter the membership view in a new epoch, and
  /// force our next termination vote black.
  void fence_abort_and_rejoin();

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
  /// Callback table (identical contents on every rank by SPMD discipline).
  CallbackRegistry registry_;
  std::unique_ptr<VictimPolicy> victims_;
  /// This rank's counters; the queue and the detector count into it too.
  TcStats stats_;
  /// Searching time charged since the last Search trace event: one
  /// coalesced event per idle spell instead of one per poll.
  TimeNs search_accum_ = 0;
  /// Slot-sized scratch for padding descriptors; the slot a locally
  /// popped or stolen task runs from.
  std::vector<std::byte> scratch_;
  std::vector<std::byte> exec_buf_;
  /// Dead ranks whose queues this rank adopts (successor(dead) == me), as
  /// of membership epoch ward_epoch_ (~0: not yet computed).
  std::vector<Rank> wards_;
  std::uint64_t ward_epoch_ = ~std::uint64_t{0};
  /// This phase's hooks in slot order, and the built-in ones it is drawn
  /// from.
  std::vector<LoopHook*> hooks_;
  std::unique_ptr<LoopHook> metrics_hook_;
  std::unique_ptr<LoopHook> control_hook_;
  std::unique_ptr<LoopHook> fault_hook_;
  std::unique_ptr<LoopHook> detector_hook_;
  /// Present iff an elastic session was armed at construction.
  std::unique_ptr<ElasticLoop> elastic_;
  LoopHook* extension_ = nullptr;
  std::function<std::vector<std::byte>()> ckpt_writer_;
  std::function<void(Rank, const std::vector<std::byte>&)> ckpt_reader_;
  bool live_ = true;
};

}  // namespace scioto
