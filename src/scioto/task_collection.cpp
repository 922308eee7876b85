#include "scioto/task_collection.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "base/log.hpp"
#include "control/control.hpp"
#include "elastic/elastic.hpp"
#include "elastic/elastic_loop.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

namespace scioto {

namespace {

/// process() warns once per this many idle polls.
constexpr std::uint64_t kIdleWarnPolls = 1000000;

/// The own words a quiet idle poll reads: a sleep may skip polls only
/// while none of them changes.
struct PollWords {
  SplitQueue::Snapshot queue;
  TerminationDetector::Mailbox td;
  bool operator==(const PollWords&) const = default;
};

/// The counter table's row groups: FAULT rows print only when one of them
/// is non-zero.
constexpr bool kFaultGroup_MAIN = false;
constexpr bool kFaultGroup_FAULT = true;

}  // namespace

Table tc_stats_table(const TcStats& s) {
  Table t({"metric", "value"});
  auto add_u64 = [&](const char* name, std::uint64_t v) {
    t.add_row({name, Table::fmt(static_cast<std::int64_t>(v))});
  };
  auto add_ms = [&](const char* name, TimeNs v) {
    t.add_row({name, Table::fmt(static_cast<double>(v) / 1e6, 3)});
  };
  auto add_pct = [&](const char* name, double num, double den) {
    t.add_row({name, Table::fmt(den > 0 ? 100.0 * num / den : 0.0, 1)});
  };
  bool fault = false;
#define SCIOTO_TABLE_FAULT(field, group, ...) \
  fault |= kFaultGroup_##group && s.field != 0;
  SCIOTO_COUNTER_ROWS(SCIOTO_TABLE_FAULT, SCIOTO_TABLE_FAULT, SCIOTO_ROW_SKIP,
                      SCIOTO_ROW_SKIP)
#undef SCIOTO_TABLE_FAULT
#define SCIOTO_TABLE_ROW(field, group, ...) \
  if (fault || !kFaultGroup_##group) add_u64(#field, s.field);
#define SCIOTO_TABLE_TIME(field) add_ms(#field "_ms", s.field);
  SCIOTO_COUNTER_ROWS(SCIOTO_TABLE_ROW, SCIOTO_TABLE_ROW, SCIOTO_ROW_SKIP,
                      SCIOTO_TABLE_TIME)
#undef SCIOTO_TABLE_ROW
#undef SCIOTO_TABLE_TIME
  add_pct("steal_success_pct", static_cast<double>(s.steals),
          static_cast<double>(s.steal_attempts));
  add_pct("working_pct", static_cast<double>(s.time_working),
          static_cast<double>(s.time_total));
  add_pct("searching_pct", static_cast<double>(s.time_searching),
          static_cast<double>(s.time_total));
  return t;
}

// ---- Built-in loop hooks, in charge order ----

struct TaskCollection::Hook : LoopHook {
  explicit Hook(TaskCollection& owner) : tc(owner) {}
  TaskCollection& tc;
};

/// Telemetry pump: under the sim backend the monitor samples in virtual
/// time from here (the designated sampler scrapes; everyone else returns
/// after one comparison). Charge-free, so metrics-on traces stay identical
/// to metrics-off. No-op under threads (wall thread).
struct TaskCollection::MetricsHook final : Hook {
  using Hook::Hook;
  Top top(bool) override {
    metrics::monitor_poll(tc.rt_.me(), tc.rt_.now());
    return Top::Go;
  }
  /// The monitor's shared deadline: the first rank whose top-of-loop
  /// (clock, rank) reaches it samples, sleeping or not.
  TimeNs next_due(TimeNs) override { return metrics::monitor_next_due(); }
};

/// Control pump: a decision epoch at period boundaries. Charge-free and
/// virtual-time driven, so controller-off runs trace byte-identically.
struct TaskCollection::ControlHook final : Hook {
  using Hook::Hook;
  Top top(bool) override {
    const Rank me = tc.rt_.me();
    if (control::poll_due(me, tc.rt_.now())) {
      control::poll_epoch(me, tc.rt_.now(), tc.queue_->shared_size());
    }
    return Top::Go;
  }
  TimeNs next_due(TimeNs) override { return control::next_due(tc.rt_.me()); }
};

/// Fail-stop injection and recovery.
struct TaskCollection::FaultHook final : Hook {
  using Hook::Hook;
  /// Safepoint: injected kills fire only here and at the post-steal
  /// safepoint -- never while holding a lock. Whole-rank stall rules
  /// (stall:rank=,for=) take the rank dark for the whole duration -- no
  /// heartbeats, no queue ops -- which is how the false-suspicion tests
  /// push a live rank past the detector's confirm timeout.
  Top top(bool) override {
    pgas::Runtime& rt = tc.rt_;
    fault::poll_safepoint(rt.me());
    const TimeNs stall = fault::rank_stall_time(rt.me());
    if (stall > 0) {
      const TimeNs t0 = rt.now();
      rt.charge(stall);  // sim backend: virtual time advances
      const TimeNs advanced = rt.now() - t0;
      if (advanced < stall) {
        // Threads backend: charge is a no-op, so stall in wall-clock.
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(stall - advanced));
      }
    }
    return Top::Go;
  }
  /// Adopt work stranded by dead ranks before stealing from live ones.
  std::uint64_t idle() override { return tc.recover(/*inherit_knobs=*/true); }
  /// Recovered tasks parked in the overflow stash are live work the queue
  /// cannot see.
  bool pending() override { return tc.queue_->overflow_pending(); }
  /// This rank's next kill or whole-rank stall. The fault layer wakes
  /// every sleeper at a death, so recovery needs no deadline, except
  /// that a ward peeks its dead ranks' queues with a charged read on
  /// every idle poll and the overflow stash is retried on every poll.
  TimeNs next_due(TimeNs now) override {
    if (!tc.wards_.empty() || tc.queue_->overflow_pending()) {
      return now;
    }
    return fault::next_safepoint_due(tc.rt_.me());
  }
};

/// Heartbeat pump. A rank falsely confirmed dead finds a ward owning (or
/// about to adopt) its queue under a lease fence: it acknowledges the
/// fence, rejoins in a fresh membership epoch, and goes round again --
/// draining nothing twice (see fence_abort_and_rejoin). next_due stays
/// `now`: the confirmation that fences this rank is another rank's
/// write to the membership view, and no op aimed at this rank wakes it.
struct TaskCollection::DetectorHook final : Hook {
  using Hook::Hook;
  Top top(bool) override {
    tc.hb_->poll();
    if (detect::alive(tc.rt_.me())) {
      return Top::Go;
    }
    tc.fence_abort_and_rejoin();
    return Top::Restart;
  }
};

TaskCollection::TaskCollection(pgas::Runtime& rt, TcConfig cfg)
    : rt_(rt),
      cfg_(cfg),
      clos_(rt) {
  SCIOTO_REQUIRE(cfg_.max_task_body >= 0, "negative max_task_body");
  SCIOTO_REQUIRE(cfg_.chunk_size >= 1, "chunk_size must be >= 1");
  SCIOTO_REQUIRE(cfg_.max_tasks_per_rank >= 2, "max_tasks_per_rank too small");
  // SCIOTO_QUEUE once chose between steal protocols. A run that still
  // sets it, to any value, fails by name rather than silently running a
  // protocol it did not ask for.
  if (const char* qm = std::getenv("SCIOTO_QUEUE")) {
    SCIOTO_REQUIRE(false, "SCIOTO_QUEUE='"
                              << qm
                              << "': the SCIOTO_QUEUE knob was removed; the "
                                 "locked split queue is the only steal "
                                 "protocol (unset SCIOTO_QUEUE)");
  }
  if (cfg_.chunk_max == 0) {
    cfg_.chunk_max = cfg_.chunk_size;
    if (control::active()) {
      // Give the controller headroom to raise the steal chunk. active()
      // reads collectively uniform session state, so every rank widens
      // identically (the bound shapes the collectively allocated patch).
      cfg_.chunk_max = std::max(cfg_.chunk_size, 64);
    }
  }
  SCIOTO_REQUIRE(cfg_.chunk_max >= cfg_.chunk_size,
                 "chunk_max " << cfg_.chunk_max << " below chunk_size "
                              << cfg_.chunk_size);

  SplitQueue::Config qc;
  qc.slot_bytes = align_up(
      sizeof(TaskHeader) + static_cast<std::size_t>(cfg_.max_task_body), 8);
  if (trace::lineage::active()) {
    // Collectively uniform (active() is process-global session state, set
    // before the SPMD region): every rank appends the same 24-byte
    // lineage trailer after the padded body. Lineage-off runs keep the
    // exact pre-lineage slot layout -- and therefore identical PGAS
    // transfer sizes and virtual-time charges.
    lineage_off_ = qc.slot_bytes;
    qc.slot_bytes += sizeof(trace::lineage::LineageRec);
    qc.lineage_off = lineage_off_;
  }
  qc.capacity = static_cast<std::uint64_t>(cfg_.max_tasks_per_rank);
  qc.chunk = cfg_.chunk_size;
  qc.chunk_max = cfg_.chunk_max;
  qc.mode = cfg_.queue_mode;
  qc.release_threshold =
      cfg_.release_threshold != 0
          ? cfg_.release_threshold
          : 2 * static_cast<std::uint64_t>(cfg_.chunk_size);
  qc.steal_half = cfg_.steal_half;
  // The queue's live KnobSet seeds from these TcConfig values; from here
  // on the queue and the steal path read through it, so set_knob (and the
  // controller) retune a running collection.
  queue_ = std::make_unique<SplitQueue>(rt_, qc, stats_);
  if (control::active()) {
    control::attach(rt_.me(), &queue_->knobs());
  }

  TerminationDetector::Config tdc;
  tdc.color_optimization = cfg_.color_optimization;
  td_ = std::make_unique<TerminationDetector>(rt_, tdc, stats_);

  if (detect::active()) {
    // Collective: every rank allocates its heartbeat patch together.
    hb_ = std::make_unique<detect::HeartbeatProbe>(rt_);
  }
  if (elastic::active()) {
    elastic_ = std::make_unique<ElasticLoop>(*this);  // collective
  }
  victims_ = std::make_unique<VictimPolicy>(
      rt_.me(), rt_.nprocs(), rt_.machine().cores_per_node,
      cfg_.node_steal_bias, queue_->knobs(),
      Xoshiro256(derive_seed(rt_.seed(), rt_.me(), /*stream=*/0xA11)));
  metrics_hook_ = std::make_unique<MetricsHook>(*this);
  control_hook_ = std::make_unique<ControlHook>(*this);
  fault_hook_ = std::make_unique<FaultHook>(*this);
  detector_hook_ = std::make_unique<DetectorHook>(*this);

  scratch_.resize(qc.slot_bytes);
  steal_buf_.resize(qc.slot_bytes * static_cast<std::size_t>(cfg_.chunk_max));
  exec_buf_.resize(qc.slot_bytes);
  rt_.barrier();
}

TaskCollection::~TaskCollection() = default;

void TaskCollection::destroy() {
  SCIOTO_REQUIRE(live_, "destroy of dead task collection");
  if (control::active()) {
    control::detach(rt_.me());
  }
  queue_->destroy();
  td_->destroy();
  if (hb_) {
    hb_->destroy();
  }
  if (elastic_) {
    elastic_->destroy();
  }
  live_ = false;
}

TaskHandle TaskCollection::register_callback(TaskFn fn) {
  rt_.barrier();
  TaskHandle h = registry_.append(std::move(fn));
  rt_.barrier();
  return h;
}

CloHandle TaskCollection::register_clo(void* local_instance) {
  return clos_.register_object(local_instance);
}

std::int64_t TaskCollection::set_knob(control::Knob k, std::int64_t v) {
  control::KnobSet& ks = queue_->knobs();
  const bool changed = ks.set(k, v);
  if (changed && control::active()) {
    control::republish(rt_.me());
  }
  return ks.get(k);
}

Task TaskCollection::task_create(std::int32_t body_bytes,
                                 TaskHandle handle) const {
  SCIOTO_REQUIRE(
      body_bytes <= cfg_.max_task_body,
      "task body " << body_bytes << " exceeds max_task_body "
                   << cfg_.max_task_body << " given at tc_create time");
  return Task(body_bytes, handle);
}

void TaskCollection::add_raw(Rank where, int affinity,
                             const std::byte* descriptor, std::size_t size) {
  SCIOTO_REQUIRE(where >= 0 && where < rt_.nprocs(),
                 "add to invalid rank " << where);
  SCIOTO_REQUIRE(size >= sizeof(TaskHeader) && size <= slot_bytes(),
                 "task descriptor size " << size
                     << " outside [header, slot] bounds");
  // Pad the descriptor into a slot-sized scratch buffer (copy-in).
  std::memcpy(scratch_.data(), descriptor, size);
  // Stamp creator and affinity into the stored header.
  auto* hdr = reinterpret_cast<TaskHeader*>(scratch_.data());
  hdr->created_by = rt_.me();
  hdr->affinity = affinity;
  if (lineage_off_ != 0) {
    // Birth of the causal record: fresh id, parent = whatever task is
    // executing on this rank right now (0 for root seeds). The spawner
    // records the edge; the executor's ExecSpan closes it.
    trace::lineage::LineageRec rec;
    rec.id = trace::lineage::next_id(rt_.me());
    rec.parent = trace::lineage::current(rt_.me());
    std::memcpy(scratch_.data() + lineage_off_, &rec, sizeof(rec));
    SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::SpawnEdge,
                       static_cast<std::uint32_t>(rec.parent >> 32),
                       static_cast<std::uint32_t>(rec.parent),
                       rec.id);
  }

  bool ok;
  // A task aimed at a dead rank lands locally instead of in dead memory
  // its ward would only have to drain back out.
  if (where == rt_.me() ||
      ((fault::active() || detect::active()) && !detect::alive(where))) {
    ok = queue_->push_local(scratch_.data(), affinity);
    if (ok) {
      stats_.tasks_spawned_local++;
      queue_->release_maybe();
    }
  } else {
    ok = queue_->add_remote(where, scratch_.data());
    if (ok) {
      // A remote add moves work: termination detection must know (§5.2).
      td_->note_lb_op(where);
    }
  }
  if (ok) {
    SCIOTO_METRIC_CTR(rt_.me(), metrics::Ctr::TasksSpawned, 1);
  }
  SCIOTO_REQUIRE(ok, "task collection patch on rank "
                         << where << " is full (max_tasks_per_rank="
                         << cfg_.max_tasks_per_rank << ")");
}

void TaskCollection::execute(std::byte* descriptor) {
  auto* hdr = reinterpret_cast<TaskHeader*>(descriptor);
  const TaskFn& fn = registry_.lookup(hdr->callback);
  TaskContext ctx{*this, *hdr, descriptor + sizeof(TaskHeader), rt_.me()};
  // One duration serves time_working, the trace span and the metrics
  // histogram, so the trace-derived working time reconciles with TcStats
  // exactly.
  const TimeNs t0 = rt_.now();
  SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::TaskBegin, hdr->callback,
                     hdr->affinity, 0);
  // Read the trailer, announce the span (after TaskBegin, so the flow
  // arrow's finish binds inside the task slice), and make this task the
  // current parent for any spawns the callback performs. Saved/restored
  // rather than cleared: the DAG engine's completion hooks can fire
  // further node tasks from inside execute.
  trace::lineage::LineageRec lrec;
  std::uint64_t lineage_prev = 0;
  const bool lineage_on = lineage_off_ != 0;
  if (lineage_on) {
    std::memcpy(&lrec, descriptor + lineage_off_, sizeof(lrec));
    SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::ExecSpan, lrec.hops,
                       hdr->callback, lrec.id);
    lineage_prev = trace::lineage::current(rt_.me());
    trace::lineage::set_current(rt_.me(), lrec.id);
  }
  fn(ctx);
  if (lineage_on) {
    trace::lineage::set_current(rt_.me(), lineage_prev);
  }
  const TimeNs dur = rt_.now() - t0;
  SCIOTO_EVENT(rt_.me(), stats_, TaskEnd, hdr->callback, 0, dur);
  SCIOTO_METRIC_HIST(rt_.me(), metrics::Hist::TaskExecNs,
                     std::max<TimeNs>(dur, 0));
  queue_->release_maybe();
}

std::uint64_t TaskCollection::recover(bool inherit_knobs) {
  // Wards re-form on every membership epoch bump (detector view, oracle
  // fallback when disarmed). Parked (NotJoined) ranks are never wards:
  // their queues are empty and must never be frozen by drain_dead.
  const Rank me = rt_.me();
  const std::uint64_t e = detect::epoch();
  if (e != ward_epoch_) {
    ward_epoch_ = e;
    wards_.clear();
    if (detect::alive_count() != rt_.nprocs()) {
      for (Rank r = 0; r < rt_.nprocs(); ++r) {
        if (!detect::alive(r) && detect::joined(r) &&
            detect::successor(r) == me) {
          wards_.push_back(r);
        }
      }
    }
  }
  std::uint64_t recovered = queue_->recover_open_txns();
  for (Rank d : wards_) {
    const std::uint64_t adopted = queue_->drain_dead(d);
    recovered += adopted;
    if (adopted > 0 && inherit_knobs && control::active()) {
      // Adopted work inherits the victim's last published knobs: the
      // dead rank's tuning reflected the workload the tasks came from.
      control::inherit(me, d);
    }
  }
  return recovered + queue_->flush_overflow();
}

void TaskCollection::fence_abort_and_rejoin() {
  // Acknowledging the fence takes our own queue lock, so this blocks
  // until any in-flight adoption finishes; the fence word then reads the
  // (epoch, adopter) lease that evicted us. fence_ack also performs the
  // detect::rejoin() under that same lock -- clearing the fence and
  // rejoining must be one critical section, or a ward that passed its
  // alive() re-check could install a fence between them that nobody ever
  // clears. Nothing is drained twice: our unlocked push/pop CASes failed
  // from the moment the adopter froze priv_tail (bounced pushes sit in
  // the overflow stash, rank-local memory the adopter never scoops), and
  // the adopter's under-lock alive() re-check blocks any adoption
  // attempted after the rejoin.
  std::uint64_t fence = queue_->fence_ack();
  Rank adopter =
      fence != 0 ? static_cast<Rank>((fence & 0xffff) - 1) : kNoRank;
  detect::note_fence_abort();
  SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::FenceAbort,
                     adopter == kNoRank ? -1 : adopter,
                     static_cast<long long>(fence >> 16), 0);
  if (hb_) {
    hb_->reset_observations();
  }
  // Re-entering with (possibly) stashed work: the next vote must be black
  // so no in-flight wave concludes all-white over it.
  td_->mark_self_black();
}

bool TaskCollection::attach_hooks() {
  const bool ft = fault::active();
  const bool elastic_on = elastic_ && elastic::active();
  // Charge order: telemetry and control first (charge-free samplers),
  // then the fault safepoint, the detector, and the elastic pump; the DAG
  // engine's extension last. One list serves every slot, so idle() and
  // pending() run fault before DAG.
  const std::pair<bool, LoopHook*> charge_order[] = {
      {SCIOTO_METRICS_ON(), metrics_hook_.get()},
      {control::active(), control_hook_.get()},
      {ft, fault_hook_.get()},
      {hb_ != nullptr, detector_hook_.get()},
      {elastic_on, elastic_.get()},
      {extension_ != nullptr, extension_},
  };
  hooks_.clear();
  for (const auto& [armed, hook] : charge_order) {
    if (armed) {
      hooks_.push_back(hook);
    }
  }
  // Elastic admissions move the membership epoch without a fault session,
  // so the victim pool watches it whenever either is live.
  victims_->watch_membership(ft || elastic_on);
  return !elastic_on || elastic_->enter();
}

LoopHook::Top TaskCollection::hooks_top(bool idled) {
  for (LoopHook* h : hooks_) {
    const LoopHook::Top t = h->top(idled);
    if (t != LoopHook::Top::Go) {
      return t;
    }
  }
  return LoopHook::Top::Go;
}

TimeNs TaskCollection::hooks_due(TimeNs now) {
  TimeNs due = LoopHook::kForever;
  for (LoopHook* h : hooks_) {
    due = std::min(due, h->next_due(now));
  }
  return due;
}

std::uint64_t TaskCollection::hooks_idle() {
  for (LoopHook* h : hooks_) {
    if (const std::uint64_t made = h->idle()) {
      return made;
    }
  }
  return 0;
}

bool TaskCollection::hooks_pending() {
  for (LoopHook* h : hooks_) {
    if (h->pending()) {
      return true;
    }
  }
  return false;
}

void TaskCollection::charge_search(TimeNs since) {
  const TimeNs spell = rt_.now() - since;
  stats_.time_searching += spell;
  search_accum_ += spell;
}

void TaskCollection::flush_search() {
  if (search_accum_ > 0) {
    SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::Search, 0, 0, search_accum_);
    SCIOTO_METRIC_HIST(rt_.me(), metrics::Hist::SearchNs, search_accum_);
    search_accum_ = 0;
  }
}

bool TaskCollection::steal(TimeNs idle_begin) {
  const Rank me = rt_.me();
  const bool txn = fault::active();
  std::byte* buf = steal_buf_.data();
  for (int attempt = 0; attempt < cfg_.steals_per_td_poll; ++attempt) {
    Rank victim = victims_->pick();
    if (victim == kNoRank) {
      return false;
    }
    int got = queue_->peek_shared(victim) == 0
                  ? 0
                  : queue_->steal_from(victim, buf);
    if (got > 0 && txn) {
      // This is the window the victim-side transaction log protects: the
      // chunk is copied out but not yet requeued. A kill here loses only
      // our private copy -- the victim (or its ward) replays the chunk
      // from the log.
      fault::poll_safepoint(me);
      if (hb_ && !detect::alive(me)) {
        // Falsely confirmed dead mid-steal: the victim's ward may be
        // replaying our open transaction right now. The txn record
        // arbitrates -- winning the 1->0 reclaim keeps the chunk ours
        // (the ward's 1->2 claim can no longer succeed, and our later
        // commit_steal finds the record already closed); losing means the
        // ward replayed it and our copy must be discarded, or the chunk
        // would run twice.
        bool ours = queue_->reclaim_txn(victim);
        fence_abort_and_rejoin();
        if (!ours) {
          got = 0;
        }
      }
    }
    if (got == 0) {
      continue;
    }
    if (rt_.machine().cores_per_node > 1 &&
        rt_.machine().same_node(me, victim)) {
      stats_.steals_same_node++;
    }
    td_->note_lb_op(victim);
    // The search ends with the successful steal: charge it now, before
    // the stolen task runs, so execution time lands only in time_working
    // (working and searching partition the phase).
    charge_search(idle_begin);
    flush_search();
    // Under a fault session the whole chunk is requeued, then the
    // transaction closes. No safepoint separates the requeue from the
    // commit, so the chunk is either fully on our queue (committed) or
    // fully replayable from the victim's log -- never both, never
    // neither: completion is exactly-once. Otherwise all but the first
    // stolen task are requeued and that one runs straight from the steal
    // buffer. This guarantees progress per successful steal: requeued
    // tasks are instantly stealable again (always so under no-split
    // queues), and without it two mutually stealing ranks can bounce a
    // task chunk forever -- a genuine livelock, not a performance
    // nicety.
    for (int i = txn ? 0 : 1; i < got; ++i) {
      bool ok = queue_->push_local(
          buf + static_cast<std::size_t>(i) * slot_bytes(), kAffinityHigh);
      SCIOTO_CHECK_MSG(ok, "local queue overflow requeueing steal");
    }
    if (txn) {
      queue_->commit_steal(victim);
    } else {
      execute(buf);
    }
    return true;
  }
  return false;
}

void TaskCollection::process() {
  // One barrier separates everyone's local detector rearm from the first
  // token traffic; the exit is collective by construction (the root's
  // termination broadcast releases every rank), so no closing barrier is
  // needed -- this keeps tc_process within a small factor of one barrier
  // for an empty phase (Figure 4).
  td_->reset_local();
  rt_.barrier();
  std::byte* exec_buf = exec_buf_.data();
  const bool steals_on = cfg_.load_balancing && rt_.nprocs() > 1;
  const TimeNs t_begin = rt_.now();
  SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::PhaseBegin, 0, 0, 0);
  const bool joined = attach_hooks();
  // Quiet idle polls sleep (DESIGN.md, "Idle sleep") until the armed
  // hooks' next deadline. Two loops poll instead: the threads backend has
  // no virtual clock to sleep on, and under NoSplit every pop takes the
  // queue lock, which other ranks' lock ops contend with.
  const bool sleeps =
      rt_.simulated() && cfg_.queue_mode != QueueMode::NoSplit;
  auto poll_words = [&] {
    return PollWords{queue_->debug_snapshot(rt_.me()), td_->mailbox()};
  };
  search_accum_ = 0;
  // Steal backoff state: after each empty-handed steal round, double the
  // number of cheap TD polls before the next round (capped).
  int consecutive_failed_steals = 0;
  int polls_until_steal = 0;
  std::uint64_t idle_iterations = 0;  // watchdog for diagnostics
  bool idled = false;  // empty-handed since the last full top() pass

  if (joined) for (;;) {
    // 0. Subsystem hooks: telemetry and control pumps, the fault
    // safepoint, the heartbeat detector, the elastic pump.
    const LoopHook::Top top = hooks_top(idled);
    if (top == LoopHook::Top::Restart) {
      continue;
    }
    if (top == LoopHook::Top::Leave) {
      break;
    }
    idled = false;
    // 1. Drain local work (head of the queue = highest affinity).
    if (queue_->pop_local(exec_buf)) {
      flush_search();
      execute(exec_buf);
      consecutive_failed_steals = 0;
      polls_until_steal = 0;
      continue;
    }
    // 2. Reclaim work parked in our shared portion.
    if (queue_->reacquire() > 0) {
      continue;
    }

    // 3. Idle: interleave steal attempts with termination detection.
    const TimeNs idle_begin = rt_.now();
    victims_->refresh();
    // 3a. Work a hook re-materialized locally without a steal (recovered
    // from dead ranks, parked dataflow nodes whose gates opened): our
    // next vote must be black, or the wave in flight could conclude
    // all-white while these tasks wait to run.
    if (hooks_idle() > 0) {
      td_->mark_self_black();
      charge_search(idle_begin);
      continue;
    }
    // 3b. Steal, backing off after empty-handed rounds.
    if (steals_on && polls_until_steal <= 0) {
      if (steal(idle_begin)) {
        consecutive_failed_steals = 0;
        polls_until_steal = 0;
        continue;  // searching time already charged before the task ran
      }
      ++consecutive_failed_steals;
      if (cfg_.steal_backoff_max > 0) {
        int shift = std::min(consecutive_failed_steals, 16);
        polls_until_steal = std::min(1 << shift, cfg_.steal_backoff_max);
      }
    } else {
      --polls_until_steal;
    }
    idled = true;
    // 3c. Termination detection. Work a hook holds outside the queues
    // keeps our vote black until it runs.
    if (hooks_pending()) {
      td_->mark_self_black();
    }
    if (td_->step() == TerminationDetector::Status::Terminated) {
      charge_search(idle_begin);
      flush_search();
      break;
    }
    if (sleeps && td_->last_step_quiet() && queue_->empty()) {
      // Quiet poll: until another rank touches us, each next iteration
      // would pop nothing, attempt no steal, step the detector quietly
      // and relax again -- so sleep through them, up to the poll where a
      // steal is due, the watchdog below would warn, or an armed hook's
      // deadline falls (one already due skips nothing), and account the
      // skipped ones (their searching time is charged below).
      const TimeNs due =
          hooks_.empty() ? LoopHook::kForever : hooks_due(rt_.now());
      auto polls = static_cast<std::int64_t>(
          kIdleWarnPolls - 1 - idle_iterations % kIdleWarnPolls);
      if (steals_on) {
        polls = std::min<std::int64_t>(polls, polls_until_steal);
      }
      polls = std::min(polls, td_->skippable_steps());
      const PollWords before = poll_words();
      const pgas::Backend::Slept slept =
          rt_.relax_sleep(td_->step_charge(), polls, due);
      // A deadline wake means no remote op reached us, so the words must
      // not have moved: a write that skipped Engine::wake fails here.
      SCIOTO_CHECK_MSG(!slept.deadline || poll_words() == before,
                       "rank " << rt_.me()
                               << " slept to its deadline over a remote "
                                  "write that issued no wake");
      polls_until_steal -= static_cast<int>(slept.polls);
      td_->skip_steps(slept.polls);
      idle_iterations += static_cast<std::uint64_t>(slept.polls);
    } else {
      rt_.relax();
    }
    charge_search(idle_begin);
    if (++idle_iterations % kIdleWarnPolls == 0) {
      SCIOTO_WARN("rank " << rt_.me() << " idle for " << idle_iterations
                          << " iterations: queue=" << queue_->size()
                          << " (priv=" << queue_->private_size()
                          << " shared=" << queue_->shared_size()
                          << ") executed=" << stats_.tasks_executed
                          << " steals=" << stats_.steals);
    }
  }

  leave_phase(t_begin);
}

void TaskCollection::leave_phase(TimeNs t_begin) {
  if (elastic_) {
    elastic_->leave();
  }
  SCIOTO_EVENT(rt_.me(), stats_, PhaseEnd, 0, 0, rt_.now() - t_begin);
}

void TaskCollection::reset() {
  queue_->reset_collective();
  td_->reset();
  if (elastic_) {
    // Re-zeroed only here, after the collective barriers above: every
    // rank has left the previous phase, so nobody is still polling the
    // phase-over sentinel.
    elastic_->reset();
  }
  stats_ = TcStats{};
  victims_->forget();
  ward_epoch_ = ~std::uint64_t{0};
  rt_.barrier();
}

TcStats TaskCollection::stats_global() {
  // Element-wise allreduce of the POD counter block (one collective
  // slot); the barrier ahead of it is part of the virtual time every
  // caller has always paid.
  const TcStats local = stats_local();
  rt_.barrier();
  return rt_.allreduce(local, [](TcStats a, const TcStats& b) {
    return a += b;
  });
}

}  // namespace scioto
