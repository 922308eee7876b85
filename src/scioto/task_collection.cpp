#include "scioto/task_collection.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <thread>

#include "base/log.hpp"
#include "base/sha1.hpp"
#include "control/control.hpp"
#include "elastic/elastic.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "sim/engine.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

namespace scioto {

namespace {

// The elastic control patch (src/elastic): one cache line per rank
// carrying the join and checkpoint protocol words. Cross-rank access goes
// through the runtime's failure-aware word ops; local access through
// atomic_ref, like the termination mailboxes.
struct alignas(64) ElasticCtl {
  std::uint64_t join_req = 0;     // parked rank requests admission
  std::uint64_t join_knock = 0;   // doorbell bitmask: joiners OR their rank
                                  // bit in; bit 63 = "rank >= 63, sweep"
  std::uint64_t quiesce_gen = 0;  // arrived-at ckpt generation (kPhaseOver
                                  // once this rank left the phase)
  std::uint64_t ckpt_done = 0;    // completed ckpt generation (the leader's
                                  // word doubles as the manifest gate)
  std::uint64_t ckpt_ndesc = 0;   // descriptors in this rank's last part
};

/// Doorbell bit for rank r: ranks that fit the word carry their identity
/// in the knock itself; every higher rank shares the overflow bit and is
/// found by a remote sweep of the parked tail.
constexpr std::uint64_t knock_bit(Rank r) {
  return r < 63 ? std::uint64_t{1} << r : std::uint64_t{1} << 63;
}

/// Sentinel arrival value: "this rank left the phase and will never have
/// work again" -- quiesce waits and parked ranks both key off it.
constexpr std::uint64_t kPhaseOver = ~std::uint64_t{0};

template <class T>
std::atomic_ref<T> aref(T& word) {
  return std::atomic_ref<T>(word);
}

ElasticCtl* ectl(pgas::Runtime& rt, pgas::SegId seg, Rank r) {
  return reinterpret_cast<ElasticCtl*>(rt.seg_ptr(seg, r));
}

std::string ckpt_part_path(const std::string& base, Rank r) {
  return base + ".r" + std::to_string(r);
}

constexpr char kCkptMagic[8] = {'S', 'C', 'K', 'P', 'T', '1', '\n', '\0'};

/// process() warns once per this many idle polls.
constexpr std::uint64_t kIdleWarnPolls = 1000000;

/// The own words a quiet idle poll reads: a sleep may skip polls only
/// while none of them changes.
struct PollWords {
  SplitQueue::Snapshot queue;
  TerminationDetector::Mailbox td;
  bool operator==(const PollWords&) const = default;
};

}  // namespace

TcStats& TcStats::operator+=(const TcStats& o) {
  tasks_executed += o.tasks_executed;
  tasks_spawned_local += o.tasks_spawned_local;
  tasks_spawned_remote += o.tasks_spawned_remote;
  steals += o.steals;
  steals_same_node += o.steals_same_node;
  steal_attempts += o.steal_attempts;
  tasks_stolen += o.tasks_stolen;
  releases += o.releases;
  reacquires += o.reacquires;
  td_waves_voted += o.td_waves_voted;
  td_black_votes += o.td_black_votes;
  td_marks_sent += o.td_marks_sent;
  td_marks_skipped += o.td_marks_skipped;
  tasks_recovered += o.tasks_recovered;
  steals_aborted += o.steals_aborted;
  op_retries += o.op_retries;
  td_resplices += o.td_resplices;
  steals_lock_busy += o.steals_lock_busy;
  steal_retargets += o.steal_retargets;
  owner_lock_acqs += o.owner_lock_acqs;
  reacquires_fast += o.reacquires_fast;
  time_total += o.time_total;
  time_working += o.time_working;
  time_searching += o.time_searching;
  return *this;
}

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
  add_u64("tasks_executed", s.tasks_executed);
  add_u64("tasks_spawned_local", s.tasks_spawned_local);
  add_u64("tasks_spawned_remote", s.tasks_spawned_remote);
  add_u64("steals", s.steals);
  add_u64("steals_same_node", s.steals_same_node);
  add_u64("steal_attempts", s.steal_attempts);
  add_u64("tasks_stolen", s.tasks_stolen);
  add_u64("releases", s.releases);
  add_u64("reacquires", s.reacquires);
  add_u64("td_waves_voted", s.td_waves_voted);
  add_u64("td_black_votes", s.td_black_votes);
  add_u64("td_marks_sent", s.td_marks_sent);
  add_u64("td_marks_skipped", s.td_marks_skipped);
  if (s.tasks_recovered != 0 || s.steals_aborted != 0 || s.op_retries != 0 ||
      s.td_resplices != 0) {
    add_u64("tasks_recovered", s.tasks_recovered);
    add_u64("steals_aborted", s.steals_aborted);
    add_u64("op_retries", s.op_retries);
    add_u64("td_resplices", s.td_resplices);
  }
  // Adaptive steal engine rows appear only when one of the knobs was on,
  // so default-config tables are unchanged.
  if (s.steals_lock_busy != 0 || s.steal_retargets != 0 ||
      s.reacquires_fast != 0) {
    add_u64("steals_lock_busy", s.steals_lock_busy);
    add_u64("steal_retargets", s.steal_retargets);
    add_u64("owner_lock_acqs", s.owner_lock_acqs);
    add_u64("reacquires_fast", s.reacquires_fast);
    t.add_row({"mean_steal_chunk",
               Table::fmt(s.steals > 0
                              ? static_cast<double>(s.tasks_stolen) /
                                    static_cast<double>(s.steals)
                              : 0.0,
                          2)});
  }
  add_ms("time_total_ms", s.time_total);
  add_ms("time_working_ms", s.time_working);
  add_ms("time_searching_ms", s.time_searching);
  add_pct("steal_success_pct", static_cast<double>(s.steals),
          static_cast<double>(s.steal_attempts));
  add_pct("working_pct", static_cast<double>(s.time_working),
          static_cast<double>(s.time_total));
  add_pct("searching_pct", static_cast<double>(s.time_searching),
          static_cast<double>(s.time_total));
  return t;
}

TaskCollection::TaskCollection(pgas::Runtime& rt, TcConfig cfg)
    : rt_(rt),
      cfg_(cfg),
      clos_(rt),
      rng_(derive_seed(rt.seed(), rt.me(), /*stream=*/0xA11)) {
  SCIOTO_REQUIRE(cfg_.max_task_body >= 0, "negative max_task_body");
  SCIOTO_REQUIRE(cfg_.chunk_size >= 1, "chunk_size must be >= 1");
  SCIOTO_REQUIRE(cfg_.max_tasks_per_rank >= 2, "max_tasks_per_rank too small");
  // SCIOTO_QUEUE=locked|aborting|lockfree selects the steal protocol at
  // construction time (collectively uniform: every rank reads the same
  // environment). It overrides the configured mode so existing programs
  // can A/B the lock-free path without a rebuild.
  if (const char* qm = std::getenv("SCIOTO_QUEUE")) {
    const std::string_view v(qm);
    if (v == "locked") {
      cfg_.queue_mode = QueueMode::Split;
      cfg_.aborting_steals = false;
    } else if (v == "aborting") {
      cfg_.queue_mode = QueueMode::Split;
      cfg_.aborting_steals = true;
    } else if (v == "lockfree") {
      cfg_.queue_mode = QueueMode::LockFree;
      cfg_.aborting_steals = false;  // CAS steals never block on a lock
    } else if (!v.empty()) {
      SCIOTO_REQUIRE(false, "SCIOTO_QUEUE: unknown mode '"
                                << qm
                                << "' (expected locked|aborting|lockfree)");
    }
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
  qc.aborting_steals = cfg_.aborting_steals;
  qc.adaptive_chunk = cfg_.adaptive_steal;
  qc.owner_fastpath = cfg_.owner_fastpath;
  qc.deferred_steal_copy = cfg_.deferred_steal_copy;
  // The queue's live KnobSet seeds from these TcConfig values; from here
  // on the queue and the steal path read through it, so set_knob (and the
  // controller) retune a running collection.
  queue_ = std::make_unique<SplitQueue>(rt_, qc);
  queue_->knobs().set(control::Knob::RetargetBudget, cfg_.steal_retarget_max);
  if (control::active()) {
    control::attach(rt_.me(), &queue_->knobs());
  }

  TerminationDetector::Config tdc;
  tdc.color_optimization = cfg_.color_optimization;
  td_ = std::make_unique<TerminationDetector>(rt_, tdc);

  if (detect::active()) {
    // Collective: every rank allocates its heartbeat patch together.
    hb_ = std::make_unique<detect::HeartbeatProbe>(rt_);
  }
  if (elastic::active()) {
    // Collective: the elastic control patch (join requests, quiesce
    // arrivals, checkpoint progress). Rank 0's placement-init is ordered
    // before first use by the constructor's trailing barrier.
    eseg_ = rt_.seg_alloc(sizeof(ElasticCtl));
    if (rt_.me() == 0) {
      for (Rank r = 0; r < rt_.nprocs(); ++r) {
        new (rt_.seg_ptr(eseg_, r)) ElasticCtl();
      }
    }
  }

  scratch_.resize(qc.slot_bytes);
  steal_buf_.resize(qc.slot_bytes * static_cast<std::size_t>(cfg_.chunk_max));
  exec_buf_.resize(qc.slot_bytes);
  rt_.barrier();
}

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
  if (eseg_ >= 0) {
    rt_.seg_free(eseg_);
    eseg_ = -1;
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
  if (where == rt_.me()) {
    ok = queue_->push_local(scratch_.data(), affinity);
    if (ok) {
      stats_.tasks_spawned_local++;
      queue_->release_maybe();
    }
  } else if ((fault::active() || detect::active()) && !detect::alive(where)) {
    // Redirect: a task aimed at a dead rank lands locally instead of in
    // dead memory its ward would only have to drain back out.
    ok = queue_->push_local(scratch_.data(), affinity);
    if (ok) {
      stats_.tasks_spawned_local++;
      queue_->release_maybe();
    }
  } else {
    ok = queue_->add_remote(where, scratch_.data());
    if (ok) {
      stats_.tasks_spawned_remote++;
      SCIOTO_METRIC_CTR(rt_.me(), metrics::Ctr::RemoteSpawns, 1);
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
  const TimeNs metrics_t0 = SCIOTO_METRICS_ON() ? rt_.now() : 0;
  // Same clock reads the process() loop uses for time_working, so the
  // trace-derived working time reconciles with TcStats exactly under sim.
  const bool tracing = trace::active();
  const TimeNs trace_t0 = tracing ? rt_.now() : 0;
  if (tracing) {
    trace::record(rt_.me(), trace::Ev::TaskBegin, hdr->callback,
                  hdr->affinity);
  }
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
  if (tracing) {
    trace::record(rt_.me(), trace::Ev::TaskEnd, hdr->callback, 0,
                  rt_.now() - trace_t0);
  }
  stats_.tasks_executed++;
  SCIOTO_METRIC_CTR(rt_.me(), metrics::Ctr::TasksExecuted, 1);
  if (SCIOTO_METRICS_ON()) {
    metrics::hist_record(rt_.me(), metrics::Hist::TaskExecNs,
                         static_cast<std::uint64_t>(
                             std::max<TimeNs>(rt_.now() - metrics_t0, 0)));
  }
}

void TaskCollection::refresh_membership() {
  // Membership through the detector's view (oracle fallback when
  // disarmed): ward assignments and the victim pool re-form on every
  // epoch bump -- deaths, rejoins of falsely-suspected ranks, and elastic
  // admissions alike. Parked (NotJoined) ranks are neither victims nor
  // wards: their queues are empty and must never be frozen by drain_dead.
  // While every rank is alive the view is full: there are no wards, and
  // pick_victim draws "every rank but me" arithmetically, so the lists
  // are built only after a death or while ranks are parked.
  std::uint64_t e = detect::epoch();
  if (e == epoch_seen_) {
    return;
  }
  epoch_seen_ = e;
  wards_.clear();
  alive_others_.clear();
  const int n = rt_.nprocs();
  full_view_ = detect::alive_count() == n;
  if (full_view_) {
    return;
  }
  for (Rank r = 0; r < n; ++r) {
    if (detect::alive(r)) {
      if (r != rt_.me()) {
        alive_others_.push_back(r);
      }
    } else if (detect::joined(r) && detect::successor(r) == rt_.me()) {
      wards_.push_back(r);
    }
  }
}

void TaskCollection::fence_abort_and_rejoin() {
  // Acknowledging the fence takes our own queue lock, so this blocks
  // until any in-flight adoption finishes; the fence word then reads the
  // (epoch, adopter) lease that evicted us. fence_ack also performs the
  // detect::rejoin() under that same lock -- clearing the fence and
  // rejoining must be one critical section, or a ward that passed its
  // alive() re-check could install a fence between them that nobody ever
  // clears. Nothing is drained twice: our lock-free push/pop CASes failed
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

void TaskCollection::process() {
  // One barrier separates everyone's local detector rearm from the first
  // token traffic; the exit is collective by construction (the root's
  // termination broadcast releases every rank), so no closing barrier is
  // needed -- this keeps tc_process within a small factor of one barrier
  // for an empty phase (Figure 4).
  td_->reset_local();
  rt_.barrier();
  TcStats& st = stats_;
  std::byte* exec_buf = exec_buf_.data();
  std::byte* steal_buf = steal_buf_.data();
  const int n = rt_.nprocs();
  const bool ft = fault::active();
  const bool elastic_on = elastic::active() && eseg_ >= 0;
  // Elastic admissions move the membership epoch without a fault session,
  // so the ward/victim-pool refresh watches it whenever either is live.
  const bool pool = ft || elastic_on;
  const bool steals_on = cfg_.load_balancing && n > 1;
  // Quiet idle polls sleep under sim (DESIGN.md, "Idle sleep") unless a
  // subsystem that pumps from this loop or reads global state in it is
  // armed, or every pop takes the queue lock (NoSplit).
  const bool can_sleep = rt_.simulated() && !pool && !detect::active() &&
                         !SCIOTO_METRICS_ON() && !control::active() &&
                         !idle_hook_ && !pending_hook_ &&
                         cfg_.queue_mode != QueueMode::NoSplit;
  auto poll_words = [&] {
    return PollWords{queue_->debug_snapshot(rt_.me()), td_->mailbox()};
  };
  const TimeNs t_begin = rt_.now();
  SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::PhaseBegin, 0, 0, 0);
  bool parked_out = false;  // phase ended while this rank was still parked
  std::uint64_t pump_iter = 0;
  bool pump_now = false;  // set by idle iterations; see the pump below
  if (elastic_on && !restore_done_) {
    restore_done_ = true;
    const std::string rpath = elastic::restore_path();
    if (!rpath.empty()) {
      // Collective: both branches are uniform (session config + a
      // per-instance flag that starts false on every rank).
      restore_from(rpath);
      rt_.barrier();  // everyone's share is queued before stealing starts
    }
  }
  if (elastic_on && !detect::joined(rt_.me())) {
    if (parked_wait(st)) {
      td_->arm_join_white();  // first vote white; see termination.hpp
    } else {
      parked_out = true;
    }
  }
  TimeNs idle_begin = 0;
  // Searching time accumulated since the last Search trace event; one
  // coalesced event is emitted per idle spell (at the transition back to
  // work or at termination) instead of one per poll iteration.
  TimeNs search_accum = 0;
  // Steal backoff state: after each empty-handed steal round, double the
  // number of cheap TD polls before the next round (capped).
  int consecutive_failed_steals = 0;
  int polls_until_steal = 0;
  std::uint64_t idle_iterations = 0;  // watchdog for diagnostics

  if (!parked_out) for (;;) {
    // Telemetry pump: under the sim backend the monitor samples in virtual
    // time from here (the designated sampler scrapes; everyone else
    // returns after one comparison). Charge-free, so metrics-on traces
    // stay identical to metrics-off. No-op under threads (wall thread).
    if (SCIOTO_METRICS_ON()) {
      metrics::monitor_poll(rt_.me(), rt_.now());
    }
    // Control pump: when a controller is armed, run a local decision epoch
    // (or apply the global planner's pending targets) at period boundaries.
    // Charge-free and virtual-time driven, so controller-off runs -- and
    // builds with the gate off -- trace byte-identically.
    if (control::active() && control::poll_due(rt_.me(), rt_.now())) {
      control::poll_epoch(rt_.me(), rt_.now(), queue_->shared_size());
    }
    // 0. Safepoint: injected fail-stop kills fire only here and at the
    // post-steal safepoint below -- never while holding a lock.
    if (ft) {
      fault::poll_safepoint(rt_.me());
      // Whole-rank stall rules (stall:rank=,for=): the rank goes dark for
      // the whole duration -- no heartbeats, no queue ops -- which is how
      // the false-suspicion tests push a live rank past the detector's
      // confirm timeout.
      TimeNs stall = fault::rank_stall_time(rt_.me());
      if (stall > 0) {
        TimeNs t0 = rt_.now();
        rt_.charge(stall);  // sim backend: virtual time advances
        TimeNs advanced = rt_.now() - t0;
        if (advanced < stall) {
          // Threads backend: charge is a no-op, so stall in wall-clock.
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(stall - advanced));
        }
      }
    }
    if (hb_) {
      hb_->poll();
      if (!detect::alive(rt_.me())) {
        // We were falsely confirmed dead: a ward owns (or is about to
        // adopt) our queue under a lease fence. Acknowledge the fence,
        // rejoin in a fresh membership epoch, and go around -- draining
        // nothing twice (see fence_abort_and_rejoin).
        fence_abort_and_rejoin();
        continue;
      }
    }
    // Elastic pump: admitter scan + checkpoint trigger, cadence-gated so
    // the common path costs one branch, and run while busy too -- a fleet
    // cannot quiesce if only its idle ranks look for the rendezvous. Idle
    // iterations force the pump (pump_now): they end in relax(), and on a
    // wall-clock backend that yield stretches under thread starvation, so
    // the 64-iteration gate could sit on a rung doorbell longer than the
    // rest of the phase lasts. pump_iter stays monotonic either way -- it
    // doubles as the poll count threads-backend ckpt after= rules count.
    if (elastic_on && ((pump_iter++ & 63u) == 0 || pump_now)) {
      pump_now = false;
      elastic_admit_scan();
      std::uint64_t target = elastic::ckpt_target_gen(
          sim::current_virtual_time(),
          static_cast<int>(std::min<std::uint64_t>(pump_iter, 1u << 30)));
      if (target > ckpt_gen_done_) {
        bool wrote = quiesce_and_checkpoint(target, st);
        if (wrote && elastic::halt_after_ckpt()) {
          break;  // restart story: snapshot durable, leave the phase
        }
      }
    }
    // 1. Drain local work (head of the queue = highest affinity).
    if (queue_->pop_local(exec_buf)) {
      if (search_accum > 0) {
        SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::Search, 0, 0, search_accum);
        SCIOTO_METRIC_HIST(rt_.me(), metrics::Hist::SearchNs, search_accum);
        search_accum = 0;
      }
      TimeNs t0 = rt_.now();
      execute(exec_buf);
      st.time_working += rt_.now() - t0;
      queue_->release_maybe();
      consecutive_failed_steals = 0;
      polls_until_steal = 0;
      continue;
    }
    // 2. Reclaim work parked in our shared portion.
    if (queue_->reacquire() > 0) {
      continue;
    }

    // 3. Idle: interleave steal attempts with termination detection.
    idle_begin = rt_.now();

    // 3a. Fault recovery: adopt work stranded by dead ranks before trying
    // to steal from live ones.
    if (pool) {
      refresh_membership();
    }
    if (ft) {
      std::uint64_t recovered = queue_->recover_open_txns();
      for (Rank d : wards_) {
        std::uint64_t adopted = queue_->drain_dead(d);
        recovered += adopted;
        if (adopted > 0 && control::active()) {
          // Adopted work inherits the victim's last published knobs: the
          // dead rank's tuning reflected the workload the tasks came from.
          control::inherit(rt_.me(), d);
        }
      }
      recovered += queue_->flush_overflow();
      if (recovered > 0) {
        // Recovered work re-materialized locally without a steal: our next
        // vote must still be black, or the wave it rode in on could
        // conclude all-white while these tasks wait to run.
        td_->mark_self_black();
        TimeNs spell = rt_.now() - idle_begin;
        st.time_searching += spell;
        search_accum += spell;
        continue;
      }
    }

    // 3b. Scheduler extension: parked dataflow nodes whose gates opened are
    // re-injected by the DAG engine's idle hook. Like fault recovery above,
    // work re-materialized locally without a steal must keep our next vote
    // black, or the wave in flight could conclude all-white over it.
    if (idle_hook_) {
      std::uint64_t injected = idle_hook_();
      if (injected > 0) {
        td_->mark_self_black();
        TimeNs spell = rt_.now() - idle_begin;
        st.time_searching += spell;
        search_accum += spell;
        continue;
      }
    }

    bool got_work = false;
    bool attempted = false;
    if (cfg_.load_balancing && n > 1 && polls_until_steal <= 0) {
      attempted = true;
      const int cores = rt_.machine().cores_per_node;
      // Victim selection, shared by the first aim of each attempt and by
      // busy-abort re-targeting. `avoid` deterministically shifts a repeat
      // pick to the next candidate (no extra RNG draws, so default-config
      // runs consume the stream exactly as before).
      auto pick_victim = [&](Rank avoid) -> Rank {
        // §8 multicore enhancement: optionally prefer a victim sharing our
        // node, whose queue we can raid through shared memory.
        Rank victim = kNoRank;
        if (cfg_.node_steal_bias > 0 && cores > 1 &&
            rng_.bernoulli(cfg_.node_steal_bias)) {
          Rank node_base = (rt_.me() / cores) * cores;
          int node_sz = std::min(cores, n - node_base);
          if (node_sz > 1) {
            victim = node_base + static_cast<Rank>(rng_.next_below(
                                     static_cast<std::uint64_t>(node_sz - 1)));
            if (victim >= rt_.me()) {
              ++victim;
            }
          }
        }
        if (pool && victim != kNoRank && !detect::alive(victim)) {
          victim = kNoRank;  // node bias picked a dead/parked rank; resample
        }
        // Restricted victim set (control plane): with the victim_set knob
        // at k > 0, aim at the k deepest ranks from the monitor digest
        // (the controller sets this under sustained imbalance -- blind
        // uniform choice finds one deep rank among n with probability
        // 1/(n-1), and every miss inflates the steal backoff). Without a
        // digest (knob set via the C API, no control session) fall back
        // to the next k ranks in ring order. The extra RNG draw happens
        // only when the knob is armed, so default-config runs consume the
        // stream exactly as before. A dead pick under fault tolerance
        // falls through to the alive-pool sampling below.
        const int vset = static_cast<int>(
            queue_->knobs().get(control::Knob::VictimSetSize));
        if (victim == kNoRank && vset > 0 && n > 1) {
          Rank hotpool[control::kMaxHotVictims];
          int npool = 0;
          Rank hot[control::kMaxHotVictims];
          int nhot = control::hot_victims(hot);
          for (int i = 0; i < nhot && npool < vset; ++i) {
            if (hot[i] == rt_.me()) continue;
            if (pool && !detect::alive(hot[i])) continue;
            hotpool[npool++] = hot[i];
          }
          if (npool > 0) {
            std::uint64_t off =
                rng_.next_below(static_cast<std::uint64_t>(npool));
            Rank cand = hotpool[off];
            if (cand == avoid && npool > 1) {
              cand = hotpool[(off + 1) % static_cast<std::uint64_t>(npool)];
            }
            return cand;
          }
          std::uint64_t off =
              rng_.next_below(static_cast<std::uint64_t>(vset));
          Rank cand = static_cast<Rank>(
              (rt_.me() + 1 + static_cast<Rank>(off)) % n);
          if (cand == avoid && vset > 1) {
            cand = static_cast<Rank>(
                (rt_.me() + 1 + static_cast<Rank>((off + 1) % vset)) % n);
          }
          if (!pool || detect::alive(cand)) {
            return cand;
          }
        }
        if (victim == kNoRank) {
          if (pool && !full_view_) {
            // Sample among live ranks only; stealing from the dead is the
            // ward's job (drain_dead), not the victim-selection RNG's --
            // and parked ranks have no work to take.
            const std::size_t live = alive_others_.size();
            if (live == 0) {
              return kNoRank;  // sole survivor: nothing left to steal from
            }
            std::size_t idx = static_cast<std::size_t>(
                rng_.next_below(static_cast<std::uint64_t>(live)));
            if (alive_others_[idx] == avoid && live > 1) {
              idx = (idx + 1) % live;
            }
            victim = alive_others_[idx];
          } else {
            // Every rank but me. Over the ordered all-but-me list this is
            // exactly the pool draw above: list[idx] is idx < me ? idx :
            // idx + 1, and `avoid` shifts to the next rank in ring order.
            victim = static_cast<Rank>(
                rng_.next_below(static_cast<std::uint64_t>(n - 1)));
            if (victim >= rt_.me()) {
              ++victim;
            }
            if (victim == avoid && n > 2) {
              do {
                victim = (victim + 1) % n;
              } while (victim == rt_.me());
            }
          }
        }
        return victim;
      };
      for (int attempt = 0; attempt < cfg_.steals_per_td_poll; ++attempt) {
        Rank victim = pick_victim(kNoRank);
        if (victim == kNoRank) {
          break;
        }
        int got = 0;
        for (int retarget = 0;;) {
          if (queue_->peek_shared(victim) == 0) {
            got = 0;
            break;
          }
          got = queue_->steal_from(victim, steal_buf);
          if (got != SplitQueue::kStealBusy) {
            break;
          }
          // Aborted on a held lock: back off briefly (seeded + capped, so
          // sim replays stay bit-deterministic) and aim at a different
          // victim instead of convoying behind the current one. The budget
          // is a live knob (initialized from cfg_.steal_retarget_max).
          if (retarget >= static_cast<int>(queue_->knobs().get(
                              control::Knob::RetargetBudget))) {
            got = 0;
            break;
          }
          ++retarget;
          st.steal_retargets++;
          TimeNs b = std::min<TimeNs>(ns(200) << std::min(retarget - 1, 4),
                                      ns(3200));
          b = b / 2 + static_cast<TimeNs>(rng_.next_below(
                          static_cast<std::uint64_t>(b / 2) + 1));
          rt_.charge(b);
          Rank next = pick_victim(victim);
          SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::StealRetarget, victim,
                             next == kNoRank ? victim : next, b);
          if (next == kNoRank) {
            got = 0;
            break;
          }
          victim = next;
        }
        if (got > 0 && ft) {
          // This is the window the victim-side transaction log protects:
          // the chunk is copied out but not yet requeued. A kill here
          // loses only our private copy -- the victim (or its ward)
          // replays the chunk from the log.
          fault::poll_safepoint(rt_.me());
          if (hb_ && !detect::alive(rt_.me())) {
            // Falsely confirmed dead mid-steal: the victim's ward may be
            // replaying our open transaction right now. The txn record
            // arbitrates -- winning the 1->0 reclaim keeps the chunk ours
            // (the ward's 1->2 claim can no longer succeed, and our later
            // commit_steal finds the record already closed); losing means
            // the ward replayed it and our copy must be discarded, or the
            // chunk would run twice.
            bool ours = queue_->reclaim_txn(victim);
            fence_abort_and_rejoin();
            if (!ours) {
              got = 0;
            }
          }
        }
        if (got > 0) {
          if (cores > 1 && rt_.machine().same_node(rt_.me(), victim)) {
            st.steals_same_node++;
          }
          td_->note_lb_op(victim);
          // The search ends with the successful steal: charge it now, before
          // the stolen task runs, so execution time lands only in
          // time_working (working and searching partition the phase).
          TimeNs spell = rt_.now() - idle_begin;
          st.time_searching += spell;
          search_accum += spell;
          SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::Search, 0, 0, search_accum);
          SCIOTO_METRIC_HIST(rt_.me(), metrics::Hist::SearchNs, search_accum);
          search_accum = 0;
          if (ft) {
            // Requeue the whole chunk, then close the transaction. No
            // safepoint separates the requeue from the commit, so the
            // chunk is either fully on our queue (committed) or fully
            // replayable from the victim's log -- never both, never
            // neither: completion is exactly-once.
            for (int i = 0; i < got; ++i) {
              bool ok = queue_->push_local(
                  steal_buf + static_cast<std::size_t>(i) * slot_bytes(),
                  kAffinityHigh);
              SCIOTO_CHECK_MSG(ok, "local queue overflow requeueing steal");
            }
            queue_->commit_steal(victim);
            got_work = true;
            break;
          }
          // Requeue all but the first stolen task, then execute that one
          // directly from the steal buffer. This guarantees progress per
          // successful steal: requeued tasks are instantly stealable again
          // (always so under no-split queues), and without it two mutually
          // stealing ranks can bounce a task chunk forever -- a genuine
          // livelock, not a performance nicety.
          for (int i = 1; i < got; ++i) {
            bool ok = queue_->push_local(
                steal_buf + static_cast<std::size_t>(i) * slot_bytes(),
                kAffinityHigh);
            SCIOTO_CHECK_MSG(ok, "local queue overflow requeueing steal");
          }
          TimeNs t0 = rt_.now();
          execute(steal_buf);
          st.time_working += rt_.now() - t0;
          queue_->release_maybe();
          got_work = true;
          break;
        }
      }
    }
    if (got_work) {
      consecutive_failed_steals = 0;
      polls_until_steal = 0;
      continue;  // searching time already charged before the stolen task ran
    }
    if (attempted) {
      ++consecutive_failed_steals;
      if (cfg_.steal_backoff_max > 0) {
        int shift = std::min(consecutive_failed_steals, 16);
        polls_until_steal = std::min(1 << shift, cfg_.steal_backoff_max);
      }
    } else {
      --polls_until_steal;
    }
    // Empty-handed: this iteration ends in the idle tail, so force the
    // elastic pump on the next pass (rationale at the pump).
    pump_now = elastic_on;

    if (ft && queue_->overflow_pending()) {
      // Recovered tasks parked in the overflow stash are live work the
      // queue cannot see; keep our vote black until they drain.
      td_->mark_self_black();
    }
    if (pending_hook_ && pending_hook_()) {
      // Rank-local deferred work (parked dataflow nodes): in no queue, so
      // termination detection cannot see it -- vote black until it runs.
      td_->mark_self_black();
    }
    if (td_->step() == TerminationDetector::Status::Terminated) {
      TimeNs spell = rt_.now() - idle_begin;
      st.time_searching += spell;
      search_accum += spell;
      if (search_accum > 0) {
        SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::Search, 0, 0, search_accum);
        SCIOTO_METRIC_HIST(rt_.me(), metrics::Hist::SearchNs, search_accum);
      }
      break;
    }
    if (can_sleep && td_->last_step_quiet() && queue_->empty()) {
      // Quiet poll: until another rank touches us, each next iteration
      // would pop nothing, attempt no steal, step the detector quietly
      // and relax again -- so sleep through them, up to the poll where a
      // steal is due or the watchdog below would warn, and account the
      // skipped ones (their searching time lands in `spell` below).
      auto polls = static_cast<std::int64_t>(
          kIdleWarnPolls - 1 - idle_iterations % kIdleWarnPolls);
      if (steals_on) {
        polls = std::min<std::int64_t>(polls, polls_until_steal);
      }
      const PollWords before = poll_words();
      const pgas::Backend::Slept slept =
          rt_.relax_sleep(td_->step_charge(), polls);
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
    {
      TimeNs spell = rt_.now() - idle_begin;
      st.time_searching += spell;
      search_accum += spell;
    }
    if (++idle_iterations % kIdleWarnPolls == 0) {
      SCIOTO_WARN("rank " << rt_.me() << " idle for " << idle_iterations
                          << " iterations: queue=" << queue_->size()
                          << " (priv=" << queue_->private_size()
                          << " shared=" << queue_->shared_size()
                          << ") executed=" << st.tasks_executed
                          << " steals=" << queue_->counters().steals_in);
    }
  }

  if (eseg_ >= 0) {
    // Phase-over sentinel: quiesce waits and parked ranks read this as
    // "this rank will never arrive at a rendezvous, and there is no work
    // left to save". Cleared only in reset(), behind its collective
    // barriers, so nobody is still polling it when it goes back to zero.
    aref(ectl(rt_, eseg_, rt_.me())->quiesce_gen)
        .store(kPhaseOver, std::memory_order_release);
  }
  const TimeNs phase_dur = rt_.now() - t_begin;
  st.time_total += phase_dur;
  SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::PhaseEnd, 0, 0, phase_dur);
  // Fold queue/TD counters into the stats snapshot.
  const SplitQueue::Counters& qc = queue_->counters();
  st.steals = qc.steals_in;
  st.steal_attempts = qc.steal_attempts;
  st.tasks_stolen = qc.tasks_stolen_in;
  st.releases = qc.releases;
  st.reacquires = qc.reacquires;
  const TerminationDetector::Counters& tc = td_->counters();
  st.td_waves_voted = tc.waves_voted;
  st.td_black_votes = tc.black_votes;
  st.td_marks_sent = tc.dirty_marks_sent;
  st.td_marks_skipped = tc.dirty_marks_skipped;
  st.tasks_recovered = qc.tasks_recovered;
  st.steals_aborted = qc.steals_aborted;
  st.op_retries = qc.commit_retries + tc.token_retries;
  st.td_resplices = tc.resplices;
  st.steals_lock_busy = qc.steals_lock_busy;
  st.owner_lock_acqs = qc.owner_lock_acqs;
  st.reacquires_fast = qc.reacquires_fast;
}

void TaskCollection::reset() {
  queue_->reset_collective();
  td_->reset();
  if (eseg_ >= 0) {
    // Re-zeroed only here, after the collective barriers above: every
    // rank has left the previous phase, so nobody is still polling the
    // phase-over sentinel these words carried.
    ElasticCtl* ec = ectl(rt_, eseg_, rt_.me());
    aref(ec->join_req).store(0, std::memory_order_relaxed);
    aref(ec->join_knock).store(0, std::memory_order_relaxed);
    aref(ec->quiesce_gen).store(0, std::memory_order_relaxed);
    aref(ec->ckpt_done).store(0, std::memory_order_relaxed);
    aref(ec->ckpt_ndesc).store(0, std::memory_order_relaxed);
  }
  stats_ = TcStats{};
  epoch_seen_ = ~std::uint64_t{0};
  rt_.barrier();
}

bool TaskCollection::parked_wait(TcStats& st) {
  // Parked (NotJoined) ranks sit out the phase: no tree seat, never a
  // steal victim, never adopted. They spin here publishing heartbeats,
  // waiting for either their join rule to fire (publish the request, then
  // wait for the admitter's epoch bump) or the phase to end without them.
  const Rank me = rt_.me();
  ElasticCtl* my = ectl(rt_, eseg_, me);
  const TimeNs t0 = rt_.now();
  bool requested = false;
  int polls = 0;
  bool admitted = false;
  for (;;) {
    if (SCIOTO_METRICS_ON()) {
      metrics::monitor_poll(me, rt_.now());
    }
    if (hb_) {
      hb_->poll();
    }
    ++polls;
    bool knock = false;
    if (!requested &&
        elastic::join_due(me, sim::current_virtual_time(), polls)) {
      aref(my->join_req).store(1, std::memory_order_release);
      requested = true;
      knock = true;
      SCIOTO_TRACE_EVENT(me, trace::Ev::JoinRequest, me, 0, 0);
    }
    if (requested && (knock || (polls & 7) == 0)) {
      // Ring the admitter's doorbell: OR our rank bit into its knock word
      // (and keep ringing -- the admitter can change across deaths, and a
      // bit ORed after the admitter's exchange lands in its next scan).
      // Pushing the signal keeps the admitter's scan one local exchange;
      // the remote RMWs charge only this parked rank, whose virtual time
      // is worthless anyway. The cadence is tight because parked polls
      // can be very slow under thread starvation -- a rare ring risks
      // outliving a short phase.
      std::vector<Rank> alive = detect::alive_ranks();
      if (!alive.empty()) {
        const Rank adm = alive.front();
        const std::uint64_t bit = knock_bit(me);
        for (int tries = 0; tries < 4; ++tries) {
          std::uint64_t w = 0;
          if (rt_.get_u64_with_retry(eseg_, adm,
                                     offsetof(ElasticCtl, join_knock),
                                     &w) == pgas::OpStatus::Dropped) {
            break;  // next ring retries
          }
          if ((w & bit) != 0 ||
              rt_.compare_swap(eseg_, adm, offsetof(ElasticCtl, join_knock),
                               static_cast<std::int64_t>(w),
                               static_cast<std::int64_t>(w | bit)) ==
                  static_cast<std::int64_t>(w)) {
            break;
          }
        }
      }
    }
    if (detect::joined(me)) {
      admitted = true;
      break;
    }
    if ((polls & 7) == 0) {
      // The phase can end while we are parked: adopt the termination
      // decision from the current tree root, or observe the phase-over
      // sentinel in its elastic word (which also covers halt_after_ckpt,
      // where no termination is ever decided).
      if (td_->poll_term_remote()) {
        break;
      }
      std::vector<Rank> alive = detect::alive_ranks();
      if (!alive.empty()) {
        std::uint64_t w = 0;
        if (rt_.get_u64_with_retry(eseg_, alive.front(),
                                   offsetof(ElasticCtl, quiesce_gen),
                                   &w) != pgas::OpStatus::Dropped &&
            w == kPhaseOver) {
          break;
        }
      }
    }
    rt_.charge(rt_.machine().poll);
    rt_.relax();
  }
  st.time_searching += rt_.now() - t0;
  return admitted;
}

void TaskCollection::elastic_admit_scan() {
  const Rank me = rt_.me();
  const int n = rt_.nprocs();
  bool any_parked = false;
  for (Rank r = 0; r < n; ++r) {
    if (!detect::joined(r)) {
      any_parked = true;
      break;
    }
  }
  if (!any_parked) {
    return;
  }
  // Joiners ring the doorbell of the rank they currently believe is the
  // admitter (the lowest joined-alive rank -- the same deterministic
  // choice detect::successor rests on), pushing their rank bit into its
  // knock word: they are parked, so the remote RMWs charge time nobody is
  // using. Any joined rank that finds its own word rung handles the
  // admission -- join_ranks is atomic, so this stays correct even when a
  // wall-clock view briefly disagrees about who the admitter is (a false
  // suspicion on the threads backend): wherever the knock landed, it is
  // honored. The steady-state cost for workers is one local load; the
  // knock itself names the batch, so there is nothing to sweep remotely
  // and nothing to race -- a bit ORed after the exchange below is simply
  // picked up by the next scan.
  ElasticCtl* my = ectl(rt_, eseg_, me);
  if (aref(my->join_knock).load(std::memory_order_acquire) == 0) {
    return;
  }
  const std::uint64_t mask =
      aref(my->join_knock).exchange(0, std::memory_order_acq_rel);
  std::vector<Rank> batch;
  for (Rank r = 0; r < n && r < 63; ++r) {
    if ((mask & knock_bit(r)) != 0 && !detect::joined(r)) {
      batch.push_back(r);
    }
  }
  if ((mask & (std::uint64_t{1} << 63)) != 0) {
    // Overflow bit: some rank past the word's reach knocked; find it the
    // slow way (remote sweep of the high parked tail).
    for (Rank r = 63; r < n; ++r) {
      if (detect::joined(r)) {
        continue;
      }
      std::uint64_t req = 0;
      if (rt_.get_u64_with_retry(eseg_, r, offsetof(ElasticCtl, join_req),
                                 &req) != pgas::OpStatus::Dropped &&
          req != 0) {
        batch.push_back(r);
      }
    }
  }
  if (batch.empty()) {
    return;
  }
  // One epoch bump admits the whole batch; every rank (joiners included)
  // resplices its termination tree and ward table on its next TD step,
  // and the joiners leave parked_wait the moment joined() flips.
  std::uint64_t e = detect::join_ranks(batch);
  for (Rank r : batch) {
    SCIOTO_TRACE_EVENT(me, trace::Ev::JoinAdmit, r, me,
                       static_cast<long long>(e));
  }
}

bool TaskCollection::quiesce_and_checkpoint(std::uint64_t gen, TcStats& st) {
  const Rank me = rt_.me();
  const int n = rt_.nprocs();
  const TimeNs t0 = rt_.now();
  // 1. Drain the recovery paths so everything this rank is responsible
  // for sits in its own queue before serialization: replayed steal
  // transactions, adopted dead queues, overflow-stashed tasks.
  if (fault::active()) {
    refresh_membership();
    std::uint64_t rec = queue_->recover_open_txns();
    for (Rank d : wards_) {
      rec += queue_->drain_dead(d);
    }
    rec += queue_->flush_overflow();
    if (rec > 0) {
      td_->mark_self_black();
    }
  }
  ElasticCtl* my = ectl(rt_, eseg_, me);
  // 2. Publish arrival. In-flight steals need no explicit draining: a
  // steal's copy -> requeue -> commit runs inside one work-loop iteration
  // with no interior safepoint or pump, so a rank standing at this
  // rendezvous has no open thief-side transaction -- and by the time ALL
  // participants stand here, every stolen chunk is committed exactly once
  // (the TSan leg of test_elastic exercises this argument).
  aref(my->quiesce_gen).store(gen, std::memory_order_release);
  // 3. Wait for every joined-alive rank to arrive. The participant set is
  // recomputed each spin: a death mid-quiesce drops that rank from the
  // set (its stranded queue is adopted on the next idle pass, so a
  // snapshot racing a death may omit that work -- restore from the next
  // generation). A phase-over sentinel or a termination decision in our
  // own mailbox aborts the snapshot: an all-white wave certifies there is
  // globally no work left to save.
  bool aborted = false;
  int participants = 1;
  for (;;) {
    participants = 1;
    bool all_in = true;
    for (Rank r = 0; r < n; ++r) {
      if (r == me || !detect::joined(r) || !detect::alive(r)) {
        continue;
      }
      std::uint64_t w = 0;
      if (rt_.get_u64_with_retry(eseg_, r, offsetof(ElasticCtl, quiesce_gen),
                                 &w) == pgas::OpStatus::Dropped) {
        all_in = false;
        continue;
      }
      if (w == kPhaseOver) {
        aborted = true;
        break;
      }
      if (w < gen) {
        all_in = false;
      } else {
        ++participants;
      }
    }
    if (aborted || all_in) {
      break;
    }
    if (td_->term_seen_local()) {
      aborted = true;
      break;
    }
    if (hb_) {
      hb_->poll();  // deaths keep being confirmed; the wait cannot hang
    }
    rt_.charge(rt_.machine().poll);
    rt_.relax();
  }
  ckpt_gen_done_ = gen;
  if (aborted) {
    st.time_searching += rt_.now() - t0;
    return false;
  }
  SCIOTO_TRACE_EVENT(me, trace::Ev::Quiesce, static_cast<long long>(gen),
                     participants, rt_.now() - t0);
  // 4. Serialize: the queue's descriptor span plus the application blob,
  // SHA1-framed so restore rejects torn or truncated part files.
  const std::string base = elastic::ckpt_path();
  SCIOTO_REQUIRE(!base.empty(),
                 "elastic: checkpoint due but no ckpt_path configured");
  std::vector<std::byte> descs;
  std::uint64_t ndesc = queue_->snapshot_local(descs);
  std::vector<std::byte> blob;
  if (ckpt_writer_) {
    blob = ckpt_writer_();
  }
  const std::string pp = ckpt_part_path(base, me);
  {
    std::ofstream f(pp, std::ios::binary | std::ios::trunc);
    SCIOTO_REQUIRE(f.good(), "elastic: cannot write part file " << pp);
    Sha1 sha;
    auto put = [&](const void* p, std::size_t nb) {
      f.write(reinterpret_cast<const char*>(p),
              static_cast<std::streamsize>(nb));
      sha.update(p, nb);
    };
    put(kCkptMagic, sizeof(kCkptMagic));
    const std::uint64_t hdr[6] = {static_cast<std::uint64_t>(me),
                                  static_cast<std::uint64_t>(n),
                                  gen,
                                  ndesc,
                                  static_cast<std::uint64_t>(slot_bytes()),
                                  static_cast<std::uint64_t>(blob.size())};
    put(hdr, sizeof(hdr));
    if (!descs.empty()) {
      put(descs.data(), descs.size());
    }
    if (!blob.empty()) {
      put(blob.data(), blob.size());
    }
    Sha1::Digest d = sha.finish();
    f.write(reinterpret_cast<const char*>(d.data()),
            static_cast<std::streamsize>(d.size()));
    f.close();
    SCIOTO_REQUIRE(f.good(), "elastic: short write on part file " << pp);
  }
  aref(my->ckpt_ndesc).store(ndesc, std::memory_order_release);
  // 5. The leader (lowest joined-alive rank) writes the manifest once
  // every part is durable, and publishes its own done word only after --
  // everyone else resumes on the leader's word, so generation g+1 can
  // never overlap generation g's files.
  std::vector<Rank> alive = detect::alive_ranks();
  const Rank leader = alive.empty() ? me : alive.front();
  if (leader != me) {
    aref(my->ckpt_done).store(gen, std::memory_order_release);
    for (;;) {
      if (!detect::alive(leader)) {
        break;  // leader died mid-manifest: this generation stays
                // incomplete on disk; the next one retries cleanly
      }
      std::uint64_t w = 0;
      if (rt_.get_u64_with_retry(eseg_, leader,
                                 offsetof(ElasticCtl, ckpt_done),
                                 &w) != pgas::OpStatus::Dropped &&
          w >= gen) {
        break;
      }
      if (hb_) {
        hb_->poll();
      }
      rt_.charge(rt_.machine().poll);
      rt_.relax();
    }
  } else {
    std::vector<std::pair<Rank, std::uint64_t>> parts;
    for (;;) {
      bool all_done = true;
      parts.clear();
      parts.emplace_back(me, ndesc);
      for (Rank r = 0; r < n; ++r) {
        if (r == me || !detect::joined(r) || !detect::alive(r)) {
          continue;
        }
        std::uint64_t w = 0;
        if (rt_.get_u64_with_retry(eseg_, r, offsetof(ElasticCtl, ckpt_done),
                                   &w) == pgas::OpStatus::Dropped ||
            w < gen) {
          all_done = false;
          break;
        }
        std::uint64_t nd = 0;
        rt_.get_u64_with_retry(eseg_, r, offsetof(ElasticCtl, ckpt_ndesc),
                               &nd);
        parts.emplace_back(r, nd);
      }
      if (all_done) {
        break;
      }
      if (hb_) {
        hb_->poll();
      }
      rt_.charge(rt_.machine().poll);
      rt_.relax();
    }
    std::sort(parts.begin(), parts.end());
    std::ofstream mf(base, std::ios::trunc);
    SCIOTO_REQUIRE(mf.good(), "elastic: cannot write manifest " << base);
    mf << "scioto-ckpt v1\n";
    mf << "gen " << gen << "\n";
    mf << "nranks " << n << "\n";
    mf << "slot_bytes " << slot_bytes() << "\n";
    for (const auto& pr : parts) {
      mf << "part " << pr.first << " " << pr.second << "\n";
    }
    mf.close();
    SCIOTO_REQUIRE(mf.good(), "elastic: short write on manifest " << base);
    aref(my->ckpt_done).store(gen, std::memory_order_release);
    elastic::note_checkpoint();
  }
  SCIOTO_TRACE_EVENT(me, trace::Ev::Checkpoint, static_cast<long long>(gen),
                     static_cast<long long>(ndesc),
                     static_cast<long long>(descs.size() + blob.size()));
  st.time_searching += rt_.now() - t0;
  return true;
}

void TaskCollection::restore_from(const std::string& path) {
  const Rank me = rt_.me();
  const int n = rt_.nprocs();
  std::ifstream mf(path);
  SCIOTO_REQUIRE(mf.good(), "elastic: cannot open ckpt manifest " << path);
  std::string word;
  std::string version;
  mf >> word >> version;
  SCIOTO_REQUIRE(word == "scioto-ckpt" && version == "v1",
                 "elastic: bad manifest header in " << path);
  // Every field is checked: a malformed value must fail here by name,
  // not end the parse early and silently drop the remaining parts.
  auto field = [&](const std::string& key) {
    std::uint64_t v = 0;
    SCIOTO_REQUIRE(mf >> v, "elastic: manifest " << path << ": '" << key
                                                 << "' needs a numeric value");
    return v;
  };
  std::uint64_t gen = 0;
  std::uint64_t src_n = 0;
  std::uint64_t src_slot = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> parts;  // rank, nd
  while (mf >> word) {
    if (word == "gen") {
      gen = field(word);
    } else if (word == "nranks") {
      src_n = field(word);
    } else if (word == "slot_bytes") {
      src_slot = field(word);
    } else if (word == "part") {
      const std::uint64_t r = field("part rank");
      parts.emplace_back(r, field("part count"));
    } else {
      SCIOTO_REQUIRE(false,
                     "elastic: unknown manifest key '" << word << "' in "
                                                       << path);
    }
  }
  SCIOTO_REQUIRE(src_n > 0, "elastic: manifest " << path << " has no nranks");
  {
    auto sorted = parts;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      SCIOTO_REQUIRE(sorted[i].first < src_n,
                     "elastic: manifest " << path << ": part rank "
                                          << sorted[i].first
                                          << " outside nranks " << src_n);
      SCIOTO_REQUIRE(i == 0 || sorted[i].first != sorted[i - 1].first,
                     "elastic: manifest " << path << ": duplicate part rank "
                                          << sorted[i].first);
    }
  }
  SCIOTO_REQUIRE(src_slot == slot_bytes(),
                 "elastic: ckpt slot_bytes "
                     << src_slot << " does not match this collection's "
                     << slot_bytes()
                     << " (task_sz must agree across save/restore)");
  // Deal descriptors round-robin over the *joined* ranks of this fleet:
  // a snapshot taken on one fleet size restores onto another, and parked
  // ranks receive nothing.
  std::vector<Rank> targets;
  for (Rank r = 0; r < n; ++r) {
    if (detect::joined(r)) {
      targets.push_back(r);
    }
  }
  SCIOTO_REQUIRE(!targets.empty(), "elastic: no joined ranks to restore onto");
  std::uint64_t g = 0;  // global descriptor index across parts
  std::uint64_t restored = 0;
  std::uint64_t bytes = 0;
  std::vector<char> buf;
  for (std::size_t pi = 0; pi < parts.size(); ++pi) {
    const Rank src = static_cast<Rank>(parts[pi].first);
    const std::uint64_t nd = parts[pi].second;
    const std::string pp = ckpt_part_path(path, src);
    std::ifstream pf(pp, std::ios::binary);
    SCIOTO_REQUIRE(pf.good(), "elastic: cannot open part file " << pp);
    pf.seekg(0, std::ios::end);
    const std::streamoff sz = pf.tellg();
    pf.seekg(0);
    SCIOTO_REQUIRE(
        sz >= static_cast<std::streamoff>(sizeof(kCkptMagic) +
                                          6 * sizeof(std::uint64_t) +
                                          Sha1::kDigestBytes),
        "elastic: truncated part file " << pp);
    buf.resize(static_cast<std::size_t>(sz));
    pf.read(buf.data(), sz);
    SCIOTO_REQUIRE(pf.good(), "elastic: short read on part file " << pp);
    const std::size_t body = buf.size() - Sha1::kDigestBytes;
    Sha1::Digest d = Sha1::hash(buf.data(), body);
    SCIOTO_REQUIRE(
        std::memcmp(d.data(), buf.data() + body, Sha1::kDigestBytes) == 0,
        "elastic: SHA1 mismatch on part file " << pp);
    SCIOTO_REQUIRE(
        std::memcmp(buf.data(), kCkptMagic, sizeof(kCkptMagic)) == 0,
        "elastic: bad magic in part file " << pp);
    std::uint64_t hdr[6];
    std::memcpy(hdr, buf.data() + sizeof(kCkptMagic), sizeof(hdr));
    SCIOTO_REQUIRE(hdr[0] == parts[pi].first && hdr[1] == src_n &&
                       hdr[2] == gen && hdr[3] == nd && hdr[4] == src_slot,
                   "elastic: part file " << pp
                                         << " does not match the manifest");
    const std::size_t desc_off = sizeof(kCkptMagic) + sizeof(hdr);
    const std::uint64_t blob_bytes = hdr[5];
    // Division, not nd * src_slot: a forged count must not wrap the sum
    // into a plausible size and send the reads below past the buffer.
    const std::uint64_t payload = buf.size() - desc_off - Sha1::kDigestBytes;
    SCIOTO_REQUIRE(nd <= payload / src_slot &&
                       blob_bytes == payload - nd * src_slot,
                   "elastic: part file " << pp << " has inconsistent sizes ("
                                         << nd << " descriptors of "
                                         << src_slot << " B + " << blob_bytes
                                         << " B blob in " << payload
                                         << " B)");
    for (std::uint64_t j = 0; j < nd; ++j, ++g) {
      if (targets[g % targets.size()] != me) {
        continue;
      }
      const std::byte* desc = reinterpret_cast<const std::byte*>(
          buf.data() + desc_off + j * src_slot);
      if (lineage_off_ != 0 && src != me) {
        // The redeal moved this descriptor off the rank that saved it: a
        // migration like any steal, stamped the same way so the analyzer
        // can follow the chain across the checkpoint boundary. (The
        // manifest's slot_bytes check above already rejects mixing
        // lineage-on and lineage-off fleets across a save/restore.)
        std::memcpy(scratch_.data(), desc, slot_bytes());
        trace::lineage::LineageRec rec;
        std::memcpy(&rec, scratch_.data() + lineage_off_, sizeof(rec));
        rec.hops += 1;
        std::memcpy(scratch_.data() + lineage_off_, &rec, sizeof(rec));
        SCIOTO_TRACE_EVENT(me, trace::Ev::MigrateEdge, src, rec.hops,
                           rec.id);
        desc = scratch_.data();
      }
      bool ok = queue_->push_local(desc, kAffinityHigh);
      SCIOTO_REQUIRE(ok, "elastic: local queue overflow during restore");
      ++restored;
      bytes += src_slot;
    }
    if (blob_bytes > 0 &&
        targets[static_cast<std::uint64_t>(pi) % targets.size()] == me &&
        ckpt_reader_) {
      const auto* bp = reinterpret_cast<const std::byte*>(
          buf.data() + desc_off + nd * src_slot);
      ckpt_reader_(src, std::vector<std::byte>(bp, bp + blob_bytes));
      bytes += blob_bytes;
    }
  }
  if (restored > 0) {
    // Restored work re-materialized without a steal: the first vote must
    // be black, or a wave could conclude all-white over it.
    td_->mark_self_black();
    queue_->release_maybe();
  }
  SCIOTO_TRACE_EVENT(me, trace::Ev::Restore,
                     static_cast<long long>(parts.size()),
                     static_cast<long long>(restored),
                     static_cast<long long>(bytes));
  if (me == 0) {
    elastic::note_restore();
  }
}

TcStats TaskCollection::stats_global() {
  // Element-wise allreduce of the POD counter block.
  TcStats local = stats_local();
  TcStats total;
  rt_.barrier();
  static_assert(std::is_trivially_copyable_v<TcStats>);
  // Reduce via repeated allreduce_sum of a compact array view.
  std::uint64_t in[24] = {local.tasks_executed,
                          local.tasks_spawned_local,
                          local.tasks_spawned_remote,
                          local.steals,
                          local.steal_attempts,
                          local.tasks_stolen,
                          local.releases,
                          local.reacquires,
                          local.td_waves_voted,
                          local.td_black_votes,
                          local.td_marks_sent,
                          local.td_marks_skipped,
                          static_cast<std::uint64_t>(local.time_total),
                          static_cast<std::uint64_t>(local.time_working),
                          static_cast<std::uint64_t>(local.time_searching),
                          local.steals_same_node,
                          local.tasks_recovered,
                          local.steals_aborted,
                          local.op_retries,
                          local.td_resplices,
                          local.steals_lock_busy,
                          local.steal_retargets,
                          local.owner_lock_acqs,
                          local.reacquires_fast};
  struct Packed {
    std::uint64_t v[24];
  } packed;
  std::memcpy(packed.v, in, sizeof(in));
  Packed sum = rt_.allreduce(packed, [](Packed a, const Packed& b) {
    for (int i = 0; i < 24; ++i) a.v[i] += b.v[i];
    return a;
  });
  total.tasks_executed = sum.v[0];
  total.tasks_spawned_local = sum.v[1];
  total.tasks_spawned_remote = sum.v[2];
  total.steals = sum.v[3];
  total.steal_attempts = sum.v[4];
  total.tasks_stolen = sum.v[5];
  total.releases = sum.v[6];
  total.reacquires = sum.v[7];
  total.td_waves_voted = sum.v[8];
  total.td_black_votes = sum.v[9];
  total.td_marks_sent = sum.v[10];
  total.td_marks_skipped = sum.v[11];
  total.time_total = static_cast<TimeNs>(sum.v[12]);
  total.time_working = static_cast<TimeNs>(sum.v[13]);
  total.time_searching = static_cast<TimeNs>(sum.v[14]);
  total.steals_same_node = sum.v[15];
  total.tasks_recovered = sum.v[16];
  total.steals_aborted = sum.v[17];
  total.op_retries = sum.v[18];
  total.td_resplices = sum.v[19];
  total.steals_lock_busy = sum.v[20];
  total.steal_retargets = sum.v[21];
  total.owner_lock_acqs = sum.v[22];
  total.reacquires_fast = sum.v[23];
  return total;
}

}  // namespace scioto
