// Event tracing: per-rank, fixed-capacity, allocation-free-in-steady-state
// ring buffers recording typed runtime events in virtual (sim backend) or
// real (threads backend) time.
//
// The aggregate counters in TcStats say *how many* steals, releases, and
// votes a run performed; this subsystem records *when* each one happened,
// which is the instrument behind every timing-shape claim the reproduction
// makes (split-queue steal throughput, termination-wave cost, load balance
// of irregular tasks). On top of the raw stream sit a Chrome trace-event
// JSON exporter (trace/export.hpp) and post-run analytics
// (trace/analysis.hpp): who-stole-from-whom, queue occupancy, and a
// per-rank working/searching/idle breakdown that reconciles with TcStats.
//
// Usage: nothing is recorded until trace::start(nranks, cap) is called.
// Benches expose this as --trace=FILE; pgas::run_spmd also honours the
// SCIOTO_TRACE_OUT environment variable so any binary can be traced
// without code changes (capacity via SCIOTO_TRACE_CAP, events per rank).
//
// Recording an event is one branch, one clock read, and one 32-byte store
// into the recording rank's own ring -- no locks, no allocation. When a
// ring wraps, the oldest events are overwritten and counted as dropped
// (the exporter reports the drop count rather than silently truncating).
//
// Determinism: under the sim backend, events are stamped with the fiber's
// virtual clock, so two runs with the same seed produce byte-identical
// exported traces (locked in by tests/test_trace.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hpp"

namespace scioto::trace {

/// Every event kind, one row each: X(Kind, "name", "category"). The Ev
/// enum, ev_name() and ev_category() are generated from this list, so a
/// new kind is one row here (plus its argument formatting in the Chrome
/// exporter, which rejects an unformatted kind by name). A row's position
/// is its wire value: rows are only ever appended, which keeps traces
/// that never record the new kind byte-identical. The payload fields a/b/c
/// are per-kind (documented above each row); `dur`-style payloads are
/// durations in nanoseconds carried in c.
#define SCIOTO_TRACE_EV_KINDS(X)                                              \
  /* a=callback handle, b=affinity */                                         \
  X(TaskBegin, "task", "task")                                                \
  /* a=callback handle, c=execution duration (ns) */                          \
  X(TaskEnd, "task", "task")                                                  \
  /* a=affinity, c=local queue size after the push */                         \
  X(Push, "push", "queue")                                                    \
  /* c=local queue size after the pop */                                      \
  X(Pop, "pop", "queue")                                                      \
  /* a=tasks released to the shared portion, c=queue size */                  \
  X(Release, "release", "queue")                                              \
  /* a=tasks reacquired from the shared portion, c=queue size */              \
  X(Reacquire, "reacquire", "queue")                                          \
  /* a=victim rank */                                                         \
  X(StealAttempt, "steal_attempt", "steal")                                   \
  /* a=victim rank, b=tasks stolen */                                         \
  X(StealOk, "steal", "steal")                                                \
  /* a=victim rank (empty-handed attempt) */                                  \
  X(StealFail, "steal_fail", "steal")                                         \
  /* a=target rank (one task pushed into target's patch) */                   \
  X(RemoteAdd, "remote_add", "steal")                                         \
  /* a=target rank, b=field (0=down,1=up,2=term,3=dirty) */                   \
  X(TokenSend, "token", "td")                                                 \
  /* a=wave number, b=1 if the token passed up was black */                   \
  X(Vote, "vote", "td")                                                       \
  /* a=wave number (root only) */                                             \
  X(WaveStart, "wave", "td")                                                  \
  /* a=deciding wave number */                                                \
  X(Terminate, "terminate", "td")                                             \
  /* a=target rank, c=bytes */                                                \
  X(PgasPut, "put", "pgas")                                                   \
  /* a=target rank, c=bytes */                                                \
  X(PgasGet, "get", "pgas")                                                   \
  /* a=target rank, c=bytes */                                                \
  X(PgasAcc, "acc", "pgas")                                                   \
  /* a=target rank (fetch-add / swap) */                                      \
  X(PgasRmw, "rmw", "pgas")                                                   \
  /* (entry into a barrier) */                                                \
  X(Barrier, "barrier", "sync")                                               \
  /* c=accumulated idle/steal/TD-poll time just ended (ns) */                 \
  X(Search, "search", "sched")                                                \
  /* (tc_process entry) */                                                    \
  X(PhaseBegin, "tc_process", "sched")                                        \
  /* c=phase duration on this rank (ns) */                                    \
  X(PhaseEnd, "tc_process", "sched")                                          \
  /* a=fault type (fault::FaultType), b=target rank, c=param */               \
  X(FaultInjected, "fault_injected", "fault")                                 \
  /* a=victim rank, b=reason (0=truncated-to-zero) */                         \
  X(StealAborted, "steal_aborted", "fault")                                   \
  /* a=source (dead) rank, b=tasks recovered, c=duration (ns) */              \
  X(TaskRecovered, "task_recovered", "fault")                                 \
  /* a=epoch, b=alive rank count after the resplice */                        \
  X(TreeRespliced, "tree_respliced", "fault")                                 \
  /* never emitted; kept while perfbench/scioto_bench.cpp names it */         \
  X(ReacquireFast, "reacquire_fast", "queue")                                 \
  /* a=suspected rank, c=silence observed so far (ns) */                      \
  X(Suspect, "suspect", "detect")                                             \
  /* a=formerly-suspected rank (its heartbeat advanced) */                    \
  X(Refute, "refute", "detect")                                               \
  /* a=confirmed-dead rank, c=silence at confirmation (ns) */                 \
  X(ConfirmDead, "confirm_dead", "detect")                                    \
  /* a=fence adopter rank, b=fence epoch (owner woke up, observed an          \
       adoption fence, aborted its work loop) */                              \
  X(FenceAbort, "fence_abort", "detect")                                      \
  /* DAG scheduler events (src/dag). Appended so DAG-off traces stay          \
     byte-identical to pre-dag baselines. */                                  \
  /* a=node id (low 32 bits), b=home rank, c=depth (-1 if unknown, e.g.       \
       dynamic nodes fired by a non-creator) */                               \
  X(NodeReady, "node_ready", "dag")                                           \
  /* a=node id (low 32 bits), b=conflict group, c=depth */                    \
  X(NodeRun, "node_run", "dag")                                               \
  /* a=node id (low 32 bits), b=conflict group whose lock was busy */         \
  X(ConflictRetry, "conflict_retry", "dag")                                   \
  /* Adaptive control plane (src/control). Appended so controller-off         \
     traces stay byte-identical to pre-control baselines. */                  \
  /* a=knob (control::Knob), b=applied value, c=reason (control::Reason) */   \
  X(KnobChange, "knob_change", "control")                                     \
  /* Elastic membership (src/elastic). Appended so elastic-off traces stay    \
     byte-identical to pre-elastic baselines. */                              \
  /* a=requesting (parked) rank */                                            \
  X(JoinRequest, "join_request", "elastic")                                   \
  /* a=admitted rank, b=admitting rank, c=new epoch */                        \
  X(JoinAdmit, "join_admit", "elastic")                                       \
  /* a=checkpoint generation, b=joined-alive participant count, c=wait        \
       duration (ns) */                                                       \
  X(Quiesce, "quiesce", "elastic")                                            \
  /* a=checkpoint generation, b=descriptors snapshotted on this rank,         \
       c=snapshot bytes (part payload) */                                     \
  X(Checkpoint, "checkpoint", "elastic")                                      \
  /* a=source (saved) rank count, b=descriptors restored on this rank,        \
       c=restored bytes */                                                    \
  X(Restore, "restore", "elastic")                                            \
  /* Causal task lineage (trace/lineage.hpp). Appended so lineage-off         \
     traces stay byte-identical to pre-lineage baselines. Task ids ride in    \
     c (they fit int64: 23 origin bits + 40 sequence bits). */                \
  /* a=parent id high 32 bits, b=parent id low 32 bits, c=spawned task id     \
       (recorded by the spawning rank) */                                     \
  X(SpawnEdge, "spawn_edge", "lineage")                                       \
  /* a=victim (the rank the task sat on), b=hop count after this              \
       migration, c=task id (recorded by the thief / redeal target) */        \
  X(MigrateEdge, "migrate_edge", "lineage")                                   \
  /* a=hop count at execution, b=callback handle, c=task id (recorded by      \
       the executing rank; the span's duration is the paired TaskEnd's) */    \
  X(ExecSpan, "exec_span", "lineage")

/// Typed event kinds, in table order.
enum class Ev : std::uint8_t {
#define SCIOTO_TRACE_EV_ENUM(kind, name, category) kind,
  SCIOTO_TRACE_EV_KINDS(SCIOTO_TRACE_EV_ENUM)
#undef SCIOTO_TRACE_EV_ENUM
};

/// Human-readable kind name (used by the exporter and analyses).
const char* ev_name(Ev kind);

/// Chrome trace category ("cat") of a kind.
const char* ev_category(Ev kind);

/// One recorded event: 32 bytes, trivially copyable.
struct Event {
  TimeNs t = 0;         // virtual (sim) or wall (threads) nanoseconds
  std::int64_t c = 0;   // kind-specific payload (bytes, duration, size)
  std::int32_t a = 0;   // kind-specific payload (rank, handle, count)
  std::int32_t b = 0;   // kind-specific payload
  std::int32_t rank = kNoRank;  // recording rank
  Ev kind = Ev::TaskBegin;
};
static_assert(sizeof(Event) == 32);

/// Fixed-capacity event ring owned by one rank. Steady-state recording is
/// allocation-free: the buffer is sized once at construction and wraps,
/// overwriting (and counting) the oldest events.
class Sink {
 public:
  explicit Sink(std::size_t capacity);

  void record(const Event& e) {
    buf_[static_cast<std::size_t>(count_ % capacity_)] = e;
    ++count_;
  }

  std::size_t capacity() const { return static_cast<std::size_t>(capacity_); }
  /// Events currently held (<= capacity).
  std::size_t size() const;
  /// Events overwritten because the ring wrapped.
  std::uint64_t dropped() const;
  /// Copies the held events out in recording order (oldest first).
  std::vector<Event> snapshot() const;
  void clear();

 private:
  std::uint64_t capacity_;
  std::uint64_t count_ = 0;
  std::vector<Event> buf_;
};

// ---- Process-global trace session ----
//
// One session serves one SPMD run: start() before the ranks begin, stop()
// after they finish. Each rank records into its own Sink, so concurrent
// recording under the threads backend is contention-free.

/// True between start() and stop(). One relaxed atomic load; the
/// SCIOTO_TRACE_EVENT macro checks this before paying for a clock read.
bool active();

/// Allocates per-rank rings and begins recording. `capacity_per_rank` of 0
/// selects the default (SCIOTO_TRACE_CAP env var, else 1<<15 events).
void start(int nranks, std::size_t capacity_per_rank = 0);

/// Ends the session and releases the rings.
void stop();

/// Records one event stamped with the current rank-local TraceClock time.
/// Ignored when no session is active or `rank` is kNoRank.
void record(Rank rank, Ev kind, std::int32_t a = 0, std::int32_t b = 0,
            std::int64_t c = 0);

/// The TraceClock: the executing fiber's virtual clock under the sim
/// backend, a steady wall clock (ns since session start) otherwise.
TimeNs clock_now();

/// Number of ranks in the active session (0 when inactive).
int session_nranks();

/// Snapshot of one rank's events, oldest first (empty when inactive).
std::vector<Event> events(Rank rank);

/// All ranks' events merged into one stream ordered by (time, rank,
/// per-rank sequence).
std::vector<Event> all_events();

/// Total events overwritten across all rings in this session.
std::uint64_t total_dropped();

/// Events overwritten in one rank's ring (0 when inactive or out of
/// range). The fleet monitor scrapes this into its rollup so a live run
/// surfaces event loss instead of only the exporter noticing post-run.
std::uint64_t dropped(Rank rank);

/// Default per-rank ring capacity: SCIOTO_TRACE_CAP env var, else 1<<15.
std::size_t default_capacity();

}  // namespace scioto::trace

// Instrumentation macro: one predicted-false branch when no session is
// active (arguments are not evaluated).
#define SCIOTO_TRACE_EVENT(rank, kind, a, b, c)                            \
  do {                                                                     \
    if (::scioto::trace::active()) {                                       \
      ::scioto::trace::record((rank), (kind),                                 \
                              static_cast<std::int32_t>(a),                   \
                              static_cast<std::int32_t>(b),                   \
                              static_cast<std::int64_t>(c));                  \
    }                                                                      \
  } while (0)
