// Event tracing: per-rank, fixed-capacity, allocation-free-in-steady-state
// ring buffers recording typed runtime events in virtual (sim backend) or
// real (threads backend) time.
//
// The aggregate counters in TcStats say *how many* steals, releases, and
// votes a run performed; this subsystem records *when* each one happened,
// which is the instrument behind every timing-shape claim the reproduction
// makes (split-queue steal throughput, termination-wave cost, load balance
// of irregular tasks). Both come from one call: each event kind's row
// below names the counters its event bumps, and SCIOTO_EVENT records the
// event and applies the bumps. On top of the raw stream sit a Chrome
// trace-event JSON exporter (trace/export.hpp) and post-run analytics
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
#include "metrics/counters.h"

namespace scioto::trace {

/// Every event kind, one row each, and the only description of it:
///
///   X(Kind, "name", "category", "ph", "scope", "a", "b", "c", bumps)
///
/// generates the Ev enum, ev_info() and with it the whole Chrome export:
/// "ph" is the event's Chrome phase, "scope" the scope of an instant ("t"
/// thread, "p" process; "" for other phases), and "a", "b", "c" label the
/// payloads the exporter writes into args ("" leaves one out). A counter
/// sample ("C") is named after its category, the track it draws on, and a
/// complete event ("X") spans its c duration up to its timestamp.
///
/// `bumps` names the counter rows (metrics/counters.h) the event counts
/// into, each with its delta -- 1 per event, or payload a, b or c:
///   TWIN(field, d)  TcStats field and its metrics twin
///   STAT(field, d)  a field of the stats block the site passes (TcStats,
///                   dag::DagStats, detect::Stats)
///   CTR(Id, d)      metrics counter Ctr::Id
/// SCIOTO_EVENT (scioto/stats.hpp) records the event and applies them in
/// one call. A counter is bound to a row only when it counts exactly that
/// row's events or payload (summed over every row naming it): q_pushes
/// counts push calls, failed ones included, so it stays a separate bump.
///
/// A row's position is its wire value: rows are only ever appended, which
/// keeps traces that never record the new kind byte-identical. Payloads
/// the exporter leaves out are noted above their row; durations are
/// nanoseconds.
#define SCIOTO_TRACE_EV_KINDS(X, TWIN, STAT, CTR)                              \
  X(TaskBegin, "task", "task", "B", "", "callback", "affinity", "", )          \
  /* c=execution duration */                                                   \
  X(TaskEnd, "task", "task", "E", "", "callback", "", "",                      \
    TWIN(tasks_executed, 1) STAT(time_working, c))                             \
  /* a=affinity */                                                             \
  X(Push, "push", "queue", "C", "", "", "", "tasks", )                         \
  X(Pop, "pop", "queue", "C", "", "", "", "tasks", CTR(QPops, 1))              \
  /* a=tasks released to the shared portion */                                 \
  X(Release, "release", "queue", "C", "", "", "", "tasks",                     \
    TWIN(releases, 1) CTR(QReleasedTasks, a))                                  \
  /* a=tasks reacquired from the shared portion */                             \
  X(Reacquire, "reacquire", "queue", "C", "", "", "", "tasks",                 \
    TWIN(reacquires, 1) CTR(QReacquiredTasks, a))                              \
  X(StealAttempt, "steal_attempt", "steal", "i", "t", "victim", "", "",        \
    TWIN(steal_attempts, 1))                                                   \
  X(StealOk, "steal", "steal", "i", "t", "victim", "tasks", "",                \
    TWIN(steals, 1) TWIN(tasks_stolen, b))                                     \
  /* an empty-handed or aborted attempt */                                     \
  X(StealFail, "steal_fail", "steal", "i", "t", "victim", "", "",              \
    CTR(StealFails, 1))                                                        \
  /* one task pushed into the target's patch */                                \
  X(RemoteAdd, "remote_add", "steal", "i", "t", "target", "", "",              \
    TWIN(tasks_spawned_remote, 1))                                             \
  /* b=field (0=down,1=up,2=term,3=dirty), exported by name; c=bytes put.      \
     The detector's control words are one-sided puts traced as tokens. */      \
  X(TokenSend, "token", "td", "i", "t", "target", "field", "",                 \
    CTR(PgasPuts, 1) CTR(PgasPutBytes, c))                                     \
  /* b=1 if the token passed up was black */                                   \
  X(Vote, "vote", "td", "i", "t", "wave", "black", "",                         \
    TWIN(td_waves_voted, 1) TWIN(td_black_votes, b))                           \
  /* root only */                                                              \
  X(WaveStart, "wave", "td", "i", "t", "wave", "", "",                         \
    TWIN(waves_started, 1))                                                    \
  /* a=deciding wave */                                                        \
  X(Terminate, "terminate", "td", "i", "t", "wave", "", "", )                  \
  X(PgasPut, "put", "pgas", "i", "t", "target", "", "bytes",                   \
    CTR(PgasPuts, 1) CTR(PgasPutBytes, c))                                     \
  X(PgasGet, "get", "pgas", "i", "t", "target", "", "bytes",                   \
    CTR(PgasGets, 1) CTR(PgasGetBytes, c))                                     \
  X(PgasAcc, "acc", "pgas", "i", "t", "target", "", "bytes",                   \
    CTR(PgasAccs, 1) CTR(PgasPutBytes, c))                                     \
  /* fetch-add / swap */                                                       \
  X(PgasRmw, "rmw", "pgas", "i", "t", "target", "", "", CTR(PgasRmws, 1))      \
  /* entry into a barrier */                                                   \
  X(Barrier, "barrier", "sync", "i", "t", "", "", "", )                        \
  /* c=accumulated idle/steal/TD-poll time just ended */                       \
  X(Search, "search", "sched", "X", "", "", "", "", )                          \
  /* tc_process entry */                                                       \
  X(PhaseBegin, "tc_process", "sched", "B", "", "", "", "", )                  \
  /* c=phase duration on this rank */                                          \
  X(PhaseEnd, "tc_process", "sched", "E", "", "", "", "dur_ns",                \
    STAT(time_total, c))                                                       \
  /* a=fault::FaultType; a fault is a machine event, not a rank op */          \
  X(FaultInjected, "fault_injected", "fault", "i", "p", "fault", "target",     \
    "param", )                                                                 \
  /* b=reason (0=truncated-to-zero) */                                         \
  X(StealAborted, "steal_aborted", "fault", "i", "t", "victim", "reason", "",  \
    STAT(steals_aborted, 1))                                                   \
  /* a=source (dead) rank */                                                   \
  X(TaskRecovered, "task_recovered", "fault", "i", "t", "source", "tasks",     \
    "dur_ns", TWIN(tasks_recovered, b))                                        \
  /* b=alive rank count after the resplice */                                  \
  X(TreeRespliced, "tree_respliced", "fault", "i", "t", "epoch", "alive", "",  \
    STAT(td_resplices, 1))                                                     \
  /* never emitted; kept while perfbench/scioto_bench.cpp names it */          \
  X(ReacquireFast, "reacquire_fast", "queue", "C", "", "", "", "tasks", )      \
  /* c=silence observed so far */                                              \
  X(Suspect, "suspect", "detect", "i", "t", "rank", "", "silence_ns",          \
    STAT(suspects, 1) CTR(Suspects, 1))                                        \
  /* a=formerly-suspected rank (its heartbeat advanced) */                     \
  X(Refute, "refute", "detect", "i", "t", "rank", "", "",                      \
    STAT(refutes, 1) CTR(Refutes, 1))                                          \
  X(ConfirmDead, "confirm_dead", "detect", "i", "t", "rank", "",               \
    "silence_ns", CTR(Confirms, 1))                                            \
  /* the owner woke up, observed an adoption fence, aborted its work loop */   \
  X(FenceAbort, "fence_abort", "detect", "i", "t", "adopter", "epoch", "", )   \
  /* DAG scheduler events (src/dag). Appended so DAG-off traces stay           \
     byte-identical to pre-dag baselines. a=node id (low 32 bits); a depth     \
     of -1 is unknown, e.g. a dynamic node fired by a non-creator. */          \
  X(NodeReady, "node_ready", "dag", "i", "t", "node", "home", "depth",         \
    STAT(nodes_fired, 1) CTR(DagNodesFired, 1))                                \
  X(NodeRun, "node_run", "dag", "i", "t", "node", "group", "depth",            \
    STAT(nodes_run, 1) CTR(DagNodesRun, 1))                                    \
  /* b=conflict group whose lock was busy */                                   \
  X(ConflictRetry, "conflict_retry", "dag", "i", "t", "node", "group", "",     \
    STAT(conflict_retries, 1) CTR(DagConflictRetries, 1))                      \
  /* Adaptive control plane (src/control). Appended so controller-off          \
     traces stay byte-identical to pre-control baselines. a=control::Knob,     \
     c=control::Reason, both exported by name. */                              \
  X(KnobChange, "knob_change", "control", "i", "t", "knob", "value",           \
    "reason", CTR(CtlDecisions, 1))                                            \
  /* Elastic membership (src/elastic). Appended so elastic-off traces stay     \
     byte-identical to pre-elastic baselines. */                               \
  /* a=requesting (parked) rank */                                             \
  X(JoinRequest, "join_request", "elastic", "i", "t", "rank", "", "", )        \
  /* c=new epoch */                                                            \
  X(JoinAdmit, "join_admit", "elastic", "i", "t", "joiner", "admitter",        \
    "epoch", )                                                                 \
  /* a=checkpoint generation, b=joined-alive participants, c=wait */           \
  X(Quiesce, "quiesce", "elastic", "i", "t", "gen", "participants",            \
    "dur_ns", )                                                                \
  /* b=descriptors snapshotted here, c=part payload bytes */                   \
  X(Checkpoint, "checkpoint", "elastic", "i", "t", "gen", "tasks", "bytes", )  \
  /* a=source (saved) rank count, b=descriptors restored here */               \
  X(Restore, "restore", "elastic", "i", "t", "parts", "tasks", "bytes", )      \
  /* Causal task lineage (trace/lineage.hpp). Appended so lineage-off          \
     traces stay byte-identical to pre-lineage baselines. Task ids ride in     \
     c (they fit int64: 23 origin bits + 40 sequence bits) and join the        \
     three legs of one Chrome flow, exported by their own cases. */            \
  /* a,b=parent id high, low 32 bits (recorded by the spawning rank) */        \
  X(SpawnEdge, "spawn_edge", "lineage", "s", "", "", "", "", )                 \
  /* a=victim (the rank the task sat on), b=hop count after this migration     \
     (recorded by the thief / redeal target) */                                \
  X(MigrateEdge, "migrate_edge", "lineage", "t", "", "victim", "hops", "", )   \
  /* a=hop count at execution, b=callback handle (recorded by the executing    \
     rank; the span's duration is the paired TaskEnd's) */                     \
  X(ExecSpan, "exec_span", "lineage", "f", "", "hops", "callback", "", )

/// Typed event kinds, in table order.
enum class Ev : std::uint8_t {
#define SCIOTO_TRACE_EV_ENUM(kind, ...) kind,
  SCIOTO_TRACE_EV_KINDS(SCIOTO_TRACE_EV_ENUM, SCIOTO_ROW_SKIP, SCIOTO_ROW_SKIP,
                        SCIOTO_ROW_SKIP)
#undef SCIOTO_TRACE_EV_ENUM
};

/// A kind's row: its names and its Chrome shape.
struct EvInfo {
  const char* name;
  const char* category;
  const char* phase;  // Chrome "ph"
  const char* scope;  // Chrome "s" of an instant, "" otherwise
  const char* a;      // args labels of the payloads ("" = not exported)
  const char* b;
  const char* c;
};

/// The row of `kind`, or nullptr for a value past the table.
const EvInfo* ev_info(Ev kind);

/// Human-readable kind name (used by the exporter and analyses).
const char* ev_name(Ev kind);

/// Chrome trace category ("cat") of a kind.
const char* ev_category(Ev kind);

/// Number of counter bumps a kind's row names (0 for most kinds).
constexpr int ev_bumps(Ev kind) {
#define SCIOTO_TRACE_EV_ONE(...) +1
#define SCIOTO_TRACE_EV_BUMPS(kind, name, cat, ph, scope, a, b, c, bumps) \
  0 bumps,
  constexpr int kBumps[] = {SCIOTO_TRACE_EV_KINDS(
      SCIOTO_TRACE_EV_BUMPS, SCIOTO_TRACE_EV_ONE, SCIOTO_TRACE_EV_ONE,
      SCIOTO_TRACE_EV_ONE)};
#undef SCIOTO_TRACE_EV_BUMPS
#undef SCIOTO_TRACE_EV_ONE
  return kBumps[static_cast<int>(kind)];
}

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

// Instrumentation macro for a kind whose row names no counter: one
// predicted-false branch when no session is active (arguments are not
// evaluated). A kind that bumps counters is recorded with SCIOTO_EVENT
// (scioto/stats.hpp), which applies its bumps too.
#define SCIOTO_TRACE_EVENT(rank, kind, a, b, c)                              \
  do {                                                                       \
    static_assert(::scioto::trace::ev_bumps(kind) == 0,                      \
                  "this kind bumps counters: record it with SCIOTO_EVENT");  \
    if (::scioto::trace::active()) {                                         \
      ::scioto::trace::record((rank), (kind), static_cast<std::int32_t>(a),  \
                              static_cast<std::int32_t>(b),                  \
                              static_cast<std::int64_t>(c));                 \
    }                                                                        \
  } while (0)
