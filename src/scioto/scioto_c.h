// C-style API mirroring the paper's programming interface (§3.1, §3.2):
//
//   tc_t  tc_create(int task_sz, int chunk_sz, int max_sz)
//   void  tc_destroy(tc_t tc)
//   void  tc_add(tc_t tc, int proc, int affty, task_t *t)
//   void  tc_process(tc_t tc)
//   int   tc_register_callback(tc_t tc, callback_t fcn)
//   task_t *tc_task_create(int body_sz, task_handle_t th)
//   void  tc_task_destroy(task_t *task)
//   void *tc_task_body(task_t *task)
//   void  tc_task_reuse(task_t *task)
//   void  tc_reset(tc_t tc)
//
// The shim binds to the ambient PGAS runtime of the current SPMD region:
// call scioto::capi::bind_runtime(rt) at the top of the rank body (the
// analog of the paper's tc_init). All calls are made from rank context and
// follow the same collectives discipline as the C++ API.
//
// This is a thin veneer over scioto::TaskCollection kept for fidelity with
// the paper's listings (see examples/matmul_c_api.cpp); new code should
// prefer the C++ API.
#pragma once

#include <cstdint>

#include "metrics/counters.h"

namespace scioto::pgas {
class Runtime;
}

extern "C" {

/// Opaque task-collection handle (dense index, identical on every rank).
typedef int tc_t;
/// Opaque task descriptor (header + body), heap-allocated.
typedef struct sc_task task_t;
typedef int task_handle_t;
/// Task callback: receives the collection handle and a pointer to the
/// executing task's descriptor (valid for the duration of the call).
typedef void (*tc_callback_t)(tc_t tc, task_t* task);

enum { TC_AFFINITY_LOW = 0, TC_AFFINITY_HIGH = 1 };

/// C view of scioto::TcStats: execution counters since tc_create() or the
/// last tc_reset(), one field per row of the counter table
/// (metrics/counters.h). Times are nanoseconds (virtual under the sim
/// backend); the fault-group counters stay zero without a fault plan.
typedef struct scioto_stats {
#define SCIOTO_C_STATS_FIELD(field, ...) uint64_t field;
#define SCIOTO_C_STATS_TIME(field) int64_t field##_ns;
  SCIOTO_COUNTER_ROWS(SCIOTO_C_STATS_FIELD, SCIOTO_C_STATS_FIELD,
                      SCIOTO_ROW_SKIP, SCIOTO_C_STATS_TIME)
#undef SCIOTO_C_STATS_FIELD
#undef SCIOTO_C_STATS_TIME
} scioto_stats_t;

/// Collective. Creates a task collection sized for descriptors with up to
/// task_sz body bytes, steal chunks of chunk_sz, and max_sz tasks/rank.
tc_t tc_create(int task_sz, int chunk_sz, long max_sz);
/// Collective.
void tc_destroy(tc_t tc);
/// Collective; all ranks must register the same callbacks in order.
task_handle_t tc_register_callback(tc_t tc, tc_callback_t fcn);
/// Adds a copy of the task to rank `proc` with the given affinity.
void tc_add(tc_t tc, int proc, int affty, task_t* t);
/// Collective MIMD region; returns at global termination.
void tc_process(tc_t tc);
/// Collective; rearms the collection for another phase.
void tc_reset(tc_t tc);
/// Collective: fills `out` with statistics summed over all ranks.
void tc_stats_get(tc_t tc, scioto_stats_t* out);
/// Queue mode of this collection ("split" or "no-split"); static storage,
/// valid for the process lifetime.
const char* tc_queue_mode(tc_t tc);

task_t* tc_task_create(int body_sz, task_handle_t th);
void tc_task_destroy(task_t* task);
void* tc_task_body(task_t* task);
/// Copy-in semantics make the buffer immediately reusable; provided for
/// API parity.
void tc_task_reuse(task_t* task);

/// This rank / number of ranks of the bound runtime (paper examples use
/// GA_Nodeid/GA_Nnodes; provided here for self-contained C-style code).
int tc_mype(void);
int tc_nprocs(void);

/* ---- Resilience knobs ----------------------------------------------------
 * C access to the fault-tolerance layer: the retry discipline for
 * transient one-sided-op failures (mirrors fault::RetryPolicy) and the
 * fault-plan passthrough consumed by the next SPMD run. These are
 * process-global, not per-collection, and may be called before any
 * runtime is bound. */

/// Max attempts per failed one-sided op before the caller gives up.
int scioto_retry_limit(void);
void scioto_set_retry_limit(int max_attempts);

/// Exponential-backoff clamp, in nanoseconds (virtual ns under the sim
/// backend).
int64_t scioto_backoff_cap_ns(void);
void scioto_set_backoff_cap_ns(int64_t cap_ns);

/// First-retry delay, in nanoseconds.
int64_t scioto_backoff_base_ns(void);
void scioto_set_backoff_base_ns(int64_t base_ns);

/// Validates `spec` (compact "kill:rank=3,at=5ms;..." form, a JSON array,
/// or "@file") and stages it in SCIOTO_FAULT_PLAN for the next
/// scioto::pgas::run_spmd. Returns 0 on success; on parse failure returns
/// -1, stages nothing, and copies the error message into `errbuf` (when
/// non-NULL, truncated to errbuf_len). NULL or "" clears the staged plan.
int scioto_fault_plan_set(const char* spec, char* errbuf, int errbuf_len);

/// The currently staged plan spec ("" when none). Points at storage owned
/// by the library; valid until the next scioto_fault_plan_set call.
const char* scioto_fault_plan(void);

/* ---- Failure detector ----------------------------------------------------
 * The heartbeat failure detector replaces the omniscient alive-oracle:
 * each rank publishes a heartbeat counter in its PGAS segment and probes
 * a small neighbor set; silent peers move alive -> suspect -> confirmed
 * dead, and queue adoption is lease-fenced so falsely-suspected ranks
 * rejoin without double-executing work. Knobs are process-global and
 * staged: setters apply to the next SPMD run (mirrors scioto::detect::
 * Config), matching the SCIOTO_DETECTOR / SCIOTO_HB_PERIOD /
 * SCIOTO_SUSPECT_AFTER environment knobs. Times are nanoseconds (virtual
 * under the sim backend, wall-clock under threads). */

/// Nonzero when the detector is staged to arm on the next SPMD run.
int scioto_detector_enabled(void);
void scioto_detector_set(int enabled);

/// Own-heartbeat publish period.
int64_t scioto_hb_period_ns(void);
void scioto_set_hb_period_ns(int64_t period_ns);

/// Silence before a probed peer becomes suspect.
int64_t scioto_suspect_timeout_ns(void);
void scioto_set_suspect_timeout_ns(int64_t timeout_ns);

/// Detector counters, summed over ranks for the current (or last) armed
/// detector session. All zero when the detector never ran.
typedef struct scioto_detector_stats {
  uint64_t heartbeats;      /* own-counter publishes */
  uint64_t probes;          /* one-sided heartbeat reads issued */
  uint64_t suspects;        /* alive -> suspect transitions observed */
  uint64_t refutes;         /* suspect -> alive (heartbeat advanced) */
  uint64_t confirms;        /* suspect -> confirmed-dead transitions */
  uint64_t fence_aborts;    /* owners that observed an adoption fence */
  uint64_t rejoins;         /* falsely-suspected ranks re-admitted */
  uint64_t max_detect_latency_ns; /* worst silence at a confirmation */
} scioto_detector_stats_t;

void scioto_detector_stats_get(scioto_detector_stats_t* out);

/* ---- Elastic membership --------------------------------------------------
 * Runtime rank join and checkpoint/restore of task-collection state
 * (src/elastic). Process-global and staged like the detector knobs: the
 * setters apply to the next SPMD run (the SCIOTO_ELASTIC /
 * SCIOTO_CKPT_PATH / SCIOTO_CKPT_PERIOD / SCIOTO_CKPT_RESTORE environment
 * knobs override them). Join schedules come from the fault plan
 * ("join:rank=6,at=2ms"); checkpoint points come from "ckpt:at=..."
 * rules, the staged period, or scioto_ckpt_request() mid-run. */

/// Nonzero when elastic membership is staged to arm on the next SPMD run.
int scioto_elastic_enabled(void);
void scioto_elastic_set(int enabled);

/// Base path for checkpoint files: rank k writes "<path>.r<k>" and the
/// quiesce leader writes the manifest at "<path>". "" disables writing.
/// The returned pointer is library-owned, valid until the next set.
const char* scioto_ckpt_path(void);
void scioto_ckpt_path_set(const char* path);

/// Periodic checkpoint cadence, in nanoseconds (virtual under the sim
/// backend, wall-clock under threads). 0 disables the cadence; rules and
/// explicit requests still fire.
int64_t scioto_ckpt_period_ns(void);
void scioto_ckpt_set_period_ns(int64_t period_ns);

/// Manifest to restore queue state from at the start of the next
/// tc_process ("" = no restore). Descriptors are re-dealt round-robin
/// over the joined ranks, so the restoring fleet may have a different
/// size than the one that wrote the checkpoint.
const char* scioto_ckpt_restore_path(void);
void scioto_ckpt_restore_set(const char* path);

/// Nonzero to end tc_process right after the next checkpoint completes
/// (checkpoint-then-exit; pair with a restore run).
int scioto_ckpt_halt_after(void);
void scioto_ckpt_set_halt_after(int halt);

/// Requests one extra checkpoint from inside a running tc_process; the
/// fleet quiesces at the next pump. Safe from any rank/thread.
void scioto_ckpt_request(void);

/// Elastic counters for the current (or last) armed session, plus the
/// membership view's growth counters. All zero when elastic never ran.
typedef struct scioto_elastic_stats {
  uint64_t checkpoints;  /* snapshots this rank completed */
  uint64_t restores;     /* restore passes (counted once, on rank 0) */
  uint64_t joins;        /* parked ranks admitted into the fleet */
  uint64_t grows;        /* admission waves (epoch bumps from joins) */
} scioto_elastic_stats_t;

void scioto_elastic_stats_get(scioto_elastic_stats_t* out);

/* ---- Live metrics --------------------------------------------------------
 * The global-view telemetry plane: per-rank counters, gauges, and
 * latency histograms in a seqlock-snapshotted patch any rank can scrape
 * with one-sided reads. Process-global and staged like the detector
 * knobs: scioto_metrics_set() arms a session inside the next SPMD run
 * (the SCIOTO_METRICS / SCIOTO_METRICS_PERIOD / SCIOTO_METRICS_OUT /
 * SCIOTO_METRICS_PROM environment knobs override it). Reads work both
 * during a run (live) and right up to scioto run teardown. */

/// Nonzero when a metrics session is staged to arm on the next SPMD run.
int scioto_metrics_enabled(void);
void scioto_metrics_set(int enabled);

/// Monitor sampling period, in nanoseconds (virtual under sim).
int64_t scioto_metrics_period_ns(void);
void scioto_set_metrics_period_ns(int64_t period_ns);

/// Opaque tear-free snapshot of one rank's metric patch, taken with the
/// same seqlock-validated copy the monitor uses. Returns a handle to
/// library-owned storage (freed by scioto_metrics_snapshot_free), or NULL
/// when no metrics session is active or the scrape kept racing.
typedef struct scioto_metrics_snapshot scioto_metrics_snapshot_t;
scioto_metrics_snapshot_t* scioto_metrics_snapshot(int rank);
void scioto_metrics_snapshot_free(scioto_metrics_snapshot_t* snap);

/// Reads one metric out of a snapshot by its exposition name: any counter
/// or gauge ("tasks_executed", "queue_depth", ...) or a histogram name
/// suffixed _count/_sum/_max/_mean/_p50/_p95/_p99 ("steal_ns_p99").
/// Returns 0 and stores into *value on success, -1 on unknown name.
int scioto_metrics_read(const scioto_metrics_snapshot_t* snap,
                        const char* name, uint64_t* value);

/// One-call convenience: scrape `rank` and read `name` from the fresh
/// snapshot. Returns 0 on success, -1 when inactive or unknown.
int scioto_metrics_read_rank(int rank, const char* name, uint64_t* value);

/* ---- Adaptive control plane ----------------------------------------------
 * The feedback controller that closes the metrics -> knobs loop online:
 * per-rank live tuning parameters (steal chunk, release threshold,
 * victim set) retuned from telemetry by a one-rule hysteresis engine that
 * every rank runs on its own ("local"). Staged like the
 * detector and metrics knobs: scioto_ctl_mode_set() arms a session inside
 * the next SPMD run (the SCIOTO_CONTROLLER / SCIOTO_CTL_PERIOD /
 * SCIOTO_CTL_RULES environment knobs override it). The tc_knob_* calls
 * below work with or without an armed controller -- they poke the live
 * KnobSet directly. */

/// Staged controller mode: "off" or "local".
const char* scioto_ctl_mode(void);
/// Stages the mode for the next SPMD run. Returns 0, or -1 on an unknown
/// mode name (nothing staged).
int scioto_ctl_mode_set(const char* mode);

/// Controller epoch period, in nanoseconds (virtual under sim).
int64_t scioto_ctl_period_ns(void);
void scioto_ctl_set_period_ns(int64_t period_ns);

/// Stages rule-engine thresholds from a "key=value;key=value" spec (keys:
/// cov_hi, dwell, release_min, chunk_burst, hot_set). Returns 0; on a bad
/// spec (an unknown key included) returns -1, stages nothing, and copies
/// the message into errbuf (when non-NULL, truncated to errbuf_len). NULL
/// or "" restores the defaults.
int scioto_ctl_rules_set(const char* spec, char* errbuf, int errbuf_len);

/// Controller counters for the current (or last) armed session; all zero
/// when no controller ever ran.
typedef struct scioto_ctl_stats {
  uint64_t epochs;     /* decision epochs executed */
  uint64_t decisions;  /* knob changes applied (all ranks) */
  uint64_t inherits;   /* knob rows adopted from dead ranks */
} scioto_ctl_stats_t;

void scioto_ctl_stats_get(scioto_ctl_stats_t* out);

/// Live knob access on this rank's view of a collection, by knob name
/// ("steal_chunk", "release_threshold", "victim_set"). Sets are clamped to
/// the knob's bounds and take effect mid-process() -- unlike the tc_create
/// parameters, which only seed the initial values. Returns 0 on success,
/// -1 on an unknown knob name. Steal-half is not a live knob: it is fixed
/// when the collection is created.
int tc_knob_get(tc_t tc, const char* name, int64_t* value);
int tc_knob_set(tc_t tc, const char* name, int64_t value);

/* ---- Dataflow DAG scheduler ----------------------------------------------
 * C veneer over scioto::dag::DagScheduler (src/dag): replicated graph
 * build (every rank makes identical calls, node bodies stay local), then a
 * collective execute that runs nodes in dependency order through the task
 * collection -- ready nodes still migrate via work stealing. Same
 * collectives discipline as tc_*; see the C++ header for semantics. */

/// Opaque DAG handle (dense per-collection index, identical on all ranks).
typedef int scioto_dag_t;
/// Node identifier as returned by scioto_dag_add_node.
typedef int64_t scioto_dag_node_t;
/// Node body: runs on whichever rank executes the node, with the `user`
/// pointer given at add time (must be valid on every rank -- replicated
/// build means each rank registered its own local pointer).
typedef void (*scioto_dag_node_fn)(void* user);

/// Collective: creates a DAG scheduler over the collection.
scioto_dag_t scioto_dag_create(tc_t tc);
/// Rank-local teardown of this rank's scheduler object.
void scioto_dag_destroy(scioto_dag_t dag);
/// Adds a node homed on `home`; `group` is a conflict group from
/// scioto_dag_conflict_group or -1 for none. Returns the node id, or -1 on
/// invalid arguments.
scioto_dag_node_t scioto_dag_add_node(scioto_dag_t dag, int home,
                                      scioto_dag_node_fn fn, void* user,
                                      int group);
/// `succ` cannot start until `pred` completed. Returns 0, or -1 on invalid
/// ids / self-edge (message copied into errbuf when non-NULL).
int scioto_dag_add_edge(scioto_dag_t dag, scioto_dag_node_t pred,
                        scioto_dag_node_t succ, char* errbuf, int errbuf_len);
/// Creates a conflict group: nodes in one group serialize without ordering.
int scioto_dag_conflict_group(scioto_dag_t dag);
/// Collective: validates (0 return) and runs the graph to completion.
/// Returns -1 on a build error -- e.g. a dependency cycle, whose node ids
/// are named in the message copied into errbuf.
int scioto_dag_execute(scioto_dag_t dag, char* errbuf, int errbuf_len);

/// C view of scioto::dag::DagStats summed over ranks (max_depth maxed).
typedef struct scioto_dag_stats {
  uint64_t nodes_run;
  uint64_t nodes_fired;
  uint64_t remote_fires;
  uint64_t conflict_retries;
  uint64_t version_waits;
  uint64_t dyn_spawned;
  uint64_t satisfies;
  uint64_t max_depth;
} scioto_dag_stats_t;

/// Collective: fills `out` with global statistics from the last execute.
void scioto_dag_stats_get(scioto_dag_t dag, scioto_dag_stats_t* out);

/* ---- Causal task lineage -------------------------------------------------
 * Per-task causal records (id / parent / hop count) carried through the
 * descriptor wire format, plus the post-run critical-path analyzer over
 * the recorded SpawnEdge/MigrateEdge/ExecSpan stream (src/trace/
 * lineage.hpp). Process-global and staged like the detector knobs:
 * scioto_lineage_set() arms a session inside the next SPMD run (the
 * SCIOTO_LINEAGE environment knob overrides it). The report needs both a
 * lineage session and a trace session (the edges live in the trace
 * rings), read after tc_process and before run teardown. */

/// Nonzero when lineage is staged to arm on the next SPMD run.
int scioto_lineage_enabled(void);
void scioto_lineage_set(int enabled);

typedef struct scioto_lineage_report {
  uint64_t tasks_spawned;       /* SpawnEdge events recorded */
  uint64_t tasks_executed;      /* ExecSpan events recorded */
  uint64_t migrations;          /* MigrateEdge events (steals + redeals) */
  uint64_t max_hops;            /* deepest steal chain at execution */
  uint64_t violations;          /* happens-before failures (0 = valid) */
  uint64_t ring_dropped;        /* trace events lost to ring wrap */
  int64_t critical_path_ns;     /* weighted critical-path length */
  int64_t spawn_exec_p50_ns;    /* spawn-to-execution latency median */
  int64_t spawn_exec_p99_ns;    /* spawn-to-execution latency p99 */
} scioto_lineage_report_t;

/// Merges the per-rank rings, validates happens-before, and extracts the
/// critical path. Returns 0 on success; -1 when no lineage + trace
/// session pair is active.
int scioto_lineage_report_get(scioto_lineage_report_t* out);

}  // extern "C"

namespace scioto {
class TaskCollection;
}

namespace scioto::capi {

/// Binds the C API to the calling SPMD region's runtime. Must be invoked
/// by every rank before any tc_* call; unbinds automatically when the
/// returned guard is destroyed.
class RuntimeBinding {
 public:
  explicit RuntimeBinding(pgas::Runtime& rt);
  ~RuntimeBinding();
  RuntimeBinding(const RuntimeBinding&) = delete;
  RuntimeBinding& operator=(const RuntimeBinding&) = delete;
};

/// The bound runtime and the calling rank's collection for a tc handle.
/// For layered C shims built on tc_* handles (the DAG veneer in src/dag
/// lives in a separate library and cannot reach the internal table).
/// Throw scioto::Error when unbound / invalid.
pgas::Runtime& bound_runtime();
TaskCollection& lookup_collection(tc_t h);

}  // namespace scioto::capi
