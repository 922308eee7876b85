// Global-view telemetry plane: per-rank live metrics scrapeable with
// one-sided reads.
//
// The paper's architecture (§5) keeps every process's queue state in
// one-sided-accessible shared memory; this subsystem extends that idea to
// observability. Each rank owns a fixed-schema patch of a metrics segment
// holding monotonic counters, gauges, and log2-bucketed latency histograms.
// The owner updates its patch with plain relaxed stores -- no locks, no
// CAS, no cooperation with readers -- and any rank (or the out-of-band
// monitor in metrics/monitor.hpp) can scrape a consistent snapshot of any
// patch with the same one-sided gets thieves already use:
//
//   owner (writer)                       scraper (reader)
//   seq <- seq+1   (odd: in flux)        s1 <- seq; retry while odd
//   ...relaxed stores into the patch     copy the whole patch (relaxed)
//   seq <- seq+1   (even: settled)       s2 <- seq; retry unless s1 == s2
//
// The per-rank seqlock word makes snapshots tear-free without ever making
// the owner wait: a reader that loses the race simply retries. Every slot
// is a 64-bit word accessed through std::atomic_ref, so the protocol is
// data-race-free under TSan on the threads backend; under the sim backend
// ranks are cooperatively scheduled fibers and the seqlock is trivially
// quiescent at every scrape.
//
// Gating (same discipline as trace/): nothing is recorded until
// metrics::start(nranks); armed by the SCIOTO_METRICS env var / C-API knob
// in pgas::run_spmd, or directly by benches. When no session is active
// each instrumentation site costs one predicted-false branch, so
// metrics-off runs stay byte-identical to baseline (locked in by
// tests/test_metrics.cpp).
//
// Determinism: recording never reads a clock by itself -- durations are
// handed in by instrumentation sites that only take timestamps when a
// session is active, and the monitor samples in virtual time under sim --
// so metrics-on sim runs are bit-deterministic.
#pragma once

#include <cstdint>
#include <string>

#include "base/stats.hpp"
#include "base/types.hpp"
#include "metrics/counters.h"

namespace scioto::metrics {

// ---- Fixed metric schema ----
//
// The schema is compile-time fixed so every rank's patch has the same
// layout and a scraper needs no coordination to interpret remote bytes.
// Each metric is one row of a list, and the enum, the exposition name
// and the patch layout follow from the rows. To add a counter, add a CTR
// row to SCIOTO_COUNTER_ROWS (metrics/counters.h), or a TWIN row when
// TcStats counts the same fact; to add a gauge or a histogram, add a row
// to SCIOTO_METRIC_GAUGES or SCIOTO_METRIC_HISTS below.

enum class Ctr : int {
#define SCIOTO_CTR_TWIN(field, group, id, name) id,
#define SCIOTO_CTR_ID(id, name) id,
  SCIOTO_COUNTER_ROWS(SCIOTO_ROW_SKIP, SCIOTO_CTR_TWIN, SCIOTO_CTR_ID,
                      SCIOTO_ROW_SKIP)
#undef SCIOTO_CTR_TWIN
#undef SCIOTO_CTR_ID
  kCount
};

#define SCIOTO_METRIC_GAUGES(X)                                              \
  /* private + shared tasks currently queued */                             \
  X(QueueDepth, "queue_depth")                                              \
  /* tasks in the shared (stealable) portion */                             \
  X(QueueShared, "queue_shared")                                            \
  /* split position: tasks ever moved past the split point */               \
  X(QueueSplit, "queue_split")                                              \
  /* ranks this rank's membership view believes alive */                    \
  X(AliveView, "alive_view")                                                \
  /* peers this rank currently suspects */                                  \
  X(SuspectsView, "suspects_view")                                          \
  /* dag nodes parked on this rank awaiting a gate (conflict lock or */     \
  /* data version): the deferred ready-set */                               \
  X(DagParked, "dag_parked")                                                \
  /* deepest dag node this rank has executed so far */                      \
  X(DagDepthMax, "dag_depth_max")                                           \
  /* live knob values (src/control), mirroring the rank's KnobSet: steal */ \
  /* chunk, release threshold, restricted victim set (0 = unrestricted) */  \
  X(CtlChunk, "ctl_chunk")                                                  \
  X(CtlRelease, "ctl_release")                                              \
  X(CtlVictimSet, "ctl_victim_set")

#define SCIOTO_METRIC_HISTS(X)                                               \
  /* task execution time */                                                 \
  X(TaskExecNs, "task_exec_ns")                                             \
  /* idle/steal-search spell length */                                      \
  X(SearchNs, "search_ns")                                                  \
  /* local push and pop latency */                                          \
  X(PushNs, "push_ns")                                                      \
  X(PopNs, "pop_ns")                                                        \
  /* successful steal latency (attempt -> tasks landed) */                  \
  X(StealNs, "steal_ns")                                                    \
  /* termination wave latency (root only) */                                \
  X(WaveNs, "wave_ns")                                                      \
  /* detector probe round-trip time */                                      \
  X(ProbeRttNs, "probe_rtt_ns")                                             \
  /* critical-path depth of each executed dag node */                       \
  X(DagNodeDepth, "dag_node_depth")

#define SCIOTO_METRIC_ID(id, name) id,
enum class Gauge : int { SCIOTO_METRIC_GAUGES(SCIOTO_METRIC_ID) kCount };
enum class Hist : int { SCIOTO_METRIC_HISTS(SCIOTO_METRIC_ID) kCount };
#undef SCIOTO_METRIC_ID

inline constexpr int kNumCtrs = static_cast<int>(Ctr::kCount);
inline constexpr int kNumGauges = static_cast<int>(Gauge::kCount);
inline constexpr int kNumHists = static_cast<int>(Hist::kCount);
inline constexpr int kHistBuckets = stats::kLog2Buckets;

/// Snake-case metric names used by the Prometheus exposition, the JSONL
/// monitor stream, and scioto_metrics_read().
const char* ctr_name(Ctr c);
const char* gauge_name(Gauge g);
const char* hist_name(Hist h);

// ---- Patch layout (in 64-bit words) ----
//
//   [0]                seqlock word
//   [1 .. 1+NC)        counters
//   [.. +NG)           gauges
//   per histogram:     count, sum, max, buckets[kHistBuckets]

inline constexpr int kHistWords = 3 + kHistBuckets;
inline constexpr int kPatchWords =
    1 + kNumCtrs + kNumGauges + kNumHists * kHistWords;

// ---- Session ----

/// True between start() and stop(); one relaxed atomic load.
bool active();

/// Allocates the per-rank metric patches (zeroed) and begins recording.
void start(int nranks);

/// Ends the session and releases the patches.
void stop();

/// Ranks in the active session (0 when inactive).
int session_nranks();

// ---- Owner-side recording (call only for your own rank) ----

void counter_add(Rank r, Ctr c, std::uint64_t delta = 1);
void gauge_set(Rank r, Gauge g, std::uint64_t v);
void hist_record(Rank r, Hist h, std::uint64_t v);

// ---- Snapshots ----

struct HistSnap {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t buckets[kHistBuckets] = {};

  double mean() const { return count ? double(sum) / double(count) : 0.0; }
  /// Nearest-rank percentile (bucket ceiling); see base/stats.hpp.
  std::uint64_t percentile(double p) const {
    return stats::hist_percentile(buckets, kHistBuckets, p);
  }
};

struct Snapshot {
  std::uint64_t seq = 0;  // seqlock value the copy validated against
  std::uint64_t counters[kNumCtrs] = {};
  std::uint64_t gauges[kNumGauges] = {};
  HistSnap hists[kNumHists];

  std::uint64_t ctr(Ctr c) const {
    return counters[static_cast<int>(c)];
  }
  std::uint64_t gauge(Gauge g) const {
    return gauges[static_cast<int>(g)];
  }
  const HistSnap& hist(Hist h) const {
    return hists[static_cast<int>(h)];
  }
};

/// Seqlock-validated copy of rank r's patch. Retries while the owner is
/// mid-update; returns false only if `max_retries` consecutive attempts
/// raced (out) or no session is active.
bool scrape(Rank r, Snapshot* out, int max_retries = 1 << 20);

/// Reads one metric out of a snapshot by name: any counter or gauge name,
/// or a histogram name suffixed with _count, _sum, _max, _mean, _p50,
/// _p95, or _p99 (e.g. "steal_ns_p99"). Returns false for unknown names.
bool read_metric(const Snapshot& snap, const std::string& name,
                 std::uint64_t* out);

/// Prometheus-style text exposition of every rank's current metrics
/// (scrapes each patch; empty string when no session is active).
std::string prometheus_text();

// ---- Staged configuration (C API knob; env vars override in run_spmd) ----

struct Config {
  bool enabled = false;          // arm a session inside pgas::run_spmd
  TimeNs period = 100'000;       // monitor sampling period (ns)
  std::string out_path;          // JSONL time-series (empty: keep in memory)
  std::string prom_path;         // Prometheus dump at finalize (empty: none)
};

Config config();
void set_config(const Config& cfg);

}  // namespace scioto::metrics

// Instrumentation macros: one predicted-false branch when no session is
// active (arguments unevaluated). SCIOTO_METRICS_ON() guards clock reads
// that only exist to feed a histogram.
#define SCIOTO_METRICS_ON() (::scioto::metrics::active())
#define SCIOTO_METRIC_CTR(rank, ctr, delta)                               \
  do {                                                                    \
    if (::scioto::metrics::active()) {                                    \
      ::scioto::metrics::counter_add((rank), (ctr),                       \
                                     static_cast<std::uint64_t>(delta));  \
    }                                                                     \
  } while (0)
#define SCIOTO_METRIC_GAUGE(rank, gauge, v)                               \
  do {                                                                    \
    if (::scioto::metrics::active()) {                                    \
      ::scioto::metrics::gauge_set((rank), (gauge),                       \
                                   static_cast<std::uint64_t>(v));        \
    }                                                                     \
  } while (0)
#define SCIOTO_METRIC_HIST(rank, hist, v)                                 \
  do {                                                                    \
    if (::scioto::metrics::active()) {                                    \
      ::scioto::metrics::hist_record((rank), (hist),                      \
                                     static_cast<std::uint64_t>(v));      \
    }                                                                     \
  } while (0)
