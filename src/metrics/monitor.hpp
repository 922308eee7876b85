// The out-of-band monitor: a periodic sampler over the metrics patches.
//
// Every sampling tick scrapes all ranks' metric patches (seqlock-validated
// one-sided reads; see metrics/metrics.hpp), computes fleet aggregates --
// total in-flight tasks, queue-depth imbalance (coefficient of variation
// and Gini index over the alive ranks), steal success rate, detector state
// rollup -- and appends one JSONL snapshot line to SCIOTO_METRICS_OUT
// and/or an in-memory series. With `live` set it also renders a TTY
// dashboard (one row per rank: state, depth bar, counters), which is what
// `bench_fig7 --live` and `fault_demo --live` show.
//
// Time sources (the determinism split):
//   * sim backend: the monitor is *poll-driven*. Ranks pump monitor_poll()
//     from the task-collection work loop; the lowest-alive rank samples
//     whenever its virtual clock passes the next deadline. Scrapes charge
//     nothing, so metrics-on sim runs are bit-deterministic and their
//     traces identical to metrics-off runs.
//   * threads backend: a wall-clock sampler thread wakes every `period`
//     ns, like a real out-of-band monitor process scraping the PGAS
//     segment of a running job.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/types.hpp"

namespace scioto::metrics {

enum class RankState : int { Alive = 0, Suspect = 1, Dead = 2 };

struct MonitorOptions {
  TimeNs period = 100'000;  // virtual ns (sim) or wall ns (threads)
  std::string out_path;     // JSONL sink; empty keeps samples in memory only
  bool live = false;        // render the TTY dashboard on every sample
  bool wall_thread = false; // sample from a wall-clock thread (threads
                            // backend); otherwise poll-driven (sim)
};

struct RankSample {
  Rank r = kNoRank;
  RankState state = RankState::Alive;
  std::uint64_t depth = 0;    // private + shared tasks queued
  std::uint64_t shared = 0;   // stealable portion
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;   // successful steals by this rank
  std::uint64_t stolen = 0;   // tasks this rank received by stealing
  /// Trace events this rank's ring has overwritten so far (0 without an
  /// active trace session). Until now only the exporter reported drops,
  /// so a live run could silently lose events; the rollup surfaces the
  /// loss while the run can still be re-launched with a bigger ring.
  std::uint64_t trace_dropped = 0;
};

struct FleetSample {
  TimeNs t = 0;
  std::vector<RankSample> ranks;
  std::uint64_t depth_sum = 0;       // in-flight tasks across alive ranks
  std::uint64_t executed = 0;        // fleet total
  std::uint64_t steal_attempts = 0;  // fleet total
  std::uint64_t steals = 0;          // fleet total
  std::uint64_t tasks_stolen = 0;    // fleet total
  double cov = 0.0;                  // queue-depth coefficient of variation
  double gini = 0.0;                 // queue-depth Gini index
  double steal_success = 0.0;        // steals / attempts
  int alive = 0;
  int suspects = 0;
  int dead = 0;
  // Elastic growth rollup (detect::Stats joins/grows via the growth
  // hook); both stay 0 for a static fleet.
  std::uint64_t joins = 0;   // parked ranks admitted so far
  std::uint64_t grows = 0;   // admission waves (join epoch bumps)
  std::uint64_t trace_dropped = 0;  // fleet total of per-rank ring drops
};

/// True between monitor_start() and monitor_stop().
bool monitor_active();

/// Starts the sampler over an already-started metrics session.
void monitor_start(int nranks, const MonitorOptions& opts);

/// Stops the sampler (joins the wall-clock thread if any) and closes the
/// JSONL sink. The in-memory series survives until the next start.
void monitor_stop();

/// Installs the per-rank liveness classifier the sampler and dashboard
/// use. Defaults to "everyone alive"; pgas::run_spmd installs one backed
/// by the detector's membership view.
void monitor_set_liveness(std::function<RankState(Rank)> fn);

/// Installs the fleet-growth reader the sampler uses to fill
/// FleetSample.joins/grows: returns {ranks admitted, admission waves}.
/// Defaults to {0, 0}; pgas::run_spmd installs one backed by the
/// membership view's counters (the monitor cannot link upward to
/// detect). Pass nullptr to remove.
void monitor_set_growth(
    std::function<std::pair<std::uint64_t, std::uint64_t>()> fn);

/// Installs a hook invoked with every FleetSample right after it is
/// computed (before it is appended to the series), from the sampler's
/// context. This is how the control plane (src/control) observes the
/// fleet without the monitor linking upward: the local controllers read
/// the digest the hook publishes, and the global controller *is* the
/// hook. Survives monitor_stop/start; pass nullptr to uninstall.
void monitor_set_sample_hook(std::function<void(const FleetSample&)> fn);

/// Installs a per-rank renderer for the live dashboard's knobs column
/// (empty string = no column). The control plane installs one that
/// prints the rank's current published KnobSet. Pass nullptr to remove.
void monitor_set_knobs_text(std::function<std::string(Rank)> fn);

/// Pump from a rank's work loop (sim backend). Only the lowest-alive rank
/// samples, and only once `now` passes the next deadline; everyone else
/// pays one relaxed load. No-op when the monitor is thread-driven.
void monitor_poll(Rank me, TimeNs now);

/// The virtual time from which monitor_poll() takes the next sample;
/// kTimeNever when no poll-driven monitor is running. It only moves later,
/// so a rank that sleeps to this deadline wakes no later than the poll
/// that samples.
TimeNs monitor_next_due();

/// Takes one sample immediately. Returns the number of ranks scraped, or
/// 0 when the monitor is inactive.
int monitor_sample(TimeNs now);

/// The in-memory time series recorded so far (valid after monitor_stop,
/// cleared by the next monitor_start).
const std::vector<FleetSample>& monitor_samples();

// ---- Fleet aggregate helpers (exposed for tests and benches) ----

/// Coefficient of variation (stddev / mean) of a population; 0 if the
/// mean is 0.
double cov_index(const std::vector<std::uint64_t>& xs);

/// Gini index of a population: 0 = perfectly balanced, -> 1 = one rank
/// holds everything; 0 if the sum is 0.
double gini_index(const std::vector<std::uint64_t>& xs);

}  // namespace scioto::metrics
