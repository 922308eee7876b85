// Parallel UTS drivers: Scioto task collections (with or without split
// queues) and the two-sided MPI-style work-stealing baseline. Both process
// the identical deterministic tree; results must match uts_sequential()
// exactly.
#pragma once

#include "apps/uts/uts.hpp"
#include "baselines/mpi_ws.hpp"
#include "scioto/task_collection.hpp"

namespace scioto::apps {

struct UtsRunConfig {
  /// Virtual compute cost per tree node, including the worker's own stack
  /// management (the paper measures whole-loop per-node costs: 0.3158 us
  /// Opteron / 0.4753 us Xeon on the cluster, 0.5681 us on the XT4 -- the
  /// sim's per-rank cpu_scale turns this base cost into the heterogeneous
  /// mix).
  TimeNs node_cost = ns(316);
  /// Steal granularity in tasks (paper microbenchmarks use 10).
  int chunk = 10;
  /// Queue variant: NoSplit gives the "No Split" ablation line of
  /// Figure 7; LockFree exercises the §8 lock-free (CAS) steal path.
  QueueMode queue_mode = QueueMode::Split;
  /// §5.3 token-coloring optimization.
  bool color_optimization = true;
  /// Per-rank queue capacity.
  std::int64_t max_tasks = 1 << 14;
  /// Steal-half chunking (see TcConfig), defaulting to the collection's
  /// own default; false gives the paper's fixed-chunk steals.
  bool steal_half = TcConfig{}.steal_half;
  /// MPI-WS: nodes processed between polls for steal requests. The
  /// original UTS-MPI polls on every node -- this explicit polling is
  /// precisely the overhead the paper credits Scioto with eliminating
  /// (§6.3).
  int poll_interval = 1;
};

struct UtsResult {
  UtsCounts counts;
  /// Wall/virtual time of the parallel phase (max over ranks).
  TimeNs elapsed = 0;
  /// Throughput in million tree nodes per second.
  double mnodes_per_sec = 0;
  /// Scheduler counters (Scioto runs aggregate TcStats; MPI-WS runs map
  /// its own counters onto the matching fields).
  std::uint64_t steals = 0;
  std::uint64_t tasks_stolen = 0;
  std::uint64_t polls = 0;  // MPI-WS only
  /// Full global TcStats snapshot (Scioto runs only; render with
  /// tc_stats_table).
  TcStats stats;
  /// Ranks still alive at the end of the run (nprocs without faults).
  int survivors = 0;
};

/// Collective: UTS under a Scioto task collection.
UtsResult uts_run_scioto(pgas::Runtime& rt, const UtsParams& tree,
                         const UtsRunConfig& cfg);

/// Collective: UTS under a Scioto task collection with fault recovery.
/// Per-rank node counts live in shared space, so work completed by a rank
/// that is later fail-stopped is never lost: survivors sum every rank's
/// patch (dead ranks' exposed segments stay readable) and the total must
/// still match uts_sequential() exactly. Ranks killed mid-run propagate
/// fault::RankKilled out of this call; survivors return normally.
UtsResult uts_run_scioto_ft(pgas::Runtime& rt, const UtsParams& tree,
                            const UtsRunConfig& cfg);

/// Collective: the fault-tolerant UTS driver with checkpoint hooks wired,
/// for elastic runs that quiesce mid-traversal. The per-rank durable
/// counts ride along in each part file's application blob (the quiesce
/// leader also folds in the patches of dead and parked ranks, which write
/// no part of their own), and a restore accumulates incoming blobs into
/// the restoring rank's patch -- so a checkpoint/halt run followed by a
/// restore run, possibly on a different fleet size, sums to exactly the
/// uninterrupted traversal's counts.
UtsResult uts_run_scioto_elastic(pgas::Runtime& rt, const UtsParams& tree,
                                 const UtsRunConfig& cfg);

/// Collective: UTS under two-sided work stealing with explicit polling.
UtsResult uts_run_mpi_ws(pgas::Runtime& rt, const UtsParams& tree,
                         const UtsRunConfig& cfg);

}  // namespace scioto::apps
