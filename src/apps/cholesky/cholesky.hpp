// Blocked right-looking Cholesky: the dependency engine's proof
// application.
//
// A = L * L^T over an nt x nt grid of b x b tiles in a Global Array.
// Unlike UTS/SCF/TCE -- independent task bags -- tiled Cholesky has a
// dense true-dependence structure, so it exercises everything src/dag
// adds: dependency edges (potrf -> trsm -> update chains), conflict
// groups (the k-indexed downdates of one trailing tile commute, so they
// only need mutual exclusion, not order), and data edges (the producer
// fences its tile's owner before the decrement that fires a consumer).
//
// Two schedules over the identical tile kernels and identical virtual
// charges:
//   cholesky_dag     one task per tile kernel, homed at its output
//                    tile's owner, free to overlap panel steps and to
//                    migrate by stealing;
//   cholesky_static  the owner-computes fork-join baseline, three
//                    barrier-separated phases per panel step k.
// The row-panel distribution makes the trailing-update work triangular
// across ranks, so the static schedule pays max-per-rank at every
// barrier while the dataflow schedule keeps everyone busy across steps.
#pragma once

#include <cstdint>

#include "base/types.hpp"
#include "dag/dag.hpp"

namespace scioto::ga {
class GlobalArray;
}

namespace scioto::apps {

struct CholeskyConfig {
  /// Tile grid side: the matrix is (tiles*tile) x (tiles*tile).
  int tiles = 8;
  /// Tile side length b.
  int tile = 16;
  /// Virtual cost per fused multiply-add inside a tile kernel (sim
  /// backend). Toy b stands in for the b ~ 128..256 tiles a real run
  /// would use, so the per-fma charge is inflated to land each tile
  /// kernel at the hundreds-of-microseconds scale those tiles cost on
  /// the paper's 2008 cluster.
  TimeNs flop_cost = ns(100);
};

struct CholeskyResult {
  /// Virtual makespan under sim (max rank clock); wall time under
  /// threads.
  double elapsed_ms = 0;
  /// ||L L^T - A||_F / ||A||_F, computed on rank 0 and broadcast.
  double residual = 0;
  /// Tile-kernel tasks executed fleet-wide.
  std::uint64_t tasks_run = 0;
  /// Scheduler stats (zero-initialized for the static baseline).
  dag::DagStats dag;
};

/// Deterministic SPD test-matrix entry: 1/(1+|i-j|) off the diagonal,
/// diagonally dominant. Position-keyed, so any rank can (re)generate any
/// entry without communication.
double cholesky_spd_entry(std::int64_t i, std::int64_t j, std::int64_t n);

/// Collective. Factorizes on the DAG scheduler; on return `elapsed_ms`
/// covers build+execute and `residual` has been verified fleet-wide.
CholeskyResult cholesky_dag(pgas::Runtime& rt, const CholeskyConfig& cfg);

/// Collective. Same factorization, static owner-computes schedule with
/// per-step barriers.
CholeskyResult cholesky_static(pgas::Runtime& rt, const CholeskyConfig& cfg);

}  // namespace scioto::apps
