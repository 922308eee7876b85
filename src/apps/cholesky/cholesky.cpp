#include "apps/cholesky/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "base/error.hpp"
#include "base/linalg.hpp"
#include "ga/global_array.hpp"
#include "scioto/task_collection.hpp"

namespace scioto::apps {

namespace {

// Per-kernel fma counts of the b x b tile operations; the virtual charge
// is count * flop_cost so both schedules pay identical compute.
std::int64_t potrf_flops(std::int64_t b) { return b * b * b / 3 + b; }
std::int64_t trsm_flops(std::int64_t b) { return b * b * b / 2; }
std::int64_t syrk_flops(std::int64_t b) { return b * b * b / 2; }
std::int64_t gemm_flops(std::int64_t b) { return b * b * b; }

struct TileBuf {
  std::vector<double> a, l, r;
  explicit TileBuf(std::int64_t b)
      : a(static_cast<std::size_t>(b * b)),
        l(static_cast<std::size_t>(b * b)),
        r(static_cast<std::size_t>(b * b)) {}
};

// The four kernel task bodies, shared verbatim by both schedules: fetch
// tiles one-sided, run the kernel, charge, write the output tile back.
void do_potrf(ga::GlobalArray& m, std::int64_t b, int k, TileBuf& tb) {
  const std::int64_t r0 = k * b, c0 = k * b;
  m.get(r0, r0 + b, c0, c0 + b, tb.a.data(), b);
  SCIOTO_REQUIRE(potrf_tile(tb.a.data(), b),
                 "cholesky: non-SPD pivot in tile (" << k << ", " << k
                                                    << ")");
  m.put(r0, r0 + b, c0, c0 + b, tb.a.data(), b);
}

void do_trsm(ga::GlobalArray& m, std::int64_t b, int i, int k,
             TileBuf& tb) {
  m.get(k * b, k * b + b, k * b, k * b + b, tb.l.data(), b);
  m.get(i * b, i * b + b, k * b, k * b + b, tb.a.data(), b);
  trsm_tile(tb.a.data(), tb.l.data(), b);
  m.put(i * b, i * b + b, k * b, k * b + b, tb.a.data(), b);
}

void do_update(ga::GlobalArray& m, std::int64_t b, int i, int j, int k,
               TileBuf& tb) {
  m.get(i * b, i * b + b, k * b, k * b + b, tb.a.data(), b);
  if (i != j) {
    m.get(j * b, j * b + b, k * b, k * b + b, tb.l.data(), b);
  }
  m.get(i * b, i * b + b, j * b, j * b + b, tb.r.data(), b);
  if (i == j) {
    syrk_tile(tb.r.data(), tb.a.data(), b);
  } else {
    gemm_tile(tb.r.data(), tb.a.data(), tb.l.data(), b);
  }
  m.put(i * b, i * b + b, j * b, j * b + b, tb.r.data(), b);
}

/// Tile-aligned row partition so every tile lives on exactly one rank.
std::vector<std::int64_t> tile_split(int nt, std::int64_t b, int nranks) {
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(nt) + 1);
  for (int t = 0; t <= nt; ++t) {
    offsets[static_cast<std::size_t>(t)] = t * b;
  }
  return ga::block_aligned_split(offsets, nranks);
}

void fill_spd(pgas::Runtime& rt, ga::GlobalArray& m) {
  const std::int64_t n = m.rows();
  double* panel = m.local_panel();
  const std::int64_t lo = m.row_lo(rt.me()), hi = m.row_hi(rt.me());
  for (std::int64_t i = lo; i < hi; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      panel[(i - lo) * n + j] = cholesky_spd_entry(i, j, n);
    }
  }
  m.sync();
}

/// Rank 0 pulls the factored matrix, rebuilds L L^T from the lower
/// triangle, and compares against the generator; the scalar result is
/// broadcast through the (dead-rank-safe) reduction.
double verify_residual(pgas::Runtime& rt, ga::GlobalArray& m) {
  const std::int64_t n = m.rows();
  double res = 0;
  if (rt.me() == 0) {
    std::vector<double> l(static_cast<std::size_t>(n * n));
    m.get(0, n, 0, n, l.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        l[static_cast<std::size_t>(i * n + j)] = 0.0;  // untouched upper
      }
    }
    double num = 0, den = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        double llt = 0;
        const std::int64_t t1 = std::min(i, j) + 1;
        for (std::int64_t t = 0; t < t1; ++t) {
          llt += l[static_cast<std::size_t>(i * n + t)] *
                 l[static_cast<std::size_t>(j * n + t)];
        }
        const double aij = cholesky_spd_entry(i, j, n);
        num += (llt - aij) * (llt - aij);
        den += aij * aij;
      }
    }
    res = std::sqrt(num / den);
  }
  return rt.allreduce_max(res);
}

}  // namespace

double cholesky_spd_entry(std::int64_t i, std::int64_t j, std::int64_t n) {
  double v = 1.0 / (1.0 + static_cast<double>(i > j ? i - j : j - i));
  if (i == j) v += static_cast<double>(n);
  return v;
}

CholeskyResult cholesky_dag(pgas::Runtime& rt, const CholeskyConfig& cfg) {
  const int nt = cfg.tiles;
  const std::int64_t b = cfg.tile;
  const std::int64_t n = nt * b;
  ga::GlobalArray m(rt, n, n, tile_split(nt, b, rt.nprocs()), "chol");
  fill_spd(rt, m);

  TaskCollection tc(rt);
  dag::DagScheduler dg(tc);
  TileBuf tb(b);

  auto tile_owner = [&](int i) { return m.owner_of_row(i * b); };
  // Data record of tile row i: the rank whose panel holds its bytes.
  auto tile_dep = [&](int i) { return dag::DataDep{tile_owner(i)}; };

  // Node ids: potrf[k]; trsm[(i,k)] for i>k; update[(i,j,k)] for
  // k<j<=i. Downdates of one trailing tile commute, so they share a
  // conflict group instead of edges -- the engine serializes them in
  // whatever order they become ready.
  std::vector<dag::NodeId> potrf_id(static_cast<std::size_t>(nt));
  std::vector<dag::NodeId> trsm_id(static_cast<std::size_t>(nt) * nt, -1);
  std::vector<dag::NodeId> upd_id(static_cast<std::size_t>(nt) * nt * nt,
                                  -1);
  std::vector<dag::GroupId> tile_grp(static_cast<std::size_t>(nt) * nt,
                                     dag::kNoGroup);
  const std::int64_t fc = cfg.flop_cost;
  for (int k = 0; k < nt; ++k) {
    potrf_id[static_cast<std::size_t>(k)] =
        dg.add_node(tile_owner(k), [&rt, &m, &tb, b, k, fc] {
          rt.charge(potrf_flops(b) * fc);
          do_potrf(m, b, k, tb);
        });
    for (int i = k + 1; i < nt; ++i) {
      trsm_id[static_cast<std::size_t>(i * nt + k)] =
          dg.add_node(tile_owner(i), [&rt, &m, &tb, b, i, k, fc] {
            rt.charge(trsm_flops(b) * fc);
            do_trsm(m, b, i, k, tb);
          });
      for (int j = k + 1; j <= i; ++j) {
        dag::GroupId& g = tile_grp[static_cast<std::size_t>(i * nt + j)];
        if (g == dag::kNoGroup && j >= 2) {
          // Tile (i, j) receives min(i, j) = j downdates; when there is
          // more than one they commute, so mutual exclusion (not
          // ordering) is all they need.
          g = dg.conflict_group();
        }
        upd_id[static_cast<std::size_t>((i * nt + j) * nt + k)] =
            dg.add_node(
                tile_owner(i),
                [&rt, &m, &tb, b, i, j, k, fc](dag::NodeCtx&) {
                  rt.charge((i == j ? syrk_flops(b) : gemm_flops(b)) * fc);
                  do_update(m, b, i, j, k, tb);
                },
                g);
      }
    }
  }
  for (int k = 0; k < nt; ++k) {
    // Everything that downdated tile (k, k) must land before potrf reads
    // it; the data edge names the tile's owner to fence.
    for (int kp = 0; kp < k; ++kp) {
      dg.add_edge(upd_id[static_cast<std::size_t>((k * nt + k) * nt + kp)],
                  potrf_id[static_cast<std::size_t>(k)], tile_dep(k));
    }
    for (int i = k + 1; i < nt; ++i) {
      const dag::NodeId t = trsm_id[static_cast<std::size_t>(i * nt + k)];
      dg.add_edge(potrf_id[static_cast<std::size_t>(k)], t, tile_dep(k));
      for (int kp = 0; kp < k; ++kp) {
        dg.add_edge(upd_id[static_cast<std::size_t>((i * nt + k) * nt + kp)],
                    t, tile_dep(i));
      }
      for (int j = k + 1; j <= i; ++j) {
        const dag::NodeId u =
            upd_id[static_cast<std::size_t>((i * nt + j) * nt + k)];
        dg.add_edge(t, u, tile_dep(i));
        if (j != i) {
          dg.add_edge(trsm_id[static_cast<std::size_t>(j * nt + k)], u,
                      tile_dep(j));
        }
      }
    }
  }

  const TimeNs t0 = rt.now();
  dg.execute();
  CholeskyResult res;
  res.elapsed_ms = to_ms(rt.allreduce_max(rt.now() - t0));
  res.dag = dg.stats_global();
  res.tasks_run = res.dag.nodes_run;
  m.sync();
  res.residual = verify_residual(rt, m);
  m.destroy();
  tc.destroy();
  return res;
}

CholeskyResult cholesky_static(pgas::Runtime& rt,
                               const CholeskyConfig& cfg) {
  const int nt = cfg.tiles;
  const std::int64_t b = cfg.tile;
  const std::int64_t n = nt * b;
  ga::GlobalArray m(rt, n, n, tile_split(nt, b, rt.nprocs()), "chol_ref");
  fill_spd(rt, m);

  TileBuf tb(b);
  auto mine = [&](int i) { return m.owner_of_row(i * b) == rt.me(); };
  const std::int64_t fc = cfg.flop_cost;
  std::uint64_t local_tasks = 0;

  const TimeNs t0 = rt.now();
  for (int k = 0; k < nt; ++k) {
    if (mine(k)) {
      rt.charge(potrf_flops(b) * fc);
      do_potrf(m, b, k, tb);
      ++local_tasks;
    }
    m.sync();
    for (int i = k + 1; i < nt; ++i) {
      if (!mine(i)) continue;
      rt.charge(trsm_flops(b) * fc);
      do_trsm(m, b, i, k, tb);
      ++local_tasks;
    }
    m.sync();
    for (int i = k + 1; i < nt; ++i) {
      if (!mine(i)) continue;  // owner-computes on the output tile row
      for (int j = k + 1; j <= i; ++j) {
        rt.charge((i == j ? syrk_flops(b) : gemm_flops(b)) * fc);
        do_update(m, b, i, j, k, tb);
        ++local_tasks;
      }
    }
    m.sync();
  }
  CholeskyResult res;
  res.elapsed_ms = to_ms(rt.allreduce_max(rt.now() - t0));
  res.tasks_run = rt.allreduce_sum(local_tasks);
  res.residual = verify_residual(rt, m);
  m.destroy();
  return res;
}

}  // namespace scioto::apps
