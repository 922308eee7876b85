// Dependent tasks (the §8 extension): a blocked wavefront pipeline on the
// dependency engine (src/dag).
//
// Stage (i, j) depends on (i-1, j) and (i, j-1) -- the classic dynamic-
// programming wavefront. The DagScheduler tracks the dependency counters
// in shared space with one-sided decrements while ready tasks still
// migrate through the normal work-stealing scheduler. Cell values live in
// a Global Array: tasks read their predecessors' results one-sided and
// write their own. Each edge additionally carries a data record naming the
// produced cell, so the producer fences the cell's owner before its
// decrement can fire the consumer -- read-after-write safety with no
// barrier.
//
//   ./taskdag_pipeline --ranks 8 --grid 12
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "base/options.hpp"
#include "dag/dag.hpp"
#include "ga/global_array.hpp"

using namespace scioto;

int main(int argc, char** argv) {
  Options opts("taskdag_pipeline", "wavefront pipeline over dependent tasks");
  opts.add_int("ranks", 8, "number of SPMD ranks");
  opts.add_int("grid", 12, "wavefront grid side length");
  if (!opts.parse(argc, argv)) return 0;

  pgas::Config cfg;
  cfg.nranks = static_cast<int>(opts.get_int("ranks"));
  cfg.machine = sim::cluster2008_uniform();
  const int g = static_cast<int>(opts.get_int("grid"));

  bool ok = true;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    TaskCollection tc(rt);
    dag::DagScheduler dag(tc);
    ga::GlobalArray grid(rt, g, g, "wavefront");

    std::vector<dag::NodeId> id(static_cast<std::size_t>(g) * g);
    for (int i = 0; i < g; ++i) {
      for (int j = 0; j < g; ++j) {
        // Home the task where its output row lives.
        Rank home = grid.owner_of_patch(i, j);
        id[static_cast<std::size_t>(i * g + j)] =
            dag.add_node(home, [&, i, j] {
              double up = i > 0 ? grid.at(i - 1, j) : 0;
              double left = j > 0 ? grid.at(i, j - 1) : 0;
              rt.charge(us(20));  // simulated cell work
              double v = up + left + 1;
              grid.put(i, i + 1, j, j + 1, &v, 1);
            });
      }
    }
    // Data edge: (pi, pj) produced the cell the successor reads, so name
    // the rank holding it on the edge.
    auto cell_edge = [&](int pi, int pj, int si, int sj) {
      dag.add_edge(id[static_cast<std::size_t>(pi * g + pj)],
                   id[static_cast<std::size_t>(si * g + sj)],
                   dag::DataDep{grid.owner_of_row(pi)});
    };
    for (int i = 0; i < g; ++i) {
      for (int j = 0; j < g; ++j) {
        if (i > 0) cell_edge(i - 1, j, i, j);
        if (j > 0) cell_edge(i, j - 1, i, j);
      }
    }
    dag.execute();
    grid.sync();
    dag::DagStats ds = dag.stats_global();

    // Sequential reference for the full grid.
    std::vector<double> ref(static_cast<std::size_t>(g) * g);
    for (int i = 0; i < g; ++i) {
      for (int j = 0; j < g; ++j) {
        double up = i > 0 ? ref[static_cast<std::size_t>((i - 1) * g + j)] : 0;
        double left =
            j > 0 ? ref[static_cast<std::size_t>(i * g + j - 1)] : 0;
        ref[static_cast<std::size_t>(i * g + j)] = up + left + 1;
      }
    }
    double err = 0;
    for (std::int64_t i = grid.row_lo(rt.me()); i < grid.row_hi(rt.me());
         ++i) {
      for (int j = 0; j < g; ++j) {
        double got = grid.local_panel()[(i - grid.row_lo(rt.me())) * g + j];
        err = std::max(err, std::abs(got - ref[static_cast<std::size_t>(
                                               i * g + j)]));
      }
    }
    err = rt.allreduce_max(err);
    if (rt.me() == 0) {
      ok = err == 0.0;
      std::printf("wavefront %dx%d on %d ranks: max_err=%.1f -> %s\n", g, g,
                  rt.nprocs(), err, ok ? "OK" : "FAILED");
      std::printf("dag: %llu nodes run (%llu fired remotely), depth %llu\n",
                  static_cast<unsigned long long>(ds.nodes_run),
                  static_cast<unsigned long long>(ds.remote_fires),
                  static_cast<unsigned long long>(ds.max_depth));
      if (rt.simulated()) {
        std::printf("virtual makespan: %.3f ms (critical path %d stages x "
                    "20 us)\n",
                    to_ms(rt.now()), 2 * g - 1);
      }
    }
    grid.destroy();
    tc.destroy();
  });
  return ok ? 0 : 1;
}
