// Dataflow vs fork-join: tiled Cholesky under the dependency engine
// against the static owner-computes schedule (src/apps/cholesky).
//
// Both schedules run the same tile kernels with the same virtual charges
// on the same tile-aligned row-panel distribution; the distribution makes
// trailing-update work triangular across ranks. The static schedule pays
// max-per-rank at three barriers per panel step, so its makespan is the
// sum of per-phase critical ranks; the DAG schedule overlaps panel steps
// and lets idle ranks steal ready tile tasks. Expect the gap to widen
// with the tile count.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/cholesky/cholesky.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "pgas/runtime.hpp"
#include "trace/analysis.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

using namespace scioto;

namespace {

struct CholRow {
  int tiles = 0;
  apps::CholeskyResult dag;
  apps::CholeskyResult stat;
};

CholRow measure(int procs, int tiles, int tile) {
  CholRow row;
  row.tiles = tiles;
  pgas::Config cfg;
  cfg.nranks = procs;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008_uniform();
  apps::CholeskyConfig ccfg;
  ccfg.tiles = tiles;
  ccfg.tile = tile;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    apps::CholeskyResult d = apps::cholesky_dag(rt, ccfg);
    apps::CholeskyResult s = apps::cholesky_static(rt, ccfg);
    if (rt.me() == 0) {
      row.dag = d;
      row.stat = s;
    }
  });
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_cholesky",
               "tiled Cholesky: DAG schedule vs static fork-join");
  opts.add_int("procs", 8, "process count");
  opts.add_int("tile", 16, "tile side length b");
  opts.add_int("max-tiles", 12, "largest tile grid side");
  opts.add_string("json", "", "also write results as JSON to this file");
  opts.add_flag("flow", false,
                "re-run the DAG schedule at max-tiles with task lineage "
                "armed and print its weighted critical path + top-3 blame "
                "ranks");
  if (!opts.parse(argc, argv)) return 0;
  const bool flow = opts.get_flag("flow");
  const int procs = static_cast<int>(opts.get_int("procs"));
  const int tile = static_cast<int>(opts.get_int("tile"));
  const int maxt = static_cast<int>(opts.get_int("max-tiles"));

  Table t({"Tiles", "Tasks", "DAG(ms)", "Static(ms)", "Speedup",
           "Steals(remote-fires)", "Residual"});
  std::vector<CholRow> rows;
  for (int nt = 4; nt <= maxt; nt += 4) {
    CholRow r = measure(procs, nt, tile);
    rows.push_back(r);
    const double speedup =
        r.dag.elapsed_ms > 0 ? r.stat.elapsed_ms / r.dag.elapsed_ms : 0;
    t.add_row({Table::fmt(std::int64_t{nt}),
               Table::fmt(static_cast<std::int64_t>(r.dag.tasks_run)),
               Table::fmt(r.dag.elapsed_ms, 3),
               Table::fmt(r.stat.elapsed_ms, 3), Table::fmt(speedup, 2),
               Table::fmt(static_cast<std::int64_t>(r.dag.dag.remote_fires)),
               Table::fmt(r.dag.residual, 3)});
  }
  t.print("Tiled Cholesky on " + std::to_string(procs) +
          " ranks: dataflow DAG schedule vs static owner-computes "
          "fork-join (virtual time; same kernels, same charges)");

  if (flow) {
    // A dedicated DAG-only traced run (the timing loop above interleaves
    // the static schedule into the same SPMD region, which would blur the
    // lineage timeline): where did the factorization's longest
    // spawn -> steal -> exec chain actually spend its time?
    pgas::Config cfg;
    cfg.nranks = procs;
    cfg.backend = pgas::BackendKind::Sim;
    cfg.machine = sim::cluster2008_uniform();
    apps::CholeskyConfig ccfg;
    ccfg.tiles = maxt;
    ccfg.tile = tile;
    trace::start(procs);
    trace::lineage::start(procs);
    std::uint64_t tasks_run = 0;
    pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
      apps::CholeskyResult d = apps::cholesky_dag(rt, ccfg);
      if (rt.me() == 0) {
        tasks_run = d.tasks_run;
      }
    });
    const std::vector<trace::Event> evs = trace::all_events();
    trace::LineageReport rep =
        trace::lineage_report(evs, procs, trace::total_dropped());
    trace::lineage_table(rep).print(
        "lineage span analytics, DAG schedule at max tiles");
    // The TC runs one dispatch task per *firing*, and a node whose
    // conflict-group CAS lost parks and re-fires as a fresh task -- so
    // lineage execs exceed tile kernels by exactly the re-dispatches.
    SCIOTO_CHECK_MSG(rep.execs >= tasks_run,
                     "lineage execs " << rep.execs
                                      << " < tile tasks " << tasks_run);
    std::printf("lineage: %llu dispatch tasks for %llu tile kernels "
                "(%llu conflict re-fires)\n",
                static_cast<unsigned long long>(rep.execs),
                static_cast<unsigned long long>(tasks_run),
                static_cast<unsigned long long>(rep.execs - tasks_run));
    trace::CriticalPath cp = trace::critical_path(rep, evs, procs);
    trace::critical_path_table(cp).print(
        "weighted critical path (longest spawn -> steal -> exec chain)");
    std::vector<int> order(cp.rank_blame.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int>(i);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (cp.rank_blame[a] != cp.rank_blame[b]) {
        return cp.rank_blame[a] > cp.rank_blame[b];
      }
      return a < b;
    });
    std::printf("critical-path blame:");
    for (std::size_t i = 0; i < order.size() && i < 3; ++i) {
      std::printf("%s rank %d (%.1f us)", i ? "," : "", order[i],
                  static_cast<double>(cp.rank_blame[order[i]]) / 1e3);
    }
    std::printf(" -- %.1f us total over %llu tasks, %.1f us exec / "
                "%.1f us waiting, spawn-to-exec p99 %llu ns, "
                "%zu hb violations\n",
                static_cast<double>(cp.length) / 1e3,
                static_cast<unsigned long long>(cp.tasks),
                static_cast<double>(cp.exec_ns) / 1e3,
                static_cast<double>(cp.queue_ns) / 1e3,
                static_cast<unsigned long long>(
                    rep.spawn_to_exec.percentile(99)),
                rep.violations.size());
    trace::lineage::stop();
    trace::stop();
  }

  const std::string json = opts.get_string("json");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << json);
    std::fprintf(f,
                 "{\n  \"bench\": \"dag_cholesky\", \"procs\": %d, "
                 "\"tile\": %d,\n  \"rows\": [\n",
                 procs, tile);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CholRow& r = rows[i];
      const double speedup =
          r.dag.elapsed_ms > 0 ? r.stat.elapsed_ms / r.dag.elapsed_ms : 0;
      std::fprintf(f,
                   "    {\"tiles\": %d, \"tasks\": %llu, "
                   "\"dag_ms\": %.3f, \"static_ms\": %.3f, "
                   "\"speedup\": %.3f, \"remote_fires\": %llu, "
                   "\"residual\": %.3e}%s\n",
                   r.tiles,
                   static_cast<unsigned long long>(r.dag.tasks_run),
                   r.dag.elapsed_ms, r.stat.elapsed_ms, speedup,
                   static_cast<unsigned long long>(r.dag.dag.remote_fires),
                   r.dag.residual, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("json: wrote %s\n", json.c_str());
  }
  return 0;
}
