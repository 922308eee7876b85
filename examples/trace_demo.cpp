// Tracing demo: records a traced UTS-style task workload, exports a
// Chrome trace-event JSON (load into Perfetto / chrome://tracing), and
// prints the post-run analyses -- who stole from whom, per-rank
// working/searching breakdown, and queue-occupancy extrema.
//
//   ./trace_demo --ranks 8 --depth 12 --out trace.json
//
// Under the default sim backend the trace is stamped with virtual time and
// is bit-identical across runs with the same seed.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "base/options.hpp"
#include "scioto/task_collection.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

using namespace scioto;

namespace {

struct TreeTask {
  int depth;
};

}  // namespace

int main(int argc, char** argv) {
  Options opts("trace_demo", "event tracing of a Scioto task workload");
  opts.add_int("ranks", 8, "number of SPMD ranks");
  opts.add_string("backend", "sim", "execution backend: sim | threads");
  opts.add_int("depth", 12, "depth of the spawned binary task tree");
  opts.add_int("work", 5000, "virtual compute cost per task (ns, sim only)");
  opts.add_string("out", "trace.json", "Chrome trace JSON output file");
  opts.add_flag("flow", false,
                "stamp task lineage: cross-rank flow arrows in the trace, "
                "plus the critical path and span analytics after the run");
  if (!opts.parse(argc, argv)) return 0;
  const bool flow = opts.get_flag("flow");

  pgas::Config cfg;
  cfg.nranks = static_cast<int>(opts.get_int("ranks"));
  cfg.backend = opts.get_string("backend") == "threads"
                    ? pgas::BackendKind::Threads
                    : pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008_uniform();
  const int depth = static_cast<int>(opts.get_int("depth"));
  const TimeNs work = opts.get_int("work");

  trace::start(cfg.nranks);
  // A demo-owned lineage session (run_spmd leaves an already-active one
  // to its owner): every task gets an id/parent/hops trailer and the
  // SpawnEdge/MigrateEdge/ExecSpan events land in the trace rings above.
  if (flow) trace::lineage::start(cfg.nranks);
  TcStats stats;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    // A binary tree processed depth-first keeps the private queue only
    // ~depth tasks deep, so use a small steal chunk (release threshold is
    // 2x the chunk) to keep work visible to thieves.
    TcConfig tcc;
    tcc.chunk_size = 2;
    TaskCollection tc(rt, tcc);
    TaskHandle spawn = tc.register_callback([&](TaskContext& ctx) {
      // Charge a virtual compute cost so the tree is worth stealing
      // (zero-cost tasks drain instantly in virtual time).
      ctx.tc.runtime().charge(work);
      int d = ctx.body_as<TreeTask>().depth;
      if (d > 0) {
        Task child =
            ctx.tc.task_create(sizeof(TreeTask), ctx.header.callback);
        child.body_as<TreeTask>().depth = d - 1;
        ctx.tc.add_local(child);
        ctx.tc.add_local(child);
      }
    });
    if (rt.me() == 0) {
      Task root = tc.task_create(sizeof(TreeTask), spawn);
      root.body_as<TreeTask>().depth = depth;
      tc.add_local(root);
    }
    tc.process();
    TcStats g = tc.stats_global();
    if (rt.me() == 0) {
      stats = g;
    }
    tc.destroy();
  });

  const std::string& out = opts.get_string("out");
  if (trace::write_chrome_trace_file(out)) {
    std::printf("trace: wrote %s (%d ranks, %llu dropped events)\n",
                out.c_str(), trace::session_nranks(),
                static_cast<unsigned long long>(trace::total_dropped()));
  }

  // Post-run analyses over the recorded stream.
  const int n = trace::session_nranks();
  std::vector<trace::Event> evs = trace::all_events();
  std::printf("recorded %zu events\n", evs.size());

  trace::StealMatrix sm = trace::steal_matrix(evs, n);
  sm.table().print("who stole from whom (tasks moved; rows=thief)");
  std::printf("total: %llu steals moving %llu tasks (TcStats says %llu/%llu)\n",
              static_cast<unsigned long long>(sm.total_steals()),
              static_cast<unsigned long long>(sm.total_tasks()),
              static_cast<unsigned long long>(stats.steals),
              static_cast<unsigned long long>(stats.tasks_stolen));

  std::vector<trace::RankBreakdown> bd = trace::time_breakdown(evs, n);
  trace::breakdown_table(bd).print(
      "per-rank time breakdown (from trace events)");

  trace::duration_table(trace::duration_percentiles(evs))
      .print("latency percentiles (log2 buckets; shared with live metrics)");

  auto occ = trace::occupancy_timeline(evs, n);
  std::int64_t peak = 0;
  for (const auto& series : occ) {
    for (const auto& s : series) {
      peak = std::max(peak, s.tasks);
    }
  }
  std::printf("peak queue occupancy across ranks: %lld tasks\n",
              static_cast<long long>(peak));

  if (flow) {
    trace::LineageReport rep =
        trace::lineage_report(evs, n, trace::total_dropped());
    trace::lineage_table(rep).print(
        "lineage span analytics (spawn -> steal -> exec)");
    std::printf("lineage: %llu migrations vs %llu tasks stolen in TcStats, "
                "%zu happens-before violations\n",
                static_cast<unsigned long long>(rep.migrations),
                static_cast<unsigned long long>(stats.tasks_stolen),
                rep.violations.size());
    for (const std::string& v : rep.violations) {
      std::printf("  violation: %s\n", v.c_str());
    }

    trace::CriticalPath cp = trace::critical_path(rep, evs, n);
    trace::critical_path_table(cp).print(
        "weighted critical path (longest spawn -> steal -> exec chain)");
    // Top-3 blame ranks: where the path actually spent its time.
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
    std::printf(" -- %.1f us total, %.1f us exec / %.1f us waiting\n",
                static_cast<double>(cp.length) / 1e3,
                static_cast<double>(cp.exec_ns) / 1e3,
                static_cast<double>(cp.queue_ns) / 1e3);
    trace::lineage::stop();
  }

  trace::stop();
  return 0;
}
