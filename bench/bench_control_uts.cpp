// Adaptive control plane vs hand-tuned static configs on bursty UTS.
//
// The claim under test (the control subsystem's win condition): starting
// from the *default* configuration (chunk 10, steal-half, stock release
// threshold), the online controller with its default rules matches or
// beats the best hand-picked static chunk (fixed-width steals) on the
// bursty binomial tree. The controller has one rule: while the fleet's
// queue-depth CoV stays high it opens the chunk cap (steal-half keeps a
// wide cap from overshooting shallow victims), releases earlier on the
// deep rank, and steers thieves at the deepest ranks -- what the static
// sweep needs a full grid search to approximate. Every decision it took
// is available as a JSONL log and as knob_change trace events.
#include <cstdio>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "control/control.hpp"

using namespace scioto;
using namespace scioto::apps;

namespace {

// The PR 3 ablation grid's static chunk rows: the hand-tuned field the
// adaptive controller must beat from its default starting point.
const int kStaticChunks[] = {1, 2, 5, 10, 20, 50};

UtsResult run_once(const UtsParams& tree, int procs, int chunk,
                   bool steal_half) {
  pgas::Config cfg;
  cfg.nranks = procs;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008();
  UtsRunConfig rc;
  rc.chunk = chunk;
  rc.steal_half = steal_half;
  UtsResult res;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    res = uts_run_scioto(rt, tree, rc);
  });
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_control_uts",
               "adaptive controller vs static configs on bursty UTS");
  opts.add_int("procs", 8, "process count");
  if (!opts.parse(argc, argv)) return 0;
  const int procs = static_cast<int>(opts.get_int("procs"));

  // The T2 bursty binomial workload from the chunk ablation: a wide root
  // fan-out into heavy-tailed subcritical subtrees -- deep victims one
  // moment, dry ones the next. This is the shape online adaptation is for.
  UtsParams t2;
  t2.tree = UtsTree::Binomial;
  t2.seed = 42;
  t2.b0 = 2000;
  t2.q = 0.120;
  t2.m = 8;
  UtsCounts expected = uts_sequential(t2);
  std::printf("workload T2 binomial-bursty: %s, %llu nodes on %d procs "
              "(heterogeneous cluster)\n",
              uts_describe(t2).c_str(),
              static_cast<unsigned long long>(expected.nodes), procs);

  Table t({"Config", "Throughput(Mn/s)", "Steals", "Tasks/Steal",
           "Decisions"});
  double best_static = 0.0;
  for (int chunk : kStaticChunks) {
    UtsResult res = run_once(t2, procs, chunk, /*steal_half=*/false);
    SCIOTO_CHECK_MSG(res.counts == expected, "traversal mismatch");
    best_static = std::max(best_static, res.mnodes_per_sec);
    char label[32];
    std::snprintf(label, sizeof(label), "static %d", chunk);
    t.add_row({label, Table::fmt(res.mnodes_per_sec, 2),
               Table::fmt(static_cast<std::int64_t>(res.steals)),
               Table::fmt(res.steals
                              ? static_cast<double>(res.tasks_stolen) /
                                    static_cast<double>(res.steals)
                              : 0.0,
                          2),
               "-"});
  }

  // Stage the controller; run_spmd arms it (and the metrics plane it
  // reads) inside the run. Everything else stays at defaults -- this is
  // the "no hand-tuning" row.
  control::Config cc = control::config();
  cc.mode = control::Mode::Local;
  control::set_config(cc);
  UtsResult res =
      run_once(t2, procs, /*chunk=*/10, UtsRunConfig{}.steal_half);
  cc.mode = control::Mode::Off;
  control::set_config(cc);
  SCIOTO_CHECK_MSG(res.counts == expected, "traversal mismatch");
  const control::Stats cs = control::stats();
  t.add_row({"adaptive local", Table::fmt(res.mnodes_per_sec, 2),
             Table::fmt(static_cast<std::int64_t>(res.steals)),
             Table::fmt(res.steals ? static_cast<double>(res.tasks_stolen) /
                                         static_cast<double>(res.steals)
                                   : 0.0,
                        2),
             Table::fmt(static_cast<std::int64_t>(cs.decisions))});
  t.print("Adaptive controller (default config) vs static chunk grid "
          "(UTS T2, Scioto split queues)");
  std::printf("best static %.2f Mn/s; adaptive local %.2f (%.3fx)\n",
              best_static, res.mnodes_per_sec,
              res.mnodes_per_sec / best_static);
  return 0;
}
