// Ablation: steal chunk size (the tc_create chunk_sz parameter) and the
// adaptive steal-half policy.
//
// The chunk controls how many tasks one steal transfers. Too small and
// thieves pay the ~29 us one-sided steal cost for a sliver of work; too
// large and a steal strips the victim. The paper fixes chunk = 10 for its
// microbenchmarks; this sweep shows where that sits on two UTS workload
// shapes, and where the steal-half adaptive policy (take
// min(ceil(depth/2), cap) based on the victim's shared depth) lands
// without any per-workload tuning -- the claim is that one adaptive knob
// matches or beats the best hand-picked static chunk on both trees.
#include <cstdio>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "base/table.hpp"

using namespace scioto;
using namespace scioto::apps;

namespace {

struct Row {
  const char* label;
  int chunk;
  bool adaptive;
};

// Static sweep (the paper's knob) plus the adaptive policy at two caps.
const Row kRows[] = {
    {"1", 1, false},        {"2", 2, false},   {"5", 5, false},
    {"10", 10, false},      {"20", 20, false}, {"50", 50, false},
    {"half<=10", 10, true}, {"half<=20", 20, true},
};

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_ablation_chunk",
               "steal chunk-size sweep + steal-half adaptive policy on UTS");
  opts.add_int("procs", 32, "process count");
  opts.add_int("scale", 11, "geometric tree depth (T1)");
  if (!opts.parse(argc, argv)) return 0;
  const int procs = static_cast<int>(opts.get_int("procs"));

  // Two tree shapes in the spirit of the UTS T1/T2 workloads: the
  // near-balanced linear-decay geometric tree, and a binomial tree whose
  // heavy-tailed subtrees produce bursty imbalance (deep victims one
  // moment, dry ones the next) -- the case adaptive chunking is for.
  UtsParams t1 = uts_bench();
  t1.gen_mx = static_cast<int>(opts.get_int("scale"));
  UtsParams t2;
  t2.tree = UtsTree::Binomial;
  t2.seed = 42;
  t2.b0 = 2000;     // wide root fan-out, then bursty subcritical subtrees
  t2.q = 0.120;     // mq = 0.96: mean subtree ~25 nodes, heavy tail
  t2.m = 8;

  struct Workload {
    const char* name;
    UtsParams tree;
  } workloads[] = {{"T1 geometric-linear", t1}, {"T2 binomial-bursty", t2}};

  for (const auto& w : workloads) {
    UtsCounts expected = uts_sequential(w.tree);
    std::printf("workload %s: %s, %llu nodes on %d procs (heterogeneous "
                "cluster)\n",
                w.name, uts_describe(w.tree).c_str(),
                static_cast<unsigned long long>(expected.nodes), procs);

    Table t({"Chunk", "Throughput(Mn/s)", "Steals", "Tasks-Stolen",
             "Tasks/Steal"});
    double best_static = 0.0, best_adaptive = 0.0;
    for (const Row& row : kRows) {
      pgas::Config cfg;
      cfg.nranks = procs;
      cfg.backend = pgas::BackendKind::Sim;
      cfg.machine = sim::cluster2008();
      UtsRunConfig rc;
      rc.chunk = row.chunk;
      rc.steal_half = row.adaptive;
      UtsResult res;
      pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
        res = uts_run_scioto(rt, w.tree, rc);
      });
      SCIOTO_CHECK_MSG(res.counts == expected, "traversal mismatch");
      if (row.adaptive) {
        best_adaptive = std::max(best_adaptive, res.mnodes_per_sec);
      } else {
        best_static = std::max(best_static, res.mnodes_per_sec);
      }
      t.add_row({row.label, Table::fmt(res.mnodes_per_sec, 2),
                 Table::fmt(static_cast<std::int64_t>(res.steals)),
                 Table::fmt(static_cast<std::int64_t>(res.tasks_stolen)),
                 Table::fmt(res.steals
                                ? static_cast<double>(res.tasks_stolen) /
                                      static_cast<double>(res.steals)
                                : 0.0,
                            2)});
    }
    t.print("Ablation: steal chunk size vs steal-half (UTS, Scioto split "
            "queues)");
    std::printf("best static %.2f Mn/s, best adaptive %.2f Mn/s "
                "(adaptive/static = %.3f)\n\n",
                best_static, best_adaptive, best_adaptive / best_static);
  }
  return 0;
}
