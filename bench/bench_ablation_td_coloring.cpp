// Ablation: the §5.3 token-coloring optimization.
//
// A thief normally marks its victim dirty with an extra one-sided message
// so the victim re-votes. §5.3 proves the mark can be skipped when the
// thief has not voted in the current wave or the victim is the thief's
// descendant. This harness counts the messages saved and confirms the
// traversal stays correct either way.
#include <cstdio>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "scioto/task_collection.hpp"

using namespace scioto;
using namespace scioto::apps;

namespace {

struct ColoringStats {
  double mnodes;
  std::uint64_t marks_sent;
  std::uint64_t marks_skipped;
  std::uint64_t waves;        // termination waves (each rank votes once)
  std::uint64_t black_votes;  // summed over ranks and waves
};

ColoringStats run(int procs, const UtsParams& tree, bool opt) {
  pgas::Config cfg;
  cfg.nranks = procs;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008();
  ColoringStats out{};
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    TcConfig tcc;
    tcc.max_task_body = sizeof(UtsNode);
    tcc.color_optimization = opt;
    TaskCollection tc(rt, tcc);
    UtsCounts local;
    CloHandle clo = tc.register_clo(&local);
    TaskHandle h = tc.register_callback([&, clo](TaskContext& ctx) {
      UtsCounts& counts = ctx.tc.clo<UtsCounts>(clo);
      UtsNode node = ctx.body_as<UtsNode>();
      for (;;) {
        ctx.tc.runtime().charge(ns(316));
        ++counts.nodes;
        int nc = uts_num_children(node, tree);
        if (nc == 0) break;
        for (int i = 1; i < nc; ++i) {
          Task t = ctx.tc.task_create(sizeof(UtsNode), ctx.header.callback);
          t.body_as<UtsNode>() = uts_child(node, i);
          ctx.tc.add_local(t);
        }
        node = uts_child(node, 0);
      }
    });
    if (rt.me() == 0) {
      Task t = tc.task_create(sizeof(UtsNode), h);
      t.body_as<UtsNode>() = uts_root(tree);
      tc.add_local(t);
    }
    rt.barrier();
    TimeNs t0 = rt.now();
    tc.process();
    TimeNs elapsed = rt.allreduce_max(rt.now() - t0);
    std::uint64_t nodes = rt.allreduce_sum(local.nodes);
    TcStats g = tc.stats_global();
    if (rt.me() == 0) {
      out.mnodes = static_cast<double>(nodes) / (to_sec(elapsed) * 1e6);
      out.marks_sent = g.td_marks_sent;
      out.marks_skipped = g.td_marks_skipped;
      out.waves = g.td_waves_voted / static_cast<std::uint64_t>(procs);
      out.black_votes = g.td_black_votes;
    }
    tc.destroy();
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_ablation_td_coloring",
               "token-coloring optimization on/off");
  opts.add_int("scale", 10, "geometric tree depth");
  if (!opts.parse(argc, argv)) return 0;

  UtsParams tree = uts_bench();
  tree.gen_mx = static_cast<int>(opts.get_int("scale"));

  Table t({"Procs", "Variant", "Mnodes/s", "DirtyMarks", "MarksSkipped",
           "Waves", "BlackVotes"});
  for (int p : {16, 64}) {
    for (bool opt : {false, true}) {
      ColoringStats s = run(p, tree, opt);
      t.add_row({Table::fmt(std::int64_t{p}),
                 opt ? "with-5.3-opt" : "always-mark",
                 Table::fmt(s.mnodes, 2),
                 Table::fmt(static_cast<std::int64_t>(s.marks_sent)),
                 Table::fmt(static_cast<std::int64_t>(s.marks_skipped)),
                 Table::fmt(static_cast<std::int64_t>(s.waves)),
                 Table::fmt(static_cast<std::int64_t>(s.black_votes))});
    }
  }
  t.print("Ablation: §5.3 token-coloring optimization (UTS workload)");
  return 0;
}
