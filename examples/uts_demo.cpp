// UTS demo: traverse an unbalanced tree under Scioto, the no-split queue
// variant, or the MPI-style work-stealing baseline, and report throughput
// plus load-balancing statistics. An unknown --scheduler name is rejected
// (exit status 2).
//
//   ./uts_demo --ranks 16 --tree geo --scale 10 --scheduler scioto
//   ./uts_demo --scheduler mpi-ws --machine xt4
#include <cstdio>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "fault/fault.hpp"

using namespace scioto;
using namespace scioto::apps;

int main(int argc, char** argv) {
  Options opts("uts_demo", "Unbalanced Tree Search demo");
  opts.add_int("ranks", 16, "number of SPMD ranks");
  opts.add_string("machine", "cluster",
                  "machine model: cluster | cluster-uniform | xt4 | test");
  opts.add_string("tree", "geo", "tree family: geo | bin");
  opts.add_int("scale", 10, "geometric depth (gen_mx) / binomial root size");
  opts.add_int("seed", 19, "tree seed");
  opts.add_string("scheduler", "scioto",
                  "scioto | no-split | mpi-ws");
  opts.add_int("chunk", 10, "steal chunk size");
  if (!opts.parse(argc, argv)) return 0;

  const std::string sched = opts.get_string("scheduler");
  QueueMode mode = QueueMode::Split;
  if (sched == "no-split") {
    mode = QueueMode::NoSplit;
  } else if (sched != "scioto" && sched != "mpi-ws") {
    std::fprintf(stderr,
                 "uts_demo: unknown --scheduler '%s' (expected scioto | "
                 "no-split | mpi-ws)\n",
                 sched.c_str());
    return 2;
  }

  UtsParams tree;
  if (opts.get_string("tree") == "bin") {
    tree = uts_binomial_small();
    tree.b0 = static_cast<double>(opts.get_int("scale")) * 16;
  } else {
    tree = uts_bench();
    tree.gen_mx = static_cast<int>(opts.get_int("scale"));
  }
  tree.seed = static_cast<int>(opts.get_int("seed"));

  pgas::Config cfg;
  cfg.nranks = static_cast<int>(opts.get_int("ranks"));
  cfg.machine = sim::machine_by_name(opts.get_string("machine"));

  UtsCounts expected = uts_sequential(tree);
  std::printf("tree %s: %llu nodes, %llu leaves, depth %lld\n",
              uts_describe(tree).c_str(),
              static_cast<unsigned long long>(expected.nodes),
              static_cast<unsigned long long>(expected.leaves),
              static_cast<long long>(expected.max_depth));

  UtsResult res;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    UtsRunConfig rc;
    rc.chunk = static_cast<int>(opts.get_int("chunk"));
    rc.queue_mode = mode;
    if (sched == "mpi-ws") {
      res = uts_run_mpi_ws(rt, tree, rc);
    } else if (fault::active()) {
      // SCIOTO_FAULT_PLAN armed a fault session in run_spmd: use the
      // fault-tolerant driver so counts from killed ranks survive.
      res = uts_run_scioto_ft(rt, tree, rc);
    } else {
      res = uts_run_scioto(rt, tree, rc);
    }
  });

  std::printf("%s on %d ranks (%s): %.2f Mnodes/s, elapsed %.3f ms\n",
              sched.c_str(), cfg.nranks, cfg.machine.name.c_str(),
              res.mnodes_per_sec, to_ms(res.elapsed));
  if (sched == "mpi-ws") {
    std::printf("steals=%llu tasks_stolen=%llu polls=%llu\n",
                static_cast<unsigned long long>(res.steals),
                static_cast<unsigned long long>(res.tasks_stolen),
                static_cast<unsigned long long>(res.polls));
  } else {
    tc_stats_table(res.stats).print(
        "scheduler statistics (summed over ranks)");
  }
  bool ok = res.counts == expected;
  std::printf("traversal %s: counted %llu nodes\n", ok ? "OK" : "MISMATCH",
              static_cast<unsigned long long>(res.counts.nodes));
  return ok ? 0 : 1;
}
