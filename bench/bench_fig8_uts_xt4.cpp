// Figure 8 reproduction: UTS throughput under Scioto vs the MPI
// work-stealing baseline on the Cray XT4 at 64..512 processes (paper
// §6.3, Figure 8). Per-node processing cost 0.5681 us (§6.3).
//
// Expected shape: both scale near-linearly to 512 processes with Scioto
// ahead of MPI (the paper reads ~700 vs ~620 Mnodes/s at 512), the gap
// coming from one-sided steals not needing the victim to poll. The last two
// columns count the Scioto run's termination waves (every rank votes once
// per wave) and the black votes cast over all of them.
#include <cstdio>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "base/table.hpp"

using namespace scioto;
using namespace scioto::apps;

int main(int argc, char** argv) {
  Options opts("bench_fig8_uts_xt4", "Figure 8: UTS at scale on the XT4");
  opts.add_int("scale", 13, "geometric tree depth (gen_mx); 13 ~= 2.9M nodes");
  opts.add_int("max-procs", 512, "largest process count");
  opts.add_int("chunk", 10, "steal chunk size");
  if (!opts.parse(argc, argv)) return 0;

  UtsParams tree = uts_bench();
  tree.gen_mx = static_cast<int>(opts.get_int("scale"));
  UtsCounts expected = uts_sequential(tree);
  std::printf("workload: %s, %llu nodes\n", uts_describe(tree).c_str(),
              static_cast<unsigned long long>(expected.nodes));

  UtsRunConfig rc;
  rc.node_cost = ns(568);  // 0.5681 us per node on the XT4 (§6.3)
  rc.chunk = static_cast<int>(opts.get_int("chunk"));
  rc.max_tasks = 1 << 13;  // keep 512 ranks' queues memory-friendly

  Table t({"Procs", "UTS-Scioto(Mn/s)", "UTS-MPI(Mn/s)", "Scioto/MPI",
           "Waves", "Black-votes"});
  const int maxp = static_cast<int>(opts.get_int("max-procs"));
  for (int p = 64; p <= maxp; p *= 2) {
    pgas::Config cfg;
    cfg.nranks = p;
    cfg.backend = pgas::BackendKind::Sim;
    cfg.machine = sim::cray_xt4();
    cfg.stack_bytes = 192 * 1024;

    UtsResult scioto_res, mpi_res;
    pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
      scioto_res = uts_run_scioto(rt, tree, rc);
    });
    SCIOTO_CHECK_MSG(scioto_res.counts == expected,
                     "scioto traversal mismatch");
    pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
      mpi_res = uts_run_mpi_ws(rt, tree, rc);
    });
    SCIOTO_CHECK_MSG(mpi_res.counts == expected, "mpi traversal mismatch");

    t.add_row({Table::fmt(std::int64_t{p}),
               Table::fmt(scioto_res.mnodes_per_sec, 2),
               Table::fmt(mpi_res.mnodes_per_sec, 2),
               Table::fmt(scioto_res.mnodes_per_sec /
                              mpi_res.mnodes_per_sec, 3),
               Table::fmt(static_cast<std::int64_t>(
                   scioto_res.stats.td_waves_voted / p)),
               Table::fmt(static_cast<std::int64_t>(
                   scioto_res.stats.td_black_votes))});
  }
  t.print("Figure 8: UTS under Scioto and MPI on the Cray XT4 (Mnodes/s; "
          "paper reads ~700 vs ~620 at 512 procs)");
  return 0;
}
