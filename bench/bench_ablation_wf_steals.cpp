// Ablation: locked vs lock-free steals (the paper's §8 "wait-free
// implementations of the distributed task collection").
//
// Under the locked design a thief can wait behind another thief (and
// behind the victim's own locked operations); the LockFree queue mode
// claims a whole stolen chunk with one CAS on the victim's tagged
// steal_head, so thieves never block each other. The effect shows where
// steal traffic concentrates: many ranks draining one victim.
#include <cstdio>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "base/table.hpp"

using namespace scioto;
using namespace scioto::apps;

int main(int argc, char** argv) {
  Options opts("bench_ablation_wf_steals",
               "locked vs lock-free (CAS) steal path on UTS");
  opts.add_int("scale", 11, "geometric tree depth");
  opts.add_flag("aborting", true, "adaptive-engine row: trylock-abort steals");
  opts.add_flag("adaptive", true, "adaptive-engine row: steal-half chunking");
  if (!opts.parse(argc, argv)) return 0;

  UtsParams tree = uts_bench();
  tree.gen_mx = static_cast<int>(opts.get_int("scale"));
  UtsCounts expected = uts_sequential(tree);
  std::printf("workload: %s, %llu nodes (heterogeneous cluster)\n",
              uts_describe(tree).c_str(),
              static_cast<unsigned long long>(expected.nodes));

  // Two atomics regimes: the 2008 cluster's host-assisted AMOs (CAS costs
  // a 2 us target-side service slot) vs a NIC-offloaded AMO (CAS as cheap
  // as any RMA) -- the hardware the §8 plan was anticipating.
  sim::MachineModel host_amo = sim::cluster2008();
  sim::MachineModel nic_amo = sim::cluster2008();
  nic_amo.rmw_service = nic_amo.rma_service;

  // The adaptive steal engine is the locked design's answer to the same
  // convoying problem the lock-free path attacks: thieves abort instead of
  // blocking, and the owner publishes split moves without the lock.
  auto run_one = [&](int p, const sim::MachineModel& m, QueueMode mode,
                     bool adaptive_engine) {
    pgas::Config cfg;
    cfg.nranks = p;
    cfg.backend = pgas::BackendKind::Sim;
    cfg.machine = m;
    UtsResult res;
    pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
      UtsRunConfig rc;
      rc.queue_mode = mode;
      if (adaptive_engine) {
        rc.aborting_steals = opts.get_flag("aborting");
        rc.adaptive_steal = opts.get_flag("adaptive");
        rc.owner_fastpath = true;
        rc.deferred_steal_copy = true;
      }
      res = uts_run_scioto(rt, tree, rc);
    });
    SCIOTO_CHECK_MSG(res.counts == expected, "traversal mismatch");
    return res;
  };

  Table t({"Procs", "Locked(Mn/s)", "Adaptive(Mn/s)", "LF-HostAMO(Mn/s)",
           "LF-NicAMO(Mn/s)", "LF-NicAMO/Locked", "Busy", "Retargets"});
  for (int p : {8, 16, 32, 64}) {
    UtsResult locked = run_one(p, host_amo, QueueMode::Split, false);
    UtsResult adaptive = run_one(p, host_amo, QueueMode::Split, true);
    UtsResult lf_host = run_one(p, host_amo, QueueMode::LockFree, false);
    UtsResult lf_nic = run_one(p, nic_amo, QueueMode::LockFree, false);
    t.add_row({Table::fmt(std::int64_t{p}),
               Table::fmt(locked.mnodes_per_sec, 2),
               Table::fmt(adaptive.mnodes_per_sec, 2),
               Table::fmt(lf_host.mnodes_per_sec, 2),
               Table::fmt(lf_nic.mnodes_per_sec, 2),
               Table::fmt(lf_nic.mnodes_per_sec / locked.mnodes_per_sec,
                          3),
               Table::fmt(static_cast<std::int64_t>(
                   adaptive.stats.steals_lock_busy)),
               Table::fmt(static_cast<std::int64_t>(
                   adaptive.stats.steal_retargets))});
  }
  t.print("Ablation: §8 lock-free steal path vs the locked shared portion "
          "(UTS). Host-assisted atomics make CAS steals a wash; "
          "NIC-offloaded atomics are the hardware the idea anticipates.");
  return 0;
}
