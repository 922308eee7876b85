// Elastic membership on bursty UTS: does growing the fleet mid-run pay?
//
// The claim under test (the elastic subsystem's win condition): a run that
// starts with half the fleet and admits the other half shortly after the
// root burst fans out must land strictly between the small and large
// static fleets in throughput -- the joiners arrive in time to help drain
// the burst, so elasticity recovers most of the capacity a static small
// fleet leaves on the table. Also measures the quiesce+checkpoint pause: a
// mid-run snapshot on the full fleet against the same run without one.
//
// Virtual-time sim, so every number is bit-deterministic: the CI budget
// asserts on these throughputs without wall-clock noise.
#include <cstdio>
#include <string>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "detect/membership.hpp"
#include "elastic/elastic.hpp"
#include "fault/fault.hpp"
#include "fault/plan.hpp"

using namespace scioto;
using namespace scioto::apps;

namespace {

UtsResult run_static(const UtsParams& tree, int procs) {
  pgas::Config cfg;
  cfg.nranks = procs;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008();
  UtsResult res;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    res = uts_run_scioto(rt, tree, UtsRunConfig{});
  });
  return res;
}

// One elastic run: the fault plan supplies join/ckpt rules, the staged
// elastic config arms the session inside run_spmd.
UtsResult run_elastic(const UtsParams& tree, int procs,
                      const std::string& plan, const std::string& ckpt_path) {
  elastic::Config saved = elastic::config();
  elastic::Config ec = saved;
  ec.enabled = true;
  ec.ckpt_path = ckpt_path;
  elastic::set_config(ec);
  // The membership view elastic arms brings the heartbeat probe engine
  // with it. Its default cadence is tuned for sub-millisecond failure
  // detection; this bench injects no kills, so back the probes way off --
  // otherwise their charged remote reads tax every worker and the
  // comparison measures the detector, not elasticity.
  detect::Config saved_d = detect::config();
  detect::Config dc = saved_d;
  dc.hb_period = us(200);
  dc.probe_period = us(1000);
  dc.suspect_after = ms(50);
  dc.confirm_after = ms(200);
  detect::set_config(dc);
  fault::start(procs, fault::FaultPlan::parse(plan), /*seed=*/1);

  pgas::Config cfg;
  cfg.nranks = procs;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008();
  UtsResult res;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    res = uts_run_scioto_elastic(rt, tree, UtsRunConfig{});
  });

  fault::stop();
  detect::set_config(saved_d);
  elastic::set_config(saved);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_elastic",
               "grow-mid-run and checkpoint-pause costs on bursty UTS");
  opts.add_int("procs", 8, "full fleet size (grown runs end here)");
  opts.add_string("json", "", "also write results as JSON to this file");
  if (!opts.parse(argc, argv)) return 0;
  const int procs = static_cast<int>(opts.get_int("procs"));
  const int small = procs / 2;
  SCIOTO_CHECK_MSG(small >= 1, "need at least 2 procs");
  const std::string json = opts.get_string("json");

  // The T2 bursty binomial workload from the chunk ablation: a wide root
  // fan-out into heavy-tailed subtrees. The burst is exactly the moment
  // extra ranks are worth admitting.
  UtsParams t2;
  t2.tree = UtsTree::Binomial;
  t2.seed = 42;
  t2.b0 = 2000;
  t2.q = 0.120;
  t2.m = 8;
  UtsCounts expected = uts_sequential(t2);
  std::printf("workload T2 binomial-bursty: %s, %llu nodes\n",
              uts_describe(t2).c_str(),
              static_cast<unsigned long long>(expected.nodes));

  UtsResult st_small = run_static(t2, small);
  SCIOTO_CHECK_MSG(st_small.counts == expected, "static-small mismatch");
  UtsResult st_full = run_static(t2, procs);
  SCIOTO_CHECK_MSG(st_full.counts == expected, "static-full mismatch");

  // Joiners arrive once the root burst has fanned out: ~10% into the
  // small fleet's run, derived from its measured (virtual) elapsed time
  // so the scenario scales with the workload.
  const TimeNs join_at = st_small.elapsed / 10;
  std::string grow_plan;
  for (int r = small; r < procs; ++r) {
    if (!grow_plan.empty()) grow_plan += ";";
    grow_plan += "join:rank=" + std::to_string(r) +
                 ",at=" + std::to_string(join_at) + "ns";
  }
  UtsResult grown = run_elastic(t2, procs, grow_plan, "");
  SCIOTO_CHECK_MSG(grown.counts == expected, "grown-run mismatch");
  detect::Stats ds = detect::stats();
  SCIOTO_CHECK_MSG(ds.joins == static_cast<std::uint64_t>(procs - small),
                   "expected " << (procs - small) << " joins, got "
                               << ds.joins);

  // Checkpoint pause: one quiesce+snapshot halfway through the full
  // fleet's run, against the same fleet without one.
  const std::string ckpt_path = "bench_elastic.ckpt";
  const std::string ckpt_plan =
      "ckpt:at=" + std::to_string(st_full.elapsed / 2) + "ns";
  UtsResult ckpt = run_elastic(t2, procs, ckpt_plan, ckpt_path);
  SCIOTO_CHECK_MSG(ckpt.counts == expected, "ckpt-run mismatch");
  elastic::Stats es = elastic::stats();
  SCIOTO_CHECK_MSG(es.checkpoints == 1,
                   "expected 1 checkpoint, got " << es.checkpoints);
  std::remove(ckpt_path.c_str());
  for (int r = 0; r < procs; ++r) {
    std::remove((ckpt_path + ".r" + std::to_string(r)).c_str());
  }

  const double grow_vs_small = grown.mnodes_per_sec / st_small.mnodes_per_sec;
  const double grow_vs_full = grown.mnodes_per_sec / st_full.mnodes_per_sec;
  const double ckpt_overhead =
      (static_cast<double>(ckpt.elapsed) /
           static_cast<double>(st_full.elapsed) -
       1.0) *
      100.0;

  Table t({"Config", "Throughput(Mn/s)", "Elapsed(us)", "Steals"});
  auto row = [&](const char* label, const UtsResult& r) {
    t.add_row({label, Table::fmt(r.mnodes_per_sec, 2),
               Table::fmt(static_cast<double>(r.elapsed) / 1000.0, 1),
               Table::fmt(static_cast<std::int64_t>(r.steals))});
  };
  char grow_label[48];
  std::snprintf(grow_label, sizeof(grow_label), "grow %d->%d @%.0fus", small,
                procs, static_cast<double>(join_at) / 1000.0);
  row("static small", st_small);
  row("static full", st_full);
  row(grow_label, grown);
  row("full + 1 ckpt", ckpt);
  t.print("Elastic membership on bursty UTS (virtual time, deterministic)");
  std::printf("grow %d->%d: %.3fx over static %d, %.3fx of static %d; "
              "1 mid-run ckpt costs %.1f%%\n",
              small, procs, grow_vs_small, small, grow_vs_full, procs,
              ckpt_overhead);

  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << json);
    std::fprintf(f, "{\n  \"workload\": \"T2-binomial-bursty\",\n");
    std::fprintf(f, "  \"nodes\": %llu,\n  \"procs_small\": %d,\n"
                 "  \"procs_full\": %d,\n",
                 static_cast<unsigned long long>(expected.nodes), small,
                 procs);
    std::fprintf(f, "  \"join_at_ns\": %lld,\n",
                 static_cast<long long>(join_at));
    std::fprintf(f, "  \"static_small_mnps\": %.4f,\n",
                 st_small.mnodes_per_sec);
    std::fprintf(f, "  \"static_full_mnps\": %.4f,\n", st_full.mnodes_per_sec);
    std::fprintf(f, "  \"grow_mnps\": %.4f,\n", grown.mnodes_per_sec);
    std::fprintf(f, "  \"grow_vs_small\": %.4f,\n", grow_vs_small);
    std::fprintf(f, "  \"grow_vs_full\": %.4f,\n", grow_vs_full);
    std::fprintf(f, "  \"joins\": %llu,\n",
                 static_cast<unsigned long long>(ds.joins));
    std::fprintf(f, "  \"ckpt_mnps\": %.4f,\n", ckpt.mnodes_per_sec);
    std::fprintf(f, "  \"ckpt_overhead_pct\": %.2f\n}\n", ckpt_overhead);
    std::fclose(f);
    std::printf("json: wrote %s\n", json.c_str());
  }
  return 0;
}
