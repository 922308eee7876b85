// Fault-injection demo: runs UTS under a fault plan that fail-stops ranks
// mid-traversal, then shows the recovery machinery at work -- surviving
// ranks adopt the dead ranks' queued tasks and steal transactions, the
// termination tree resplices around the holes, and the traversal still
// matches the sequential node count exactly.
//
//   ./fault_demo --ranks 8 --scale 10
//   ./fault_demo --plan "kill:rank=2,at=80us;kill:rank=6,at=160us"
//   ./fault_demo --detector   # deaths detected by heartbeat, not oracle
//   ./fault_demo --join "rank=6,at=2ms;rank=7,at=2ms"   # grow mid-run
//   ./fault_demo --ckpt at=4ms                          # quiesce+snapshot
//
// Fail-stop kills need the deterministic sim backend: with the same plan
// and seed the whole run, trace included, replays bit-for-bit.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "base/options.hpp"
#include "detect/membership.hpp"
#include "elastic/elastic.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

using namespace scioto;
using namespace scioto::apps;

namespace {

/// Trace ring sizing: events per tree node, spread over the fleet.
constexpr std::uint64_t kTraceEventsPerNode = 6;

}  // namespace

int main(int argc, char** argv) {
  Options opts("fault_demo", "UTS recovery under injected rank failures");
  opts.add_int("ranks", 8, "number of SPMD ranks");
  opts.add_int("scale", 10, "geometric tree depth (gen_mx)");
  opts.add_int("seed", 42, "runtime seed (drives backoff jitter)");
  opts.add_string("plan", "kill:rank=3,at=5ms;kill:rank=5,at=9ms",
                  "fault plan (compact spec, JSON, or @file)");
  opts.add_string("out", "", "optional Chrome trace JSON output file");
  opts.add_flag("detector", false,
                "detect deaths with the heartbeat detector instead of the "
                "alive-oracle (lease-fenced adoption)");
  opts.add_flag("live", false,
                "render the live fleet dashboard during the run (with "
                "--detector, killed ranks walk alive -> suspect -> dead)");
  opts.add_string("join", "",
                  "elastic joins: \"rank=R,at=T\" rules (';'-separated); "
                  "those ranks start parked and are admitted mid-run");
  opts.add_string("ckpt", "",
                  "checkpoint rule, e.g. \"at=4ms\": quiesce the fleet and "
                  "snapshot queue state to --ckpt-path");
  opts.add_string("ckpt-path", "fault_demo.ckpt",
                  "checkpoint manifest path (parts at <path>.r<k>)");
  if (!opts.parse(argc, argv)) return 0;

  const bool detector = opts.get_flag("detector");
  if (detector) {
    detect::Config dc = detect::config();
    dc.enabled = true;
    detect::set_config(dc);
  }
  const bool live = opts.get_flag("live");

  const int nranks = static_cast<int>(opts.get_int("ranks"));

  // --join / --ckpt translate to fault-plan rules ("join:...", "ckpt:...")
  // appended to --plan, and arm the elastic layer for the run.
  std::string spec = opts.get_string("plan");
  auto append_rules = [&spec](const std::string& arg, const char* kind) {
    std::size_t pos = 0;
    while (pos <= arg.size()) {
      std::size_t semi = arg.find(';', pos);
      std::string one = arg.substr(
          pos, semi == std::string::npos ? std::string::npos : semi - pos);
      if (!one.empty()) {
        if (!spec.empty()) spec += ';';
        spec += kind;
        spec += ':';
        spec += one;
      }
      if (semi == std::string::npos) break;
      pos = semi + 1;
    }
  };
  const bool elastic_req =
      !opts.get_string("join").empty() || !opts.get_string("ckpt").empty();
  if (elastic_req) {
    append_rules(opts.get_string("join"), "join");
    append_rules(opts.get_string("ckpt"), "ckpt");
    elastic::Config ec = elastic::config();
    ec.enabled = true;
    if (!opts.get_string("ckpt").empty() && ec.ckpt_path.empty()) {
      ec.ckpt_path = opts.get_string("ckpt-path");
    }
    elastic::set_config(ec);
  }

  fault::FaultPlan plan = fault::FaultPlan::parse(spec);
  std::printf("fault plan (%d events):\n%s",
              static_cast<int>(plan.events.size()),
              plan.describe().c_str());

  UtsParams tree = uts_bench();
  tree.gen_mx = static_cast<int>(opts.get_int("scale"));
  UtsCounts expected = uts_sequential(tree);
  std::printf("tree %s: %llu nodes\n", uts_describe(tree).c_str(),
              static_cast<unsigned long long>(expected.nodes));

  pgas::Config cfg;
  cfg.nranks = nranks;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008_uniform();
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed"));

  // Each rank records a few events per tree node it runs (task begin/end,
  // push, pop), so rings sized from the tree keep the whole run -- the
  // deaths, suspicions and recoveries included -- where the default 32k
  // events per rank would drop them. SCIOTO_TRACE_CAP still wins.
  std::size_t trace_cap = 0;
  if (std::getenv("SCIOTO_TRACE_CAP") == nullptr) {
    trace_cap = std::max(
        trace::default_capacity(),
        static_cast<std::size_t>(kTraceEventsPerNode * expected.nodes /
                                 static_cast<std::uint64_t>(nranks)));
  }
  trace::start(nranks, trace_cap);
  fault::start(nranks, plan, cfg.seed);

  // --live: demo-owned metrics session + TTY dashboard. With --detector
  // the rank states come from the heartbeat detector's membership view
  // (alive -> suspect -> confirmed dead); otherwise from the fault oracle.
  if (live) {
    metrics::start(nranks);
    metrics::MonitorOptions mopts;
    mopts.live = true;
    metrics::monitor_start(nranks, mopts);
    if (detector) {
      metrics::monitor_set_liveness([](Rank r) {
        if (!detect::alive(r)) return metrics::RankState::Dead;
        if (detect::suspected(r)) return metrics::RankState::Suspect;
        return metrics::RankState::Alive;
      });
    } else {
      metrics::monitor_set_liveness([](Rank r) {
        return fault::alive(r) ? metrics::RankState::Alive
                               : metrics::RankState::Dead;
      });
    }
  }

  UtsResult res;
  bool got_result = false;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    UtsRunConfig rc;
    // Killed ranks throw fault::RankKilled out of the driver (run_spmd
    // treats that as a clean exit); only survivors reach the assignment.
    res = uts_run_scioto_ft(rt, tree, rc);
    got_result = true;
  });

  if (live) {
    // Count suspect/dead state transitions the monitor observed before
    // tearing the session down.
    int peak_suspects = 0, peak_dead = 0;
    for (const metrics::FleetSample& s : metrics::monitor_samples()) {
      peak_suspects = std::max(peak_suspects, s.suspects);
      peak_dead = std::max(peak_dead, s.dead);
    }
    std::printf("live monitor: %zu samples; peak %d suspect, %d dead\n",
                metrics::monitor_samples().size(), peak_suspects, peak_dead);
    metrics::monitor_stop();
    metrics::stop();
  }

  fault::Summary inj = fault::summary();
  std::printf("\ninjected: %lld kills, %lld drops, %lld stalls, "
              "%lld truncations\n",
              inj.kills, inj.drops, inj.stalls, inj.truncations);
  std::printf("survivors: %d of %d ranks (", res.survivors, nranks);
  for (Rank r = 0; r < nranks; ++r) {
    std::printf("%s%c", fault::alive(r) ? "+" : "-",
                r + 1 == nranks ? ')' : ' ');
  }
  std::printf("\n");
  fault::stop();

  if (!got_result) {
    std::printf("no surviving rank returned a result -- plan killed "
                "everyone?\n");
    trace::stop();
    return 1;
  }

  // Recovery analysis: scheduler counters first, then the trace view.
  std::printf("\nrecovery: %llu tasks adopted from dead ranks, "
              "%llu steals aborted, %llu op retries, "
              "%llu termination-tree resplices\n",
              static_cast<unsigned long long>(res.stats.tasks_recovered),
              static_cast<unsigned long long>(res.stats.steals_aborted),
              static_cast<unsigned long long>(res.stats.op_retries),
              static_cast<unsigned long long>(res.stats.td_resplices));

  std::vector<trace::Event> evs = trace::all_events();
  trace::StealMatrix sm = trace::steal_matrix(evs, nranks);
  sm.table().print(
      "tasks moved (rows=thief; 'recovered' = adopted from the dead)");
  trace::breakdown_table(trace::time_breakdown(evs, nranks))
      .print("per-rank time (dead ranks stop accruing at death)");

  if (opts.get_flag("detector")) {
    detect::Stats ds = detect::stats();
    std::printf("\ndetector: %llu heartbeats, %llu probes, %llu suspects, "
                "%llu refutes, %llu confirms, %llu fence aborts, "
                "%llu rejoins\n",
                static_cast<unsigned long long>(ds.heartbeats),
                static_cast<unsigned long long>(ds.probes),
                static_cast<unsigned long long>(ds.suspects),
                static_cast<unsigned long long>(ds.refutes),
                static_cast<unsigned long long>(ds.confirms),
                static_cast<unsigned long long>(ds.fence_aborts),
                static_cast<unsigned long long>(ds.rejoins));
    std::vector<trace::DetectionRecord> dl =
        trace::detection_latency(evs, nranks);
    if (!dl.empty()) {
      trace::detection_table(dl).print(
          "detection latency (kill -> first ConfirmDead)");
    }
  }

  if (elastic_req) {
    elastic::Stats es = elastic::stats();
    detect::Stats ds = detect::stats();
    std::printf("\nelastic: %llu ranks joined in %llu waves, "
                "%llu checkpoints, %llu restores\n",
                static_cast<unsigned long long>(ds.joins),
                static_cast<unsigned long long>(ds.grows),
                static_cast<unsigned long long>(es.checkpoints),
                static_cast<unsigned long long>(es.restores));
    if (es.checkpoints > 0) {
      std::printf("checkpoint manifest: %s\n",
                  elastic::config().ckpt_path.c_str());
    }
  }

  const std::string& out = opts.get_string("out");
  if (!out.empty() && trace::write_chrome_trace_file(out)) {
    std::printf("trace: wrote %s (%llu events dropped)\n", out.c_str(),
                static_cast<unsigned long long>(trace::total_dropped()));
  }
  trace::stop();

  bool ok = res.counts == expected;
  std::printf("\ntraversal %s: %llu nodes counted across all patches "
              "(expected %llu)\n",
              ok ? "OK" : "MISMATCH",
              static_cast<unsigned long long>(res.counts.nodes),
              static_cast<unsigned long long>(expected.nodes));
  return ok ? 0 : 1;
}
