// Adaptive control plane tests (src/control): rule parsing, the
// hysteresis/dwell rule engine as a pure state machine, KnobSet clamping,
// live knob flips through a running collection (the set_knob plumbing the
// control plane rides on), armed-controller UTS runs whose decision JSONL
// must be bit-deterministic across reruns on the sim backend, the
// zero-perturbation guarantee (an armed-but-quiet controller leaves the
// trace stream byte-identical to a controller-off run), composition with
// the failure detector (dead ranks never retune; wards inherit published
// knobs), the monitor's hot-victim digest, threads-backend smoke runs for
// TSan, and the scioto_ctl_* C API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "control/control.hpp"
#include "detect/membership.hpp"
#include "fault/fault.hpp"
#include "fault/plan.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "scioto/scioto_c.h"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

using namespace scioto;
using namespace scioto::testing;

namespace {

using control::Decision;
using control::Knob;
using control::kNumKnobs;
using control::KnobSet;
using control::RuleEngine;
using control::Rules;
using control::Signals;

constexpr int kChunk = static_cast<int>(Knob::StealChunk);
constexpr int kRelease = static_cast<int>(Knob::ReleaseThreshold);
constexpr int kVset = static_cast<int>(Knob::VictimSetSize);

/// Stages a controller config for the enclosing scope and restores the
/// prior staged config on exit (run_spmd arms/disarms the session).
class CtlGuard {
 public:
  explicit CtlGuard(control::Mode m, TimeNs period = 0,
                    const Rules* rules = nullptr)
      : saved_(control::config()) {
    control::Config c = saved_;
    c.mode = m;
    if (period > 0) c.period = period;
    if (rules != nullptr) c.rules = *rules;
    control::set_config(c);
  }
  ~CtlGuard() { control::set_config(saved_); }

 private:
  control::Config saved_;
};

/// Applies the engine's decisions the way an owner would (unclamped here:
/// the unit tests drive the engine directly, without a KnobSet).
void apply_all(const std::vector<Decision>& ds, std::int64_t cur[kNumKnobs]) {
  for (const Decision& d : ds) cur[static_cast<int>(d.knob)] = d.value;
}

bool has_decision(const std::vector<Decision>& ds, Knob k, std::int64_t v) {
  for (const Decision& d : ds) {
    if (d.knob == k && d.value == v) return true;
  }
  return false;
}

/// The stock knobs a queue starts from: chunk 10, release threshold 20,
/// unrestricted victims.
void stock_baseline(std::int64_t base[kNumKnobs]) {
  base[kChunk] = 10;
  base[kRelease] = 20;
  base[kVset] = 0;
}

Signals imbalanced(std::uint64_t shared_depth = 0) {
  Signals s;
  s.cov = 2.0;
  s.have_cov = true;
  s.shared_depth = shared_depth;
  return s;
}

}  // namespace

// ---- Rules: parse / to_string ----

TEST(CtlRules, ToStringRoundTripsThroughParse) {
  Rules def;
  Rules parsed;
  std::string err;
  ASSERT_TRUE(Rules::parse(def.to_string(), &parsed, &err)) << err;
  EXPECT_EQ(parsed.to_string(), def.to_string());
}

TEST(CtlRules, ParseOverridesOnlyNamedKeys) {
  Rules r;
  std::string err;
  ASSERT_TRUE(Rules::parse(
      "dwell=5;hot_set=2;chunk_burst=32;release_min=4;cov_hi=1.5", &r, &err))
      << err;
  EXPECT_EQ(r.dwell, 5);
  EXPECT_EQ(r.hot_set, 2);
  EXPECT_EQ(r.chunk_burst, 32);
  EXPECT_EQ(r.release_min, 4);
  EXPECT_DOUBLE_EQ(r.cov_hi, 1.5);
  // Untouched keys keep their defaults.
  const Rules def;
  Rules only_dwell;
  ASSERT_TRUE(Rules::parse("dwell=4", &only_dwell, &err)) << err;
  EXPECT_DOUBLE_EQ(only_dwell.cov_hi, def.cov_hi);
  EXPECT_EQ(only_dwell.hot_set, def.hot_set);
  // Empty spec (and stray separators) are a no-op.
  Rules r2;
  ASSERT_TRUE(Rules::parse("", &r2, &err));
  ASSERT_TRUE(Rules::parse(";;dwell=2;;", &r2, &err)) << err;
  EXPECT_EQ(r2.dwell, 2);
}

TEST(CtlRules, ParseRejectsBadSpecsWithoutMutatingOutput) {
  const char* bad[] = {
      "nonsense",          // no key=value shape
      "dwell=abc",         // non-numeric value
      "frobnicate=1",      // unknown key
      "dwell=0",           // dwell must be >= 1
      "dwell=3;cov_hi",    // trailing junk pair
  };
  for (const char* spec : bad) {
    Rules r;
    r.hot_set = 3;  // sentinel: must survive a failed parse
    std::string err;
    EXPECT_FALSE(Rules::parse(spec, &r, &err)) << spec;
    EXPECT_FALSE(err.empty()) << spec;
    EXPECT_EQ(r.hot_set, 3) << spec << " mutated output on failure";
  }
}

// ---- KnobSet: clamping and change detection ----

TEST(CtlKnobs, SetClampsToInitBounds) {
  KnobSet ks;
  ks.init(/*chunk=*/10, /*chunk_max=*/64, /*release_threshold=*/20,
          /*nprocs=*/8);
  EXPECT_EQ(ks.get(Knob::StealChunk), 10);
  EXPECT_EQ(ks.get(Knob::ReleaseThreshold), 20);
  EXPECT_EQ(ks.get(Knob::VictimSetSize), 0);

  // The chunk may never exceed chunk_max: steal buffers are sized for it.
  EXPECT_TRUE(ks.set(Knob::StealChunk, 1000));
  EXPECT_EQ(ks.get(Knob::StealChunk), 64);
  EXPECT_TRUE(ks.set(Knob::StealChunk, 0));
  EXPECT_EQ(ks.get(Knob::StealChunk), 1);
  EXPECT_TRUE(ks.set(Knob::ReleaseThreshold, 0));
  EXPECT_EQ(ks.get(Knob::ReleaseThreshold), 1);
  // Victim set caps at nprocs - 1 (you cannot steal from yourself).
  EXPECT_TRUE(ks.set(Knob::VictimSetSize, 100));
  EXPECT_EQ(ks.get(Knob::VictimSetSize), 7);
  // A write that lands on the current value reports no change.
  EXPECT_FALSE(ks.set(Knob::VictimSetSize, 100));
}

// ---- Rule engine: hysteresis, dwell, burst ----

TEST(CtlEngine, HighCovFiresOnlyAfterDwellEpochs) {
  Rules rules;  // dwell = 3
  std::int64_t cur[kNumKnobs];
  stock_baseline(cur);
  RuleEngine eng(rules);

  std::vector<Decision> ds;
  for (int epoch = 1; epoch < rules.dwell; ++epoch) {
    eng.step(imbalanced(), cur, &ds);
    EXPECT_TRUE(ds.empty()) << "fired at streak " << epoch;
  }
  eng.step(imbalanced(), cur, &ds);
  // The burst response: chunk cap opened to chunk_burst, thieves steered
  // at the hot set. No release change -- this rank's own shared queue
  // (depth 0) is not the imbalance.
  EXPECT_TRUE(has_decision(ds, Knob::StealChunk, rules.chunk_burst));
  EXPECT_TRUE(has_decision(ds, Knob::VictimSetSize, rules.hot_set));
  for (const Decision& d : ds) {
    EXPECT_NE(d.knob, Knob::ReleaseThreshold);
    EXPECT_EQ(d.reason, control::kReasonHighCov);
  }
  apply_all(ds, cur);

  // Streak persists but every changed knob is frozen by its dwell and
  // already at its target: no further decisions.
  ds.clear();
  eng.step(imbalanced(), cur, &ds);
  EXPECT_TRUE(ds.empty());
}

TEST(CtlEngine, ReleaseHalvesOnlyOnTheDeepRankWithFloor) {
  Rules rules;
  std::int64_t cur[kNumKnobs];
  stock_baseline(cur);
  RuleEngine eng(rules);
  std::vector<Decision> ds;
  // Shared depth 8*rel is the gate: one short of it never touches the
  // release threshold.
  for (int epoch = 0; epoch < 3 * rules.dwell; ++epoch) {
    eng.step(imbalanced(/*shared_depth=*/8 * 20 - 1), cur, &ds);
    apply_all(ds, cur);
    ds.clear();
  }
  EXPECT_EQ(cur[kRelease], 20);

  // At the gate it halves, clamped at release_min.
  RuleEngine eng2(rules);
  stock_baseline(cur);
  for (int epoch = 0; epoch < 8 * rules.dwell; ++epoch) {
    eng2.step(imbalanced(/*shared_depth=*/100000), cur, &ds);
    apply_all(ds, cur);
    ds.clear();
  }
  EXPECT_EQ(cur[kRelease], rules.release_min);
}

// ---- Live knob flips through a running collection (set_knob plumbing) ----

namespace {

struct FlipResult {
  TcStats stats;
  std::int64_t readback[kNumKnobs] = {};
};

/// A bursty binary-tree workload on 4 sim ranks. When `flip` is set,
/// rank 1 rewrites its knobs mid-process() after its 20th task; the
/// read-back values and the global stats come home for inspection.
FlipResult flip_workload(bool flip) {
  FlipResult out;
  run_sim(4, [&](pgas::Runtime& rt) {
    struct Node {
      int depth;
    };
    TcConfig tcc;
    tcc.chunk_size = 2;
    tcc.chunk_max = 64;  // headroom so the live chunk can be raised
    TaskCollection tc(rt, tcc);
    int executed_here = 0;
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      ctx.tc.runtime().charge(2000);
      if (flip && ctx.tc.runtime().me() == 1 && ++executed_here == 20) {
        // Every knob flips mid-run; each must come back live (clamped).
        EXPECT_EQ(ctx.tc.set_knob(Knob::StealChunk, 64), 64);
        EXPECT_EQ(ctx.tc.set_knob(Knob::ReleaseThreshold, 2), 2);
        EXPECT_EQ(ctx.tc.set_knob(Knob::VictimSetSize, 2), 2);
        EXPECT_EQ(ctx.tc.set_knob(Knob::StealChunk, 1000), 64);  // clamp
      }
      int d = ctx.body_as<Node>().depth;
      if (d > 0) {
        Task child = ctx.tc.task_create(sizeof(Node), ctx.header.callback);
        child.body_as<Node>().depth = d - 1;
        ctx.tc.add_local(child);
        ctx.tc.add_local(child);
      }
    });
    if (rt.me() == 0) {
      Task root = tc.task_create(sizeof(Node), h);
      root.body_as<Node>().depth = 11;
      tc.add_local(root);
    }
    tc.process();
    if (rt.me() == 1) {
      for (int k = 0; k < kNumKnobs; ++k) {
        out.readback[k] = tc.knob(static_cast<Knob>(k));
      }
    }
    TcStats g = tc.stats_global();
    if (rt.me() == 0) out.stats = g;
    tc.destroy();
  });
  return out;
}

}  // namespace

TEST(CtlPlumbing, SetKnobMidRunIsLiveAndChangesStealBehavior) {
  FlipResult base = flip_workload(false);
  FlipResult flip = flip_workload(true);
  // Same tree either way.
  EXPECT_EQ(base.stats.tasks_executed, flip.stats.tasks_executed);
  // The knobs stayed what the mid-run flip set them to...
  EXPECT_EQ(flip.readback[kChunk], 64);
  EXPECT_EQ(flip.readback[kRelease], 2);
  EXPECT_EQ(flip.readback[kVset], 2);
  // ... and the queue/steal paths actually read them: rank 1 stealing
  // with a wide cap (instead of chunks of at most 2) must move the
  // fleet's steal traffic. If the flip were write-only (the pre-KnobSet
  // plumbing drift), both runs would be identical.
  EXPECT_NE(base.stats.tasks_stolen, flip.stats.tasks_stolen);
}

// ---- Armed controller on UTS: exactness + decision-log determinism ----

namespace {

/// A small bursty binomial tree (the T2 bench's shape, scaled down):
/// a wide root fan-out into subcritical subtrees.
apps::UtsParams bursty_tree() {
  apps::UtsParams p;
  p.tree = apps::UtsTree::Binomial;
  p.seed = 42;
  p.b0 = 1500;
  p.q = 0.110;
  p.m = 8;
  return p;
}

/// The geometric tree uts_demo traverses by default (depth 10); its
/// --seed flag is the tree seed.
apps::UtsParams demo_geo_tree(int tree_seed) {
  apps::UtsParams p = apps::uts_bench();
  p.gen_mx = 10;
  p.seed = tree_seed;
  return p;
}

struct CtlRun {
  apps::UtsCounts counts;
  std::string decisions;
  control::Stats stats;
};

/// One traversal on 8 sim ranks under the local controller, 50 us epochs.
CtlRun run_uts_ctl(const apps::UtsParams& tree,
                   const sim::MachineModel& machine, std::uint64_t seed) {
  CtlGuard guard(control::Mode::Local, /*period=*/50'000);
  pgas::Config cfg = make_cfg(8, pgas::BackendKind::Sim, seed);
  cfg.machine = machine;
  CtlRun out;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    apps::UtsResult res = apps::uts_run_scioto(rt, tree, apps::UtsRunConfig{});
    if (rt.me() == 0) out.counts = res.counts;
  });
  out.decisions = control::decisions_jsonl();
  out.stats = control::stats();
  return out;
}

}  // namespace

TEST(CtlUts, LocalControllerExactAndDeterministicOverEightSeeds) {
  // Each row runs eight schedules twice: the bursty tree over runtime
  // seeds 1-8, and uts_demo's geometric tree on the cluster model over
  // tree seeds 1-8 (runtime seed 42, as `uts_demo --seed N` runs it).
  struct Row {
    const char* name;
    bool seed_is_tree;
  };
  for (const Row& row : {Row{"bursty binomial", false},
                         Row{"uts_demo geo", true}}) {
    std::uint64_t total_decisions = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const apps::UtsParams tree = row.seed_is_tree
                                       ? demo_geo_tree(static_cast<int>(seed))
                                       : bursty_tree();
      const sim::MachineModel machine =
          row.seed_is_tree ? sim::cluster2008() : sim::test_machine();
      const std::uint64_t rt_seed = row.seed_is_tree ? 42 : seed;
      CtlRun a = run_uts_ctl(tree, machine, rt_seed);
      CtlRun b = run_uts_ctl(tree, machine, rt_seed);
      EXPECT_TRUE(a.counts == apps::uts_sequential(tree))
          << row.name << " seed " << seed;
      // The full decision sequence -- every rank, every epoch, every knob
      // value, every virtual timestamp -- must replay bit-identically.
      EXPECT_EQ(a.decisions, b.decisions) << row.name << " seed " << seed;
      EXPECT_EQ(a.stats.decisions, b.stats.decisions);
      total_decisions += a.stats.decisions;
    }
    // The root burst is exactly the imbalance the rule targets: across
    // eight schedules the controller cannot have sat on its hands.
    EXPECT_GT(total_decisions, 0u) << row.name;
  }
}

// A traced controller run exports each knob change under the names the
// decision log uses, not as enum numbers.
TEST(CtlUts, TraceExportNamesKnobAndReason) {
  std::string json;
  for (std::uint64_t seed = 1; seed <= 8 && json.empty(); ++seed) {
    trace::start(8);
    CtlRun run = run_uts_ctl(bursty_tree(), sim::test_machine(), seed);
    if (run.stats.decisions > 0) json = trace::chrome_trace_json();
    trace::stop();
  }
  ASSERT_FALSE(json.empty()) << "no knob change in eight seeds";
  bool named = false;
  for (int k = 0; k < kNumKnobs; ++k) {
    const std::string arg = std::string("\"knob\":\"") +
                            control::knob_name(static_cast<Knob>(k)) + "\"";
    named = named || json.find(arg) != std::string::npos;
  }
  EXPECT_TRUE(named);
  EXPECT_NE(json.find("\"reason\":\"high_cov\""), std::string::npos);
  EXPECT_EQ(json.find("\"knob\":0"), std::string::npos);
}

// ---- The control plane's win condition, pinned ----

namespace {

/// The T2 bursty binomial tree of bench_control_uts (and the chunk
/// ablation): a wide root fan-out into heavy-tailed subcritical subtrees.
apps::UtsParams t2_tree() {
  apps::UtsParams p;
  p.tree = apps::UtsTree::Binomial;
  p.seed = 42;
  p.b0 = 2000;
  p.q = 0.120;
  p.m = 8;
  return p;
}

/// One T2 traversal on 8 cluster ranks, runtime seed 42; returns the
/// makespan after checking the traversal against the sequential oracle.
TimeNs t2_makespan(int chunk, bool steal_half) {
  const apps::UtsParams tree = t2_tree();
  pgas::Config cfg;
  cfg.nranks = 8;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = sim::cluster2008();
  cfg.seed = 42;
  apps::UtsResult res;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    apps::UtsRunConfig rc;
    rc.chunk = chunk;
    rc.steal_half = steal_half;
    apps::UtsResult r = apps::uts_run_scioto(rt, tree, rc);
    if (rt.me() == 0) res = r;
  });
  EXPECT_TRUE(res.counts == apps::uts_sequential(tree)) << "chunk " << chunk;
  return res.elapsed;
}

}  // namespace

// Starting from the stock config (chunk 10, steal-half), the local
// controller with default rules must finish the bursty tree no later than
// the best hand-picked static chunk (fixed-width steals, so "static" means
// every steal takes exactly `chunk`). Sim virtual time is exact, so both
// makespans are pinned.
TEST(CtlBudget, AdaptiveLocalBeatsBestStaticChunkOnT2) {
  TimeNs best_static = kTimeNever;
  for (int chunk : {1, 2, 5, 10, 20, 50}) {
    const TimeNs t = t2_makespan(chunk, /*steal_half=*/false);
    if (chunk == 50) {
      EXPECT_EQ(t, TimeNs{10169811}) << "static chunk 50";
    }
    best_static = std::min(best_static, t);
  }
  TimeNs adaptive = 0;
  {
    CtlGuard guard(control::Mode::Local);
    adaptive = t2_makespan(10, TcConfig{}.steal_half);
  }
  EXPECT_EQ(adaptive, TimeNs{9821567}) << "adaptive local";
  EXPECT_LE(adaptive, best_static);
  EXPECT_GT(control::stats().decisions, 0u);
}

// ---- The controller across shapes, pinned ----

namespace {

/// A phases_td64-shaped loop: 200 back-to-back phases on 64 uniform
/// cluster ranks, each rank adding one 5 us task to another rank per
/// phase. Returns the virtual time of the loop; checks every task ran.
TimeNs phase_loop_makespan(std::uint64_t seed) {
  constexpr int kRanks = 64;
  constexpr int kPhases = 200;
  pgas::Config cfg = make_cfg(kRanks, pgas::BackendKind::Sim, seed);
  cfg.machine = sim::cluster2008_uniform();
  TimeNs elapsed = 0;
  std::uint64_t ran = 0;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    TcConfig tcc;
    tcc.max_task_body = 8;
    tcc.max_tasks_per_rank = 1 << 10;
    TaskCollection tc(rt, tcc);
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      ctx.tc.runtime().charge(5000);
      ++ran;
    });
    const Task task = tc.task_create(0, h);
    rt.barrier();
    const TimeNs t0 = rt.now();
    for (int ph = 0; ph < kPhases; ++ph) {
      rt.barrier();
      tc.add((rt.me() + 1 + ph % (kRanks - 1)) % kRanks, kAffinityHigh, task);
      tc.process();
      tc.reset();
    }
    rt.barrier();
    if (rt.me() == 0) elapsed = rt.now() - t0;
    tc.destroy();
  });
  EXPECT_EQ(ran, std::uint64_t{kPhases} * kRanks);
  return elapsed;
}

}  // namespace

// Unarmed vs armed (default rules and period) makespans at runtime seed 1
// on the shapes the controller was swept over (EXPERIMENTS.md, "Adaptive
// control: what each rule earned"). Sim virtual time is exact, so both
// are pinned. The controller wins only on the bursty T2 tree; on the
// geometric tree it loses, several-fold at 256 XT4 ranks (ROADMAP item
// 13's open loss, pinned here so a fix shows up as a re-pin), and on the
// phase loop it never decides.
TEST(CtlSweep, ArmedVsUnarmedMakespansPinned) {
  struct Shape {
    const char* name;
    bool t2;  // T2 bursty binomial tree, else the geometric uts_bench tree
    int depth;
    int ranks;
    bool xt4;
    TimeNs unarmed, armed;
  };
  const Shape shapes[] = {
      {"T2, 8 cluster ranks", true, 0, 8, false, 10109633, 9667799},
      {"T2, 32 cluster ranks", true, 0, 32, false, 6535896, 5466865},
      {"geo d10, 32 cluster ranks", false, 10, 32, false, 5737552, 7153653},
      {"geo d11, 64 cluster ranks", false, 11, 64, false, 7816987, 15736688},
      {"geo d11, 256 XT4 ranks", false, 11, 256, true, 4599908, 27948367},
  };
  for (const Shape& sh : shapes) {
    apps::UtsParams tree = apps::uts_bench();
    tree.gen_mx = sh.depth;
    if (sh.t2) tree = t2_tree();
    const apps::UtsCounts expected = apps::uts_sequential(tree);
    TimeNs got[2] = {};
    for (int armed = 0; armed < 2; ++armed) {
      CtlGuard guard(armed ? control::Mode::Local : control::Mode::Off);
      pgas::Config cfg = make_cfg(sh.ranks, pgas::BackendKind::Sim, 1);
      cfg.machine = sh.xt4 ? sim::cray_xt4() : sim::cluster2008();
      apps::UtsResult res;
      pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
        apps::UtsResult r =
            apps::uts_run_scioto(rt, tree, apps::UtsRunConfig{});
        if (rt.me() == 0) res = r;
      });
      EXPECT_TRUE(res.counts == expected) << sh.name;
      got[armed] = res.elapsed;
    }
    EXPECT_EQ(got[0], sh.unarmed) << sh.name << " unarmed";
    EXPECT_EQ(got[1], sh.armed) << sh.name << " armed";
    if (sh.t2) {
      EXPECT_LT(got[1], got[0]) << sh.name;
    }
  }
  TimeNs phases[2] = {};
  for (int armed = 0; armed < 2; ++armed) {
    CtlGuard guard(armed ? control::Mode::Local : control::Mode::Off);
    phases[armed] = phase_loop_makespan(1);
  }
  EXPECT_EQ(phases[0], TimeNs{44881599}) << "phase loop unarmed";
  EXPECT_EQ(phases[1], TimeNs{44881599}) << "phase loop armed";
}

// ---- Removed names fail loudly ----

TEST(CtlEnv, GlobalControllerRejectedByName) {
  ASSERT_EQ(setenv("SCIOTO_CONTROLLER", "global", 1), 0);
  bool ran = false;
  try {
    run_sim(2, [&](pgas::Runtime&) { ran = true; });
    ADD_FAILURE() << "SCIOTO_CONTROLLER=global was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("SCIOTO_CONTROLLER"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("global"), std::string::npos)
        << e.what();
  }
  ASSERT_EQ(unsetenv("SCIOTO_CONTROLLER"), 0);
  EXPECT_FALSE(ran);
}

// The rule keys of the deleted steal-failure and calm rules are unknown
// keys now: the env knob fails the run naming itself and the key, and the
// C API stages nothing.
TEST(CtlEnv, BadRulesSpecRejectedByName) {
  const char* bad[] = {"dwell=0",    "succ_lo=0.5",  "succ_hi=0.9",
                       "cov_lo=0.3", "chunk_step=2", "min_attempts=4"};
  for (const char* spec : bad) {
    const std::string key(spec, std::strchr(spec, '='));
    ASSERT_EQ(setenv("SCIOTO_CONTROLLER", "local", 1), 0);
    ASSERT_EQ(setenv("SCIOTO_CTL_RULES", spec, 1), 0);
    bool ran = false;
    try {
      run_sim(2, [&](pgas::Runtime&) { ran = true; });
      ADD_FAILURE() << "SCIOTO_CTL_RULES=" << spec << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("SCIOTO_CTL_RULES"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(ran) << spec;
    char errbuf[128] = {};
    EXPECT_EQ(scioto_ctl_rules_set(spec, errbuf, sizeof(errbuf)), -1)
        << spec;
    EXPECT_NE(std::string(errbuf).find(key), std::string::npos) << errbuf;
  }
  EXPECT_EQ(control::config().rules.to_string(), Rules().to_string())
      << "a rejected spec was staged";
  // A good spec runs.
  ASSERT_EQ(setenv("SCIOTO_CTL_RULES", "dwell=2;hot_set=2", 1), 0);
  const apps::UtsParams tree = apps::uts_tiny();
  apps::UtsCounts counts;
  run_sim(4, [&](pgas::Runtime& rt) {
    apps::UtsResult res = apps::uts_run_scioto(rt, tree, apps::UtsRunConfig{});
    if (rt.me() == 0) counts = res.counts;
  });
  EXPECT_TRUE(counts == apps::uts_sequential(tree));
  ASSERT_EQ(unsetenv("SCIOTO_CTL_RULES"), 0);
  ASSERT_EQ(unsetenv("SCIOTO_CONTROLLER"), 0);
}

// ---- Zero perturbation: a quiet controller leaves the trace untouched ----

TEST(CtlOff, QuietControllerTraceIdenticalToOff) {
  auto traced_run = [&](bool armed) {
    // dwell too large to ever reach: the armed controller polls, reads
    // the digest, and runs the monitor every epoch but may not perturb
    // the schedule.
    Rules inert;
    inert.dwell = 1000000;
    CtlGuard guard(armed ? control::Mode::Local : control::Mode::Off,
                   /*period=*/50'000, &inert);
    trace::start(4);
    run_sim(4, [&](pgas::Runtime& rt) {
      apps::UtsRunConfig rc;
      rc.chunk = 2;
      (void)apps::uts_run_scioto(rt, apps::uts_tiny(), rc);
    });
    std::vector<trace::Event> evs = trace::all_events();
    trace::stop();
    return evs;
  };
  std::vector<trace::Event> off = traced_run(false);
  std::vector<trace::Event> on = traced_run(true);
  ASSERT_FALSE(off.empty());
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i].t, on[i].t) << "event " << i;
    ASSERT_EQ(off[i].kind, on[i].kind) << "event " << i;
    ASSERT_EQ(off[i].rank, on[i].rank) << "event " << i;
    ASSERT_EQ(off[i].a, on[i].a) << "event " << i;
    ASSERT_EQ(off[i].b, on[i].b) << "event " << i;
    ASSERT_EQ(off[i].c, on[i].c) << "event " << i;
  }
}

// ---- Composition with the failure detector ----

TEST(CtlFaults, DeadRankNeverRetunesWardInheritsPublishedKnobs) {
  metrics::start(2);
  control::Config cfg;
  cfg.mode = control::Mode::Local;
  cfg.period = 1000;
  control::start(2, cfg);
  detect::start(2);

  KnobSet ward, victim;
  ward.init(10, 64, 20, 2);
  victim.init(10, 64, 20, 2);
  control::attach(0, &ward);
  control::attach(1, &victim);

  // The victim diverges from stock before dying (say, its own controller
  // had opened the chunk), and the divergence is published.
  victim.set(Knob::StealChunk, 33);
  control::republish(1);

  {
    std::int64_t pub0[kNumKnobs];
    ASSERT_TRUE(control::published(1, pub0));
    EXPECT_EQ(pub0[kChunk], 33);
  }

  // Death: the detector fences the rank; its epochs must stop cold.
  ASSERT_TRUE(detect::confirm_dead(1, /*by=*/0));
  const std::uint64_t epochs_before = control::stats().epochs;
  control::poll_epoch(1, 10'000, 0);
  control::poll_epoch(1, 20'000, 0);
  EXPECT_EQ(control::stats().epochs, epochs_before)
      << "a dead rank evaluated a controller epoch";

  // The published row outlives the owner...
  control::detach(1);
  std::int64_t pub[kNumKnobs];
  ASSERT_TRUE(control::published(1, pub));
  EXPECT_EQ(pub[kChunk], 33);

  // ... so the ward adopting its queue inherits the tuned values.
  control::inherit(0, 1);
  EXPECT_EQ(ward.get(Knob::StealChunk), 33);
  EXPECT_EQ(control::stats().inherits, 1u);
  bool saw_inherit = false;
  for (const control::DecisionRecord& d : control::decisions()) {
    if (d.reason == control::kReasonInherit) saw_inherit = true;
  }
  EXPECT_TRUE(saw_inherit);
  // Inheriting values the ward already holds is a no-op, not a new event.
  control::inherit(0, 1);
  EXPECT_EQ(control::stats().inherits, 1u);

  detect::stop();
  control::stop();
  metrics::stop();
}

TEST(CtlFaults, ControllerComposesWithDetectorKillRecovery) {
  // The integration form: controller + heartbeat detector + injected
  // kill, traversal still exact. (The fault plan kills rank 2 early,
  // while the root burst -- the thing the controller reacts to -- is
  // still draining.)
  const apps::UtsParams tree = apps::uts_small();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  detect::Config dc = detect::config();
  dc.enabled = true;
  detect::set_config(dc);
  CtlGuard guard(control::Mode::Local, /*period=*/50'000);
  fault::start(8, fault::FaultPlan::parse("kill:rank=2,at=400us"), 42);
  apps::UtsCounts counts;
  run_sim(8, [&](pgas::Runtime& rt) {
    apps::UtsRunConfig rc;
    apps::UtsResult res = apps::uts_run_scioto_ft(rt, tree, rc);
    if (rt.me() != 2) counts = res.counts;
  });
  fault::stop();
  dc.enabled = false;
  detect::set_config(dc);
  EXPECT_TRUE(counts == expected);
  // No decision may postdate the kill on the dead rank's behalf.
  for (const control::DecisionRecord& d : control::decisions()) {
    if (d.rank == 2) {
      EXPECT_LT(d.t, 500'000) << "dead rank 2 applied a knob change at t="
                              << d.t;
    }
  }
}

// ---- Hot-victim digest ----

TEST(CtlDigest, HotVictimsTracksDeepestAliveRanks) {
  metrics::start(4);
  metrics::MonitorOptions mopts;
  metrics::monitor_start(4, mopts);
  control::Config cfg;
  cfg.mode = control::Mode::Local;
  control::start(4, cfg);

  Rank hot[control::kMaxHotVictims];
  EXPECT_EQ(control::hot_victims(hot), 0) << "digest before any sample";

  metrics::gauge_set(0, metrics::Gauge::QueueShared, 5);
  metrics::gauge_set(1, metrics::Gauge::QueueShared, 100);
  metrics::gauge_set(2, metrics::Gauge::QueueShared, 0);  // empty: excluded
  metrics::gauge_set(3, metrics::Gauge::QueueShared, 50);
  metrics::monitor_sample(1000);
  ASSERT_EQ(control::hot_victims(hot), 3);
  EXPECT_EQ(hot[0], 1);  // descending shared depth
  EXPECT_EQ(hot[1], 3);
  EXPECT_EQ(hot[2], 0);

  // A dead rank drops out of the digest no matter how deep its queue
  // still reads (its patch stays scrapeable; thieves must not be steered
  // at a corpse).
  metrics::monitor_set_liveness([](Rank r) {
    return r == 1 ? metrics::RankState::Dead : metrics::RankState::Alive;
  });
  metrics::monitor_sample(2000);
  ASSERT_EQ(control::hot_victims(hot), 2);
  EXPECT_EQ(hot[0], 3);
  EXPECT_EQ(hot[1], 0);

  control::stop();
  metrics::monitor_stop();
  metrics::stop();
}

// ---- Threads backend (wall-clock pacing; the TSan job runs these) ----

TEST(CtlThreads, UtsExactUnderThreadsBackend) {
  const apps::UtsParams tree = apps::uts_tiny();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  // A short wall-clock period so epochs actually fire inside a tiny run.
  CtlGuard guard(control::Mode::Local, /*period=*/100'000);
  apps::UtsCounts counts;
  std::mutex mu;
  run_threads(4, [&](pgas::Runtime& rt) {
    apps::UtsRunConfig rc;
    rc.chunk = 2;
    apps::UtsResult res = apps::uts_run_scioto(rt, tree, rc);
    std::lock_guard<std::mutex> lk(mu);
    counts = res.counts;
  });
  EXPECT_TRUE(counts == expected);
  // Wall-clock pacing means no decision-count guarantees -- the property
  // under test is exactness plus TSan-cleanliness of the armed paths.
}

// ---- C API ----

TEST(CtlCApi, ModePeriodRulesRoundTrip) {
  ASSERT_STREQ(scioto_ctl_mode(), "off");
  EXPECT_EQ(scioto_ctl_mode_set("local"), 0);
  EXPECT_STREQ(scioto_ctl_mode(), "local");
  EXPECT_EQ(scioto_ctl_mode_set("bogus"), -1);
  EXPECT_STREQ(scioto_ctl_mode(), "local") << "bad name must stage nothing";
  // There is one placement: "global" is an unknown name like any other.
  EXPECT_EQ(scioto_ctl_mode_set("global"), -1);
  EXPECT_STREQ(scioto_ctl_mode(), "local") << "'global' staged a mode";
  EXPECT_EQ(scioto_ctl_mode_set("off"), 0);

  int64_t period = scioto_ctl_period_ns();
  EXPECT_GT(period, 0);
  scioto_ctl_set_period_ns(250'000);
  EXPECT_EQ(scioto_ctl_period_ns(), 250'000);
  scioto_ctl_set_period_ns(period);

  char errbuf[128] = {};
  EXPECT_EQ(scioto_ctl_rules_set("dwell=2;hot_set=2", errbuf,
                                 sizeof(errbuf)),
            0);
  EXPECT_EQ(control::config().rules.dwell, 2);
  EXPECT_EQ(scioto_ctl_rules_set("dwell=0", errbuf, sizeof(errbuf)), -1);
  EXPECT_NE(errbuf[0], '\0');
  EXPECT_EQ(control::config().rules.dwell, 2) << "bad spec staged";
  // NULL restores the defaults.
  EXPECT_EQ(scioto_ctl_rules_set(nullptr, nullptr, 0), 0);
  EXPECT_EQ(control::config().rules.dwell, Rules().dwell);

  scioto_ctl_stats_t st;
  scioto_ctl_stats_get(&st);  // callable any time; zeroes before any run
}
