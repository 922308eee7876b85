// UTS correctness tests: the deterministic tree itself, plus exact
// agreement between the sequential reference, the Scioto driver (split and
// no-split), and the MPI-WS baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "control/control.hpp"
#include "detect/membership.hpp"
#include "elastic/elastic.hpp"
#include "fault/fault.hpp"
#include "pgas/sim_backend.hpp"
#include "test_util.hpp"

namespace scioto::apps {
namespace {

using pgas::BackendKind;
using pgas::Runtime;

TEST(Uts, RootAndChildrenAreDeterministic) {
  UtsParams p = uts_tiny();
  UtsNode root1 = uts_root(p);
  UtsNode root2 = uts_root(p);
  EXPECT_EQ(root1.state, root2.state);
  EXPECT_EQ(root1.depth, 0);

  UtsNode c0 = uts_child(root1, 0);
  UtsNode c1 = uts_child(root1, 1);
  EXPECT_NE(c0.state, c1.state);
  EXPECT_EQ(c0.depth, 1);
  EXPECT_EQ(uts_child(root1, 0).state, c0.state);
}

TEST(Uts, ChildIsSha1OfParentDigestAndBigEndianIndex) {
  // Across byte boundaries of the index and its sign: -1 hashes as
  // ff ff ff ff.
  const UtsNode root = uts_root(uts_tiny());
  for (const int i : {0, 1, 255, 256, 65536, 0x12345678, INT32_MAX, -1}) {
    const auto u = static_cast<std::uint32_t>(i);
    const std::uint8_t idx[4] = {
        static_cast<std::uint8_t>(u >> 24), static_cast<std::uint8_t>(u >> 16),
        static_cast<std::uint8_t>(u >> 8), static_cast<std::uint8_t>(u)};
    Sha1 h;
    h.update(root.state.data(), root.state.size());
    h.update(idx, sizeof(idx));
    EXPECT_EQ(uts_child(root, i).state, h.finish())
        << "index " << i;
  }
}

TEST(Uts, ThousandStepChildChainGoldenDigest) {
  // Pinned against the original byte-at-a-time SHA-1: every tree, node
  // count and virtual makespan depends on this stream staying bit-exact.
  UtsNode n = uts_root(uts_bench());
  EXPECT_EQ(Sha1::hex(n.state), "57eaa9251a33407fcc82545443a8f191b9bd84be");
  for (int i = 0; i < 1000; ++i) {
    n = uts_child(n, i);
  }
  EXPECT_EQ(n.depth, 1000);
  EXPECT_EQ(Sha1::hex(n.state), "e4bb38a9511aebad8c84b24d2ec6e3ae93558592");
}

TEST(Uts, DifferentSeedsGiveDifferentTrees) {
  UtsParams a = uts_tiny();
  UtsParams b = uts_tiny();
  b.seed = 20;
  EXPECT_NE(uts_sequential(a).nodes, uts_sequential(b).nodes);
}

TEST(Uts, RandIs31Bit) {
  UtsParams p = uts_tiny();
  UtsNode n = uts_root(p);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(uts_rand(n), 0x80000000u);
    n = uts_child(n, 0);
  }
}

TEST(Uts, GeometricDepthBounded) {
  UtsParams p = uts_tiny();
  UtsCounts c = uts_sequential(p);
  EXPECT_LE(c.max_depth, p.gen_mx);
  EXPECT_GT(c.nodes, 100u);  // nontrivial tree
  EXPECT_GT(c.leaves, 0u);
  EXPECT_LT(c.leaves, c.nodes);
}

TEST(Uts, SequentialIsReproducible) {
  UtsParams p = uts_small();
  UtsCounts a = uts_sequential(p);
  UtsCounts b = uts_sequential(p);
  EXPECT_EQ(a, b);
}

TEST(Uts, ShapeFunctionsProduceDistinctFiniteTrees) {
  UtsParams p = uts_tiny();
  std::set<std::uint64_t> sizes;
  for (GeoShape s : {GeoShape::Linear, GeoShape::Expdec, GeoShape::Cyclic,
                     GeoShape::Fixed}) {
    p.shape = s;
    // Fixed shape at b0=4 is supercritical; shrink it to stay finite-fast.
    p.b0 = s == GeoShape::Fixed ? 1.8 : 4.0;
    UtsCounts c = uts_sequential(p);
    EXPECT_GT(c.nodes, 1u) << "shape " << static_cast<int>(s);
    EXPECT_LE(c.max_depth, p.gen_mx);
    // Determinism per shape.
    EXPECT_EQ(uts_sequential(p).nodes, c.nodes);
    sizes.insert(c.nodes);
  }
  // The shapes genuinely differ.
  EXPECT_GE(sizes.size(), 3u);
}

TEST(Uts, ExpdecShapeParallelParity) {
  UtsParams p = uts_tiny();
  p.shape = GeoShape::Expdec;
  p.gen_mx = 9;
  UtsCounts expected = uts_sequential(p);
  UtsResult res;
  testing::run_sim(5, [&](Runtime& rt) {
    UtsRunConfig cfg;
    cfg.node_cost = ns(50);
    res = uts_run_scioto(rt, p, cfg);
  });
  EXPECT_EQ(res.counts, expected);
}

TEST(Uts, BinomialTreeTerminates) {
  UtsParams p = uts_binomial_small();
  UtsCounts c = uts_sequential(p);
  EXPECT_GT(c.nodes, static_cast<std::uint64_t>(p.b0));
  // Binomial trees are deeper than geometric ones of similar size.
  EXPECT_GT(c.max_depth, 10);
}

class UtsParallel : public ::testing::TestWithParam<
                        std::tuple<BackendKind, int>> {};

TEST_P(UtsParallel, SciotoMatchesSequential) {
  auto [kind, nranks] = GetParam();
  UtsParams tree = uts_tiny();
  UtsCounts expected = uts_sequential(tree);
  UtsResult res;
  testing::run(nranks, kind, [&](Runtime& rt) {
    UtsRunConfig cfg;
    cfg.node_cost = ns(50);
    UtsResult r = uts_run_scioto(rt, tree, cfg);
    if (rt.me() == 0) {
      res = r;  // one writer: threads-backend ranks run concurrently
    }
  });
  EXPECT_EQ(res.counts, expected);
  EXPECT_GT(res.mnodes_per_sec, 0.0);
}

TEST_P(UtsParallel, NoSplitMatchesSequential) {
  auto [kind, nranks] = GetParam();
  UtsParams tree = uts_tiny();
  UtsCounts expected = uts_sequential(tree);
  UtsResult res;
  testing::run(nranks, kind, [&](Runtime& rt) {
    UtsRunConfig cfg;
    cfg.node_cost = ns(50);
    cfg.queue_mode = QueueMode::NoSplit;
    UtsResult r = uts_run_scioto(rt, tree, cfg);
    if (rt.me() == 0) {
      res = r;  // one writer: threads-backend ranks run concurrently
    }
  });
  EXPECT_EQ(res.counts, expected);
}

TEST_P(UtsParallel, MpiWsMatchesSequential) {
  auto [kind, nranks] = GetParam();
  UtsParams tree = uts_tiny();
  UtsCounts expected = uts_sequential(tree);
  UtsResult res;
  testing::run(nranks, kind, [&](Runtime& rt) {
    UtsRunConfig cfg;
    cfg.node_cost = ns(50);
    UtsResult r = uts_run_mpi_ws(rt, tree, cfg);
    if (rt.me() == 0) {
      res = r;  // one writer: threads-backend ranks run concurrently
    }
  });
  EXPECT_EQ(res.counts, expected);
}

TEST_P(UtsParallel, BinomialSciotoMatchesSequential) {
  auto [kind, nranks] = GetParam();
  UtsParams tree = uts_binomial_small();
  UtsCounts expected = uts_sequential(tree);
  UtsResult res;
  testing::run(nranks, kind, [&](Runtime& rt) {
    UtsRunConfig cfg;
    cfg.node_cost = ns(50);
    UtsResult r = uts_run_scioto(rt, tree, cfg);
    if (rt.me() == 0) {
      res = r;  // one writer: threads-backend ranks run concurrently
    }
  });
  EXPECT_EQ(res.counts, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UtsParallel,
    ::testing::Combine(::testing::Values(BackendKind::Sim,
                                         BackendKind::Threads),
                       ::testing::Values(1, 3, 8)),
    [](const auto& info) {
      return scioto::testing::backend_name(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

TEST(UtsSim, NoSplitTwoRankLivelockRegression) {
  // Regression: with no-split queues at 2 ranks, every requeued stolen
  // task is instantly stealable and the two ranks can bounce a chunk
  // forever unless the thief executes the first stolen task directly.
  // This exact configuration (geometric b0=4 depth 7, seed 19) used to
  // livelock; the ctest timeout is the failure detector.
  UtsParams tree;
  tree.tree = UtsTree::Geometric;
  tree.seed = 19;
  tree.b0 = 4.0;
  tree.gen_mx = 7;
  UtsCounts expected = uts_sequential(tree);
  UtsResult res;
  testing::run_sim(2, [&](Runtime& rt) {
    UtsRunConfig cfg;
    cfg.queue_mode = QueueMode::NoSplit;
    res = uts_run_scioto(rt, tree, cfg);
  });
  EXPECT_EQ(res.counts, expected);
}

TEST(UtsSim, VirtualSpeedupIsReal) {
  // The whole point: more simulated ranks process the tree faster in
  // virtual time.
  UtsParams tree = uts_small();
  auto elapsed_for = [&](int n) {
    UtsResult res;
    testing::run_sim(n, [&](Runtime& rt) {
      UtsRunConfig cfg;
      cfg.node_cost = ns(316);
      res = uts_run_scioto(rt, tree, cfg);
    });
    return res;
  };
  UtsResult r1 = elapsed_for(1);
  UtsResult r8 = elapsed_for(8);
  EXPECT_EQ(r1.counts, r8.counts);
  double speedup = static_cast<double>(r1.elapsed) /
                   static_cast<double>(r8.elapsed);
  EXPECT_GT(speedup, 3.0) << "8 ranks should be >3x faster than 1";
  EXPECT_GT(r8.steals, 0u);
}

TEST(UtsSim, DeterministicAcrossRuns) {
  UtsParams tree = uts_tiny();
  auto once = [&] {
    UtsResult res;
    testing::run_sim(4, [&](Runtime& rt) {
      res = uts_run_scioto(rt, tree, UtsRunConfig{});
    });
    return res;
  };
  UtsResult a = once();
  UtsResult b = once();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.steals, b.steals);
}

// ---- Golden virtual-time pins ----
//
// Exact makespans and per-rank scheduler counters of fixed UTS runs under
// the default (steal-half) steal width. The simulator's host-side
// shortcuts (idle ranks sleeping through quiet polls) must leave every one
// of these numbers where it was.

/// Makespan, fleet sums of five TcStats counters, and a digest of their
/// per-rank values.
struct Pin {
  TimeNs makespan = 0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t attempts = 0;
  std::uint64_t votes = 0;
  TimeNs searching = 0;
  /// FNV-1a over every rank's five counters above, in rank order.
  std::uint64_t digest = 0;
  bool operator==(const Pin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << "{" << p.makespan << ", " << p.tasks << ", " << p.steals
            << ", " << p.attempts << ", " << p.votes << ", " << p.searching
            << ", 0x" << std::hex << p.digest << std::dec << "}";
}

struct PinRun {
  Pin pin;
  std::uint64_t resumes = 0;  // engine fiber resumes over the whole run
};

TcConfig pin_config() {
  TcConfig c;
  c.max_task_body = sizeof(UtsNode);
  c.chunk_size = 10;
  c.max_tasks_per_rank = 1 << 14;
  return c;
}

/// Environment settings that arm subsystems for one run (see run_spmd).
using Env = std::vector<std::pair<const char*, std::string>>;

/// UTS with one task per node, `phases` times over process()/reset(). A
/// non-empty `env`, or `spmd`, runs through run_spmd with those variables
/// set, which arms the sessions they name and lets a killed rank's fiber
/// end; its `resumes` stays 0.
PinRun run_pinned(int nranks, const sim::MachineModel& machine,
                  const UtsParams& tree, const TcConfig& tcc,
                  int phases = 1, const Env& env = {}, bool spmd = false) {
  std::vector<TcStats> per_rank(static_cast<std::size_t>(nranks));
  auto body = [&](pgas::Runtime& rt) {
    const Rank me = rt.me();
    TaskCollection tc(rt, tcc);
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      const UtsNode node = ctx.body_as<UtsNode>();
      ctx.tc.runtime().charge(ns(316));
      const int nc = uts_num_children(node, tree);
      for (int i = 0; i < nc; ++i) {
        Task t = ctx.tc.task_create(sizeof(UtsNode), ctx.header.callback);
        t.body_as<UtsNode>() = uts_child(node, i);
        ctx.tc.add_local(t);
      }
    });
    for (int p = 0; p < phases; ++p) {
      if (me == 0) {
        Task t = tc.task_create(sizeof(UtsNode), h);
        t.body_as<UtsNode>() = uts_root(tree);
        tc.add_local(t);
      }
      tc.process();
      per_rank[static_cast<std::size_t>(me)] += tc.stats_local();
      tc.reset();
    }
    tc.destroy();
  };
  PinRun out;
  if (env.empty() && !spmd) {
    pgas::SimBackend backend(nranks, machine);
    pgas::Runtime rt(backend, 42, machine);
    backend.run([&](Rank) {
      try {
        body(rt);
      } catch (const fault::RankKilled&) {
        // A fault session the caller started killed this rank.
      }
    });
    out.pin.makespan = backend.engine()->max_clock();
    out.resumes = backend.engine()->resumes();
  } else {
    for (const auto& [name, value] : env) {
      setenv(name, value.c_str(), 1);
    }
    pgas::Config cfg;
    cfg.nranks = nranks;
    cfg.machine = machine;
    cfg.seed = 42;
    out.pin.makespan = pgas::run_spmd(cfg, body).elapsed;
    for (const auto& [name, value] : env) {
      unsetenv(name);
    }
  }
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  };
  for (const TcStats& s : per_rank) {
    out.pin.tasks += s.tasks_executed;
    out.pin.steals += s.steals;
    out.pin.attempts += s.steal_attempts;
    out.pin.votes += s.td_waves_voted;
    out.pin.searching += s.time_searching;
    mix(s.tasks_executed);
    mix(s.steals);
    mix(s.steal_attempts);
    mix(s.td_waves_voted);
    mix(static_cast<std::uint64_t>(s.time_searching));
  }
  out.pin.digest = h;
  return out;
}

UtsParams geo_depth10() {
  UtsParams p = uts_small();
  p.gen_mx = 10;
  return p;
}

TEST(UtsGolden, Xt4At256Ranks) {
  PinRun r = run_pinned(256, sim::cray_xt4(), geo_depth10(), pin_config());
  EXPECT_EQ(r.pin, (Pin{3444805, 9332, 82, 95, 1024, 709401937, 0xc8011548b8f9e7a4}));
  // Idle ranks sleep through their quiet polls instead of resuming for
  // each one: 1,100,299 resumes when every poll resumed its fiber.
  EXPECT_LE(r.resumes * 3, 1100299u) << r.resumes << " fiber resumes";
}

// One steal-width default: the collection, the queue config and the UTS
// driver config agree, and the queue a collection builds carries its
// setting either way.
TEST(TcDefaults, OneStealHalfDefault) {
  EXPECT_TRUE(TcConfig{}.steal_half);
  EXPECT_EQ(UtsRunConfig{}.steal_half, TcConfig{}.steal_half);
  EXPECT_EQ(SplitQueue::Config{}.steal_half, TcConfig{}.steal_half);
  testing::run_sim(2, [](Runtime& rt) {
    TaskCollection tc(rt, TcConfig{});
    EXPECT_TRUE(tc.queue_config().steal_half);
    TcConfig fixed;
    fixed.steal_half = false;
    TaskCollection paper(rt, fixed);
    EXPECT_FALSE(paper.queue_config().steal_half);
    paper.destroy();
    tc.destroy();
  });
}

// Steal-half is the default because it beats the paper's fixed-chunk
// steal on UTS makespan. Geo depth 11 on 256 XT4 ranks is the shape where
// it won every seed of the steal-flag sweep (EXPERIMENTS.md).
TEST(UtsGolden, StealHalfDefaultBeatsFixedChunkXt4) {
  const UtsParams tree = uts_bench();
  const UtsCounts expected = uts_sequential(tree);
  const struct {
    std::uint64_t seed;
    TimeNs default_ns;
    TimeNs fixed_ns;
  } rows[] = {{1, 4599908, 5709054},
              {2, 4529125, 5386235},
              {3, 5285208, 6084071}};
  for (const auto& row : rows) {
    auto makespan = [&](const UtsRunConfig& rc) {
      pgas::Config cfg;
      cfg.nranks = 256;
      cfg.machine = sim::cray_xt4();
      cfg.seed = row.seed;
      UtsResult res;
      pgas::run_spmd(cfg, [&](Runtime& rt) {
        UtsResult r = uts_run_scioto(rt, tree, rc);
        if (rt.me() == 0) res = r;
      });
      EXPECT_EQ(res.counts, expected) << "seed " << row.seed;
      return res.elapsed;
    };
    UtsRunConfig fixed;
    fixed.steal_half = false;
    const TimeNs def = makespan(UtsRunConfig{});
    const TimeNs fix = makespan(fixed);
    EXPECT_EQ(def, row.default_ns) << "seed " << row.seed << " default";
    EXPECT_EQ(fix, row.fixed_ns) << "seed " << row.seed << " fixed chunk";
    EXPECT_LT(def, fix) << "seed " << row.seed;
  }
}

TEST(UtsGolden, OracleKillsAt32Ranks) {
  // Two fail-stop kills under the fault oracle. Survivors sleep through
  // quiet polls between deaths, and each death wakes them at the poll
  // where polling would have seen it.
  fault::start(32,
               fault::FaultPlan::parse("kill:rank=0,at=2ms;kill:rank=9,at=4ms"),
               42);
  PinRun r = run_pinned(32, sim::cray_xt4(), uts_small(), pin_config());
  fault::stop();
  // The killed ranks' counters die with them: 18,059 of 19,037 tasks.
  EXPECT_EQ(r.pin, (Pin{5893529, 18059, 139, 151, 179, 127032530, 0xd7b599dd81c6339f}));
  // 152,323 resumes when every idle poll of a fault run resumed its fiber.
  EXPECT_LE(r.resumes * 2, 152323u) << r.resumes << " fiber resumes";
}

TEST(UtsGolden, Cluster2008At64Ranks) {
  PinRun r = run_pinned(64, sim::cluster2008(), uts_small(), pin_config());
  EXPECT_EQ(r.pin, (Pin{3437042, 19037, 168, 192, 192, 161218879, 0xd992e3bac33a8fcb}));
}

TEST(UtsGolden, QueueModes) {
  const struct {
    const char* name;
    QueueMode mode;
    Pin pin;
  } cases[] = {
      {"locked", QueueMode::Split, Pin{3180904, 19037, 163, 177, 96, 60657979, 0x67acb5ec0d5c5812}},
      {"no-split", QueueMode::NoSplit, Pin{16797896, 19037, 485, 518, 128, 21932634, 0x4fc7c790cfe29a8e}},
  };
  for (const auto& c : cases) {
    TcConfig tcc = pin_config();
    tcc.queue_mode = c.mode;
    EXPECT_EQ(run_pinned(32, sim::cluster2008(), uts_small(), tcc).pin, c.pin)
        << c.name;
  }
}

TEST(UtsGolden, StealBackoffAndStealsPerPoll) {
  const struct {
    int backoff_max;
    int steals_per_poll;
    Pin pin;
  } cases[] = {
      {0, 1, Pin{4296789, 19037, 187, 218, 96, 86097111, 0xb401100aa1810202}},
      {1, 1, Pin{3745349, 19037, 150, 168, 96, 69117456, 0x5632ae15af81ab48}},
      {64, 2, Pin{3968297, 19037, 128, 146, 96, 75636664, 0x24821b0fb61b49f2}},
  };
  for (const auto& c : cases) {
    TcConfig tcc = pin_config();
    tcc.steal_backoff_max = c.backoff_max;
    tcc.steals_per_td_poll = c.steals_per_poll;
    EXPECT_EQ(run_pinned(32, sim::cray_xt4(), uts_small(), tcc).pin, c.pin)
        << "backoff " << c.backoff_max << " steals/poll "
        << c.steals_per_poll;
  }
}

TEST(UtsGolden, FiftyPhasesOverProcessAndReset) {
  PinRun r = run_pinned(16, sim::cluster2008(), uts_tiny(), pin_config(), 50);
  EXPECT_EQ(r.pin, (Pin{28883848, 29400, 371, 394, 2080, 341752691, 0xf424e22bb9e58160}));
}

// Armed sessions: each row arms one subsystem through its environment
// variable on the same 8-rank run. These pin the paths that pump from or
// attach to the work loop, so a restructured loop must keep every one of
// them where it was.
TEST(UtsGolden, Armed) {
  const std::string ckpt = ::testing::TempDir() + "scioto_uts_golden.ckpt";
  const Pin unarmed{4740766, 19037, 50, 52, 24, 7533236, 0xfe6a6ec104e59b75};
  const struct {
    const char* name;
    Env env;
    Pin pin;
  } cases[] = {
      {"unarmed", {}, unarmed},
      // The killed rank's counters die with it: 17,952 of 19,037 tasks.
      {"fault kill", {{"SCIOTO_FAULT_PLAN", "kill:rank=3,at=2ms"}},
       Pin{6543055, 17952, 65, 67, 35, 15844351, 0xc34017fbf6d8b59a}},
      {"detector stall-resume",
       {{"SCIOTO_DETECTOR", "1"},
        {"SCIOTO_FAULT_PLAN", "stall:rank=5,at=300us,for=2ms"}},
       Pin{15640890, 19037, 85, 86, 40, 16996434, 0x42bd18268a944bb4}},
      {"elastic grow 4->8 + ckpt",
       {{"SCIOTO_ELASTIC", "1"},
        {"SCIOTO_CKPT_PATH", ckpt},
        {"SCIOTO_FAULT_PLAN",
         "join:rank=4,at=500us;join:rank=5,at=500us;join:rank=6,at=1ms;"
         "join:rank=7,at=1ms;ckpt:at=2ms"}},
       Pin{12648635, 19037, 69, 69, 24, 10882418, 0xcd2b8ddbbfa702c4}},
      {"controller local", {{"SCIOTO_CONTROLLER", "local"}},
       Pin{4497443, 19037, 60, 66, 16, 5669112, 0xe01a830baf49a61b}},
      // Telemetry is charge-free: arming it must not move a single number.
      {"metrics", {{"SCIOTO_METRICS", "1"}}, unarmed},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(run_pinned(8, sim::cluster2008(), uts_small(), pin_config(), 1,
                         c.env)
                  .pin,
              c.pin)
        << c.name;
  }
  std::remove(ckpt.c_str());
  for (int r = 0; r < 8; ++r) {
    std::remove((ckpt + ".r" + std::to_string(r)).c_str());
  }
}

TEST(PgasRunSpmd, EnvArmedSessionsEndWithTheRun) {
  // run_spmd stages the configs an environment variable arms. Once the
  // run is over and the variable gone, the next run must be unarmed again
  // and reproduce the unarmed run of UtsGolden.Armed.
  const Pin unarmed{4740766, 19037, 50, 52, 24, 7533236, 0xfe6a6ec104e59b75};
  auto spmd_unarmed = [] {
    return run_pinned(8, sim::cluster2008(), uts_small(), pin_config(), 1,
                      {}, /*spmd=*/true)
        .pin;
  };
  EXPECT_EQ(spmd_unarmed(), unarmed);
  const Env armed[] = {
      {{"SCIOTO_DETECTOR", "1"}},
      {{"SCIOTO_ELASTIC", "1"}},
      {{"SCIOTO_CONTROLLER", "local"}},
  };
  for (const Env& env : armed) {
    run_pinned(8, sim::cluster2008(), uts_small(), pin_config(), 1, env);
    EXPECT_EQ(spmd_unarmed(), unarmed) << "after " << env[0].first;
    EXPECT_FALSE(detect::config().enabled) << "after " << env[0].first;
    EXPECT_FALSE(elastic::config().enabled) << "after " << env[0].first;
    EXPECT_EQ(control::config().mode, control::Mode::Off)
        << "after " << env[0].first;
  }
}

}  // namespace
}  // namespace scioto::apps
