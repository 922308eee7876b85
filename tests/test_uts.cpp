// UTS correctness tests: the deterministic tree itself, plus exact
// agreement between the sequential reference, the Scioto driver (split and
// no-split), and the MPI-WS baseline.
#include <gtest/gtest.h>

#include <set>

#include "apps/uts/uts_drivers.hpp"
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
  const UtsNode root = uts_root(uts_tiny());
  Sha1 h;
  h.update(root.state.data(), root.state.size());
  const std::uint8_t idx[4] = {0x12, 0x34, 0x56, 0x78};
  h.update(idx, sizeof(idx));
  EXPECT_EQ(uts_child(root, 0x12345678).state, h.finish());
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
    res = uts_run_scioto(rt, tree, cfg);
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
    res = uts_run_scioto(rt, tree, cfg);
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
    res = uts_run_mpi_ws(rt, tree, cfg);
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
    res = uts_run_scioto(rt, tree, cfg);
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

}  // namespace
}  // namespace scioto::apps
