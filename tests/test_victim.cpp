// VictimPolicy on its own, outside any run: the uniform draw, the
// alive-pool restriction under a partial membership view, and
// the victim_set knob aiming only at the monitor's hot digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "control/control.hpp"
#include "detect/membership.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "scioto/victim.hpp"

namespace scioto {
namespace {

control::KnobSet knobs_for(int nprocs, int victim_set = 0) {
  control::KnobSet ks;
  ks.init(/*chunk=*/10, /*chunk_max=*/10, /*release_threshold=*/20,
          nprocs);
  ks.set(control::Knob::VictimSetSize, victim_set);
  return ks;
}

TEST(VictimPolicy, FullViewDrawsEveryOtherRankUniformly) {
  constexpr int kRanks = 16;
  constexpr Rank kMe = 5;
  constexpr int kDraws = 100000;
  const control::KnobSet ks = knobs_for(kRanks);
  Xoshiro256 rng(7);
  VictimPolicy policy(kMe, kRanks, /*cores_per_node=*/1, /*node_bias=*/0.0,
                      ks, rng);
  std::vector<int> hits(kRanks, 0);
  for (int i = 0; i < kDraws; ++i) {
    const Rank v = policy.pick();
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kRanks);
    ++hits[static_cast<std::size_t>(v)];
  }
  EXPECT_EQ(hits[kMe], 0) << "a thief never picks itself";
  const double expected = static_cast<double>(kDraws) / (kRanks - 1);
  double chi2 = 0;
  for (Rank r = 0; r < kRanks; ++r) {
    if (r == kMe) continue;
    EXPECT_GT(hits[static_cast<std::size_t>(r)], 0) << "rank " << r;
    const double d = hits[static_cast<std::size_t>(r)] - expected;
    chi2 += d * d / expected;
  }
  // 14 degrees of freedom: P(chi2 > 36.12) = 0.001 under uniformity.
  EXPECT_LT(chi2, 36.12);
}

TEST(VictimPolicy, PartialViewNeverPicksDeadOrParkedRanks) {
  constexpr int kRanks = 8;
  // Ranks 6 and 7 parked (elastic), rank 2 confirmed dead.
  detect::start(kRanks, /*initial_joined=*/6);
  ASSERT_TRUE(detect::confirm_dead(2, 0));
  const std::set<Rank> excluded = {2, 6, 7};
  const control::KnobSet ks = knobs_for(kRanks);
  Xoshiro256 rng(11);
  // Node bias over 4-core nodes sends half the draws at ranks 4..7 first,
  // so the dead/parked resample path is exercised too.
  const Rank me = 5;
  VictimPolicy policy(me, kRanks, /*cores_per_node=*/4, /*node_bias=*/0.5,
                      ks, rng);
  policy.watch_membership(true);
  policy.refresh();
  std::set<Rank> seen;
  for (int i = 0; i < 20000; ++i) {
    const Rank v = policy.pick();
    ASSERT_NE(v, me);
    ASSERT_EQ(excluded.count(v), 0u) << "picked rank " << v;
    seen.insert(v);
  }
  EXPECT_EQ(seen, (std::set<Rank>{0, 1, 3, 4}));
  detect::stop();
}

TEST(VictimPolicy, VictimSetPicksOnlyFromHotDigest) {
  constexpr int kRanks = 8;
  metrics::start(kRanks);
  metrics::monitor_start(kRanks, metrics::MonitorOptions{});
  control::Config cfg;
  cfg.mode = control::Mode::Local;
  control::start(kRanks, cfg);
  // Digest, deepest first: 1, 3, 6, 0.
  metrics::gauge_set(0, metrics::Gauge::QueueShared, 5);
  metrics::gauge_set(1, metrics::Gauge::QueueShared, 100);
  metrics::gauge_set(3, metrics::Gauge::QueueShared, 50);
  metrics::gauge_set(6, metrics::Gauge::QueueShared, 20);
  metrics::monitor_sample(1000);
  const struct {
    Rank me;
    std::set<Rank> pool;  // the two deepest ranks other than me
  } cases[] = {{4, {1, 3}}, {1, {3, 6}}};
  for (const auto& c : cases) {
    const control::KnobSet ks = knobs_for(kRanks, /*victim_set=*/2);
    Xoshiro256 rng(3);
    VictimPolicy policy(c.me, kRanks, 1, 0.0, ks, rng);
    std::set<Rank> seen;
    for (int i = 0; i < 10000; ++i) {
      seen.insert(policy.pick());
    }
    EXPECT_EQ(seen, c.pool) << "thief " << c.me;
  }
  control::stop();
  metrics::monitor_stop();
  metrics::stop();
}

}  // namespace
}  // namespace scioto
