// SCF tests: system construction, the synthetic integral kernel's
// screening behaviour, the sequential reference's convergence, and exact
// energy agreement between the reference and both parallel schedulers.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/scf/scf_drivers.hpp"
#include "test_util.hpp"

namespace scioto::apps {
namespace {

using pgas::BackendKind;
using pgas::Runtime;

ScfConfig tiny_cfg() {
  ScfConfig cfg;
  cfg.nshells = 8;
  cfg.min_shell = 2;
  cfg.max_shell = 5;
  cfg.iterations = 2;
  cfg.seed = 99;
  return cfg;
}

TEST(Scf, SystemBuildIsConsistent) {
  ScfSystem sys = ScfSystem::build(tiny_cfg());
  EXPECT_EQ(sys.nsh, 8);
  EXPECT_EQ(sys.shell_off.back(), sys.nbf);
  std::int64_t total = 0;
  for (int s = 0; s < sys.nsh; ++s) {
    EXPECT_GE(sys.shell_size[static_cast<std::size_t>(s)], 2);
    EXPECT_LE(sys.shell_size[static_cast<std::size_t>(s)], 5);
    total += sys.shell_size[static_cast<std::size_t>(s)];
  }
  EXPECT_EQ(total, sys.nbf);
  // Schwarz factors: symmetric-ish diagonal dominance, K(i,i)=1.
  for (int i = 0; i < sys.nsh; ++i) {
    EXPECT_DOUBLE_EQ(sys.k_pair(i, i), 1.0);
    for (int j = 0; j < sys.nsh; ++j) {
      EXPECT_GT(sys.k_pair(i, j), 0.0);
      EXPECT_LE(sys.k_pair(i, j), 1.0);
      EXPECT_DOUBLE_EQ(sys.k_pair(i, j), sys.k_pair(j, i));
    }
  }
}

TEST(Scf, SystemBuildIsDeterministic) {
  ScfSystem a = ScfSystem::build(tiny_cfg());
  ScfSystem b = ScfSystem::build(tiny_cfg());
  EXPECT_EQ(a.nbf, b.nbf);
  EXPECT_EQ(a.hcore, b.hcore);
  EXPECT_EQ(a.schwarz, b.schwarz);
}

TEST(Scf, ScreeningSkipsDistantQuartets) {
  ScfConfig cfg = tiny_cfg();
  cfg.box = 30.0;  // very spread out -> strong screening
  cfg.alpha = 0.5;
  ScfSystem spread = ScfSystem::build(cfg);
  cfg.box = 0.5;  // compact -> no screening
  ScfSystem compact = ScfSystem::build(cfg);

  auto count_quartets = [](const ScfSystem& sys) {
    std::int64_t q = 0;
    std::vector<double> f(64 * 64);
    for (int i = 0; i < sys.nsh; ++i) {
      q += sys.fock_block(
          i, i,
          [&](int k, double* buf) {
            std::fill(buf,
                      buf + sys.shell_size[static_cast<std::size_t>(k)] *
                                sys.nbf,
                      0.0);
          },
          f.data());
    }
    return q;
  };
  EXPECT_LT(count_quartets(spread), count_quartets(compact));
}

TEST(Scf, ReferenceEnergiesDescendAndConverge) {
  ScfConfig cfg = tiny_cfg();
  cfg.iterations = 5;
  ScfSystem sys = ScfSystem::build(cfg);
  std::vector<double> e = scf_reference(sys);
  ASSERT_EQ(e.size(), 5u);
  for (double v : e) {
    EXPECT_TRUE(std::isfinite(v));
  }
  // SCF iteration refines the energy: later deltas shrink.
  double d1 = std::abs(e[1] - e[0]);
  double d4 = std::abs(e[4] - e[3]);
  EXPECT_LT(d4, d1 + 1e-12);
}

class ScfParallel : public ::testing::TestWithParam<
                        std::tuple<BackendKind, int, LbScheme>> {};

TEST_P(ScfParallel, EnergiesMatchReferenceExactly) {
  auto [kind, nranks, lb] = GetParam();
  ScfSystem sys = ScfSystem::build(tiny_cfg());
  std::vector<double> expected = scf_reference(sys);
  ScfRunResult res;
  testing::run(nranks, kind, [&](Runtime& rt) {
    ScfRunResult r = scf_run(rt, sys, lb);
    if (rt.me() == 0) {
      res = r;  // one writer: threads-backend ranks run concurrently
    }
  });
  ASSERT_EQ(res.energies.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Every task writes a distinct Fock block, so the parallel Fock matrix
    // is bitwise identical to the sequential one.
    EXPECT_DOUBLE_EQ(res.energies[i], expected[i]) << "iteration " << i;
  }
  EXPECT_EQ(res.tasks,
            static_cast<std::uint64_t>(sys.nsh) *
                static_cast<std::uint64_t>(sys.nsh) *
                static_cast<std::uint64_t>(sys.cfg.iterations));
  EXPECT_GT(res.fock_elapsed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScfParallel,
    ::testing::Combine(::testing::Values(BackendKind::Sim,
                                         BackendKind::Threads),
                       ::testing::Values(1, 4),
                       ::testing::Values(LbScheme::Scioto,
                                         LbScheme::GlobalCounter)),
    [](const auto& info) {
      return scioto::testing::backend_name(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_" +
             lb_name(std::get<2>(info.param));
    });

TEST(ScfSim, DeterministicEnergiesAndTiming) {
  ScfSystem sys = ScfSystem::build(tiny_cfg());
  auto once = [&] {
    ScfRunResult res;
    testing::run_sim(4, [&](Runtime& rt) {
      res = scf_run(rt, sys, LbScheme::Scioto);
    });
    return res;
  };
  ScfRunResult a = once();
  ScfRunResult b = once();
  EXPECT_EQ(a.energies, b.energies);
  EXPECT_EQ(a.fock_elapsed, b.fock_elapsed);
}

TEST(ScfSim, SciotoScalesOnUniformCluster) {
  ScfConfig cfg = tiny_cfg();
  cfg.nshells = 10;
  cfg.iterations = 1;
  ScfSystem sys = ScfSystem::build(cfg);
  auto time_for = [&](int n) {
    ScfRunResult res;
    pgas::Config pc = testing::make_cfg(n, BackendKind::Sim);
    pc.machine = sim::cluster2008_uniform();
    pgas::run_spmd(pc, [&](Runtime& rt) {
      res = scf_run(rt, sys, LbScheme::Scioto);
    });
    return res.fock_elapsed;
  };
  TimeNs t1 = time_for(1);
  TimeNs t8 = time_for(8);
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t8), 2.5);
}

}  // namespace
}  // namespace scioto::apps
