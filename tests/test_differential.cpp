// Differential test battery for the steal engine: the same workloads run
// under both queue modes (split, no-split) with steal-half off
// and on must produce results identical to the sequential oracle, on both
// the simulated and the real-threads backend, across many scheduler
// seeds.
//
// Two workloads:
//   * UTS tree traversal -- exact node/leaf/depth counts vs
//     uts_sequential();
//   * blocked matmul over Global Arrays (the paper's §4 running example)
//     -- numerical result vs a dense reference, and exactly one task
//     executed per block triple.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/uts/uts.hpp"
#include "apps/uts/uts_drivers.hpp"
#include "base/linalg.hpp"
#include "ga/global_array.hpp"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using apps::UtsCounts;
using apps::UtsParams;
using apps::UtsRunConfig;

constexpr int kRanks = 4;
constexpr int kSeeds = 8;

/// One steal-engine configuration under test.
struct Knobs {
  const char* name;
  QueueMode mode = QueueMode::Split;
  bool half = false;
};

/// {split, no-split} x {steal-half off, on}.
constexpr Knobs kGrid[] = {
    {"split", QueueMode::Split, false},
    {"split+half", QueueMode::Split, true},
    {"no-split", QueueMode::NoSplit, false},
    {"no-split+half", QueueMode::NoSplit, true},
};

class DifferentialTest
    : public ::testing::TestWithParam<pgas::BackendKind> {};

TEST_P(DifferentialTest, UtsMatchesSequentialOracle) {
  const UtsParams tree = apps::uts_tiny();
  const UtsCounts expected = apps::uts_sequential(tree);
  ASSERT_GT(expected.nodes, 0u);

  for (const Knobs& k : kGrid) {
    for (int s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = 1000 + 77 * static_cast<std::uint64_t>(s);
      UtsCounts got;
      TcStats stats;
      testing::run(
          kRanks, GetParam(),
          [&](pgas::Runtime& rt) {
            UtsRunConfig cfg;
            cfg.chunk = 2;  // small chunks force steal traffic on a tiny tree
            cfg.queue_mode = k.mode;
            cfg.steal_half = k.half;
            auto res = apps::uts_run_scioto(rt, tree, cfg);
            if (rt.me() == 0) {
              got = res.counts;
              stats = res.stats;
            }
          },
          seed);
      EXPECT_EQ(got.nodes, expected.nodes)
          << "knobs=" << k.name << " seed=" << seed;
      EXPECT_EQ(got.leaves, expected.leaves)
          << "knobs=" << k.name << " seed=" << seed;
      EXPECT_EQ(got.max_depth, expected.max_depth)
          << "knobs=" << k.name << " seed=" << seed;
      // Tasks and tree nodes are not 1:1 (a task may expand a whole
      // subtree stack); the exact-count oracle above is the correctness
      // criterion.
      EXPECT_GT(stats.tasks_executed, 0u)
          << "knobs=" << k.name << " seed=" << seed;
    }
  }
}

TEST_P(DifferentialTest, UtsBinomialMatchesSequentialOracle) {
  // A second tree shape: the binomial variant is bushier near the leaves,
  // so the shared portions stay deep and the steal-half width actually
  // varies instead of saturating at chunk_size.
  const UtsParams tree = apps::uts_binomial_small();
  const UtsCounts expected = apps::uts_sequential(tree);
  ASSERT_GT(expected.nodes, 0u);

  for (const Knobs& k : kGrid) {
    for (int s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = 9000 + 131 * static_cast<std::uint64_t>(s);
      UtsCounts got;
      testing::run(
          kRanks, GetParam(),
          [&](pgas::Runtime& rt) {
            UtsRunConfig cfg;
            cfg.chunk = 4;
            cfg.queue_mode = k.mode;
            cfg.steal_half = k.half;
            auto res = apps::uts_run_scioto(rt, tree, cfg);
            if (rt.me() == 0) got = res.counts;
          },
          seed);
      EXPECT_EQ(got, expected) << "knobs=" << k.name << " seed=" << seed;
    }
  }
}

// ---- Matmul differential ----

struct MmTask {
  std::int32_t block[3];
};

double a_val(std::int64_t i, std::int64_t j) {
  return 0.01 * static_cast<double>(i) + 0.02 * static_cast<double>(j);
}
double b_val(std::int64_t i, std::int64_t j) {
  return (i == j ? 1.0 : 0.0) + 0.001 * static_cast<double>(i + j);
}

/// Runs one blocked matmul under the given knobs and returns rank 0's view
/// of {global max error vs dense reference, tasks executed globally}.
struct MmResult {
  double max_err = 1.0;
  std::uint64_t tasks = 0;
};

MmResult run_matmul(pgas::BackendKind kind, const Knobs& k,
                    std::uint64_t seed) {
  constexpr std::int64_t nb = 4, bs = 8, n = nb * bs;
  MmResult out;
  testing::run(
      kRanks, kind,
      [&](pgas::Runtime& rt) {
        ga::GlobalArray a(rt, n, n, "A"), b(rt, n, n, "B"), c(rt, n, n, "C");
        for (std::int64_t i = a.row_lo(rt.me()); i < a.row_hi(rt.me()); ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            a.local_panel()[(i - a.row_lo(rt.me())) * n + j] = a_val(i, j);
            b.local_panel()[(i - b.row_lo(rt.me())) * n + j] = b_val(i, j);
          }
        }
        rt.barrier();

        TcConfig tcc;
        tcc.max_task_body = sizeof(MmTask);
        tcc.chunk_size = 2;
        tcc.queue_mode = k.mode;
        tcc.steal_half = k.half;
        TaskCollection tc(rt, tcc);

        std::vector<double> abuf(bs * bs), bbuf(bs * bs), cbuf(bs * bs);
        TaskHandle mm = tc.register_callback([&](TaskContext& ctx) {
          const auto& t = ctx.body_as<MmTask>();
          std::int64_t i0 = t.block[0] * bs, j0 = t.block[1] * bs,
                       k0 = t.block[2] * bs;
          a.get(i0, i0 + bs, k0, k0 + bs, abuf.data(), bs);
          b.get(k0, k0 + bs, j0, j0 + bs, bbuf.data(), bs);
          matmul(abuf.data(), bbuf.data(), cbuf.data(), bs, bs, bs);
          c.acc(i0, i0 + bs, j0, j0 + bs, cbuf.data(), bs, 1.0);
        });

        Task task = tc.task_create(sizeof(MmTask), mm);
        for (std::int32_t i = 0; i < nb; ++i) {
          for (std::int32_t j = 0; j < nb; ++j) {
            for (std::int32_t kk = 0; kk < nb; ++kk) {
              if (c.owner_of_patch(i * bs, j * bs) != rt.me()) continue;
              task.body_as<MmTask>() = {{i, j, kk}};
              tc.add_local(task, kAffinityHigh);
              task.reuse();
            }
          }
        }
        tc.process();

        std::vector<double> aref(static_cast<std::size_t>(n) * n),
            bref(aref.size()), cref(aref.size());
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            aref[static_cast<std::size_t>(i * n + j)] = a_val(i, j);
            bref[static_cast<std::size_t>(i * n + j)] = b_val(i, j);
          }
        }
        matmul(aref.data(), bref.data(), cref.data(), n, n, n);
        double max_err = 0;
        for (std::int64_t i = c.row_lo(rt.me()); i < c.row_hi(rt.me()); ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            double got = c.local_panel()[(i - c.row_lo(rt.me())) * n + j];
            max_err = std::max(
                max_err,
                std::abs(got - cref[static_cast<std::size_t>(i * n + j)]));
          }
        }
        double global_err = rt.allreduce_max(max_err);
        TcStats g = tc.stats_global();
        if (rt.me() == 0) {
          out.max_err = global_err;
          out.tasks = g.tasks_executed;
        }
        tc.destroy();
        c.destroy();
        b.destroy();
        a.destroy();
      },
      seed);
  return out;
}

TEST_P(DifferentialTest, MatmulMatchesDenseReference) {
  constexpr std::uint64_t kExpectedTasks = 4 * 4 * 4;
  for (const Knobs& k : kGrid) {
    for (int s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = 500 + 13 * static_cast<std::uint64_t>(s);
      MmResult r = run_matmul(GetParam(), k, seed);
      EXPECT_LT(r.max_err, 1e-9) << "knobs=" << k.name << " seed=" << seed;
      EXPECT_EQ(r.tasks, kExpectedTasks)
          << "knobs=" << k.name << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, DifferentialTest,
                         ::testing::Values(pgas::BackendKind::Sim,
                                         pgas::BackendKind::Threads),
                         [](const auto& info) {
                           return testing::backend_name(info.param);
                         });

}  // namespace
}  // namespace scioto
