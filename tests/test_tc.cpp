// End-to-end tests of the TaskCollection: seeding, dynamic spawning, work
// stealing, common local objects, statistics, reset/reuse, affinity
// placement, load-balancing toggle, the C API shim, the DAG dependency
// extension, and the per-rank heap footprint.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "apps/uts/uts.hpp"
#include "apps/uts/uts_drivers.hpp"
#include "base/sha1.hpp"
#include "dag/dag.hpp"
#include "pgas/sim_backend.hpp"
#include "scioto/scioto_c.h"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using pgas::BackendKind;
using pgas::Runtime;

class TcBackends : public ::testing::TestWithParam<BackendKind> {};

TcConfig small_cfg() {
  TcConfig cfg;
  cfg.max_task_body = 64;
  cfg.chunk_size = 4;
  cfg.max_tasks_per_rank = 4096;
  return cfg;
}

TEST_P(TcBackends, SeededTasksAllExecuteExactlyOnce) {
  constexpr int kPerRank = 50;
  std::mutex m;
  std::set<std::int64_t> seen;
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    struct Body {
      std::int64_t id;
    };
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      std::lock_guard<std::mutex> g(m);
      ASSERT_TRUE(seen.insert(ctx.body_as<Body>().id).second)
          << "task executed twice";
    });
    Task t = tc.task_create(sizeof(Body), h);
    for (int i = 0; i < kPerRank; ++i) {
      t.body_as<Body>().id = rt.me() * kPerRank + i;
      tc.add_local(t);
      t.reuse();
    }
    tc.process();
    tc.destroy();
  });
  EXPECT_EQ(seen.size(), 4u * kPerRank);
}

TEST_P(TcBackends, DynamicSpawningTree) {
  // Each seed task spawns a binary tree of depth D: total = 2^(D+1) - 1
  // tasks per seed.
  // Deep enough that the LIFO frontier (~depth tasks) exceeds the release
  // threshold, so work actually reaches the shared portion for thieves.
  constexpr int kDepth = 10;
  std::atomic<std::int64_t> executed{0};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    struct Body {
      int depth;
    };
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      executed.fetch_add(1);
      int d = ctx.body_as<Body>().depth;
      if (d > 0) {
        Task child = ctx.tc.task_create(sizeof(Body), ctx.header.callback);
        child.body_as<Body>().depth = d - 1;
        ctx.tc.add_local(child);
        ctx.tc.add_local(child);
      }
    });
    if (rt.me() == 0) {
      Task t = tc.task_create(sizeof(Body), h);
      t.body_as<Body>().depth = kDepth;
      tc.add_local(t);
    }
    tc.process();
    // Work must have actually migrated off rank 0.
    TcStats total = tc.stats_global();
    EXPECT_EQ(total.tasks_executed, (1u << (kDepth + 1)) - 1);
    // Under the deterministic sim backend the thieves always get a share;
    // under real threads on a loaded host rank 0 may finish first.
    if (rt.nprocs() > 1 && rt.simulated()) {
      EXPECT_GT(total.tasks_stolen, 0u);
    }
    tc.destroy();
  });
  EXPECT_EQ(executed.load(), (1 << (kDepth + 1)) - 1);
}

TEST_P(TcBackends, RemoteAddExecutesOnTargetableRank) {
  std::vector<std::atomic<int>> ran(3);
  testing::run(3, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      ran[static_cast<std::size_t>(ctx.executing_rank)].fetch_add(1);
    });
    // With load balancing off, a task added to rank 2 must run on rank 2.
    tc.set_load_balancing(false);
    if (rt.me() == 0) {
      Task t = tc.task_create(0, h);
      tc.add(2, kAffinityHigh, t);
    }
    tc.process();
    tc.destroy();
  });
  EXPECT_EQ(ran[0].load(), 0);
  EXPECT_EQ(ran[1].load(), 0);
  EXPECT_EQ(ran[2].load(), 1);
}

TEST_P(TcBackends, CommonLocalObjectsAccumulatePerRank) {
  constexpr int kTasks = 60;
  std::atomic<std::int64_t> grand_total{0};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    std::int64_t my_counter = 0;  // this rank's CLO instance
    CloHandle clo = tc.register_clo(&my_counter);
    struct Body {
      std::int64_t weight;
    };
    TaskHandle h = tc.register_callback([clo](TaskContext& ctx) {
      // Wherever this task runs, it bumps *that* rank's counter.
      ctx.tc.clo<std::int64_t>(clo) += ctx.body_as<Body>().weight;
    });
    if (rt.me() == 0) {
      Task t = tc.task_create(sizeof(Body), h);
      for (int i = 0; i < kTasks; ++i) {
        t.body_as<Body>().weight = i + 1;
        tc.add_local(t);
      }
    }
    tc.process();
    grand_total.fetch_add(my_counter);
    tc.destroy();
  });
  EXPECT_EQ(grand_total.load(), kTasks * (kTasks + 1) / 2);
}

TEST_P(TcBackends, ResetAllowsReprocessing) {
  std::atomic<int> count{0};
  testing::run(2, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h =
        tc.register_callback([&](TaskContext&) { count.fetch_add(1); });
    for (int phase = 0; phase < 3; ++phase) {
      if (rt.me() == 0) {
        Task t = tc.task_create(0, h);
        for (int i = 0; i < 10; ++i) {
          tc.add_local(t);
        }
      }
      tc.process();
      tc.reset();
    }
    tc.destroy();
  });
  EXPECT_EQ(count.load(), 30);
}

TEST_P(TcBackends, MultipleCollectionsPhaseParallelism) {
  // Tasks processed in collection A spawn tasks into collection B, which
  // is processed afterwards (paper §3.1 "phase-based task parallelism").
  std::atomic<int> phase_a{0}, phase_b{0};
  testing::run(3, GetParam(), [&](Runtime& rt) {
    TaskCollection a(rt, small_cfg());
    TaskCollection b(rt, small_cfg());
    TaskHandle hb =
        b.register_callback([&](TaskContext&) { phase_b.fetch_add(1); });
    TaskHandle ha = a.register_callback([&](TaskContext& ctx) {
      phase_a.fetch_add(1);
      Task t = b.task_create(0, hb);
      b.add(ctx.executing_rank, kAffinityHigh, t);
    });
    if (rt.me() == 0) {
      Task t = a.task_create(0, ha);
      for (int i = 0; i < 12; ++i) {
        a.add_local(t);
      }
    }
    a.process();
    b.process();
    b.destroy();
    a.destroy();
  });
  EXPECT_EQ(phase_a.load(), 12);
  EXPECT_EQ(phase_b.load(), 12);
}

TEST_P(TcBackends, StatsAreConsistent) {
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h = tc.register_callback([](TaskContext& ctx) {
      ctx.tc.runtime().charge(us(10));
    });
    if (rt.me() == 0) {
      Task t = tc.task_create(0, h);
      for (int i = 0; i < 100; ++i) {
        tc.add_local(t);
      }
    }
    tc.process();
    TcStats g = tc.stats_global();
    EXPECT_EQ(g.tasks_executed, 100u);
    EXPECT_EQ(g.tasks_spawned_local, 100u);
    EXPECT_EQ(g.tasks_stolen, g.tasks_stolen);  // folded without crashing
    EXPECT_GE(g.steal_attempts, g.steals);
    EXPECT_GE(g.time_total, g.time_working);
    // working and searching are disjoint sub-intervals of the phase.
    EXPECT_GE(g.time_total, g.time_working + g.time_searching);
    tc.destroy();
  });
}

TEST_P(TcBackends, OversizedTaskRejected) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h = tc.register_callback([](TaskContext&) {});
    EXPECT_THROW(tc.task_create(1 << 20, h), Error);
    tc.destroy();
  });
}

TEST_P(TcBackends, QueueFullThrows) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    TcConfig cfg = small_cfg();
    cfg.max_tasks_per_rank = 8;
    TaskCollection tc(rt, cfg);
    TaskHandle h = tc.register_callback([](TaskContext&) {});
    Task t = tc.task_create(0, h);
    for (int i = 0; i < 8; ++i) {
      tc.add_local(t);
    }
    EXPECT_THROW(tc.add_local(t), Error);
    tc.process();  // drain so destroy is clean
    tc.destroy();
  });
}

TEST_P(TcBackends, PaperStyleCApi) {
  static std::atomic<int> c_executed{0};
  static std::atomic<long> c_sum{0};
  c_executed = 0;
  c_sum = 0;
  struct CBody {
    long value;
  };
  testing::run(3, GetParam(), [&](Runtime& rt) {
    capi::RuntimeBinding bind(rt);
    tc_t tc = tc_create(sizeof(CBody), 4, 1024);
    task_handle_t h = tc_register_callback(tc, [](tc_t, task_t* task) {
      c_executed.fetch_add(1);
      c_sum.fetch_add(static_cast<CBody*>(tc_task_body(task))->value);
    });
    EXPECT_EQ(tc_nprocs(), 3);
    task_t* task = tc_task_create(sizeof(CBody), h);
    if (tc_mype() == 0) {
      for (long i = 1; i <= 20; ++i) {
        static_cast<CBody*>(tc_task_body(task))->value = i;
        tc_add(tc, static_cast<int>(i % 3), TC_AFFINITY_HIGH, task);
        tc_task_reuse(task);
      }
    }
    tc_process(tc);
    tc_task_destroy(task);
    tc_destroy(tc);
  });
  EXPECT_EQ(c_executed.load(), 20);
  EXPECT_EQ(c_sum.load(), 20L * 21 / 2);
}

TEST_P(TcBackends, CApiStatsGet) {
  testing::run(3, GetParam(), [&](Runtime& rt) {
    capi::RuntimeBinding bind(rt);
    tc_t tc = tc_create(16, 4, 1024);
    task_handle_t h = tc_register_callback(tc, [](tc_t, task_t*) {});
    task_t* task = tc_task_create(0, h);
    if (tc_mype() == 0) {
      for (int i = 0; i < 30; ++i) {
        tc_add(tc, i % 3, TC_AFFINITY_HIGH, task);
        tc_task_reuse(task);
      }
    }
    tc_process(tc);
    scioto_stats_t cs;
    tc_stats_get(tc, &cs);  // collective
    EXPECT_EQ(cs.tasks_executed, 30u);
    EXPECT_EQ(cs.tasks_spawned_local + cs.tasks_spawned_remote, 30u);
    EXPECT_GE(cs.steal_attempts, cs.steals);
    EXPECT_GE(cs.time_total_ns, cs.time_working_ns + cs.time_searching_ns);
    EXPECT_GT(cs.time_total_ns, 0);
    // Collective and repeatable: a second snapshot reads the same state.
    scioto_stats_t cs2;
    tc_stats_get(tc, &cs2);
    EXPECT_EQ(cs.tasks_executed, cs2.tasks_executed);
    EXPECT_EQ(cs.steals, cs2.steals);
    EXPECT_EQ(cs.time_total_ns, cs2.time_total_ns);
    tc_task_destroy(task);
    tc_destroy(tc);
  });
}

TEST_P(TcBackends, RandomRemoteSpawnStress) {
  // Property: under a randomized mixture of local spawning, remote adds
  // (which exercise the dirty-marking rules), and affinity levels, every
  // task executes exactly once and termination is always detected.
  constexpr int kSeeds = 40;
  std::atomic<std::int64_t> executed{0};
  std::atomic<std::int64_t> spawned{kSeeds};
  testing::run(5, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    struct Body {
      std::uint64_t rng_state;
      std::int32_t depth;
    };
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      executed.fetch_add(1);
      Body b = ctx.body_as<Body>();
      if (b.depth <= 0) return;
      Xoshiro256 rng(b.rng_state);
      int children = static_cast<int>(rng.next_below(3));  // 0..2
      for (int c = 0; c < children; ++c) {
        Task t = ctx.tc.task_create(sizeof(Body), ctx.header.callback);
        t.body_as<Body>() = {rng.next(), b.depth - 1};
        Rank where = static_cast<Rank>(
            rng.next_below(static_cast<std::uint64_t>(
                ctx.tc.runtime().nprocs())));
        int affinity = rng.bernoulli(0.5) ? kAffinityHigh : kAffinityLow;
        ctx.tc.add(where, affinity, t);
        spawned.fetch_add(1);
      }
    });
    Task t = tc.task_create(sizeof(Body), h);
    for (int i = 0; i < kSeeds / rt.nprocs(); ++i) {
      t.body_as<Body>() = {derive_seed(99, rt.me(), i), 9};
      tc.add_local(t);
    }
    tc.process();
    tc.destroy();
  });
  EXPECT_EQ(executed.load(), spawned.load());
}

TEST(TcMulticore, NodeBiasedStealingStaysCorrect) {
  // 16 ranks as two 8-core nodes; heavy bias toward same-node victims must
  // not lose tasks, and most successful steals should be intra-node.
  constexpr int kDepth = 11;
  std::atomic<std::int64_t> executed{0};
  pgas::Config pc = testing::make_cfg(16, BackendKind::Sim);
  pc.machine = sim::multicore_cluster(8);
  pgas::run_spmd(pc, [&](Runtime& rt) {
    TcConfig cfg = small_cfg();
    cfg.node_steal_bias = 0.8;
    TaskCollection tc(rt, cfg);
    struct Body {
      int depth;
    };
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      executed.fetch_add(1);
      int d = ctx.body_as<Body>().depth;
      if (d > 0) {
        Task child = ctx.tc.task_create(sizeof(Body), ctx.header.callback);
        child.body_as<Body>().depth = d - 1;
        ctx.tc.add_local(child);
        ctx.tc.add_local(child);
      }
    });
    if (rt.me() == 0) {
      Task t = tc.task_create(sizeof(Body), h);
      t.body_as<Body>().depth = kDepth;
      tc.add_local(t);
    }
    tc.process();
    TcStats g = tc.stats_global();
    EXPECT_EQ(g.tasks_executed, (1u << (kDepth + 1)) - 1);
    EXPECT_GT(g.steals, 0u);
    EXPECT_GE(g.steals, g.steals_same_node);
    // With 0.8 bias on 8-core nodes, intra-node steals dominate.
    EXPECT_GT(g.steals_same_node * 2, g.steals);
    tc.destroy();
  });
  EXPECT_EQ(executed.load(), (1 << (kDepth + 1)) - 1);
}

TEST(TcMulticore, IntraNodeRmaIsCheaper) {
  pgas::Config pc = testing::make_cfg(4, BackendKind::Sim);
  pc.machine = sim::multicore_cluster(2);  // ranks {0,1} and {2,3}
  pgas::run_spmd(pc, [&](Runtime& rt) {
    EXPECT_TRUE(rt.machine().same_node(0, 1));
    EXPECT_FALSE(rt.machine().same_node(1, 2));
    pgas::SegId seg = rt.seg_alloc(64);
    rt.barrier();
    if (rt.me() == 0) {
      std::int64_t v = 1;
      TimeNs t0 = rt.now();
      rt.put(seg, 1, 0, &v, sizeof(v));  // same node
      TimeNs intra = rt.now() - t0;
      t0 = rt.now();
      rt.put(seg, 2, 0, &v, sizeof(v));  // across nodes
      TimeNs inter = rt.now() - t0;
      EXPECT_LT(intra * 4, inter);
    }
    rt.barrier();
    rt.seg_free(seg);
  });
}

// ---- DAG dependency extension (§8) ----

TEST_P(TcBackends, DagChainExecutesInOrder) {
  std::vector<int> order;
  std::mutex m;
  testing::run(3, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    constexpr int kLen = 12;
    std::vector<dag::NodeId> ids;
    for (int i = 0; i < kLen; ++i) {
      ids.push_back(dag.add_node(i % rt.nprocs(), [&, i] {
        std::lock_guard<std::mutex> g(m);
        order.push_back(i);
      }));
      if (i > 0) {
        dag.add_edge(ids[static_cast<std::size_t>(i) - 1],
                     ids[static_cast<std::size_t>(i)]);
      }
    }
    dag.execute();
    tc.destroy();
  });
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST_P(TcBackends, DagDiamondJoinWaitsForBothBranches) {
  std::atomic<int> stage{0};
  std::atomic<bool> violated{false};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    auto a = dag.add_node(0, [&] { stage.fetch_add(1); });
    auto b = dag.add_node(1, [&] {
      if (stage.load() < 1) violated = true;
      stage.fetch_add(1);
    });
    auto c = dag.add_node(2, [&] {
      if (stage.load() < 1) violated = true;
      stage.fetch_add(1);
    });
    auto d = dag.add_node(3, [&] {
      if (stage.load() < 3) violated = true;  // both branches must be done
      stage.fetch_add(1);
    });
    dag.add_edge(a, b);
    dag.add_edge(a, c);
    dag.add_edge(b, d);
    dag.add_edge(c, d);
    dag.execute();
    tc.destroy();
  });
  EXPECT_EQ(stage.load(), 4);
  EXPECT_FALSE(violated.load());
}

TEST_P(TcBackends, DagWideFanOutAllExecute) {
  std::atomic<int> leaves{0};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    auto root = dag.add_node(0, [] {});
    auto join = dag.add_node(0, [] {});
    for (int i = 0; i < 64; ++i) {
      auto leaf = dag.add_node(i % rt.nprocs(), [&] { leaves.fetch_add(1); });
      dag.add_edge(root, leaf);
      dag.add_edge(leaf, join);
    }
    dag.execute();
    tc.destroy();
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST_P(TcBackends, DagCycleDetected) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    auto a = dag.add_node(0, [] {});
    auto b = dag.add_node(1, [] {});
    dag.add_edge(a, b);
    dag.add_edge(b, a);
    EXPECT_THROW(dag.execute(), Error);
    tc.destroy();
  });
}

// Live heap bytes (arena plus mmapped chunks); 0 where glibc's mallinfo2
// is unavailable.
std::size_t heap_in_use() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

// True when heap_in_use() sees a 1 MiB allocation (not under a sanitizer
// or a non-glibc allocator).
bool heap_counter_tracks_allocations() {
  constexpr std::size_t kProbe = 1 << 20;
  const std::size_t h0 = heap_in_use();
  auto probe = std::make_unique<std::byte[]>(kProbe);
  asm volatile("" : : "g"(probe.get()) : "memory");  // the probe escapes
  return heap_in_use() >= h0 + kProbe;
}

// Bytes one TaskCollection adds per rank on an n-rank sim fleet, by the
// `in_use` counter. All sim ranks share one thread, so rank 0's readings
// between barriers see every rank's construction and nothing else.
double tc_bytes_per_rank(int n, std::size_t (*in_use)(),
                         std::size_t* slot_bytes, int chunk_max = 0) {
  std::size_t before = 0;
  std::size_t after = 0;
  testing::run_sim(n, [&](Runtime& rt) {
    TcConfig cfg = small_cfg();
    cfg.max_tasks_per_rank = 64;
    cfg.chunk_max = chunk_max;
    rt.barrier();
    if (rt.me() == 0) {
      before = in_use();
    }
    rt.barrier();
    TaskCollection tc(rt, cfg);
    rt.barrier();
    if (rt.me() == 0) {
      after = in_use();
      *slot_bytes = tc.slot_bytes();
    }
    rt.barrier();
    tc.destroy();
  });
  return (static_cast<double>(after) - static_cast<double>(before)) / n;
}

TEST(TcEnv, RemovedQueueModeRejectedByName) {
  // The SCIOTO_QUEUE knob is gone: any value, including the names of the
  // protocols it once chose between, ends the run with an error naming it.
  for (const char* value : {"aborting", "lockfree", "locked"}) {
    SCOPED_TRACE(value);
    ASSERT_EQ(setenv("SCIOTO_QUEUE", value, 1), 0);
    try {
      testing::run_sim(2, [&](Runtime& rt) {
        TaskCollection tc(rt, small_cfg());
        tc.destroy();
      });
      ADD_FAILURE() << "SCIOTO_QUEUE=" << value << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("SCIOTO_QUEUE='" + std::string(value) + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("knob was removed"), std::string::npos) << what;
      EXPECT_NE(what.find("the locked split queue is the only steal protocol"),
                std::string::npos)
          << what;
    }
    ASSERT_EQ(unsetenv("SCIOTO_QUEUE"), 0);
  }
}

TEST(TcMemory, PerRankHeapIndependentOfFleetSize) {
  if (!heap_counter_tracks_allocations()) {
    GTEST_SKIP() << "heap counter does not track allocations (sanitizer "
                    "or non-glibc allocator)";
  }
  std::size_t slot = 0;
  const double small = tc_bytes_per_rank(64, heap_in_use, &slot);
  const double large = tc_bytes_per_rank(512, heap_in_use, &slot);
  // Each rank's object holds only its own rank's state. The one term that
  // grows with the fleet is the queue's remote-add headroom: one slot per
  // rank in every rank's patch.
  EXPECT_LE(large - small, 2.0 * static_cast<double>(slot) * (512 - 64))
      << "per-rank heap " << small << " B at 64 ranks, " << large
      << " B at 512 ranks (slot " << slot << " B)";
}

TEST(TcMemory, PerRankHeapIndependentOfChunkMax) {
  // Stolen chunks land in the thief's ring, so no per-rank buffer is sized
  // for the widest steal: the controller's chunk_max headroom costs no
  // heap.
  if (!heap_counter_tracks_allocations()) {
    GTEST_SKIP() << "heap counter does not track allocations (sanitizer "
                    "or non-glibc allocator)";
  }
  std::size_t slot = 0;
  const double narrow =
      tc_bytes_per_rank(64, heap_in_use, &slot, small_cfg().chunk_size);
  const double wide =
      tc_bytes_per_rank(64, heap_in_use, &slot, SplitQueue::kDeepStealCap);
  EXPECT_LE(std::abs(wide - narrow), static_cast<double>(slot))
      << "per-rank heap " << narrow << " B at chunk_max = chunk, " << wide
      << " B at chunk_max = 64 (slot " << slot << " B)";
}

TEST(TcMemory, CommittedBytesPerRankIndependentOfFleetSize) {
  // The heap counter above does not see segments, which are mappings. The
  // remote-add headroom is still one slot per rank in every rank's patch,
  // but a slot is committed only when written, so the memory a rank
  // commits must not grow with the fleet.
  if (testing::resident_bytes() == 0) {
    GTEST_SKIP() << "no /proc/self/statm";
  }
  std::size_t slot = 0;
  const double small = tc_bytes_per_rank(64, testing::resident_bytes, &slot);
  const double large = tc_bytes_per_rank(512, testing::resident_bytes, &slot);
  EXPECT_LE(large - small, static_cast<double>(sysconf(_SC_PAGESIZE)))
      << "committed " << small << " B per rank at 64 ranks, " << large
      << " B at 512 ranks (slot " << slot << " B)";
}

TEST(TcIdle, WatchdogWarnsAtTheSamePollWhenIdleRanksSleep) {
  // Rank 0 runs one 200 ms task while rank 1 idles through ~3M polls, so
  // rank 1's watchdog warns twice. The expected text was recorded when
  // every idle poll resumed its fiber: counting the polls a sleep skips
  // keeps each warning at the same poll count and virtual time.
  ::testing::internal::CaptureStderr();
  testing::run_sim(2, [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h = tc.register_callback(
        [](TaskContext& ctx) { ctx.tc.runtime().charge(ms(200)); });
    if (rt.me() == 0) {
      tc.add_local(tc.task_create(0, h));
    }
    tc.process();
    tc.destroy();
  });
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "[scioto WARN r1 @70039518ns] rank 1 idle for 1000000 "
            "iterations: queue=0 (priv=0 shared=0) executed=0 steals=0\n"
            "[scioto WARN r1 @140070538ns] rank 1 idle for 2000000 "
            "iterations: queue=0 (priv=0 shared=0) executed=0 steals=0\n");
}

// A periodic pump: top() records (rank, clock) at the first iteration at
// or past its deadline, then re-arms one period later. The sleeping form
// names that deadline through next_due; its polling twin answers `now`,
// so every iteration runs top().
struct PeriodicHook final : LoopHook {
  PeriodicHook(Runtime& rt, TimeNs period, bool sleeps,
               std::vector<std::pair<Rank, TimeNs>>* log)
      : rt(rt), period(period), sleeps(sleeps), log(log) {}
  Top top(bool) override {
    if (rt.now() >= next) {
      log->emplace_back(rt.me(), rt.now());
      next = rt.now() + period;
    }
    return Top::Go;
  }
  TimeNs next_due(TimeNs now) override { return sleeps ? next : now; }
  Runtime& rt;
  TimeNs period;
  bool sleeps;
  std::vector<std::pair<Rank, TimeNs>>* log;
  TimeNs next = 0;
};

struct PeriodicRun {
  std::vector<std::pair<Rank, TimeNs>> log;  // in execution order
  TimeNs makespan = 0;
  std::vector<std::vector<std::uint64_t>> stats;  // per rank
  std::uint64_t resumes = 0;
};

PeriodicRun run_periodic(TimeNs period, bool sleeps) {
  constexpr int kRanks = 4;
  const sim::MachineModel machine = sim::test_machine();
  pgas::SimBackend backend(kRanks, machine);
  Runtime rt(backend, 42, machine);
  PeriodicRun out;
  out.stats.resize(kRanks);
  backend.run([&](Rank me) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h = tc.register_callback(
        [](TaskContext& ctx) { ctx.tc.runtime().charge(us(15)); });
    PeriodicHook hook(rt, period, sleeps, &out.log);
    tc.set_extension(&hook);
    if (me == 0) {
      for (int i = 0; i < 24; ++i) {
        tc.add_local(tc.task_create(0, h));
      }
    }
    tc.process();
    tc.set_extension(nullptr);
    const TcStats& s = tc.stats_local();
    out.stats[static_cast<std::size_t>(me)] = {
        s.tasks_executed, s.steals,         s.steal_attempts,
        s.tasks_stolen,   s.td_waves_voted, s.td_black_votes,
        static_cast<std::uint64_t>(s.time_total),
        static_cast<std::uint64_t>(s.time_searching)};
    tc.destroy();
  });
  out.makespan = backend.engine()->max_clock();
  out.resumes = backend.engine()->resumes();
  return out;
}

TEST(TcIdle, ArmedPeriodicHookSleepsToItsDeadline) {
  // A quiet poll on the test machine advances the clock by two polls
  // (the detector step and relax), 60 ns. A 600 ns period re-armed at a
  // poll lands exactly on a later poll of the same idle spell; 630 ns
  // falls between two polls.
  for (const TimeNs period : {TimeNs{600}, TimeNs{630}}) {
    const PeriodicRun polling = run_periodic(period, /*sleeps=*/false);
    const PeriodicRun sleeping = run_periodic(period, /*sleeps=*/true);
    EXPECT_GT(polling.log.size(), 100u) << "period " << period;
    EXPECT_EQ(sleeping.log, polling.log) << "period " << period;
    EXPECT_EQ(sleeping.makespan, polling.makespan) << "period " << period;
    EXPECT_EQ(sleeping.stats, polling.stats) << "period " << period;
    // Between deadlines the idle ranks sleep instead of polling.
    EXPECT_LT(sleeping.resumes * 2, polling.resumes)
        << "period " << period << ": " << sleeping.resumes << " vs "
        << polling.resumes << " resumes";
  }
}

// The stats table of a fixed sim UTS run, with and without the fault
// group, is pinned byte for byte; and the C view of the stats carries
// every counter the C++ one does.
TEST(TcStatsTable, PinnedForSimUtsAndCViewMatches) {
  TcStats uts;
  testing::run_sim(8, [&](Runtime& rt) {
    apps::UtsRunConfig rc;
    rc.chunk = 4;
    apps::UtsResult r = apps::uts_run_scioto(rt, apps::uts_small(), rc);
    if (rt.me() == 0) uts = r.stats;
  });
  TcStats faulted = uts;
  faulted.td_resplices = 1;
  const std::string text = tc_stats_table(uts).render("uts") +
                           tc_stats_table(faulted).render("faulted");
  EXPECT_EQ(Sha1::hex(Sha1::hash(text.data(), text.size())),
            "fe4fea7da796dab3d6e053590a23650aa1d1eddd")
      << text;

  testing::run_sim(3, [&](Runtime& rt) {
    capi::RuntimeBinding bind(rt);
    tc_t tc = tc_create(16, 2, 1024);
    task_handle_t h = tc_register_callback(tc, [](tc_t, task_t*) {
      capi::bound_runtime().charge(us(5));
    });
    task_t* task = tc_task_create(0, h);
    if (tc_mype() == 0) {
      for (int i = 0; i < 60; ++i) {
        tc_add(tc, 0, i % 2 ? TC_AFFINITY_HIGH : TC_AFFINITY_LOW, task);
        tc_task_reuse(task);
      }
    }
    tc_process(tc);
    scioto_stats_t c;
    tc_stats_get(tc, &c);  // collective
    const TcStats s = capi::lookup_collection(tc).stats_global();
    EXPECT_GT(s.steals, 0u);
#define EXPECT_C_FIELD(field, ...) EXPECT_EQ(c.field, s.field) << #field;
#define EXPECT_C_TIME(field) EXPECT_EQ(c.field##_ns, s.field) << #field;
    SCIOTO_COUNTER_ROWS(EXPECT_C_FIELD, EXPECT_C_FIELD, SCIOTO_ROW_SKIP,
                        EXPECT_C_TIME)
#undef EXPECT_C_FIELD
#undef EXPECT_C_TIME
    tc_task_destroy(task);
    tc_destroy(tc);
  });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TcBackends,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads),
                         [](const auto& info) {
                           return scioto::testing::backend_name(info.param);
                         });

}  // namespace
}  // namespace scioto
