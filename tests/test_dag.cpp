// Tests for the dependency engine (src/dag): ordering over chains,
// diamonds, and fan-in/fan-out shapes on both backends; conflict-edge
// mutual exclusion; remote data-edge RAW safety; streaming (recursive)
// graph build; manual satisfy() joins; cycle reporting with node ids;
// argument validation; firing affinity (only the longest path stays at
// the home's private head); 8-seed sim determinism and pinned makespans;
// the DAG-vs-static Cholesky speedup; an 8-seed residual-verified Cholesky
// soak with its metrics-armed twin; composition with the fail-stop
// kill/adoption path; and the three-way reconciliation
// DagStats == metrics counters == trace events (mirrors test_metrics).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "apps/cholesky/cholesky.hpp"
#include "dag/dag.hpp"
#include "detect/membership.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "pgas/sim_backend.hpp"
#include "row_reconcile.hpp"
#include "scioto/scioto_c.h"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace scioto {
namespace {

using pgas::BackendKind;
using pgas::Runtime;

class DagBackends : public ::testing::TestWithParam<BackendKind> {};

TcConfig small_cfg() {
  TcConfig cfg;
  cfg.max_task_body = 64;
  cfg.chunk_size = 4;
  cfg.max_tasks_per_rank = 4096;
  return cfg;
}

// ---- Ordering over the canonical shapes ----

TEST_P(DagBackends, ChainRunsInOrder) {
  std::vector<int> order;
  std::mutex m;
  testing::run(3, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    constexpr int kLen = 16;
    std::vector<dag::NodeId> ids;
    for (int i = 0; i < kLen; ++i) {
      ids.push_back(dag.add_node(i % rt.nprocs(), [&, i] {
        std::lock_guard<std::mutex> g(m);
        order.push_back(i);
      }));
      if (i > 0) dag.add_edge(ids[static_cast<std::size_t>(i) - 1], ids.back());
    }
    dag.execute();
    dag::DagStats g = dag.stats_global();
    if (rt.me() == 0) {
      EXPECT_EQ(g.nodes_run, static_cast<std::uint64_t>(kLen));
      EXPECT_EQ(g.nodes_fired, g.nodes_run);
      EXPECT_EQ(g.max_depth, static_cast<std::uint64_t>(kLen - 1));
    }
    tc.destroy();
  });
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST_P(DagBackends, FanOutFanInWaitsForAllBranches) {
  std::atomic<int> leaves{0};
  std::atomic<bool> violated{false};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    constexpr int kWidth = 48;
    auto root = dag.add_node(0, [&] {
      if (leaves.load() != 0) violated = true;
    });
    auto join = dag.add_node(1, [&] {
      if (leaves.load() != kWidth) violated = true;  // fan-in: all done
    });
    for (int i = 0; i < kWidth; ++i) {
      auto leaf =
          dag.add_node(i % rt.nprocs(), [&] { leaves.fetch_add(1); });
      dag.add_edge(root, leaf);
      dag.add_edge(leaf, join);
    }
    dag.execute();
    tc.destroy();
  });
  EXPECT_EQ(leaves.load(), 48);
  EXPECT_FALSE(violated.load());
}

TEST_P(DagBackends, DiamondGridWavefrontOrder) {
  // A g x g wavefront of diamonds: (i,j) depends on (i-1,j) and (i,j-1).
  constexpr int kGrid = 6;
  std::atomic<std::uint64_t> done[kGrid][kGrid] = {};
  std::atomic<bool> violated{false};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    std::vector<dag::NodeId> id(kGrid * kGrid);
    for (int i = 0; i < kGrid; ++i) {
      for (int j = 0; j < kGrid; ++j) {
        id[static_cast<std::size_t>(i * kGrid + j)] =
            dag.add_node((i + j) % rt.nprocs(), [&, i, j] {
              if (i > 0 && done[i - 1][j].load() == 0) violated = true;
              if (j > 0 && done[i][j - 1].load() == 0) violated = true;
              done[i][j].store(1);
            });
      }
    }
    for (int i = 0; i < kGrid; ++i) {
      for (int j = 0; j < kGrid; ++j) {
        if (i > 0)
          dag.add_edge(id[static_cast<std::size_t>((i - 1) * kGrid + j)],
                       id[static_cast<std::size_t>(i * kGrid + j)]);
        if (j > 0)
          dag.add_edge(id[static_cast<std::size_t>(i * kGrid + j - 1)],
                       id[static_cast<std::size_t>(i * kGrid + j)]);
      }
    }
    dag.execute();
    tc.destroy();
  });
  EXPECT_FALSE(violated.load());
  for (int i = 0; i < kGrid; ++i) {
    for (int j = 0; j < kGrid; ++j) {
      EXPECT_EQ(done[i][j].load(), 1u) << "(" << i << "," << j << ")";
    }
  }
}

// ---- Conflict edges: serialization without ordering ----

TEST_P(DagBackends, ConflictGroupSerializesWithoutOrdering) {
  // All group members bump a reentrancy counter on entry and drop it on
  // exit; mutual exclusion means it can never reach 2. The members share
  // no ordering edges, so without the group lock the wide root fan-out
  // makes overlap all but certain (and the sim interleaves at every
  // charge).
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::atomic<int> ran{0};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    dag::GroupId grp = dag.conflict_group();
    auto root = dag.add_node(0, [] {});
    constexpr int kMembers = 24;
    for (int i = 0; i < kMembers; ++i) {
      auto member = dag.add_node(
          i % rt.nprocs(),
          [&](dag::NodeCtx&) {
            if (inside.fetch_add(1) != 0) overlapped = true;
            tc.runtime().charge(5'000);  // widen the window
            inside.fetch_sub(1);
            ran.fetch_add(1);
          },
          grp);
      dag.add_edge(root, member);
    }
    dag.execute();
    dag::DagStats g = dag.stats_global();
    if (rt.me() == 0) {
      EXPECT_EQ(g.nodes_run, static_cast<std::uint64_t>(kMembers) + 1);
    }
    tc.destroy();
  });
  EXPECT_EQ(ran.load(), 24);
  EXPECT_FALSE(overlapped.load());
}

// ---- Remote data edges: RAW safety without a barrier ----

TEST_P(DagBackends, DataEdgeRemoteRAW) {
  // The producer (rank 0) writes a payload one-sided into rank 1's patch;
  // the consumer (homed on rank 1) reads it back. The producer fences the
  // payload's owner before its decrement fires the consumer, so the
  // consumer sees the payload on its first and only dispatch. Under
  // threads the fence and the decrement's RMW are a genuine release edge
  // TSan checks.
  constexpr std::uint64_t kPayload = 0xfeedfacecafe0042ull;
  std::atomic<std::uint64_t> seen{0};
  testing::run(2, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    pgas::SegId data = rt.seg_alloc(64);
    std::memset(rt.seg_ptr(data, rt.me()), 0, 64);
    rt.barrier();
    dag::DagScheduler dag(tc);
    auto prod = dag.add_node(0, [&] {
      rt.charge(20'000);  // let the consumer's rank go idle first
      std::uint64_t v = kPayload;
      rt.put(data, 1, 0, &v, sizeof(v));
    });
    auto cons = dag.add_node(1, [&] {
      std::uint64_t v = 0;
      rt.get(data, 1, 0, &v, sizeof(v));
      seen.store(v);
    });
    dag.add_edge(prod, cons, dag::DataDep{1});
    dag.execute();
    dag::DagStats g = dag.stats_global();
    TcStats ts = tc.stats_global();
    if (rt.me() == 0) {
      EXPECT_EQ(g.nodes_run, 2u);
      EXPECT_EQ(ts.tasks_executed, 2u);  // no deferral, no re-fire
    }
    rt.seg_free(data);
    tc.destroy();
  });
  EXPECT_EQ(seen.load(), kPayload);
}

// ---- Streaming build: recursive dynamic spawns ----

TEST_P(DagBackends, DynamicSpawnRecursiveTree) {
  // One static root spawns a binary tree of dynamic nodes of depth D:
  // total dynamic = 2^(D+1) - 2. Arguments ride in the descriptor.
  constexpr int kDepth = 6;
  std::atomic<int> executed{0};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    struct Args {
      int depth;
    };
    dag::KindId kind = dag.register_kind([&](dag::NodeCtx& ctx) {
      ASSERT_EQ(ctx.args_len(), static_cast<std::int32_t>(sizeof(Args)));
      Args a;
      std::memcpy(&a, ctx.args(), sizeof(a));
      executed.fetch_add(1);
      if (a.depth > 0) {
        Args child{a.depth - 1};
        ctx.spawn(kind, (ctx.depth() + 0) % rt.nprocs(), &child,
                  sizeof(child));
        ctx.spawn(kind, (ctx.depth() + 1) % rt.nprocs(), &child,
                  sizeof(child));
      }
    });
    dag.add_node(0, [&](dag::NodeCtx& ctx) {
      Args a{kDepth - 1};
      ctx.spawn(kind, 1 % rt.nprocs(), &a, sizeof(a));
      ctx.spawn(kind, 2 % rt.nprocs(), &a, sizeof(a));
    });
    dag.execute();
    dag::DagStats g = dag.stats_global();
    if (rt.me() == 0) {
      const auto dyn = static_cast<std::uint64_t>((1 << (kDepth + 1)) - 2);
      EXPECT_EQ(g.dyn_spawned, dyn);
      EXPECT_EQ(g.nodes_run, dyn + 1);  // + the static root
      EXPECT_EQ(g.nodes_fired, g.nodes_run);
    }
    tc.destroy();
  });
  EXPECT_EQ(executed.load(), (1 << (kDepth + 1)) - 2);
}

TEST_P(DagBackends, ChildEdgeOrdersSiblings) {
  std::atomic<int> stage{0};
  std::atomic<bool> violated{false};
  testing::run(3, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    dag::KindId first = dag.register_kind([&](dag::NodeCtx&) {
      if (stage.exchange(1) != 0) violated = true;
    });
    dag::KindId second = dag.register_kind([&](dag::NodeCtx&) {
      if (stage.load() != 1) violated = true;
      stage.store(2);
    });
    dag.add_node(0, [&](dag::NodeCtx& ctx) {
      // Spawn out of order on distinct ranks; the child edge must still
      // serialize them.
      auto b = ctx.spawn(second, 2 % rt.nprocs());
      auto a = ctx.spawn(first, 1 % rt.nprocs());
      ctx.child_edge(a, b);
    });
    dag.execute();
    tc.destroy();
  });
  EXPECT_EQ(stage.load(), 2);
  EXPECT_FALSE(violated.load());
}

// ---- Manual joins via satisfy() ----

TEST_P(DagBackends, SatisfyReleasesExtraDep) {
  // A spawns child C with one extra dependency; B (ordered after A) is
  // the only place that satisfies it, so C must observe B's side effect.
  std::atomic<int> b_done{0};
  std::atomic<bool> violated{false};
  // Shared across ranks: A publishes the dynamic id, B (which may execute
  // on any rank) satisfies it.
  std::atomic<std::int64_t> child_id{-1};
  testing::run(2, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    dag::KindId kind = dag.register_kind([&](dag::NodeCtx&) {
      if (b_done.load() != 1) violated = true;
    });
    auto a = dag.add_node(0, [&](dag::NodeCtx& ctx) {
      child_id.store(ctx.spawn(kind, 1 % rt.nprocs(), nullptr, 0,
                               /*extra_deps=*/1));
    });
    auto b = dag.add_node(1 % rt.nprocs(), [&](dag::NodeCtx& ctx) {
      b_done.store(1);
      ctx.dag().satisfy(child_id.load());
    });
    dag.add_edge(a, b);
    dag.execute();
    dag::DagStats g = dag.stats_global();
    if (rt.me() == 0) {
      EXPECT_EQ(g.nodes_run, 3u);
      EXPECT_EQ(g.satisfies, 1u);
    }
    tc.destroy();
  });
  EXPECT_FALSE(violated.load());
}

// ---- Validation ----

TEST(DagValidation, CycleReportedWithNodeIds) {
  testing::run_sim(2, [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    std::vector<dag::NodeId> id;
    for (int i = 0; i < 6; ++i) {
      id.push_back(dag.add_node(i % rt.nprocs(), [] {}));
    }
    dag.add_edge(id[0], id[1]);  // a clean prefix...
    dag.add_edge(id[1], id[2]);
    dag.add_edge(id[3], id[4]);  // ...then the cycle 3 -> 4 -> 5 -> 3
    dag.add_edge(id[4], id[5]);
    dag.add_edge(id[5], id[3]);
    try {
      dag.execute();
      FAIL() << "cycle not detected";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
      // Every member of the cycle is named; the acyclic prefix is not.
      EXPECT_NE(msg.find("3"), std::string::npos) << msg;
      EXPECT_NE(msg.find("4"), std::string::npos) << msg;
      EXPECT_NE(msg.find("5"), std::string::npos) << msg;
      EXPECT_EQ(msg.find("0"), std::string::npos) << msg;
    }
    tc.destroy();
  });
}

TEST(DagValidation, AddEdgeRejectsBadArgsAtCallTime) {
  testing::run_sim(2, [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    auto a = dag.add_node(0, [] {});
    auto b = dag.add_node(1, [] {});
    EXPECT_THROW(dag.add_edge(a, a), Error);           // self-edge
    EXPECT_THROW(dag.add_edge(a, b + 7), Error);       // out of range
    EXPECT_THROW(dag.add_edge(-1, b), Error);          // negative
    try {
      dag.add_edge(a, b, dag::DataDep{rt.nprocs()});
      ADD_FAILURE() << "DataDep owner past the fleet accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("DataDep owner 2 out of range"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(dag.add_node(rt.nprocs(), [] {}), Error);  // bad home
    EXPECT_THROW(dag.add_node(0, dag::NodeFn([](dag::NodeCtx&) {}), 5),
                 Error);  // unknown group
    dag.add_edge(a, b);
    dag.execute();
    tc.destroy();
  });
}

// ---- Firing affinity: what thieves see ----

TEST(DagSchedule, LocallyFiredNodesReachThieves) {
  // One root fans out to 12 leaves beside a 3-node chain, all homed on
  // rank 0. At chunk 10 a rank must hold more than 20 private tasks before
  // release exposes any, so only nodes fired into the steal end can reach
  // the other ranks.
  constexpr int kRanks = 4;
  constexpr int kLeaves = 12;
  std::vector<int> ran_on(kRanks, 0);
  testing::run_sim(kRanks, [&](Runtime& rt) {
    TcConfig cfg = small_cfg();
    cfg.chunk_size = 10;
    TaskCollection tc(rt, cfg);
    dag::DagScheduler dag(tc);
    auto body = [&] {
      rt.charge(50'000);
      ran_on[static_cast<std::size_t>(rt.me())]++;
    };
    auto root = dag.add_node(0, body);
    auto prev = root;
    for (int i = 0; i < 3; ++i) {
      auto c = dag.add_node(0, body);
      dag.add_edge(prev, c);
      prev = c;
    }
    for (int i = 0; i < kLeaves; ++i) {
      dag.add_edge(root, dag.add_node(0, body));
    }
    dag.execute();
    tc.destroy();
  });
  int total = 0;
  for (int r = 0; r < kRanks; ++r) {
    total += ran_on[static_cast<std::size_t>(r)];
    if (r > 0) {
      EXPECT_GE(ran_on[static_cast<std::size_t>(r)], 1) << "rank " << r;
    }
  }
  EXPECT_EQ(total, 1 + 3 + kLeaves);
}

TEST(DagSchedule, OnlyTheLongestPathFiresWithHighAffinity) {
  // An 8-node chain on rank 0 with side branches s_i -> t_i hanging off
  // its first five nodes: every side node has slack, so only the chain's
  // local fires may push with high affinity. A local fire logs NodeReady
  // and then the very next Push on that rank; a thief's StealOk of n tasks
  // is followed by the n - 1 high pushes that requeue all but the one it
  // runs. Every Push must be one of the two.
  constexpr int kChain = 8;
  constexpr int kSides = 5;
  std::vector<bool> on_chain;
  trace::start(4);
  testing::run_sim(4, [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    auto body = [&] { rt.charge(20'000); };
    std::vector<dag::NodeId> chain;
    for (int i = 0; i < kChain; ++i) {
      chain.push_back(dag.add_node(0, body));
      if (i > 0) {
        dag.add_edge(chain[static_cast<std::size_t>(i) - 1], chain.back());
      }
    }
    for (int i = 0; i < kSides; ++i) {
      auto s = dag.add_node(i % 2, body);
      auto t = dag.add_node(0, body);
      dag.add_edge(chain[static_cast<std::size_t>(i)], s);
      dag.add_edge(s, t);
    }
    if (rt.me() == 0) {
      on_chain.assign(dag.num_nodes(), false);
      for (dag::NodeId id : chain) {
        on_chain[static_cast<std::size_t>(id)] = true;
      }
    }
    dag.execute();
    tc.destroy();
  });
  std::vector<trace::Event> evs = trace::all_events();
  trace::stop();

  std::vector<int> awaiting(4, -1);  // node whose local Push is next
  std::vector<int> requeues(4, 0);   // steal requeues still to come
  int chain_local = 0, side_local = 0, stolen_requeues = 0, high_pushes = 0;
  for (const trace::Event& e : evs) {
    const auto r = static_cast<std::size_t>(e.rank);
    if (e.kind == trace::Ev::NodeReady && e.b == e.rank) {
      awaiting[r] = e.a;
      (on_chain[static_cast<std::size_t>(e.a)] ? chain_local : side_local)++;
    } else if (e.kind == trace::Ev::StealOk) {
      requeues[r] += e.b - 1;
      stolen_requeues += e.b - 1;
    } else if (e.kind == trace::Ev::Push) {
      high_pushes += e.a == kAffinityHigh;
      if (awaiting[r] >= 0) {
        const bool chain = on_chain[static_cast<std::size_t>(awaiting[r])];
        EXPECT_EQ(e.a, chain ? kAffinityHigh : kAffinityLow)
            << "node " << awaiting[r];
        awaiting[r] = -1;
      } else {
        EXPECT_GT(requeues[r], 0) << "push on rank " << r << " at t=" << e.t
                                  << " follows neither a fire nor a steal";
        requeues[r]--;
      }
    }
  }
  EXPECT_EQ(chain_local, kChain);  // the chain never leaves rank 0's head
  EXPECT_GT(side_local, 0);
  EXPECT_EQ(high_pushes, chain_local + stolen_requeues);
}

// ---- Sim determinism: byte-identical replay across 8 seeds ----

/// A workload touching every mechanism: wavefront edges, one conflict
/// group, a data edge, and dynamic spawns, on 4 sim ranks. Returns the
/// makespan; `per_rank` receives each rank's scheduler counters.
TimeNs run_mixed_dag(std::uint64_t seed, std::vector<TcStats>* per_rank) {
  per_rank->assign(4, TcStats{});
  return testing::run_sim(
      4,
      [&](Runtime& rt) {
        TaskCollection tc(rt, small_cfg());
        pgas::SegId data = rt.seg_alloc(64);
        std::memset(rt.seg_ptr(data, rt.me()), 0, 64);
        rt.barrier();
        dag::DagScheduler dag(tc);
        dag::GroupId grp = dag.conflict_group();
        dag::KindId kind =
            dag.register_kind([&](dag::NodeCtx&) { rt.charge(1'000); });
        constexpr int kGrid = 4;
        std::vector<dag::NodeId> id(kGrid * kGrid);
        for (int i = 0; i < kGrid; ++i) {
          for (int j = 0; j < kGrid; ++j) {
            const bool locked = (i + j) % 3 == 0;
            id[static_cast<std::size_t>(i * kGrid + j)] = dag.add_node(
                (i + j) % rt.nprocs(),
                [&, i, j](dag::NodeCtx& ctx) {
                  rt.charge(2'000);
                  if (i == 0 && j == 0) ctx.spawn(kind, 2);
                },
                locked ? grp : dag::kNoGroup);
          }
        }
        for (int i = 0; i < kGrid; ++i) {
          for (int j = 0; j < kGrid; ++j) {
            if (i > 0)
              dag.add_edge(id[static_cast<std::size_t>((i - 1) * kGrid + j)],
                           id[static_cast<std::size_t>(i * kGrid + j)]);
            if (j > 0)
              dag.add_edge(id[static_cast<std::size_t>(i * kGrid + j - 1)],
                           id[static_cast<std::size_t>(i * kGrid + j)]);
          }
        }
        // (0,0) -> (1,0), data edge
        dag.add_edge(id[0], id[kGrid], dag::DataDep{1});
        dag.execute();
        (*per_rank)[static_cast<std::size_t>(rt.me())] = tc.stats_local();
        rt.seg_free(data);
        tc.destroy();
      },
      seed);
}

TEST(DagDeterminism, EightSeedsByteIdenticalTraces) {
  auto traced_run = [&](std::uint64_t seed) {
    trace::start(4);
    std::vector<TcStats> per_rank;
    run_mixed_dag(seed, &per_rank);
    std::vector<trace::Event> evs = trace::all_events();
    trace::stop();
    return evs;
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<trace::Event> a = traced_run(seed);
    std::vector<trace::Event> b = traced_run(seed);
    ASSERT_FALSE(a.empty()) << "seed " << seed;
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].t, b[i].t) << "seed " << seed << " event " << i;
      ASSERT_EQ(a[i].rank, b[i].rank) << "seed " << seed << " event " << i;
      ASSERT_EQ(a[i].kind, b[i].kind) << "seed " << seed << " event " << i;
      ASSERT_EQ(a[i].a, b[i].a) << "seed " << seed << " event " << i;
      ASSERT_EQ(a[i].b, b[i].b) << "seed " << seed << " event " << i;
      ASSERT_EQ(a[i].c, b[i].c) << "seed " << seed << " event " << i;
    }
  }
}

/// Makespan and fleet sums of the counters the idle and pending hooks
/// steer (parked-node retries keep votes black and searching time long).
struct DagPin {
  TimeNs makespan = 0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::uint64_t attempts = 0;
  std::uint64_t votes = 0;
  std::uint64_t black_votes = 0;
  TimeNs searching = 0;
  bool operator==(const DagPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const DagPin& p) {
  return os << "{" << p.makespan << ", " << p.tasks << ", " << p.steals
            << ", " << p.attempts << ", " << p.votes << ", " << p.black_votes
            << ", " << p.searching << "}";
}

TEST(DagDeterminism, PinnedMakespanAndCounters) {
  // Exact values, not just repeat-run equality: a change to how the DAG
  // engine attaches to the work loop must leave every one where it was.
  const DagPin pins[] = {
      {93178, 18, 7, 8, 20, 11, 140717},
      {95067, 18, 5, 7, 20, 12, 143876},
      {97396, 18, 4, 7, 20, 13, 154133},
      {95508, 18, 3, 8, 16, 9, 148375},
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<TcStats> per_rank;
    DagPin got;
    got.makespan = run_mixed_dag(seed, &per_rank);
    for (const TcStats& s : per_rank) {
      got.tasks += s.tasks_executed;
      got.steals += s.steals;
      got.attempts += s.steal_attempts;
      got.votes += s.td_waves_voted;
      got.black_votes += s.td_black_votes;
      got.searching += s.time_searching;
    }
    EXPECT_EQ(got, pins[seed - 1]) << "seed " << seed;
  }
}

TEST(DagDeterminism, CholeskyMakespanStatsAndResumes) {
  // The benchmark's tiled Cholesky, smaller, on the engine directly so
  // its fiber resumes can be counted. While no node is parked the DAG's
  // loop hook has nothing to do until a remote fire reaches the rank, so
  // idle ranks sleep through the tail instead of polling it.
  const sim::MachineModel machine = sim::cluster2008_uniform();
  pgas::SimBackend backend(8, machine);
  pgas::Runtime rt(backend, 42, machine);
  apps::CholeskyConfig cfg;
  cfg.tiles = 12;
  apps::CholeskyResult res;
  backend.run([&](Rank) {
    apps::CholeskyResult r = apps::cholesky_dag(rt, cfg);
    if (rt.me() == 0) {
      res = r;
    }
  });
  EXPECT_LT(res.residual, 1e-10);
  EXPECT_EQ(backend.engine()->max_clock(), 22275057);
  const dag::DagStats& d = res.dag;
  EXPECT_EQ((std::vector<std::uint64_t>{d.nodes_run, d.nodes_fired,
                                        d.remote_fires, d.conflict_retries,
                                        d.version_waits, d.max_depth}),
            (std::vector<std::uint64_t>{364, 364, 190, 5, 0, 33}));
  // 74,683 resumes when every idle poll resumed its fiber.
  EXPECT_LE(backend.engine()->resumes() * 3, 74683u)
      << backend.engine()->resumes() << " fiber resumes";
}

// ---- Dataflow vs fork-join on tiled Cholesky ----

TEST(DagCholesky, DataflowBeatsStaticForkJoin) {
  // bench_cholesky's comparison (8 sim ranks, b = 16, runtime seed 42):
  // both schedules in one SPMD region, exact virtual makespans, and the
  // DAG schedule's speedup over the static owner-computes fork-join. It
  // must pass 1.1 at 8 tiles and 1.4 at 12, where the grid is deep enough
  // for cross-step overlap to pay; at 4 tiles it only has to win.
  struct Row {
    int tiles;
    TimeNs dag_ns;
    TimeNs static_ns;
    double min_speedup;
  };
  const Row rows[] = {{4, 2392048, 3215350, 1.0},
                      {8, 7953423, 13223824, 1.1},
                      {12, 21630724, 45131600, 1.4}};
  for (const Row& want : rows) {
    pgas::Config cfg;
    cfg.nranks = 8;
    cfg.machine = sim::cluster2008_uniform();
    apps::CholeskyConfig cc;
    cc.tiles = want.tiles;
    cc.tile = 16;
    apps::CholeskyResult dag, stat;
    pgas::run_spmd(cfg, [&](Runtime& rt) {
      apps::CholeskyResult d = apps::cholesky_dag(rt, cc);
      apps::CholeskyResult s = apps::cholesky_static(rt, cc);
      if (rt.me() == 0) {
        dag = d;
        stat = s;
      }
    });
    SCOPED_TRACE(std::to_string(want.tiles) + " tiles");
    EXPECT_LT(dag.residual, 1e-12);
    EXPECT_LT(stat.residual, 1e-12);
    EXPECT_EQ(std::llround(dag.elapsed_ms * 1e6), want.dag_ns);
    EXPECT_EQ(std::llround(stat.elapsed_ms * 1e6), want.static_ns);
    EXPECT_GT(stat.elapsed_ms / dag.elapsed_ms, want.min_speedup);
    EXPECT_GT(dag.dag.remote_fires, 0u);
  }
}

TEST(DagCholesky, OneRankFiresEverythingHigh) {
  // With no thief, a slack node at the steal end only costs the owner a
  // locked push and a reacquire, so a one-rank fleet fires every node
  // high. Exact 1-rank makespans (cluster model, b = 16, runtime seed 42).
  const struct {
    int tiles;
    TimeNs dag_ns;
  } rows[] = {{8, 39132346}, {16, 310247778}};
  for (const auto& want : rows) {
    pgas::Config cfg;
    cfg.nranks = 1;
    cfg.machine = sim::cluster2008_uniform();
    apps::CholeskyConfig cc;
    cc.tiles = want.tiles;
    apps::CholeskyResult dag;
    pgas::run_spmd(cfg,
                   [&](Runtime& rt) { dag = apps::cholesky_dag(rt, cc); });
    SCOPED_TRACE(std::to_string(want.tiles) + " tiles");
    EXPECT_LT(dag.residual, 1e-12);
    EXPECT_EQ(std::llround(dag.elapsed_ms * 1e6), want.dag_ns);
  }
}

TEST(DagCholesky, EightSeedSoakAndMetricsArmedTwin) {
  // `cholesky_dag --ranks 8 --tiles 10 --tile 12 --seed S`: each runtime
  // seed perturbs steal victims and interleavings, so the eight seeds
  // drive eight ready-order/steal histories through the engine, and each
  // must reconstruct A to machine precision. Telemetry is charge-free, so
  // the run armed through SCIOTO_METRICS (counters plus the sampling
  // monitor, whose deadlines wake idle ranks) must reproduce the unarmed
  // run's makespan and DagStats exactly.
  auto run = [](std::uint64_t seed, bool* armed) {
    pgas::Config cfg;
    cfg.nranks = 8;
    cfg.machine = sim::cluster2008_uniform();
    cfg.seed = seed;
    apps::CholeskyConfig cc;
    cc.tiles = 10;
    cc.tile = 12;
    apps::CholeskyResult res;
    pgas::run_spmd(cfg, [&](Runtime& rt) {
      apps::CholeskyResult r = apps::cholesky_dag(rt, cc);
      if (rt.me() == 0) {
        res = r;
        *armed = metrics::active();
      }
    });
    return res;
  };
  const std::uint64_t seeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
  apps::CholeskyResult first;
  for (std::uint64_t seed : seeds) {
    bool armed = true;
    apps::CholeskyResult r = run(seed, &armed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_FALSE(armed);
    EXPECT_LT(r.residual, 1e-12);
    EXPECT_EQ(r.dag.nodes_run, r.dag.nodes_fired);
    if (seed == seeds[0]) first = r;
  }
  ASSERT_EQ(setenv("SCIOTO_METRICS", "1", 1), 0);
  bool armed = false;
  apps::CholeskyResult twin = run(seeds[0], &armed);
  ASSERT_EQ(unsetenv("SCIOTO_METRICS"), 0);
  EXPECT_TRUE(armed);
  EXPECT_LT(twin.residual, 1e-12);
  EXPECT_EQ(twin.elapsed_ms, first.elapsed_ms);
  EXPECT_EQ(twin.dag, first.dag);
}

// ---- Composition with the fail-stop kill / adoption path ----

TEST(DagFault, KillARankEveryNodeRunsExactlyOnce) {
  // A wide two-level DAG with a mid-run kill: every node must still run
  // exactly once, proven by durable per-node counters in PGAS (dead-rank
  // memory stays addressable in the recoverable-segment model). Deferred
  // nodes re-enter the queue under a fault session, so conflict-group
  // members survive the kill too.
  constexpr int kNodes = 60;
  const int nranks = 4;
  fault::start(nranks, fault::FaultPlan::parse("kill:rank=2,at=150us"), 11);
  testing::run_sim(
      nranks,
      [&](Runtime& rt) {
        TaskCollection tc(rt, small_cfg());
        pgas::SegId execs = rt.seg_alloc(kNodes * 8);
        std::memset(rt.seg_ptr(execs, rt.me()), 0, kNodes * 8);
        rt.barrier();
        dag::DagScheduler dag(tc);
        dag::GroupId grp = dag.conflict_group();
        auto root = dag.add_node(0, [&] { rt.charge(5'000); });
        for (int i = 1; i < kNodes; ++i) {
          auto node = dag.add_node(
              i % nranks,
              [&, i](dag::NodeCtx&) {
                rt.charge(20'000);
                rt.fetch_add(execs, i % nranks,
                             static_cast<std::size_t>(i) * 8, 1);
              },
              i % 5 == 0 ? grp : dag::kNoGroup);
          dag.add_edge(root, node);
        }
        dag.execute();
        rt.barrier();
        if (rt.me() == 0) {
          for (int i = 1; i < kNodes; ++i) {
            std::uint64_t count = 0;
            rt.get_u64_with_retry(execs, i % nranks,
                                  static_cast<std::size_t>(i) * 8, &count);
            EXPECT_EQ(count, 1u) << "node " << i;
          }
        }
        rt.seg_free(execs);
        tc.destroy();
      },
      11);
  EXPECT_EQ(fault::alive_count(), nranks - 1);
  fault::stop();
}

// ---- Three-way reconciliation: DagStats == metrics == trace ----

class DagReconcile : public ::testing::TestWithParam<BackendKind> {};

TEST_P(DagReconcile, CountersAgreeWithStatsAndTrace) {
  const int nranks = 4;
  trace::start(nranks);
  metrics::start(nranks);
  dag::DagStats g;
  TcStats ts;
  testing::run(nranks, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    dag::GroupId grp = dag.conflict_group();
    auto root = dag.add_node(0, [&] { rt.charge(1'000); });
    for (int i = 1; i < 40; ++i) {
      auto node = dag.add_node(
          i % rt.nprocs(), [&](dag::NodeCtx&) { rt.charge(2'000); },
          i % 4 == 0 ? grp : dag::kNoGroup);
      dag.add_edge(root, node);
    }
    dag.execute();
    dag::DagStats s = dag.stats_global();
    TcStats t = tc.stats_global();
    if (rt.me() == 0) g = s, ts = t;
    tc.destroy();
  });
  std::vector<metrics::Snapshot> snaps(nranks);
  for (Rank r = 0; r < nranks; ++r) {
    ASSERT_TRUE(metrics::scrape(r, &snaps[static_cast<std::size_t>(r)]));
  }
  metrics::stop();
  ASSERT_EQ(trace::total_dropped(), 0u);
  std::vector<trace::Event> evs = trace::all_events();
  trace::stop();

  EXPECT_EQ(g.nodes_run, 40u);
  EXPECT_EQ(g.nodes_fired, g.nodes_run);  // every fired node ran
  // Every counter the DAG's trace kinds name, and the scheduler's.
  std::map<std::string, std::uint64_t> sums =
      testing::expect_rows_reconcile(evs, snaps, ts, g, detect::Stats{});
  EXPECT_EQ(sums["stats.nodes_run"], 40u);
  if (GetParam() == BackendKind::Sim) {  // real threads may never collide
    EXPECT_GT(sums["stats.conflict_retries"], 0u);
  }
  // remote_fires counts only the fires homed elsewhere, so no row names
  // it; its metrics counter sits at the same site.
  std::uint64_t remote_fires = 0;
  for (const auto& s : snaps) {
    remote_fires += s.ctr(metrics::Ctr::DagRemoteFires);
  }
  EXPECT_EQ(remote_fires, g.remote_fires);
  // Every executed node fed the depth histogram.
  std::uint64_t hist_depth = 0;
  for (const auto& s : snaps) {
    hist_depth += s.hist(metrics::Hist::DagNodeDepth).count;
  }
  EXPECT_EQ(hist_depth, g.nodes_run);
}

INSTANTIATE_TEST_SUITE_P(Backends, DagReconcile,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads),
                         [](const auto& info) {
                           return testing::backend_name(info.param);
                         });

// ---- C API veneer ----

namespace capi_test {
std::atomic<int> g_hits{0};
void bump(void* arg) { g_hits.fetch_add(*static_cast<int*>(arg)); }
}  // namespace capi_test

TEST(DagCApi, BuildAndExecute) {
  capi_test::g_hits.store(0);
  testing::run_sim(2, [&](Runtime& rt) {
    capi::RuntimeBinding bind(rt);
    tc_t tc = tc_create(64, 4, 4096);
    scioto_dag_t dag = scioto_dag_create(tc);
    static int one = 1;
    scioto_dag_node_t a = scioto_dag_add_node(dag, 0, capi_test::bump, &one,
                                              -1);
    int grp = scioto_dag_conflict_group(dag);
    scioto_dag_node_t b =
        scioto_dag_add_node(dag, 1, capi_test::bump, &one, grp);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    char err[128] = {};
    EXPECT_EQ(scioto_dag_add_edge(dag, a, a, err, sizeof(err)), -1);
    EXPECT_GT(std::string(err).size(), 0u);
    EXPECT_EQ(scioto_dag_add_edge(dag, a, b, err, sizeof(err)), 0);
    EXPECT_EQ(scioto_dag_execute(dag, err, sizeof(err)), 0);
    scioto_dag_stats_t st;
    scioto_dag_stats_get(dag, &st);
    EXPECT_EQ(st.nodes_run, 2u);
    EXPECT_EQ(st.nodes_fired, 2u);
    scioto_dag_destroy(dag);
    tc_destroy(tc);
  });
  EXPECT_EQ(capi_test::g_hits.load(), 2);  // two nodes, each ran once
}

INSTANTIATE_TEST_SUITE_P(AllBackends, DagBackends,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads),
                         [](const auto& info) {
                           return testing::backend_name(info.param);
                         });

}  // namespace
}  // namespace scioto
