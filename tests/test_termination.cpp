// Tests for wave-based termination detection: liveness (always detects),
// safety (never detects early while work exists or is in flight), the
// dirty-marking rules, and the §5.3 token-coloring optimization.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "scioto/termination.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using pgas::BackendKind;
using pgas::Runtime;

class TdBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(TdBackends, ImmediateTerminationWhenNothingHappens) {
  for (int n : {1, 2, 3, 8, 17}) {
    testing::run(n, GetParam(), [&](Runtime& rt) {
      TcStats st;
      TerminationDetector td(rt, {}, st);
      td.reset();
      int steps = 0;
      while (td.step() == TerminationDetector::Status::Working) {
        rt.relax();
        ASSERT_LT(++steps, 1000000) << "termination never detected, n=" << n;
      }
      rt.barrier();
      td.destroy();
    });
  }
}

TEST_P(TdBackends, ReusableAcrossPhases) {
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TcStats st;
    TerminationDetector td(rt, {}, st);
    for (int phase = 0; phase < 3; ++phase) {
      td.reset();
      int steps = 0;
      while (td.step() == TerminationDetector::Status::Working) {
        rt.relax();
        ASSERT_LT(++steps, 1000000);
      }
      rt.barrier();
    }
    td.destroy();
  });
}

TEST_P(TdBackends, LbOpForcesBlackVoteAndRevote) {
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TcStats st;
    TerminationDetector td(rt, {}, st);
    td.reset();
    // Rank 3 "moves work" once before going idle: at least one wave must
    // come back black, and detection still completes.
    if (rt.me() == 3) {
      td.note_lb_op(1);
    }
    int steps = 0;
    while (td.step() == TerminationDetector::Status::Working) {
      rt.relax();
      ASSERT_LT(++steps, 1000000);
    }
    auto sum = td.counters_sum();
    EXPECT_GE(sum.td_black_votes, 1u);
    td.destroy();
  });
}

// Safety harness: ranks stay "busy" for deterministic virtual spans and
// perform LB ops; the detector must not fire until every rank has finished
// its busy schedule.
TEST_P(TdBackends, NeverFiresWhileRanksAreBusy) {
  constexpr int kRanks = 6;
  std::atomic<int> busy_ranks{kRanks};
  std::atomic<bool> early{false};
  testing::run(kRanks, GetParam(), [&](Runtime& rt) {
    TcStats st;
    TerminationDetector td(rt, {}, st);
    td.reset();
    // Deterministic staggered busy phases: rank r is busy for r rounds of
    // work; each round ends with an LB op against the next rank.
    for (int round = 0; round < rt.me(); ++round) {
      rt.charge(us(5));
      // Poll TD while "busy" is not allowed (protocol precondition), but
      // LB notes are.
      td.note_lb_op((rt.me() + 1) % rt.nprocs());
      if (GetParam() == BackendKind::Threads) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    busy_ranks.fetch_sub(1);
    int steps = 0;
    while (td.step() == TerminationDetector::Status::Working) {
      rt.relax();
      ASSERT_LT(++steps, 2000000);
    }
    if (busy_ranks.load() != 0) {
      early.store(true);
    }
    rt.barrier();
    td.destroy();
  });
  EXPECT_FALSE(early.load()) << "termination detected while ranks were busy";
}

TEST_P(TdBackends, ColoringOptimizationSkipsMarks) {
  // A rank that has NOT voted yet can always skip the dirty mark.
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TerminationDetector::Config cfg;
    cfg.color_optimization = true;
    TcStats st;
    TerminationDetector td(rt, cfg, st);
    td.reset();
    if (rt.me() == 2) {
      td.note_lb_op(0);  // before any vote: must be skipped
      EXPECT_EQ(st.td_marks_sent, 0u);
      EXPECT_EQ(st.td_marks_skipped, 1u);
    }
    int steps = 0;
    while (td.step() == TerminationDetector::Status::Working) {
      rt.relax();
      ASSERT_LT(++steps, 1000000);
    }
    td.destroy();
  });
}

TEST_P(TdBackends, WithoutOptimizationMarksAreSent) {
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TerminationDetector::Config cfg;
    cfg.color_optimization = false;
    TcStats st;
    TerminationDetector td(rt, cfg, st);
    td.reset();
    if (rt.me() == 2) {
      td.note_lb_op(0);
      EXPECT_EQ(st.td_marks_sent, 1u);
      EXPECT_EQ(st.td_marks_skipped, 0u);
    }
    int steps = 0;
    while (td.step() == TerminationDetector::Status::Working) {
      rt.relax();
      ASSERT_LT(++steps, 1000000);
    }
    td.destroy();
  });
}

TEST_P(TdBackends, DescendantRuleSkipsMark) {
  // Rank 0's descendants include every other rank; after rank 0 has voted
  // (only possible mid-protocol), marks toward descendants are skipped.
  // Here we verify the static is_descendant relation through behaviour:
  // rank 1 (child of 0) marking rank 3 (its own child) skips once voted;
  // we exercise the accounting by noting ops at both protocol stages.
  testing::run(7, GetParam(), [&](Runtime& rt) {
    TcStats st;
    TerminationDetector td(rt, {}, st);
    td.reset();
    int steps = 0;
    while (td.step() == TerminationDetector::Status::Working) {
      rt.relax();
      ASSERT_LT(++steps, 1000000);
    }
    // After termination every rank has voted; marking a descendant now
    // must be skipped, a non-descendant must be sent.
    if (rt.me() == 1) {
      auto before = st;
      td.note_lb_op(3);  // 3 is a child of 1 -> descendant -> skip
      EXPECT_EQ(st.td_marks_skipped,
                before.td_marks_skipped + 1);
      td.note_lb_op(2);  // sibling subtree -> must mark
      EXPECT_EQ(st.td_marks_sent, before.td_marks_sent + 1);
    }
    rt.barrier();
    td.destroy();
  });
}

// A vote consumes the dirty mark whatever its color. Rank 3 (a leaf under
// the inner rank 1 of a 7-rank tree) moves work against its parent before
// wave 1, with the votes-before skip off, so rank 1 holds a dirty mark
// while its child votes black in wave 1. Wave 1 fails (3 black votes: 3,
// 1 and the root); with no further load-balancing op wave 2 must be
// all-white. A mark left unread behind the black child would black out
// wave 2 as well (rank 1, then the root) and decide only in wave 3.
TEST_P(TdBackends, BlackVoteConsumesDirtyMark) {
  testing::run(7, GetParam(), [&](Runtime& rt) {
    TerminationDetector::Config cfg;
    cfg.color_optimization = false;
    TcStats st;
    TerminationDetector td(rt, cfg, st);
    td.reset();
    if (rt.me() == 3) {
      td.note_lb_op(1);
      EXPECT_EQ(st.td_marks_sent, 1u);
    }
    rt.barrier();  // the mark has landed before any wave starts
    int steps = 0;
    while (td.step() == TerminationDetector::Status::Working) {
      rt.relax();
      ASSERT_LT(++steps, 1000000);
    }
    auto sum = td.counters_sum();
    EXPECT_EQ(sum.waves_started, 2u) << "stale dirty mark blacked out a wave";
    EXPECT_EQ(sum.td_black_votes, 3u);
    td.destroy();
  });
}

// The §5.3 votes-before edge under failure: the victim votes white, a
// thief completes a steal against it, and the victim fail-stops before its
// re-vote (the dirty mark never lands). The stolen work is alive on the
// busy thief, so termination must NOT fire until the thief finishes --
// even though every pre-death vote in flight was white. Guarding this is
// what the per-epoch wave reset + forced black vote after a resplice are
// for.
TEST(TdFaultSim, VictimDeathAfterStealNeverFiresEarly) {
  constexpr int kRanks = 6;
  // Leaves of disjoint subtrees (3 under 1, 5 under 2): the victim's vote
  // must not depend on the thief's up-token, or the scripted interleaving
  // deadlocks before the steal.
  constexpr Rank kVictim = 3;
  constexpr Rank kThief = 5;
  std::atomic<bool> victim_voted{false};
  std::atomic<bool> stolen{false};
  std::atomic<bool> work_done{false};
  std::atomic<bool> early{false};
  // This test scripts an oracle death (mark_dead) around a bare
  // TerminationDetector: no HeartbeatProbe ever runs, so an env-armed
  // failure detector could never confirm the death and the survivors
  // would wait forever on the victim's subtree. Pin oracle mode here;
  // the detector-mode version of this property -- death learned through
  // heartbeat silence -- lives in tests/test_detect.cpp.
  ::unsetenv("SCIOTO_DETECTOR");
  fault::start(kRanks, fault::FaultPlan{}, 7);
  testing::run_sim(kRanks, [&](Runtime& rt) {
    TcStats st;
    TerminationDetector td(rt, {}, st);
    td.reset();
    if (rt.me() == kVictim) {
      // Step until this rank has cast at least one (white) vote. Global
      // termination cannot complete yet: the thief has not voted.
      int steps = 0;
      while (st.td_waves_voted == 0) {
        if (td.step() != TerminationDetector::Status::Working) {
          early.store(true);
          break;
        }
        rt.relax();
        ASSERT_LT(++steps, 1000000);
      }
      victim_voted.store(true);
      while (!stolen.load()) {
        rt.relax();
      }
      // Fail-stop before the §5.3 re-vote: just stop participating. No
      // barrier, no destroy -- survivors must cope.
      fault::mark_dead(kVictim);
      return;
    }
    if (rt.me() == kThief) {
      while (!victim_voted.load()) {
        rt.relax();
      }
      // Completed steal against a victim that already voted white this
      // wave; the thief now owns live work and stays out of detection
      // while executing it.
      td.note_lb_op(kVictim);
      stolen.store(true);
      for (int i = 0; i < 20; ++i) {
        rt.charge(us(50));
        rt.relax();
      }
      work_done.store(true);
    }
    int steps = 0;
    while (td.step() == TerminationDetector::Status::Working) {
      rt.relax();
      ASSERT_LT(++steps, 2000000);
    }
    if (!work_done.load()) {
      early.store(true);
    }
    rt.barrier();
    td.destroy();
  });
  fault::stop();
  EXPECT_FALSE(early.load())
      << "termination fired while the stolen work was still in flight";
}

TEST(TdSim, DetectionCostScalesLogarithmically) {
  // Virtual detection time should grow like log p, not linearly.
  auto detect_time = [](int n) {
    TimeNs t = 0;
    testing::run_sim(n, [&](Runtime& rt) {
      TcStats st;
      TerminationDetector td(rt, {}, st);
      td.reset();
      rt.barrier();
      TimeNs t0 = rt.now();
      while (td.step() == TerminationDetector::Status::Working) {
        rt.relax();
      }
      TimeNs local = rt.now() - t0;
      TimeNs max = rt.allreduce_max(local);
      if (rt.me() == 0) t = max;
      td.destroy();
    });
    return t;
  };
  TimeNs t8 = detect_time(8);
  TimeNs t64 = detect_time(64);
  EXPECT_GT(t64, t8);
  // 8x the ranks must cost far less than 8x the time.
  EXPECT_LT(t64, 5 * t8);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TdBackends,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads),
                         [](const auto& info) {
                           return scioto::testing::backend_name(info.param);
                         });

}  // namespace
}  // namespace scioto
