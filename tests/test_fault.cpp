// Fault-injection subsystem tests: plan parsing, the deterministic retry
// backoff, transient one-sided-op fates, the C API knobs, and the headline
// recovery property -- UTS with a quarter of the ranks fail-stopped
// mid-traversal still matches the sequential node count bit-for-bit, and
// the same plan + seed replays a byte-identical trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "fault/fault.hpp"
#include "fault/plan.hpp"
#include "scioto/scioto_c.h"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace scioto {
namespace {

using pgas::OpStatus;
using pgas::Runtime;

// ---- plan parsing ----

TEST(FaultPlan, ParsesCompactSpec) {
  fault::FaultPlan p = fault::FaultPlan::parse(
      "kill:rank=3,at=5ms;drop:op=put,rank=1,count=2,at=1ms;"
      "stall:rank=0,dur=20us;truncate:rank=2,keep=0,count=4");
  ASSERT_EQ(p.events.size(), 4u);
  EXPECT_EQ(p.kill_count(), 1);
  EXPECT_EQ(p.events[0].type, fault::FaultType::Kill);
  EXPECT_EQ(p.events[0].rank, 3);
  EXPECT_EQ(p.events[0].at, ms(5));
  EXPECT_EQ(p.events[1].op, fault::OpKind::Put);
  EXPECT_EQ(p.events[1].count, 2);
  EXPECT_EQ(p.events[2].dur, us(20));
  EXPECT_EQ(p.events[3].keep, 0);
  EXPECT_FALSE(p.describe().empty());
}

TEST(FaultPlan, ParsesJsonSpec) {
  fault::FaultPlan p = fault::FaultPlan::parse(
      R"([{"type":"kill","rank":2,"at":"3ms"},)"
      R"({"type":"delay","op":"get","dur":"10us","count":5}])");
  ASSERT_EQ(p.events.size(), 2u);
  EXPECT_EQ(p.events[0].rank, 2);
  EXPECT_EQ(p.events[1].type, fault::FaultType::Delay);
  EXPECT_EQ(p.events[1].dur, us(10));
}

TEST(FaultPlan, ParsesFileSpec) {
  std::string path = ::testing::TempDir() + "/fault_plan_test.txt";
  {
    std::ofstream f(path);
    f << "kill:rank=1,at=2ms\n";
  }
  fault::FaultPlan p = fault::FaultPlan::parse("@" + path);
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.events[0].rank, 1);
  std::remove(path.c_str());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse("explode:rank=1"), std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("kill:at=1ms"), std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("kill:rank=1,at=1parsec"),
               std::runtime_error);
  EXPECT_THROW(fault::FaultPlan::parse("@/no/such/plan.json"),
               std::runtime_error);
}

TEST(FaultPlan, RuleNamingRankOutsideTheRunFailsFastAtStart) {
  // The parser cannot range-check (it does not know nranks), so the check
  // lives at fault::start -- and the error must echo the offending rule,
  // or a multi-event plan's range error is undebuggable.
  fault::FaultPlan kill8 =
      fault::FaultPlan::parse("kill:rank=1,at=1ms;kill:rank=8,at=2ms");
  try {
    fault::start(8, std::move(kill8), 7);
    fault::stop();
    FAIL() << "fault::start accepted a rule for rank 8 in an 8-rank run";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nranks=8"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("kill rank=8"), std::string::npos)
        << e.what();
  }
  // Elastic join rules go through the same gate.
  fault::FaultPlan join9 = fault::FaultPlan::parse("join:rank=9,at=2ms");
  try {
    fault::start(8, std::move(join9), 7);
    fault::stop();
    FAIL() << "fault::start accepted a join rule for rank 9 in an 8-rank run";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("join rank=9"), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlan, ParsesTimeUnits) {
  EXPECT_EQ(fault::parse_time("250"), 250);
  EXPECT_EQ(fault::parse_time("250ns"), 250);
  EXPECT_EQ(fault::parse_time("3us"), us(3));
  EXPECT_EQ(fault::parse_time("1.5ms"), us(1500));
  EXPECT_EQ(fault::parse_time("2s"), ms(2000));
}

// ---- backoff ----

TEST(FaultBackoff, DeterministicJitteredAndCapped) {
  const fault::RetryPolicy p;  // defaults
  fault::start(4, fault::FaultPlan{}, 1234);
  std::vector<TimeNs> first;
  for (int a = 0; a < 10; ++a) {
    TimeNs b = fault::backoff(1, a);
    first.push_back(b);
    // Jitter keeps every delay within [50%, 100%] of the clamped target.
    TimeNs target = std::min<TimeNs>(p.backoff_base << a, p.backoff_cap);
    EXPECT_GE(b, target / 2) << "attempt " << a;
    EXPECT_LE(b, target) << "attempt " << a;
  }
  fault::stop();

  // Same seed -> identical schedule; it is a pure function of the session
  // seed, rank, and attempt.
  fault::start(4, fault::FaultPlan{}, 1234);
  for (int a = 0; a < 10; ++a) {
    EXPECT_EQ(fault::backoff(1, a), first[static_cast<std::size_t>(a)]);
  }
  fault::stop();
}

// ---- transient op fates at the pgas layer ----

TEST(FaultOps, DropReportsAndRetrySucceeds) {
  fault::start(2, fault::FaultPlan::parse("drop:op=get,rank=1,count=2"), 42);
  testing::run_sim(2, [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(sizeof(std::uint64_t));
    auto* mine = reinterpret_cast<std::uint64_t*>(rt.seg_ptr(seg, rt.me()));
    *mine = 0xC0FFEE00u + static_cast<std::uint64_t>(rt.me());
    rt.barrier();
    if (rt.me() == 1) {
      std::uint64_t v = 0;
      // First two gets hit the drop rule.
      EXPECT_EQ(rt.get_checked(seg, 0, 0, &v, sizeof(v)), OpStatus::Dropped);
      EXPECT_EQ(rt.get_checked(seg, 0, 0, &v, sizeof(v)), OpStatus::Dropped);
      // Rule exhausted: the plain path works again.
      EXPECT_EQ(rt.get_checked(seg, 0, 0, &v, sizeof(v)), OpStatus::Ok);
      EXPECT_EQ(v, 0xC0FFEE00u);
    }
    rt.barrier();
    rt.seg_free(seg);
  });
  EXPECT_EQ(fault::summary().drops, 2);
  fault::stop();

  // Same rule, but the retry wrapper rides through it.
  fault::start(2, fault::FaultPlan::parse("drop:op=get,rank=1,count=2"), 42);
  testing::run_sim(2, [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(sizeof(std::uint64_t));
    auto* mine = reinterpret_cast<std::uint64_t*>(rt.seg_ptr(seg, rt.me()));
    *mine = 77 + static_cast<std::uint64_t>(rt.me());
    rt.barrier();
    if (rt.me() == 1) {
      std::uint64_t v = 0;
      int attempts = 0;
      EXPECT_EQ(rt.get_with_retry(seg, 0, 0, &v, sizeof(v), &attempts),
                OpStatus::Ok);
      EXPECT_EQ(attempts, 3);
      EXPECT_EQ(v, 77u);
    }
    rt.barrier();
    rt.seg_free(seg);
  });
  fault::stop();
}

TEST(FaultOps, DelayChargesVirtualTime) {
  fault::start(2, fault::FaultPlan::parse("delay:op=get,rank=1,dur=50us"), 42);
  testing::run_sim(2, [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(8);
    rt.barrier();
    if (rt.me() == 1) {
      std::uint64_t v = 0;
      TimeNs t0 = rt.now();
      EXPECT_EQ(rt.get_checked(seg, 0, 0, &v, sizeof(v)), OpStatus::Ok);
      EXPECT_GE(rt.now() - t0, us(50));
    }
    rt.barrier();
    rt.seg_free(seg);
  });
  EXPECT_EQ(fault::summary().delays, 1);
  fault::stop();
}

// ---- C API knobs ----

TEST(FaultCApi, RetryKnobsRoundTrip) {
  const int limit0 = scioto_retry_limit();
  const int64_t cap0 = scioto_backoff_cap_ns();
  const int64_t base0 = scioto_backoff_base_ns();

  scioto_set_retry_limit(3);
  scioto_set_backoff_cap_ns(us(40));
  scioto_set_backoff_base_ns(us(1));
  EXPECT_EQ(scioto_retry_limit(), 3);
  EXPECT_EQ(scioto_backoff_cap_ns(), us(40));
  EXPECT_EQ(scioto_backoff_base_ns(), us(1));

  // The runtime actually honors the tightened limit: 5 queued drops defeat
  // a 3-attempt retry.
  fault::start(2, fault::FaultPlan::parse("drop:op=get,rank=1,count=5"), 42);
  testing::run_sim(2, [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(8);
    rt.barrier();
    if (rt.me() == 1) {
      std::uint64_t v = 0;
      int attempts = 0;
      EXPECT_EQ(rt.get_with_retry(seg, 0, 0, &v, sizeof(v), &attempts),
                OpStatus::Dropped);
      EXPECT_EQ(attempts, 3);
    }
    rt.barrier();
    rt.seg_free(seg);
  });
  fault::stop();

  scioto_set_retry_limit(limit0);
  scioto_set_backoff_cap_ns(cap0);
  scioto_set_backoff_base_ns(base0);
}

TEST(FaultCApi, PlanPassthroughValidates) {
  char err[128];
  EXPECT_EQ(scioto_fault_plan_set("kill:rank=1,at=3ms", err, sizeof(err)), 0);
  EXPECT_STREQ(scioto_fault_plan(), "kill:rank=1,at=3ms");
  const char* env = std::getenv("SCIOTO_FAULT_PLAN");
  ASSERT_NE(env, nullptr);
  EXPECT_STREQ(env, "kill:rank=1,at=3ms");

  // Malformed specs are rejected with a message and leave the staged plan
  // untouched.
  EXPECT_EQ(scioto_fault_plan_set("kill:at=3ms", err, sizeof(err)), -1);
  EXPECT_GT(std::string(err).size(), 0u);
  EXPECT_STREQ(scioto_fault_plan(), "kill:rank=1,at=3ms");

  EXPECT_EQ(scioto_fault_plan_set(nullptr, nullptr, 0), 0);
  EXPECT_STREQ(scioto_fault_plan(), "");
  EXPECT_EQ(std::getenv("SCIOTO_FAULT_PLAN"), nullptr);
}

// ---- recovery: the headline acceptance property ----

apps::UtsResult run_uts_with_faults(int nranks, const std::string& plan,
                                    std::uint64_t seed,
                                    const apps::UtsParams& tree) {
  fault::start(nranks, fault::FaultPlan::parse(plan), seed);
  apps::UtsResult res;
  testing::run_sim(
      nranks,
      [&](Runtime& rt) {
        apps::UtsRunConfig rc;
        res = apps::uts_run_scioto_ft(rt, tree, rc);
      },
      seed);
  fault::stop();
  return res;
}

TEST(FaultRecovery, UtsExactWithQuarterOfRanksKilled) {
  // 2 of 8 ranks (25%) die mid-traversal; survivors must adopt their
  // queued work and the total must match the sequential count exactly.
  const apps::UtsParams tree = apps::uts_small();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  apps::UtsResult res = run_uts_with_faults(
      8, "kill:rank=2,at=400us;kill:rank=5,at=700us", 42, tree);
  EXPECT_EQ(res.survivors, 6);
  EXPECT_TRUE(res.counts == expected)
      << "counted " << res.counts.nodes << " nodes, expected "
      << expected.nodes;
}

TEST(FaultRecovery, UtsExactAcrossKillSchedules) {
  const apps::UtsParams tree = apps::uts_tiny();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  const char* plans[] = {
      "kill:rank=3,at=20us",
      "kill:rank=1,at=40us;kill:rank=2,at=45us",
      "kill:rank=0,at=30us",  // root rank dies too
  };
  for (const char* plan : plans) {
    apps::UtsResult res = run_uts_with_faults(4, plan, 7, tree);
    EXPECT_TRUE(res.counts == expected)
        << "plan '" << plan << "' counted " << res.counts.nodes
        << " nodes, expected " << expected.nodes;
  }
}

TEST(FaultRecovery, SamePlanAndSeedReplaysByteIdenticalTrace) {
  const apps::UtsParams tree = apps::uts_tiny();
  const std::string plan = "kill:rank=2,at=50us";
  auto traced_run = [&]() {
    trace::start(4);
    (void)run_uts_with_faults(4, plan, 99, tree);
    std::vector<trace::Event> evs = trace::all_events();
    trace::stop();
    return evs;
  };
  std::vector<trace::Event> a = traced_run();
  std::vector<trace::Event> b = traced_run();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t) << "event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].rank, b[i].rank) << "event " << i;
    EXPECT_EQ(a[i].a, b[i].a) << "event " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "event " << i;
    EXPECT_EQ(a[i].c, b[i].c) << "event " << i;
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(FaultRecovery, StealTruncationAbortsButStaysExact) {
  const apps::UtsParams tree = apps::uts_tiny();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  // The first three steal hand-offs deliver zero tasks (aborted steals);
  // traversal totals must be unaffected.
  apps::UtsResult res =
      run_uts_with_faults(4, "truncate:keep=0,count=3", 42, tree);
  EXPECT_TRUE(res.counts == expected);
  EXPECT_GE(res.stats.steals_aborted, 1u);
}

TEST(FaultRecovery, RecoveryCountersSurfaceInStats) {
  const apps::UtsParams tree = apps::uts_small();
  apps::UtsResult res = run_uts_with_faults(
      8, "kill:rank=3,at=400us;kill:rank=6,at=600us", 42, tree);
  // The termination tree must have seen at least one resplice per death
  // on some survivor.
  EXPECT_GE(res.stats.td_resplices, 2u);
}

// ---- queue-mode composition ----

// Unlocked steal protocols cannot anchor the steal-transaction log (the
// claim becomes visible with a CAS outside any critical section, so a
// thief death between claim and requeue would lose the chunk). The
// lockfree (SCIOTO_QUEUE=lockfree) mode must be rejected at INIT under an
// active fault session -- fail-fast with a clear error, never a silently
// non-recoverable run -- while the locked mode keeps constructing under
// the very same session.
TEST(FaultComposition, UnlockedStealModesRejectedAtInit) {
  fault::start(1, fault::FaultPlan{}, 7);
  testing::run_sim(1, [&](Runtime& rt) {
    SplitQueue::Config qc;
    qc.mode = QueueMode::LockFree;
    EXPECT_THROW(SplitQueue(rt, qc), Error);

    // The documented user-facing path composes the same way: a task
    // collection switched to lockfree via the environment fails its
    // constructor under the session...
    ASSERT_EQ(setenv("SCIOTO_QUEUE", "lockfree", 1), 0);
    EXPECT_THROW(TaskCollection(rt, TcConfig{}), Error);
    // ...and the locked protocol stays fully fault-composable.
    ASSERT_EQ(setenv("SCIOTO_QUEUE", "locked", 1), 0);
    {
      TaskCollection tc(rt, TcConfig{});
      EXPECT_STREQ(queue_mode_name(tc.queue_mode()), "split");
      tc.destroy();
    }
    ASSERT_EQ(unsetenv("SCIOTO_QUEUE"), 0);
    SplitQueue::Config ok;  // default Split
    SplitQueue q(rt, ok);
    q.destroy();
  });
  fault::stop();
}

}  // namespace
}  // namespace scioto
