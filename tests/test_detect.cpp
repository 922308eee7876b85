// Heartbeat failure detector tests: the membership view's oracle
// fallback, detector-mode kill recovery (deaths *detected* through
// one-sided probes, not read from the fault oracle), the false-suspicion
// safety property (a stalled-but-alive rank whose queue was adopted under
// a lease fence resumes, aborts, and nothing executes twice), detection
// latency analysis over the trace, determinism of detector-mode replays,
// and the C API knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "detect/membership.hpp"
#include "fault/fault.hpp"
#include "fault/plan.hpp"
#include "scioto/queue.hpp"
#include "scioto/scioto_c.h"
#include "scioto/task.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"

namespace scioto {
namespace {

using pgas::Runtime;

/// Stages the detector on for the enclosing scope and restores the prior
/// staged config on exit (run_spmd arms/disarms the session itself).
class DetectorGuard {
 public:
  explicit DetectorGuard(const detect::Config* tuned = nullptr)
      : saved_(detect::config()) {
    detect::Config c = tuned ? *tuned : saved_;
    c.enabled = true;
    detect::set_config(c);
  }
  ~DetectorGuard() { detect::set_config(saved_); }

 private:
  detect::Config saved_;
};

apps::UtsResult run_uts_detector(int nranks, const std::string& plan,
                                 std::uint64_t seed,
                                 const apps::UtsParams& tree,
                                 pgas::BackendKind backend =
                                     pgas::BackendKind::Sim) {
  fault::start(nranks, fault::FaultPlan::parse(plan), seed);
  apps::UtsResult res;
  std::mutex res_mu;
  testing::run(
      nranks, backend,
      [&](Runtime& rt) {
        apps::UtsRunConfig rc;
        apps::UtsResult mine = apps::uts_run_scioto_ft(rt, tree, rc);
        // The result is already globally reduced (identical on every
        // surviving rank), but killed ranks never get here — any rank 0
        // included — so every survivor publishes, serialized by a mutex
        // (run_spmd's join orders the final read).
        std::lock_guard<std::mutex> g(res_mu);
        res = mine;
      },
      seed);
  fault::stop();
  return res;
}

// ---- membership view ----

TEST(DetectView, DisarmedFallsBackToOracle) {
  ASSERT_FALSE(detect::active());
  // No fault session either: everyone is alive, epoch 0.
  EXPECT_TRUE(detect::alive(0));
  EXPECT_EQ(detect::epoch(), 0u);

  // With only the oracle armed, the view mirrors it exactly.
  fault::start(4, fault::FaultPlan{}, 7);
  EXPECT_EQ(detect::alive_count(), 4);
  fault::mark_dead(2);
  EXPECT_FALSE(detect::alive(2));
  EXPECT_EQ(detect::alive_count(), 3);
  EXPECT_EQ(detect::epoch(), fault::epoch());
  EXPECT_EQ(detect::successor(1), 3);
  fault::stop();
}

TEST(DetectView, ConfirmDeadWinsOnceAndRejoinReadmits) {
  detect::start(4);
  const std::uint64_t e0 = detect::epoch();
  // Exactly one prober wins the transition; the epoch bumps once.
  EXPECT_TRUE(detect::confirm_dead(2, /*by=*/0));
  EXPECT_FALSE(detect::confirm_dead(2, /*by=*/1));
  EXPECT_FALSE(detect::alive(2));
  EXPECT_EQ(detect::epoch(), e0 + 1);
  EXPECT_EQ(detect::successor(1), 3);
  // Rejoin re-admits and bumps again so every rank resplices.
  std::uint64_t e2 = detect::rejoin(2);
  EXPECT_EQ(e2, e0 + 2);
  EXPECT_TRUE(detect::alive(2));
  detect::Stats s = detect::stats();
  EXPECT_EQ(s.confirms, 1u);
  EXPECT_EQ(s.rejoins, 1u);
  detect::stop();
}

// ---- detector-mode kill recovery: the PR 2 headline, oracle off ----

TEST(DetectRecovery, UtsExactWithQuarterOfRanksKilledDetectorMode) {
  const apps::UtsParams tree = apps::uts_small();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  DetectorGuard guard;
  apps::UtsResult res = run_uts_detector(
      8, "kill:rank=2,at=400us;kill:rank=5,at=700us", 42, tree);
  EXPECT_EQ(res.survivors, 6);
  EXPECT_TRUE(res.counts == expected)
      << "counted " << res.counts.nodes << " nodes, expected "
      << expected.nodes;
  // Both deaths were learned through probes: the detector (not the
  // oracle) confirmed them, and someone paid heartbeats/probes to do it.
  detect::Stats s = detect::stats();
  EXPECT_EQ(s.confirms, 2u);
  EXPECT_GT(s.heartbeats, 0u);
  EXPECT_GT(s.probes, 0u);
  EXPECT_GT(s.max_detect_latency, 0u);
}

TEST(DetectRecovery, UtsExactAcrossKillSchedulesDetectorMode) {
  const apps::UtsParams tree = apps::uts_tiny();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  const char* plans[] = {
      "kill:rank=3,at=20us",
      "kill:rank=1,at=40us;kill:rank=2,at=45us",
      "kill:rank=0,at=30us",  // root rank dies too
  };
  for (const char* plan : plans) {
    DetectorGuard guard;
    apps::UtsResult res = run_uts_detector(4, plan, 7, tree);
    EXPECT_TRUE(res.counts == expected)
        << "plan '" << plan << "' counted " << res.counts.nodes
        << " nodes, expected " << expected.nodes;
  }
}

// ---- false suspicion: the lease fence earns its keep ----
//
// A whole-rank stall longer than confirm_after pushes a live rank past
// the detector's timeout: a survivor confirms it dead, resplices the
// tree, and adopts its queue under an (epoch, adopter) fence. When the
// rank resumes it must observe the fence, abort its loop, drain nothing
// twice, and rejoin -- the traversal total stays bit-identical to the
// no-fault run, which is the zero-double-execution proof (every re-run
// task would inflate the node count).

TEST(DetectFalseSuspicion, StallResumeExactSim8Seeds) {
  const apps::UtsParams tree = apps::uts_small();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DetectorGuard guard;
    apps::UtsResult res = run_uts_detector(
        8, "stall:rank=3,at=200us,for=2ms", seed, tree);
    EXPECT_TRUE(res.counts == expected)
        << "seed " << seed << " counted " << res.counts.nodes
        << " nodes, expected " << expected.nodes;
    // Nobody actually died.
    EXPECT_EQ(res.survivors, 8) << "seed " << seed;
    detect::Stats s = detect::stats();
    // The stalled rank was condemned (2ms silence >> 400us confirm) and
    // came back: exactly one rank was ever confirmed dead, and rejoins
    // match confirms -- every condemnation was a false alarm that
    // recovered, none leaked.
    EXPECT_GE(s.confirms, 1u) << "seed " << seed;
    EXPECT_EQ(s.rejoins, s.confirms) << "seed " << seed;
    EXPECT_EQ(s.fence_aborts, s.rejoins) << "seed " << seed;
  }
}

TEST(DetectFalseSuspicion, StallResumeExactThreads8Seeds) {
  const apps::UtsParams tree = apps::uts_tiny();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  // Wall-clock timeouts sized for a loaded CI machine: generous enough
  // that scheduling noise alone rarely condemns a rank, small enough that
  // the 80ms injected stall reliably does. Safety cannot depend on the
  // tuning either way -- any falsely-condemned rank fences and rejoins.
  detect::Config tuned = detect::config();
  tuned.hb_period = us(200);
  tuned.probe_period = us(400);
  tuned.suspect_after = ms(5);
  tuned.confirm_after = ms(20);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DetectorGuard guard(&tuned);
    // Threads-backend rules trigger on safepoint-poll counts (after=),
    // not virtual time.
    apps::UtsResult res = run_uts_detector(
        4, "stall:rank=3,after=40,for=80ms", seed, tree,
        pgas::BackendKind::Threads);
    EXPECT_TRUE(res.counts == expected)
        << "seed " << seed << " counted " << res.counts.nodes
        << " nodes, expected " << expected.nodes;
    EXPECT_EQ(res.survivors, 4) << "seed " << seed;
    detect::Stats s = detect::stats();
    EXPECT_EQ(s.rejoins, s.confirms) << "seed " << seed;
  }
}

// ---- lease fence at queue level: the freeze tag and the overflow stash ----
//
// Deterministic replay of the falsely-suspected-owner interleaving: a ward
// confirms a live rank dead and adopts its queue; the owner then runs every
// queue op a resuming rank would. The freeze must reject the owner's
// unlocked push/pop outright (the tagged priv_tail can never match a CAS
// expected value, so a push cannot land in -- or tear -- a slot the ward
// copied), flush_overflow must bail while fenced instead of re-stashing the
// same task forever, and fence_ack must thaw the queue and rejoin the
// membership view in one critical section.

TEST(DetectFence, AdoptionFreezesOwnerQueueUntilFenceAck) {
  constexpr std::size_t kSlot = 32;
  auto make_slot = [](std::byte* buf, std::uint64_t id) {
    std::memset(buf, 0, kSlot);
    std::memcpy(buf, &id, sizeof(id));
  };
  auto slot_id = [](const std::byte* buf) {
    std::uint64_t id;
    std::memcpy(&id, buf, sizeof(id));
    return id;
  };
  for (auto backend : {pgas::BackendKind::Sim, pgas::BackendKind::Threads}) {
    for (auto mode : {QueueMode::Split, QueueMode::NoSplit}) {
      fault::start(2, fault::FaultPlan{}, 99);
      detect::start(2);
      testing::run(2, backend, [&](Runtime& rt) {
        SplitQueue::Config qc;
        qc.slot_bytes = kSlot;
        qc.capacity = 64;
        qc.chunk = 4;
        qc.mode = mode;
        SplitQueue q(rt, qc);
        std::byte buf[kSlot];
        if (rt.me() == 0) {
          for (std::uint64_t i = 0; i < 6; ++i) {
            make_slot(buf, i);
            ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
          }
        }
        rt.barrier();
        if (rt.me() == 1) {
          ASSERT_TRUE(detect::confirm_dead(0, 1));
          EXPECT_EQ(q.drain_dead(0), 6u);
          // Every adopted task landed here exactly once.
          std::set<std::uint64_t> ids;
          while (q.pop_local(buf) || q.reacquire() > 0) {
            if (slot_id(buf) < 6) ids.insert(slot_id(buf));
          }
          EXPECT_EQ(ids.size(), 6u);
        }
        rt.barrier();
        if (rt.me() == 0) {
          // Fenced: the queue reports empty, pops fail, and a push bounces
          // to the overflow stash instead of writing the adopted ring.
          EXPECT_EQ(q.size(), 0u);
          EXPECT_FALSE(q.pop_local(buf));
          make_slot(buf, 77);
          EXPECT_TRUE(q.push_local(buf, kAffinityHigh));
          EXPECT_TRUE(q.overflow_pending());
          EXPECT_EQ(q.size(), 0u);
          // Pre-fix this looped forever: the fenced push re-stashed the
          // task it was flushing and reported success.
          EXPECT_EQ(q.flush_overflow(), 0u);
          EXPECT_TRUE(q.overflow_pending());
          // fence_ack clears the lease, thaws priv_tail, and rejoins the
          // membership view under one lock hold.
          EXPECT_FALSE(detect::alive(0));
          EXPECT_NE(q.fence_ack(), 0u);
          EXPECT_TRUE(detect::alive(0));
          EXPECT_EQ(q.flush_overflow(), 1u);
          ASSERT_TRUE(q.pop_local(buf) ||
                      (q.reacquire() > 0 && q.pop_local(buf)));
          EXPECT_EQ(slot_id(buf), 77u);
        }
        rt.barrier();
        q.destroy();
      });
      detect::stop();
      fault::stop();
    }
  }
}

// Real-concurrency variant of the same property (threads backend, runs
// under TSan in CI): the owner spams unlocked pushes with no
// synchronization while the ward confirms it dead and adopts mid-stream --
// the window the review of the freeze protocol cared about, an owner
// deep in a task body whose CAS races the freeze itself. Whatever the
// interleaving, every pushed task must surface exactly once: in the
// ward's adopted queue, the owner's surviving queue, or the owner's
// post-rejoin overflow flush.

TEST(DetectFence, ConcurrentAdoptionVsOwnerPushThreads) {
  constexpr std::size_t kSlot = 32;
  constexpr std::uint64_t kTasks = 4000;
  auto make_slot = [](std::byte* buf, std::uint64_t id) {
    std::memset(buf, 0, kSlot);
    std::memcpy(buf, &id, sizeof(id));
  };
  auto slot_id = [](const std::byte* buf) {
    std::uint64_t id;
    std::memcpy(&id, buf, sizeof(id));
    return id;
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    fault::start(2, fault::FaultPlan{}, seed);
    detect::start(2);
    std::mutex mu;
    std::vector<std::uint64_t> seen;  // ids surfaced across both ranks
    testing::run(
        2, pgas::BackendKind::Threads,
        [&](Runtime& rt) {
          SplitQueue::Config qc;
          qc.slot_bytes = kSlot;
          qc.capacity = 8192;
          qc.chunk = 8;
          SplitQueue q(rt, qc);
          std::byte buf[kSlot];
          auto drain_mine = [&] {
            std::vector<std::uint64_t> ids;
            for (;;) {
              if (q.pop_local(buf)) {
                ids.push_back(slot_id(buf));
                continue;
              }
              if (q.reacquire() > 0) {
                continue;
              }
              if (q.overflow_pending() && q.flush_overflow() > 0) {
                continue;
              }
              break;
            }
            std::lock_guard<std::mutex> g(mu);
            seen.insert(seen.end(), ids.begin(), ids.end());
          };
          if (rt.me() == 0) {
            // Owner: unsynchronized push storm. Once the ward freezes the
            // queue, push_local bounces to the overflow stash and still
            // reports success -- no id is ever dropped on the floor.
            for (std::uint64_t i = 0; i < kTasks; ++i) {
              make_slot(buf, i);
              ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
            }
            rt.barrier();  // ward's adoption is over
            q.fence_ack();
            drain_mine();
          } else {
            // Ward: condemn the (live, mid-push) owner and adopt whatever
            // the freeze catches of its queue.
            std::this_thread::sleep_for(std::chrono::microseconds(
                50 + 50 * seed));
            ASSERT_TRUE(detect::confirm_dead(0, 1));
            q.drain_dead(0);
            rt.barrier();
            drain_mine();
          }
          rt.barrier();
          q.destroy();
        },
        seed);
    detect::stop();
    fault::stop();
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), kTasks) << "seed " << seed
                                   << ": task lost or duplicated";
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(seen[i], i) << "seed " << seed;
    }
  }
}

// ---- detector-mode determinism + detection-latency analysis ----

TEST(DetectTrace, SamePlanAndSeedReplaysByteIdenticalTrace) {
  const apps::UtsParams tree = apps::uts_tiny();
  const std::string plan = "kill:rank=2,at=50us";
  auto traced_run = [&]() {
    DetectorGuard guard;
    trace::start(4);
    (void)run_uts_detector(4, plan, 99, tree);
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

TEST(DetectTrace, DetectionLatencyMatchesKillToFirstConfirm) {
  const apps::UtsParams tree = apps::uts_small();
  DetectorGuard guard;
  trace::start(8);
  (void)run_uts_detector(8, "kill:rank=2,at=400us;kill:rank=5,at=700us", 42,
                         tree);
  std::vector<trace::Event> evs = trace::all_events();
  trace::stop();

  std::vector<trace::DetectionRecord> dl = trace::detection_latency(evs, 8);
  ASSERT_EQ(dl.size(), 2u);
  for (const trace::DetectionRecord& r : dl) {
    EXPECT_TRUE(r.dead == 2 || r.dead == 5);
    EXPECT_TRUE(r.was_killed);
    EXPECT_GT(r.latency(), 0);
    // Confirmation cannot beat the detector's own timeout.
    EXPECT_GE(r.latency(), detect::config().confirm_after);
    EXPECT_NE(r.confirmed_by, r.dead);
    EXPECT_GE(r.suspects, 1);
  }
  // Kills fire at the first safepoint at/after the planned time.
  EXPECT_GE(dl[0].killed_at, us(400));
  EXPECT_GE(dl[1].killed_at, us(700));
  EXPECT_FALSE(trace::detection_table(dl).render("detection").empty());
}

TEST(DetectTrace, FalseConfirmationShowsAsFalseKind) {
  const apps::UtsParams tree = apps::uts_small();
  DetectorGuard guard;
  trace::start(8);
  (void)run_uts_detector(8, "stall:rank=3,at=200us,for=2ms", 3, tree);
  std::vector<trace::Event> evs = trace::all_events();
  trace::stop();

  std::vector<trace::DetectionRecord> dl = trace::detection_latency(evs, 8);
  ASSERT_GE(dl.size(), 1u);
  EXPECT_EQ(dl[0].dead, 3);
  EXPECT_FALSE(dl[0].was_killed);
  EXPECT_EQ(dl[0].latency(), 0);
  // The owner's abort left its mark in the stream.
  bool saw_fence_abort = false;
  for (const trace::Event& e : evs) {
    saw_fence_abort = saw_fence_abort || e.kind == trace::Ev::FenceAbort;
  }
  EXPECT_TRUE(saw_fence_abort);
}

// ---- C API knobs ----

TEST(DetectCApi, KnobsRoundTripAndSelfConsistency) {
  const detect::Config before = detect::config();

  EXPECT_EQ(scioto_detector_enabled(), 0);
  scioto_detector_set(1);
  EXPECT_EQ(scioto_detector_enabled(), 1);

  // Raising the heartbeat period past the staged timeouts drags them up
  // to keep suspect > hb and confirm > suspect.
  scioto_set_hb_period_ns(us(50));
  EXPECT_EQ(scioto_hb_period_ns(), us(50));
  EXPECT_GT(scioto_suspect_timeout_ns(), us(50));

  scioto_set_suspect_timeout_ns(us(900));
  EXPECT_EQ(scioto_suspect_timeout_ns(), us(900));
  EXPECT_GT(detect::config().confirm_after, us(900));

  detect::set_config(before);
  EXPECT_EQ(scioto_detector_enabled(), before.enabled ? 1 : 0);
}

TEST(DetectCApi, StatsSurfaceAfterDetectorRun) {
  const apps::UtsParams tree = apps::uts_tiny();
  DetectorGuard guard;
  (void)run_uts_detector(4, "kill:rank=3,at=20us", 11, tree);
  scioto_detector_stats_t s;
  scioto_detector_stats_get(&s);
  EXPECT_GT(s.heartbeats, 0u);
  EXPECT_GT(s.probes, 0u);
  EXPECT_EQ(s.confirms, 1u);
  EXPECT_GT(s.max_detect_latency_ns, 0u);
}

}  // namespace
}  // namespace scioto
