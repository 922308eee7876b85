// Tests for the virtual-time engine: fibers, min-clock scheduling,
// determinism, locks with queueing-delay handoff, barriers, eventcounts,
// RMA target occupancy, and idle sleep.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/machine.hpp"

namespace scioto::sim {
namespace {

Engine::Config cfg(int n) {
  Engine::Config c;
  c.nranks = n;
  c.machine = test_machine();
  return c;
}

TEST(Fiber, RunsAndFinishes) {
  int calls = 0;
  Fiber f([&] { ++calls; }, 64 * 1024);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(calls, 1);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> order;
  Fiber* self = nullptr;
  Fiber f(
      [&] {
        order.push_back(1);
        self->yield();
        order.push_back(3);
      },
      64 * 1024);
  self = &f;
  f.resume();
  order.push_back(2);
  f.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

[[gnu::noinline]] void yield_then_throw(Fiber* self, int yields) {
  for (int i = 0; i < yields; ++i) self->yield();
  throw std::runtime_error("thrown on a fiber stack");
}

TEST(Fiber, ExceptionIsCaughtInsideTheFiberAfterYields) {
  std::string caught;
  Fiber* self = nullptr;
  Fiber f(
      [&] {
        try {
          yield_then_throw(self, 3);
        } catch (const std::runtime_error& e) {
          caught = e.what();
        }
        self->yield();
      },
      64 * 1024);
  self = &f;
  int resumes = 0;
  while (!f.finished()) {
    f.resume();
    ++resumes;
  }
  EXPECT_EQ(caught, "thrown on a fiber stack");
  EXPECT_EQ(resumes, 5);
}

TEST(Fiber, EachFiberKeepsItsOwnRoundingMode) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  int up_after_resume = -1;
  int other_saw = -1;
  Fiber* up_self = nullptr;
  Fiber up(
      [&] {
        std::fesetround(FE_UPWARD);
        up_self->yield();
        up_after_resume = std::fegetround();
      },
      64 * 1024);
  up_self = &up;
  Fiber other([&] { other_saw = std::fegetround(); }, 64 * 1024);

  up.resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  other.resume();
  EXPECT_EQ(other_saw, FE_TONEAREST);
  up.resume();
  EXPECT_EQ(up_after_resume, FE_UPWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// Recurses `depth` frames of ~1 KiB each, yields twice at the bottom, and
// returns how many marker bytes in its frames survived intact.
[[gnu::noinline]] int descend(Fiber* self, int depth, char mark) {
  volatile char frame[1024];
  for (std::size_t i = 0; i < sizeof frame; i += 64) frame[i] = mark;
  int intact = 0;
  if (depth > 0) {
    intact = descend(self, depth - 1, static_cast<char>(mark + 1));
  } else {
    self->yield();
    self->yield();
  }
  for (std::size_t i = 0; i < sizeof frame; i += 64) {
    intact += frame[i] == mark ? 1 : 0;
  }
  return intact;
}

TEST(Fiber, ThousandFibersRoundRobinOnDeepStacks) {
  constexpr int kFibers = 1024;
  constexpr int kDepth = 40;  // ~42 KiB of each 64 KiB stack
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> intact(kFibers, -1);
  fibers.reserve(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>(
        [&fibers, &intact, i] {
          intact[static_cast<std::size_t>(i)] =
              descend(fibers[static_cast<std::size_t>(i)].get(), kDepth,
                      static_cast<char>(i));
        },
        64 * 1024));
  }
  for (int live = kFibers; live > 0;) {
    for (auto& f : fibers) {
      if (f->finished()) continue;
      f->resume();
      if (f->finished()) --live;
    }
  }
  for (int i = 0; i < kFibers; ++i) {
    EXPECT_EQ(intact[static_cast<std::size_t>(i)], (kDepth + 1) * 16)
        << "fiber " << i;
  }
}

TEST(Fiber, EntryStackIs16ByteAligned) {
  std::uintptr_t addr = 1;
  Fiber f(
      [&] {
        alignas(16) char probe[16];
        // Through a volatile, so the compiler cannot fold the check.
        volatile std::uintptr_t seen = reinterpret_cast<std::uintptr_t>(probe);
        addr = seen;
      },
      64 * 1024);
  f.resume();
  EXPECT_EQ(addr % 16, 0u);
}

// Recurses until the stack runs out; the bound only keeps the compiler from
// proving the recursion infinite. Frames stay well under a page, so the
// overrun cannot step over the guard page.
[[gnu::noinline]] int overrun(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth == std::numeric_limits<int>::max()) return 0;
  return overrun(depth + 1) + frame[0];
}

TEST(FiberDeathTest, StackOverrunCrashes) {
  EXPECT_DEATH(
      {
        Fiber f([] { overrun(0); }, 64 * 1024);
        f.resume();
      },
      "");
}

TEST(Engine, ClocksAdvanceIndependently) {
  std::vector<TimeNs> final_clock(3);
  Engine e(cfg(3), [&](Rank r) {
    Engine* eng = current_engine();
    eng->charge((r + 1) * 1000);
    final_clock[static_cast<std::size_t>(r)] = eng->now();
  });
  e.run();
  EXPECT_EQ(final_clock[0], 1000);
  EXPECT_EQ(final_clock[1], 2000);
  EXPECT_EQ(final_clock[2], 3000);
  EXPECT_EQ(e.max_clock(), 3000);
}

TEST(Engine, MinClockSchedulingOrder) {
  // Each rank stamps a shared log at sync points; the interleaving must be
  // in virtual-time order.
  std::vector<std::pair<TimeNs, Rank>> log;
  Engine e(cfg(4), [&](Rank r) {
    Engine* eng = current_engine();
    for (int i = 0; i < 5; ++i) {
      eng->charge(100 + 37 * r);
      eng->sync();
      log.emplace_back(eng->now(), r);
    }
  });
  e.run();
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].first, log[i].first)
        << "out-of-order execution at step " << i;
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    std::vector<std::pair<TimeNs, Rank>> log;
    Engine e(cfg(5), [&](Rank r) {
      Engine* eng = current_engine();
      for (int i = 0; i < 20; ++i) {
        eng->charge(50 + (r * 13 + i * 7) % 90);
        eng->sync();
        log.emplace_back(eng->now(), r);
      }
    });
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, CpuScaleAppliesToCharges) {
  Engine::Config c = cfg(2);
  c.machine.cpu_scale = [](Rank r, int) { return r == 0 ? 1.0 : 2.0; };
  std::vector<TimeNs> t(2);
  Engine e(c, [&](Rank r) {
    Engine* eng = current_engine();
    eng->charge(1000);
    t[static_cast<std::size_t>(r)] = eng->now();
  });
  e.run();
  EXPECT_EQ(t[0], 1000);
  EXPECT_EQ(t[1], 2000);
}

TEST(Engine, LockHandoffModelsQueueingDelay) {
  // Rank 0 grabs the lock at t=0 and holds it until t=1000; rank 1
  // requests it at t=10 and must observe clock >= 1000 when granted.
  std::vector<TimeNs> granted(2);
  int lock_id = -1;
  Engine e(cfg(2), [&](Rank r) {
    Engine* eng = current_engine();
    if (r == 0) {
      lock_id = eng->lock_create();
      eng->lock_acquire(lock_id);
      eng->charge(1000);
      eng->sync();
      eng->lock_release(lock_id);
    } else {
      eng->charge(10);  // let rank 0 create + acquire first (t0 < t1 start)
      eng->sync();
      eng->lock_acquire(lock_id);
      granted[1] = eng->now();
      eng->lock_release(lock_id);
    }
  });
  e.run();
  EXPECT_GE(granted[1], 1000);
}

TEST(Engine, BarrierReleasesAtMaxArrivalPlusCost) {
  std::vector<TimeNs> after(4);
  Engine e(cfg(4), [&](Rank r) {
    Engine* eng = current_engine();
    eng->charge(100 * (r + 1));  // arrivals at 100..400
    eng->barrier(500);
    after[static_cast<std::size_t>(r)] = eng->now();
  });
  e.run();
  for (TimeNs t : after) {
    EXPECT_EQ(t, 900);  // max arrival 400 + cost 500
  }
}

TEST(Engine, RepeatedBarriers) {
  int rounds = 0;
  Engine e(cfg(3), [&](Rank r) {
    Engine* eng = current_engine();
    for (int i = 0; i < 10; ++i) {
      eng->charge(10 * (r + 1));
      eng->barrier(100);
      if (r == 0) ++rounds;
    }
  });
  e.run();
  EXPECT_EQ(rounds, 10);
}

TEST(Engine, EventcountWakesBlockedRank) {
  TimeNs woke_at = 0;
  Engine e(cfg(2), [&](Rank r) {
    Engine* eng = current_engine();
    if (r == 0) {
      eng->idle_wait();
      woke_at = eng->now();
    } else {
      eng->charge(700);
      eng->notify(0, eng->now() + 50);
    }
  });
  e.run();
  EXPECT_EQ(woke_at, 750);
}

TEST(Engine, EventcountPendingConsumedWithoutBlocking) {
  bool done = false;
  Engine e(cfg(2), [&](Rank r) {
    Engine* eng = current_engine();
    if (r == 1) {
      eng->notify(0, 0);
    } else {
      eng->charge(500);  // notify lands before we wait
      eng->sync();
      eng->idle_wait();  // must not deadlock
      done = true;
    }
  });
  e.run();
  EXPECT_TRUE(done);
}

TEST(Engine, RmaOccupySerializesPerTarget) {
  // Two ranks fire RMAs at target rank 0 at the same virtual time; the
  // second to be serviced must queue behind the first.
  std::vector<TimeNs> done(3);
  Engine e(cfg(3), [&](Rank r) {
    Engine* eng = current_engine();
    if (r == 0) return;
    eng->sync();
    done[static_cast<std::size_t>(r)] =
        eng->rma_occupy(/*target=*/0, /*arrival_offset=*/100,
                        /*service=*/1000);
  });
  e.run();
  TimeNs first = std::min(done[1], done[2]);
  TimeNs second = std::max(done[1], done[2]);
  EXPECT_EQ(first, 1100);
  EXPECT_EQ(second, 2100);
}

TEST(Engine, SyncQuantumBoundsRunAhead) {
  // With a tiny quantum, charge() must yield frequently: interleavings of
  // two equal-speed ranks stay within one quantum of each other.
  Engine::Config c = cfg(2);
  c.machine.sync_quantum = 100;
  TimeNs max_skew = 0;
  Engine e(c, [&](Rank r) {
    Engine* eng = current_engine();
    for (int i = 0; i < 50; ++i) {
      eng->charge(30);
      TimeNs other = eng->now(1 - r);
      max_skew = std::max(max_skew, eng->now() - other);
    }
  });
  e.run();
  // A rank can be ahead at most ~quantum + one charge.
  EXPECT_LE(max_skew, 200);
}

TEST(Engine, DeadlockDetectionAborts) {
  EXPECT_DEATH(
      {
        Engine e(cfg(2), [&](Rank) { current_engine()->idle_wait(); });
        e.run();
      },
      "deadlock");
}

// ---- Idle sleep ----
//
// A scripted sleeper reaches c0 = 100 and then either polls (one sync per
// poll, each poll advancing delta = 50) or sleeps through the same polls.
// Either way it reports the clock at which it first sees another rank's
// touch; sleeping must see it at exactly the poll that polling does.

constexpr TimeNs kC0 = 100;
constexpr TimeNs kDelta = 50;

using Script = std::function<void(Engine&, Rank, bool& touched)>;

TimeNs first_seen(bool sleeping, int nranks, Rank sleeper,
                  std::int64_t max_polls, const Script& others,
                  Engine::Slept* slept = nullptr) {
  bool touched = false;
  TimeNs seen = -1;
  Engine e(cfg(nranks), [&](Rank r) {
    Engine& eng = *current_engine();
    if (r != sleeper) {
      others(eng, r, touched);
      return;
    }
    eng.advance_unsynced(kC0);
    if (sleeping) {
      Engine::Slept s = eng.sleep(kDelta, max_polls);
      if (slept != nullptr) *slept = s;
    } else {
      bool seen_touch = false;
      for (std::int64_t k = 0; k < max_polls && !seen_touch; ++k) {
        eng.sync();
        seen_touch = touched;
        if (!seen_touch) eng.advance_unsynced(kDelta);
      }
      if (!seen_touch) eng.sync();  // the deadline poll
    }
    seen = eng.now();
  });
  e.run();
  return seen;
}

/// Rank `waker` touches the sleeper in its segment keyed (at, waker).
Script touch_at(Rank waker, Rank sleeper, TimeNs at) {
  return [=](Engine& eng, Rank r, bool& touched) {
    if (r != waker) return;
    eng.advance_unsynced(at);
    eng.sync();
    touched = true;
    eng.wake(sleeper);
  };
}

TEST(EngineSleep, WakeResumesAtThePollThatPollingWouldSeeItAt) {
  // Rank 1 sleeps; the waker is rank 0 (sorts before it on equal clocks)
  // or rank 2 (after). Touch clocks cover before c0, every tie with a
  // poll, between polls, and past the deadline (c0 + 6 * delta = 400).
  for (Rank waker : {0, 2}) {
    for (TimeNs at : {50, 100, 125, 150, 200, 250, 399, 400, 450}) {
      const Script s = touch_at(waker, 1, at);
      Engine::Slept slept;
      const TimeNs polled = first_seen(false, 3, 1, 6, s);
      const TimeNs slept_at = first_seen(true, 3, 1, 6, s, &slept);
      EXPECT_EQ(slept_at, polled) << "waker " << waker << " at " << at;
      EXPECT_EQ(slept.polls, (slept_at - kC0) / kDelta);
      // The deadline poll, at (400, 1), runs before a touch keyed above it.
      const bool after_deadline = at > 400 || (at == 400 && waker > 1);
      EXPECT_EQ(slept.deadline, after_deadline)
          << "waker " << waker << " at " << at;
    }
  }
  // The tie cases explicitly: a touch at (200, 0) is seen by the poll at
  // (200, 1); a touch at (200, 2) only by the next one, at 250.
  EXPECT_EQ(first_seen(true, 3, 1, 6, touch_at(0, 1, 200)), 200);
  EXPECT_EQ(first_seen(true, 3, 1, 6, touch_at(2, 1, 200)), 250);
}

TEST(EngineSleep, WakeAfterLockHandoffUsesEverySegmentRunSoFar) {
  // Rank 5 holds a lock until (200, 5) and hands it to rank 1, whose
  // segment (200, 1) sorts below (200, 5) yet runs after it. The
  // sleeper's poll at (200, 3) already ran before the handoff, so a touch
  // from rank 1 is first seen at 250 -- not at the waker's next key.
  int lock = -1;
  const Script s = [&](Engine& eng, Rank r, bool& touched) {
    if (r == 5) {
      lock = eng.lock_create();
      eng.lock_acquire(lock);
      eng.advance_unsynced(200);
      eng.sync();
      eng.lock_release(lock);
    } else if (r == 1) {
      eng.advance_unsynced(10);
      eng.sync();
      eng.lock_acquire(lock);
      touched = true;
      eng.wake(3);
      eng.lock_release(lock);
    }
  };
  EXPECT_EQ(first_seen(false, 6, 3, 10, s), 250);
  EXPECT_EQ(first_seen(true, 6, 3, 10, s), 250);
}

TEST(EngineSleep, UntouchedSleeperResumesAtItsDeadline) {
  Engine::Slept slept;
  const Script idle = [](Engine&, Rank, bool&) {};
  EXPECT_EQ(first_seen(true, 2, 1, 7, idle, &slept), kC0 + 7 * kDelta);
  EXPECT_EQ(slept.polls, 7);
  EXPECT_TRUE(slept.deadline);
  EXPECT_EQ(first_seen(false, 2, 1, 7, idle), kC0 + 7 * kDelta);
}

TEST(EngineSleep, SleepFallsBackToSyncWhenItCannotBeExact) {
  std::vector<Engine::Slept> got;
  std::vector<TimeNs> at;
  Engine e(cfg(1), [&](Rank) {
    Engine& eng = *current_engine();
    got.push_back(eng.sleep(kDelta, 5));  // no advance since resume
    eng.advance_unsynced(10);
    got.push_back(eng.sleep(eng.machine().sync_quantum + 1, 5));
    eng.advance_unsynced(10);
    got.push_back(eng.sleep(kDelta, 0));
    at.push_back(eng.now());
  });
  e.run();
  ASSERT_EQ(got.size(), 3u);
  for (const Engine::Slept& s : got) {
    EXPECT_EQ(s.polls, 0);
    EXPECT_FALSE(s.deadline);
  }
  EXPECT_EQ(at[0], 20);
}

TEST(EngineSleep, WakingARunningOrBlockedRankDoesNothing) {
  int lock = -1;
  std::vector<TimeNs> done(4, -1);
  Engine e(cfg(4), [&](Rank r) {
    Engine& eng = *current_engine();
    if (r == 0) {
      lock = eng.lock_create();
      eng.lock_acquire(lock);
      eng.advance_unsynced(500);
      eng.sync();
      eng.lock_release(lock);
    } else if (r == 1) {
      eng.advance_unsynced(10);
      eng.sync();
      eng.lock_acquire(lock);  // blocked until the handoff at 500
      eng.lock_release(lock);
    } else if (r == 2) {
      eng.advance_unsynced(100);
      eng.sync();
      eng.wake(1);  // blocked on the lock
      eng.wake(2);  // running: itself
      eng.wake(3);  // runnable in the heap at 300
      eng.advance_unsynced(5);
    } else {
      eng.advance_unsynced(300);
      eng.sync();
    }
    done[static_cast<std::size_t>(r)] = eng.now();
  });
  e.run();
  EXPECT_EQ(done, (std::vector<TimeNs>{500, 500, 105, 300}));
}

TEST(EngineSleep, TwoWakesInOneSegmentResumeTheSleeperOnce) {
  int sleeper_resumes = 0;
  Engine e(cfg(2), [&](Rank r) {
    Engine& eng = *current_engine();
    if (r == 0) {
      eng.advance_unsynced(200);
      eng.sync();
      eng.wake(1);
      eng.wake(1);
      return;
    }
    eng.advance_unsynced(kC0);
    Engine::Slept s = eng.sleep(kDelta, 10);
    ++sleeper_resumes;
    EXPECT_EQ(s.polls, 2);
    EXPECT_EQ(eng.now(), 200);
  });
  e.run();
  EXPECT_EQ(sleeper_resumes, 1);
  // Both first segments, the waker's second, the sleeper's one wake: the
  // first wake moved the sleeper's one queue entry from its deadline to
  // the wake poll, and the second found it awake.
  EXPECT_EQ(e.resumes(), 4u);
}

TEST(EngineSleep, DeadlockDumpListsSleepingRanks) {
  EXPECT_DEATH(
      {
        Engine e(cfg(2), [&](Rank r) {
          Engine& eng = *current_engine();
          if (r == 0) {
            eng.idle_wait();
            return;
          }
          eng.advance_unsynced(kC0);
          eng.sleep(kDelta, Engine::kForever);
        });
        e.run();
      },
      "rank 1: clock=100 ns[^\n]*\n *asleep: c0=100 ns delta=50 ns "
      "deadline=none");
}

// ---- Run queue ----

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
};

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct QueueRun {
  std::uint64_t resumes = 0;
  std::uint64_t order = 0;   // FNV-1a of the resumed (rank, clock) sequence
  std::uint64_t clocks = 0;  // FNV-1a of the final clocks, by rank
  TimeNs makespan = 0;
  // How often the program hit the cases that remove a rank's entry and
  // put it back later; the test asserts each is nonzero at 64+ ranks.
  int deadless_sleeps = 0;
  int idle_waits = 0;
  int contended_locks = 0;
  int early_exits = 0;
};

/// Every rank runs a seeded random mix of the calls that move ranks in and
/// out of the run queue: charges past the sync quantum, syncs, sleeps with
/// and without a deadline, wakes, contended locks (the handoff keeps the
/// releaser's clock, so equal clocks are common), barriers at fixed steps,
/// idle_wait/notify, and early exit. Clocks move in multiples of 50 ns so
/// that ties between ranks are frequent. A rank enters a state only another
/// rank can end (idle_wait, sleep with no deadline) only while some other
/// rank is still active; a rank entering a barrier or exiting first wakes
/// and notifies everyone parked that way, so the program cannot deadlock.
QueueRun random_program(int nranks, std::uint64_t seed) {
  constexpr int kSteps = 48;
  constexpr int kBarrierEvery = 12;
  constexpr int kLocks = 3;
  Engine::Config c = cfg(nranks);
  c.stack_bytes = 64 * 1024;
  const auto n = static_cast<std::size_t>(nranks);
  std::vector<char> forever(n, 0);  // asleep with no deadline
  std::vector<char> waiting(n, 0);  // parked in idle_wait
  int active = nranks;  // unfinished, not parked, not in a barrier
  Fnv1a order;
  QueueRun out;
  std::vector<int> locks;
  Engine e(c, [&](Rank r) {
    Engine& eng = *current_engine();
    std::uint64_t rng = seed * 1000003u + static_cast<std::uint64_t>(r);
    auto draw = [&](std::uint64_t m) { return splitmix64(rng) % m; };
    auto note = [&] {
      order.add(static_cast<std::uint64_t>(r));
      order.add(static_cast<std::uint64_t>(eng.now()));
    };
    // Runs one engine call and notes the resume if it yielded.
    auto step = [&](auto&& call) {
      const std::uint64_t before = eng.resumes();
      call();
      if (eng.resumes() != before) note();
    };
    auto pick = [&] { return static_cast<Rank>(draw(n)); };
    auto wake = [&](Rank t) {
      eng.wake(t);
      if (forever[static_cast<std::size_t>(t)]) {
        forever[static_cast<std::size_t>(t)] = 0;
        ++active;
      }
    };
    auto notify = [&](Rank t) {
      eng.notify(t, eng.now() + 50 * static_cast<TimeNs>(draw(4)));
      if (waiting[static_cast<std::size_t>(t)]) {
        waiting[static_cast<std::size_t>(t)] = 0;
        ++active;
      }
    };
    auto release_parked = [&] {
      for (Rank t = 0; t < nranks; ++t) {
        if (forever[static_cast<std::size_t>(t)]) wake(t);
        if (waiting[static_cast<std::size_t>(t)]) notify(t);
      }
    };
    note();
    const int exit_step =
        draw(4) == 0 ? static_cast<int>(draw(kSteps)) : kSteps;
    out.early_exits += exit_step < kSteps ? 1 : 0;
    for (int s = 0; s < exit_step; ++s) {
      if (s % kBarrierEvery == kBarrierEvery - 1) {
        release_parked();
        --active;
        step([&] { eng.barrier(50 * static_cast<TimeNs>(draw(3))); });
        ++active;
        continue;
      }
      switch (draw(8)) {
        case 0:  // up to three sync quanta: auto-syncs on the way
          step([&] { eng.charge(50 * static_cast<TimeNs>(draw(121))); });
          break;
        case 1:
          step([&] { eng.sync(); });
          break;
        case 2:
          eng.advance_unsynced(50 * static_cast<TimeNs>(draw(3)));
          step([&] {
            eng.sleep(50 * static_cast<TimeNs>(1 + draw(4)),
                      static_cast<std::int64_t>(draw(9)));
          });
          break;
        case 3:
          if (active < 2) {
            step([&] { eng.sync(); });
            break;
          }
          eng.advance_unsynced(50);
          forever[static_cast<std::size_t>(r)] = 1;
          --active;
          ++out.deadless_sleeps;
          step([&] { eng.sleep(50, Engine::kForever); });
          break;
        case 4:
          wake(pick());
          break;
        case 5: {
          const int l = locks[draw(kLocks)];
          out.contended_locks += eng.lock_held(l) ? 1 : 0;
          step([&] { eng.lock_acquire(l); });
          step([&] { eng.charge(50 * static_cast<TimeNs>(draw(60))); });
          eng.lock_release(l);
          break;
        }
        case 6:
          if (active < 2) {
            notify(pick());
            break;
          }
          waiting[static_cast<std::size_t>(r)] = 1;
          --active;
          ++out.idle_waits;
          step([&] { eng.idle_wait(); });
          if (waiting[static_cast<std::size_t>(r)]) {  // a pending notify
            waiting[static_cast<std::size_t>(r)] = 0;
            ++active;
          }
          break;
        default:
          notify(pick());
          break;
      }
    }
    release_parked();
    --active;
  });
  for (int i = 0; i < kLocks; ++i) locks.push_back(e.lock_create());
  e.run();
  out.resumes = e.resumes();
  out.order = order.h;
  Fnv1a clocks;
  for (Rank r = 0; r < nranks; ++r) {
    clocks.add(static_cast<std::uint64_t>(e.now(r)));
  }
  out.clocks = clocks.h;
  out.makespan = e.max_clock();
  return out;
}

TEST(EngineQueue, ResumeOrderMatchesParent) {
  // The order the run queue resumes ranks in on a random program; any
  // run-queue change must keep it.
  struct Pin {
    int nranks;
    std::uint64_t resumes, order, clocks;
    TimeNs makespan;
  };
  const Pin pins[] = {
      {1, 30, 7373947578680668733u, 18271021407273220542u, 37750},
      {3, 74, 1703416303343983517u, 18271477982152440974u, 39850},
      {64, 2895, 4421356795748028686u, 16625076156480809598u, 211900},
      {513, 22625, 8605971471004853286u, 14978101937899473052u, 1260850},
  };
  for (const Pin& p : pins) {
    const QueueRun got = random_program(p.nranks, 7);
    EXPECT_EQ(got.resumes, p.resumes) << p.nranks << " ranks";
    EXPECT_EQ(got.order, p.order) << p.nranks << " ranks";
    EXPECT_EQ(got.clocks, p.clocks) << p.nranks << " ranks";
    EXPECT_EQ(got.makespan, p.makespan) << p.nranks << " ranks";
    if (p.nranks >= 64) {
      EXPECT_GT(got.deadless_sleeps, 0);
      EXPECT_GT(got.idle_waits, 0);
      EXPECT_GT(got.contended_locks, 0);
      EXPECT_GT(got.early_exits, 0);
    }
  }
}

TEST(EngineQueue, FinishedBlockedAndSleepingRanksLeaveTheQueue) {
  // Even ranks return early, some before their first sync. Odd ranks
  // cycle through deadline sleeps, sleep with no deadline until a deadline
  // sleeper wakes them, or go straight to the barrier.
  constexpr int kRanks = 64;
  constexpr TimeNs kCost = 500;
  std::vector<Rank> sleepers;
  std::vector<TimeNs> left(kRanks, -1);
  int woken = 0;
  Engine e(cfg(kRanks), [&](Rank r) {
    Engine& eng = *current_engine();
    if (r % 2 == 0) {
      if (r % 4 == 0) eng.charge(100 * r);
      return;
    }
    eng.advance_unsynced(10 * r);
    switch ((r / 2) % 3) {
      case 0:
        for (int i = 0; i < 3; ++i) {
          const Engine::Slept s = eng.sleep(kDelta, 4);
          EXPECT_TRUE(s.deadline);
          EXPECT_EQ(s.polls, 4);
          eng.advance_unsynced(10);
        }
        for (Rank t : sleepers) eng.wake(t);
        break;
      case 1: {
        sleepers.push_back(r);
        const Engine::Slept s = eng.sleep(kDelta, Engine::kForever);
        EXPECT_FALSE(s.deadline);
        ++woken;
        break;
      }
      default:
        break;
    }
    eng.barrier(kCost);
    left[static_cast<std::size_t>(r)] = eng.now();
  });
  e.run();
  // 32 odd ranks: 11 deadline sleepers, 11 deadless sleepers and 10 that
  // only meet in the barrier, which released all of them at once.
  EXPECT_EQ(woken, 11);
  const TimeNs release = left[1];
  EXPECT_GT(release, kCost);
  for (Rank r = 0; r < kRanks; ++r) {
    EXPECT_EQ(left[static_cast<std::size_t>(r)], r % 2 ? release : -1)
        << "rank " << r;
  }
}

TEST(EngineQueue, WakingADeadlessSleeperResumesItOnce) {
  int sleeper_resumes = 0;
  Engine::Slept slept;
  Engine e(cfg(2), [&](Rank r) {
    Engine& eng = *current_engine();
    if (r == 0) {
      eng.advance_unsynced(200);
      eng.sync();
      eng.wake(1);
      eng.wake(1);
      eng.advance_unsynced(kDelta);
      eng.sync();
      eng.wake(1);  // finished by now
      return;
    }
    eng.advance_unsynced(kC0);
    slept = eng.sleep(kDelta, Engine::kForever);
    ++sleeper_resumes;
    EXPECT_EQ(eng.now(), 200);  // the poll keyed (200, 1) follows (200, 0)
  });
  e.run();
  EXPECT_EQ(sleeper_resumes, 1);
  EXPECT_EQ(slept.polls, 2);
  EXPECT_FALSE(slept.deadline);
  // Rank 0 at 0, 200 and 250; rank 1 at 0 and at its wake.
  EXPECT_EQ(e.resumes(), 5u);
}

TEST(Machine, PresetsResolveByName) {
  EXPECT_EQ(machine_by_name("cluster").name, "cluster2008");
  EXPECT_EQ(machine_by_name("xt4").name, "cray-xt4");
  EXPECT_EQ(machine_by_name("test").name, "test");
  EXPECT_THROW(machine_by_name("nonesuch"), ::scioto::Error);
}

TEST(Machine, HeterogeneousClusterIsHalfAndHalf) {
  MachineModel m = machine_by_name("cluster");
  EXPECT_DOUBLE_EQ(m.cpu_scale(0, 64), 1.0);
  EXPECT_DOUBLE_EQ(m.cpu_scale(31, 64), 1.0);
  // Xeon nodes are 0.4753us / 0.3158us = 1.505x slower per UTS node (§6.3).
  EXPECT_NEAR(m.cpu_scale(32, 64), 1.505, 1e-9);
  EXPECT_NEAR(m.cpu_scale(63, 64), 1.505, 1e-9);
}

TEST(Machine, TransferTimeUsesBandwidth) {
  MachineModel m;
  m.bytes_per_ns = 2.0;
  EXPECT_EQ(m.transfer_time(2000), 1000);
}

}  // namespace
}  // namespace scioto::sim
