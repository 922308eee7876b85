// Tests for the split task queue: LIFO local semantics, release/reacquire
// split-pointer moves, steal correctness (no task lost or duplicated),
// affinity ordering, capacity handling, live steal-width knobs, ring
// wraparound, and the no-split ablation -- on both backends.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <vector>

#include "scioto/queue.hpp"
#include "scioto/task.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using pgas::BackendKind;
using pgas::Runtime;

constexpr std::size_t kSlot = 32;

SplitQueue::Config qcfg(std::uint64_t cap = 1024, int chunk = 4,
                        QueueMode mode = QueueMode::Split) {
  SplitQueue::Config c;
  c.slot_bytes = kSlot;
  c.capacity = cap;
  c.chunk = chunk;
  c.mode = mode;
  c.release_threshold = 2 * static_cast<std::uint64_t>(chunk);
  return c;
}

void make_slot(std::byte* buf, std::uint64_t id) {
  std::memset(buf, 0, kSlot);
  std::memcpy(buf, &id, sizeof(id));
}

std::uint64_t slot_id(const std::byte* buf) {
  std::uint64_t id;
  std::memcpy(&id, buf, sizeof(id));
  return id;
}

class QueueBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(QueueBackends, LocalPushPopIsLifo) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg());
    std::byte buf[kSlot];
    for (std::uint64_t i = 0; i < 10; ++i) {
      make_slot(buf, i);
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    }
    EXPECT_EQ(q.size(), 10u);
    for (std::uint64_t i = 10; i-- > 0;) {
      ASSERT_TRUE(q.pop_local(buf));
      EXPECT_EQ(slot_id(buf), i);
    }
    EXPECT_FALSE(q.pop_local(buf));
    EXPECT_TRUE(q.empty());
    q.destroy();
  });
}

TEST_P(QueueBackends, ReleaseMovesOldestTasksToShared) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/4));
    std::byte buf[kSlot];
    // Push 10; release threshold is 8, so release_maybe moves half.
    for (std::uint64_t i = 0; i < 10; ++i) {
      make_slot(buf, i);
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    }
    EXPECT_EQ(q.shared_size(), 0u);
    std::uint64_t released = q.release_maybe();
    EXPECT_EQ(released, 5u);
    EXPECT_EQ(q.shared_size(), 5u);
    EXPECT_EQ(q.private_size(), 5u);
    // Private pops still get the newest tasks.
    ASSERT_TRUE(q.pop_local(buf));
    EXPECT_EQ(slot_id(buf), 9u);
    q.destroy();
  });
}

TEST_P(QueueBackends, ReacquirePullsSharedBack) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg());
    std::byte buf[kSlot];
    for (std::uint64_t i = 0; i < 12; ++i) {
      make_slot(buf, i);
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    }
    q.release_maybe();
    // Drain the private portion.
    while (q.pop_local(buf)) {
    }
    EXPECT_EQ(q.private_size(), 0u);
    EXPECT_GT(q.shared_size(), 0u);
    std::uint64_t got = q.reacquire();
    EXPECT_GT(got, 0u);
    EXPECT_EQ(q.private_size(), got);
    ASSERT_TRUE(q.pop_local(buf));
    q.destroy();
  });
}

TEST_P(QueueBackends, LowAffinityEntersStealEnd) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/1));
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      make_slot(buf, 111);  // low affinity: should be stolen first
      ASSERT_TRUE(q.push_local(buf, kAffinityLow));
      make_slot(buf, 222);  // high affinity
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
      // Low-affinity task is immediately in the shared portion.
      EXPECT_GE(q.shared_size(), 1u);
    }
    rt.barrier();
    if (rt.me() == 1) {
      std::byte out[kSlot];
      int n = q.steal_from(0, out);
      ASSERT_EQ(n, 1);
      EXPECT_EQ(slot_id(out), 111u);  // the low-affinity one migrated
    }
    rt.barrier();
    if (rt.me() == 0) {
      ASSERT_TRUE(q.pop_local(buf));
      EXPECT_EQ(slot_id(buf), 222u);  // high-affinity stayed home
    }
    rt.barrier();
    q.destroy();
  });
}

TEST_P(QueueBackends, StealTakesChunkFromOldestEnd) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/3));
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      for (std::uint64_t i = 0; i < 10; ++i) {
        make_slot(buf, i);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
      }
      q.release_maybe();  // expose oldest half for stealing
    }
    rt.barrier();
    if (rt.me() == 1) {
      std::byte out[3 * kSlot];
      int n = q.steal_from(0, out);
      ASSERT_EQ(n, 3);
      // Oldest tasks (0,1,2) move, in order.
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(slot_id(out + i * kSlot), static_cast<std::uint64_t>(i));
      }
      EXPECT_EQ(q.peek_shared(0), 2u);  // 5 shared - 3 stolen
    }
    rt.barrier();
    q.destroy();
  });
}

TEST_P(QueueBackends, StealFromEmptyReturnsZero) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg());
    rt.barrier();
    if (rt.me() == 1) {
      std::byte out[4 * kSlot];
      EXPECT_EQ(q.peek_shared(0), 0u);
      EXPECT_EQ(q.steal_from(0, out), 0);
    }
    rt.barrier();
    q.destroy();
  });
}

TEST_P(QueueBackends, RemoteAddLandsAtStealEnd) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/2));
    std::byte buf[kSlot];
    if (rt.me() == 1) {
      make_slot(buf, 999);
      ASSERT_TRUE(q.add_remote(0, buf));
    }
    rt.barrier();
    if (rt.me() == 0) {
      // Remote adds are visible in the shared portion (stealable) and
      // reachable locally via reacquire.
      EXPECT_EQ(q.shared_size(), 1u);
      EXPECT_EQ(q.reacquire(), 1u);
      ASSERT_TRUE(q.pop_local(buf));
      EXPECT_EQ(slot_id(buf), 999u);
    }
    rt.barrier();
    q.destroy();
  });
}

TEST_P(QueueBackends, CapacityEnforced) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(/*cap=*/8));
    std::byte buf[kSlot];
    for (std::uint64_t i = 0; i < 8; ++i) {
      make_slot(buf, i);
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    }
    EXPECT_FALSE(q.push_local(buf, kAffinityHigh));
    // Draining one slot re-enables pushing.
    ASSERT_TRUE(q.pop_local(buf));
    EXPECT_TRUE(q.push_local(buf, kAffinityHigh));
    q.destroy();
  });
}

TEST_P(QueueBackends, WrapAroundPreservesContents) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(/*cap=*/16));
    std::byte buf[kSlot];
    std::uint64_t next_id = 0;
    // Cycle push/pop far past the capacity to force index wrap.
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 10; ++i) {
        make_slot(buf, next_id++);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
      }
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.pop_local(buf));
        EXPECT_EQ(slot_id(buf), next_id - 1 - static_cast<std::uint64_t>(i));
      }
    }
    EXPECT_TRUE(q.empty());
    q.destroy();
  });
}

TEST_P(QueueBackends, ResetEmptiesAllQueues) {
  testing::run(3, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg());
    std::byte buf[kSlot];
    make_slot(buf, static_cast<std::uint64_t>(rt.me()));
    ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    q.reset_collective();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.pop_local(buf));
    q.destroy();
  });
}

TEST_P(QueueBackends, NoSplitModeStillMovesTasks) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/2, QueueMode::NoSplit));
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      for (std::uint64_t i = 0; i < 6; ++i) {
        make_slot(buf, i);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
      }
      // Without split queues every task is immediately stealable.
      EXPECT_EQ(q.peek_shared(0), 6u);
    }
    rt.barrier();
    if (rt.me() == 1) {
      std::byte out[2 * kSlot];
      EXPECT_EQ(q.steal_from(0, out), 2);
      EXPECT_EQ(slot_id(out), 0u);
      EXPECT_EQ(slot_id(out + kSlot), 1u);
    }
    rt.barrier();
    if (rt.me() == 0) {
      ASSERT_TRUE(q.pop_local(buf));
      EXPECT_EQ(slot_id(buf), 5u);  // LIFO from the other end
    }
    rt.barrier();
    q.destroy();
  });
}

// A remote add lands in the shared portion: the owner sees it and a thief
// can claim it.
TEST_P(QueueBackends, RemoteAddVisibleToOwnerAndThieves) {
  testing::run(3, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/2));
    std::byte buf[kSlot];
    if (rt.me() == 1) {
      make_slot(buf, 777);
      ASSERT_TRUE(q.add_remote(0, buf));
    }
    rt.barrier();
    if (rt.me() == 0) {
      EXPECT_EQ(q.shared_size(), 1u);  // the owner sees the add
    }
    rt.barrier();
    if (rt.me() == 2) {
      std::byte out[2 * kSlot];
      int n = q.steal_from(0, out);
      ASSERT_EQ(n, 1);
      EXPECT_EQ(slot_id(out), 777u);
    }
    rt.barrier();
    EXPECT_EQ(q.peek_shared(0), 0u);
    rt.barrier();
    q.destroy();
  });
}

// Steal widths obey the thief's LIVE StealChunk knob, including a flip
// between steals, and tasks come off the steal end oldest-index-first.
// Low-affinity pushes enter at steal_head - 1, so push order 1..12
// exposes 12 as the OLDEST (lowest index). Fixed widths, so steal-half is
// off: with it the last take would be 2 of 4.
TEST_P(QueueBackends, ChunkFlipTakesLiveWidthOldestFirst) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue::Config c = qcfg(4096, /*chunk=*/3);
    c.chunk_max = 8;
    c.steal_half = false;
    SplitQueue q(rt, c);
    control::KnobSet& knobs = q.knobs();
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      for (std::uint64_t id = 1; id <= 12; ++id) {
        make_slot(buf, id);
        ASSERT_TRUE(q.push_local(buf, kAffinityLow));
      }
      ASSERT_EQ(q.shared_size(), 12u);
    }
    rt.barrier();

    if (rt.me() == 1) {
      std::vector<std::byte> out(8 * kSlot);
      ASSERT_EQ(q.steal_from(0, out.data()), 3);
      EXPECT_EQ(slot_id(out.data()), 12u);
      EXPECT_EQ(slot_id(out.data() + kSlot), 11u);
      EXPECT_EQ(slot_id(out.data() + 2 * kSlot), 10u);

      // Live flip: the thief's own KnobSet governs its next take width.
      ASSERT_TRUE(knobs.set(control::Knob::StealChunk, 5));
      ASSERT_EQ(q.steal_from(0, out.data()), 5);
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(slot_id(out.data() + static_cast<std::size_t>(i) * kSlot),
                  static_cast<std::uint64_t>(9 - i));
      }

      // Clamp: requests above chunk_max are bounded by the buffers'
      // sizing, never by luck.
      knobs.set(control::Knob::StealChunk, 99);
      EXPECT_EQ(knobs.get(control::Knob::StealChunk), 8);
      ASSERT_EQ(q.steal_from(0, out.data()), 4);  // 4 tasks remain
    }
    rt.barrier();
    EXPECT_EQ(q.peek_shared(0), 0u);
    q.destroy();
  });
}

// 400 tasks through an 8-task queue: indices lap the physical ring many
// times at the steal end, downward for the adds and upward for the
// steals. Exact id-set conservation after every round.
TEST_P(QueueBackends, StealEndWraparoundConservation) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(/*cap=*/8, /*chunk=*/4));
    std::byte buf[kSlot];
    std::vector<std::byte> out(4 * kSlot);
    std::uint64_t sum = 0, count = 0;
    for (int round = 0; round < 100; ++round) {
      if (rt.me() == 0) {
        for (int i = 0; i < 4; ++i) {
          make_slot(buf, static_cast<std::uint64_t>(round * 4 + i + 1));
          ASSERT_TRUE(q.push_local(buf, kAffinityLow));
        }
      }
      rt.barrier();
      if (rt.me() == 1) {
        while (q.peek_shared(0) > 0) {
          int got = q.steal_from(0, out.data());
          ASSERT_GE(got, 0);
          for (int i = 0; i < got; ++i) {
            sum += slot_id(out.data() + static_cast<std::size_t>(i) * kSlot);
            ++count;
          }
        }
      }
      rt.barrier();
    }
    EXPECT_EQ(rt.allreduce_sum(count), 400u);
    EXPECT_EQ(rt.allreduce_sum(sum), 400u * 401u / 2);
    q.destroy();
  });
}

// Real-threads conservation stress (CI TSan filter matches "Threads"):
// one victim feeding 2000 tasks, 7 thieves. Two aggravations beyond
// test_steal_stress: (a) thieves re-add a slice of their loot back to the
// victim via add_remote, moving steal_head DOWN while other steals are in
// flight; (b) every thief flips its OWN StealChunk knob mid-run (1 <-> 4),
// so single-task and chunked takes interleave. The victim races its own
// pops and reacquires against everything. Exactly-once is checked with
// the count / id-sum / id-square-sum fingerprint.
TEST(QueueStealThreads, OneVictimManyThievesKnobFlipConservation) {
  constexpr std::uint64_t kTasks = 2000;
  constexpr int kRanks = 8;
  testing::run_threads(kRanks, [&](Runtime& rt) {
    SplitQueue::Config c = qcfg(4096, /*chunk=*/4);
    c.release_threshold = 4;
    c.steal_half = true;
    SplitQueue q(rt, c);
    // Per-rank queue object: its KnobSet is thief-side policy, TSan-clean.
    control::KnobSet& knobs = q.knobs();
    pgas::SegId flag_seg = rt.seg_alloc(64);
    auto* done =
        reinterpret_cast<std::atomic<std::uint64_t>*>(rt.seg_ptr(flag_seg, 0));
    if (rt.me() == 0) {
      done->store(0, std::memory_order_release);
    }
    rt.barrier();

    std::uint64_t count = 0, sum = 0, sumsq = 0;
    auto record = [&](std::uint64_t id) {
      ++count;
      sum += id;
      sumsq += id * id;
    };

    std::byte buf[kSlot];
    std::vector<std::byte> steal_buf(
        static_cast<std::size_t>(q.config().chunk_max) * kSlot);

    if (rt.me() == 0) {
      for (std::uint64_t id = 1; id <= kTasks; ++id) {
        make_slot(buf, id);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
        q.release_maybe();
        if (id % 3 == 0 && q.pop_local(buf)) {
          record(slot_id(buf));
        }
      }
      while (q.size() > 0) {
        q.release_maybe();
        if (q.pop_local(buf)) {
          record(slot_id(buf));
        } else if (q.reacquire() == 0) {
          rt.relax();
        }
      }
      done->store(1, std::memory_order_release);
      // Thieves may re-add after this point; they also drain what they
      // re-add (each one spins until the shared portion reads empty).
    } else {
      std::uint64_t steals = 0;
      int readds_left = 20;  // bounded: guarantees global termination
      for (;;) {
        int got = q.steal_from(0, steal_buf.data());
        ASSERT_GE(got, 0);
        if (got > 0) {
          ++steals;
          if (steals % 64 == 0) {
            // Live mid-run flip of this thief's own take width.
            knobs.set(control::Knob::StealChunk,
                      knobs.get(control::Knob::StealChunk) == 4 ? 1 : 4);
          }
          for (int i = 0; i < got; ++i) {
            const std::byte* t =
                steal_buf.data() + static_cast<std::size_t>(i) * kSlot;
            if (readds_left > 0 &&
                (steals + static_cast<std::uint64_t>(i)) % 7 == 0 &&
                q.add_remote(0, t)) {
              --readds_left;
            } else {
              record(slot_id(t));
            }
          }
          continue;
        }
        if (done->load(std::memory_order_acquire) == 1 &&
            q.peek_shared(0) == 0) {
          // A task WE re-added was either still visible (we would have
          // stolen it back) or is now another active thief's problem;
          // every re-adder spins here until its own view drains, so the
          // finite global re-add budget bounds the chain.
          break;
        }
        rt.relax();
      }
    }
    rt.barrier();

    std::uint64_t n = rt.allreduce_sum(count);
    std::uint64_t s = rt.allreduce_sum(sum);
    std::uint64_t s2 = rt.allreduce_sum(sumsq);
    std::uint64_t want_s = kTasks * (kTasks + 1) / 2;
    std::uint64_t want_s2 = kTasks * (kTasks + 1) * (2 * kTasks + 1) / 6;
    EXPECT_EQ(n, kTasks);
    EXPECT_EQ(s, want_s);
    EXPECT_EQ(s2, want_s2);

    rt.seg_free(flag_seg);
    q.destroy();
  });
}

// Property test: under concurrent producer/thief traffic, every task is
// transferred exactly once -- nothing lost, nothing duplicated -- in both
// queue modes.
class QueueStealProperty
    : public ::testing::TestWithParam<
          std::tuple<BackendKind, int, int, QueueMode>> {};

TEST_P(QueueStealProperty, NoLossNoDuplication) {
  auto [kind, nranks, chunk, mode] = GetParam();
  constexpr std::uint64_t kTasks = 400;
  std::mutex m;
  std::set<std::uint64_t> executed;
  std::uint64_t duplicates = 0;

  testing::run(nranks, kind, [&, chunk = chunk, mode = mode](Runtime& rt) {
    auto c = qcfg(4096, chunk, mode);
    SplitQueue q(rt, c);
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      for (std::uint64_t i = 0; i < kTasks; ++i) {
        make_slot(buf, i);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
        q.release_maybe();
      }
    }
    rt.barrier();
    // Everyone (including rank 0) consumes: rank 0 pops/reacquires, others
    // steal chunks until the global count is reached.
    auto consume = [&](const std::byte* slot_buf) {
      std::lock_guard<std::mutex> g(m);
      if (!executed.insert(slot_id(slot_buf)).second) {
        ++duplicates;
      }
    };
    int idle_spins = 0;
    while (true) {
      bool progressed = false;
      if (rt.me() == 0) {
        if (q.pop_local(buf)) {
          consume(buf);
          progressed = true;
        } else if (q.reacquire() > 0) {
          progressed = true;
        }
      } else {
        std::vector<std::byte> out(static_cast<std::size_t>(chunk) * kSlot);
        int n = q.steal_from(0, out.data());
        for (int i = 0; i < n; ++i) {
          consume(out.data() + static_cast<std::size_t>(i) * kSlot);
        }
        progressed = n > 0;
      }
      if (progressed) {
        idle_spins = 0;
        continue;
      }
      {
        std::lock_guard<std::mutex> g(m);
        if (executed.size() >= kTasks) break;
      }
      rt.relax();
      // Rank 0 may have drained its private portion while tasks remain
      // shared; keep spinning -- bounded by the global count check.
      if (++idle_spins > 2000000) {
        FAIL() << "no progress: likely lost tasks";
        break;
      }
    }
    rt.barrier();
    q.destroy();
  });

  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(executed.size(), kTasks);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueStealProperty,
    ::testing::Combine(::testing::Values(BackendKind::Sim,
                                         BackendKind::Threads),
                       ::testing::Values(2, 4, 7),
                       ::testing::Values(1, 5, 16),
                       ::testing::Values(QueueMode::Split, QueueMode::NoSplit)),
    [](const auto& info) {
      const std::string mode =
          std::get<3>(info.param) == QueueMode::Split ? "split" : "nosplit";
      return scioto::testing::backend_name(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_c" +
             std::to_string(std::get<2>(info.param)) + "_" + mode;
    });

INSTANTIATE_TEST_SUITE_P(AllBackends, QueueBackends,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads),
                         [](const auto& info) {
                           return scioto::testing::backend_name(info.param);
                         });

}  // namespace
}  // namespace scioto
