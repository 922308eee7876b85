// Tests for the split task queue: LIFO local semantics, release/reacquire
// split-pointer moves, steal correctness (no task lost or duplicated),
// affinity ordering, capacity handling, live steal-width knobs, the
// deep-victim steal width, landing in the thief's ring, ring wraparound,
// and the no-split ablation -- on both backends.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <vector>

#include "fault/fault.hpp"
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

/// Steals from `victim` with every stolen task landing in the thief's
/// ring, and returns their ids in stolen order (oldest first). The landed
/// tasks stay unpublished, so the next steal lands in the same slots.
std::vector<std::uint64_t> steal_ids(SplitQueue& q, Rank victim) {
  std::vector<std::uint64_t> ids;
  const int n = q.steal_from(victim, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(n), q.landed());
  for (std::uint64_t i = 0; i < q.landed(); ++i) {
    ids.push_back(slot_id(q.landed_task(i)));
  }
  return ids;
}

class QueueBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(QueueBackends, LocalPushPopIsLifo) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    TcStats st;
    SplitQueue q(rt, qcfg(), st);
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
    TcStats st;
    SplitQueue q(rt, qcfg(1024, /*chunk=*/4), st);
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
    TcStats st;
    SplitQueue q(rt, qcfg(), st);
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
    TcStats st;
    SplitQueue q(rt, qcfg(1024, /*chunk=*/1), st);
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
    TcStats st;
    SplitQueue q(rt, qcfg(1024, /*chunk=*/3), st);
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
      // Oldest tasks (0,1,2) move, in order.
      EXPECT_EQ(steal_ids(q, 0), (std::vector<std::uint64_t>{0, 1, 2}));
      EXPECT_EQ(q.peek_shared(0), 2u);  // 5 shared - 3 stolen
    }
    rt.barrier();
    q.destroy();
  });
}

TEST_P(QueueBackends, StealFromEmptyReturnsZero) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    TcStats st;
    SplitQueue q(rt, qcfg(), st);
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
    TcStats st;
    SplitQueue q(rt, qcfg(1024, /*chunk=*/2), st);
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
    TcStats st;
    SplitQueue q(rt, qcfg(/*cap=*/8), st);
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
    TcStats st;
    SplitQueue q(rt, qcfg(/*cap=*/16), st);
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
    TcStats st;
    SplitQueue q(rt, qcfg(), st);
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
    TcStats st;
    SplitQueue q(rt, qcfg(1024, /*chunk=*/2, QueueMode::NoSplit), st);
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
      EXPECT_EQ(steal_ids(q, 0), (std::vector<std::uint64_t>{0, 1}));
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
    TcStats st;
    SplitQueue q(rt, qcfg(1024, /*chunk=*/2), st);
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
    TcStats st;
    SplitQueue q(rt, c, st);
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
      EXPECT_EQ(steal_ids(q, 0), (std::vector<std::uint64_t>{12, 11, 10}));

      // Live flip: the thief's own KnobSet governs its next take width.
      ASSERT_TRUE(knobs.set(control::Knob::StealChunk, 5));
      EXPECT_EQ(steal_ids(q, 0),
                (std::vector<std::uint64_t>{9, 8, 7, 6, 5}));

      // Clamp: requests above chunk_max are bounded by the knob's init
      // bounds, never by luck.
      knobs.set(control::Knob::StealChunk, 99);
      EXPECT_EQ(knobs.get(control::Knob::StealChunk), 8);
      EXPECT_EQ(steal_ids(q, 0).size(), 4u);  // 4 tasks remain
    }
    rt.barrier();
    EXPECT_EQ(q.peek_shared(0), 0u);
    q.destroy();
  });
}

/// One steal by rank 1 from rank 0 on a 4-rank sim fleet, after rank 0
/// exposes `avail` tasks at its steal end and rank 1 holds `thief_depth`
/// private tasks. `first` passes an execute slot. Returns the width taken.
int one_steal_width(const SplitQueue::Config& c, std::uint64_t avail,
                    std::uint64_t thief_depth = 0, bool first = false) {
  int width = -1;
  testing::run_sim(4, [&](Runtime& rt) {
    TcStats st;
    SplitQueue q(rt, c, st);
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      // Low affinity enters the shared portion (NoSplit: the one region).
      for (std::uint64_t id = 1; id <= avail; ++id) {
        make_slot(buf, id);
        EXPECT_TRUE(q.push_local(buf, kAffinityLow));
      }
    }
    if (rt.me() == 1) {
      for (std::uint64_t id = 1; id <= thief_depth; ++id) {
        make_slot(buf, 1000 + id);
        EXPECT_TRUE(q.push_local(buf, kAffinityHigh));
      }
    }
    rt.barrier();
    if (rt.me() == 1) {
      width = q.steal_from(0, first ? buf : nullptr);
    }
    rt.barrier();
    q.destroy();
  });
  return width;
}

// A victim whose shared portion holds at least chunk * P tasks gives half,
// up to kDeepStealCap; a shallower one gives at most the chunk. Chunk 2 on
// 4 ranks puts the threshold at 8.
TEST(QueueStealWidth, DeepVictimGivesHalfFromChunkTimesRanks) {
  const SplitQueue::Config c = qcfg(1024, /*chunk=*/2);
  EXPECT_EQ(one_steal_width(c, 7), 2);    // just below chunk * P
  EXPECT_EQ(one_steal_width(c, 8), 4);    // at it
  EXPECT_EQ(one_steal_width(c, 101), 51);
  EXPECT_EQ(one_steal_width(c, 127), 64);
  EXPECT_EQ(one_steal_width(c, 300), SplitQueue::kDeepStealCap);
}

// The fixed-chunk steal and the no-split ablation keep the chunk cap: a
// NoSplit victim's whole queue is stealable, not what it chose to release.
TEST(QueueStealWidth, FixedChunkAndNoSplitKeepTheChunk) {
  SplitQueue::Config fixed = qcfg(1024, /*chunk=*/2);
  fixed.steal_half = false;
  EXPECT_EQ(one_steal_width(fixed, 300), 2);
  const SplitQueue::Config nosplit =
      qcfg(1024, /*chunk=*/2, QueueMode::NoSplit);
  EXPECT_EQ(one_steal_width(nosplit, 7), 2);
  EXPECT_EQ(one_steal_width(nosplit, 300), 2);
}

// Stolen tasks land in the thief's own ring: no more of them than its
// free room (capacity - depth) fit, plus the one an execute slot takes.
TEST(QueueStealWidth, ThiefsFreeRoomCapsTheWidth) {
  const SplitQueue::Config c = qcfg(/*cap=*/100, /*chunk=*/2);
  EXPECT_EQ(one_steal_width(c, 99, /*thief_depth=*/90), 10);
  EXPECT_EQ(one_steal_width(c, 99, /*thief_depth=*/90, /*first=*/true), 11);
  EXPECT_EQ(one_steal_width(c, 99, /*thief_depth=*/100), 0);
  EXPECT_EQ(one_steal_width(c, 99, /*thief_depth=*/10), 50);
}

// Under a fault session the victim-side transaction log holds chunk_max
// slots per thief, so a deep steal takes no more than that; with no
// headroom (chunk_max = chunk) fault-armed steals keep the chunk.
TEST(QueueStealWidth, FaultSessionCapsDeepStealsAtChunkMax) {
  fault::start(4, fault::FaultPlan{}, 1);
  SplitQueue::Config c = qcfg(1024, /*chunk=*/2);
  EXPECT_EQ(one_steal_width(c, 300), 2);
  c.chunk_max = 8;
  EXPECT_EQ(one_steal_width(c, 300), 8);
  EXPECT_EQ(one_steal_width(c, 7), 2);
  c.chunk_max = 100;
  EXPECT_EQ(one_steal_width(c, 300), SplitQueue::kDeepStealCap);
  fault::stop();
}

// The first stolen task goes to the execute slot; the rest land just above
// the thief's priv_tail (here across the physical ring's wrap point),
// invisible until publish_landed makes them private work in stolen order.
TEST(QueueStealLanding, LandedTasksPublishAboveTheThiefsTail) {
  testing::run_sim(4, [&](Runtime& rt) {
    TcStats st;
    // Internal capacity 16 + 4 + 2 * 2 = 24; the indices start at 2^32,
    // ring position 16, so the thief's slots wrap after 8.
    SplitQueue q(rt, qcfg(/*cap=*/16, /*chunk=*/2), st);
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      for (std::uint64_t id = 1; id <= 12; ++id) {  // 12 is the oldest
        make_slot(buf, id);
        ASSERT_TRUE(q.push_local(buf, kAffinityLow));
      }
    }
    if (rt.me() == 1) {
      for (std::uint64_t id = 101; id <= 103; ++id) {
        make_slot(buf, id);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
      }
    }
    rt.barrier();
    if (rt.me() == 1) {
      std::byte first[kSlot];
      ASSERT_EQ(q.steal_from(0, first), 6);  // 12 >= 2 * 4: half
      EXPECT_EQ(slot_id(first), 12u);
      ASSERT_EQ(q.landed(), 5u);
      for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(slot_id(q.landed_task(i)), 11 - i);
      }
      EXPECT_EQ(q.private_size(), 3u);  // not published yet
      ASSERT_TRUE(q.publish_landed());
      EXPECT_EQ(q.landed(), 0u);
      EXPECT_EQ(q.private_size(), 8u);
      for (std::uint64_t want : {7, 8, 9, 10, 11, 103, 102, 101}) {
        ASSERT_TRUE(q.pop_local(buf));
        EXPECT_EQ(slot_id(buf), want);
      }
      EXPECT_TRUE(q.empty());
    }
    rt.barrier();
    q.destroy();
  });
}

// 400 tasks through an 8-task queue: indices lap the physical ring many
// times at the steal end, downward for the adds and upward for the
// steals. Exact id-set conservation after every round.
TEST_P(QueueBackends, StealEndWraparoundConservation) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    TcStats st;
    SplitQueue q(rt, qcfg(/*cap=*/8, /*chunk=*/4), st);
    std::byte buf[kSlot];
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
          for (std::uint64_t id : steal_ids(q, 0)) {
            sum += id;
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
    TcStats st;
    SplitQueue q(rt, c, st);
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
        int got = q.steal_from(0, nullptr);
        ASSERT_GE(got, 0);
        if (got > 0) {
          ++steals;
          if (steals % 64 == 0) {
            // Live mid-run flip of this thief's own take width.
            knobs.set(control::Knob::StealChunk,
                      knobs.get(control::Knob::StealChunk) == 4 ? 1 : 4);
          }
          for (std::uint64_t i = 0; i < q.landed(); ++i) {
            const std::byte* t = q.landed_task(i);
            if (readds_left > 0 && (steals + i) % 7 == 0 &&
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
    TcStats st;
    SplitQueue q(rt, c, st);
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
        int n = q.steal_from(0, nullptr);
        for (std::uint64_t i = 0; i < q.landed(); ++i) {
          consume(q.landed_task(i));
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
