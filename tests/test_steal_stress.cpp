// Steal-contention stress tests on the real-threads backend: one victim,
// N-1 thieves hammering it under both queue modes (split and no-split,
// each with blocking locked steals), with steal-half off and on. Runs under the CI TSan job (suite names carry
// "Threads" for its filter).
//
// Conservation: every task the victim produces is consumed exactly once,
// by the victim itself or by exactly one thief -- checked with an id-sum /
// id-square-sum fingerprint reduced over all ranks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "scioto/queue.hpp"
#include "scioto/task.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using pgas::Runtime;

constexpr std::size_t kSlot = 16;
constexpr int kRanks = 8;

void make_slot(std::byte* buf, std::uint64_t id) {
  std::memset(buf, 0, kSlot);
  std::memcpy(buf, &id, sizeof(id));
}

std::uint64_t slot_id(const std::byte* buf) {
  std::uint64_t id;
  std::memcpy(&id, buf, sizeof(id));
  return id;
}

/// One queue mode under stress, with steal-half off or on.
struct StressMode {
  const char* name;
  QueueMode mode;
  bool half;
};

constexpr StressMode kStressModes[] = {
    {"locked", QueueMode::Split, false},
    {"locked_half", QueueMode::Split, true},
    {"nosplit", QueueMode::NoSplit, false},
    {"nosplit_half", QueueMode::NoSplit, true},
};

SplitQueue::Config stress_cfg(const StressMode& m) {
  SplitQueue::Config c;
  c.slot_bytes = kSlot;
  c.capacity = 4096;
  c.chunk = 4;
  c.mode = m.mode;
  c.release_threshold = 4;
  c.steal_half = m.half;
  return c;
}

class StealStressModeThreads
    : public ::testing::TestWithParam<StressMode> {};

TEST_P(StealStressModeThreads, OneVictimManyThievesConservation) {
  constexpr std::uint64_t kTasks = 2000;
  testing::run_threads(kRanks, [&](Runtime& rt) {
    SplitQueue q(rt, stress_cfg(GetParam()));
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
        static_cast<std::size_t>(q.config().chunk) * kSlot);

    if (rt.me() == 0) {
      // Victim: produce kTasks, keep feeding the shared portion, consume
      // part of the stream itself (pops + reacquires race the thieves the
      // whole time).
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
    } else {
      // Thieves: steal until the victim says it is done AND its shared
      // portion is drained.
      for (;;) {
        int got = q.steal_from(0, steal_buf.data());
        if (got > 0) {
          ASSERT_LE(got, q.config().chunk);
          for (int i = 0; i < got; ++i) {
            record(slot_id(steal_buf.data() +
                           static_cast<std::size_t>(i) * kSlot));
          }
          continue;
        }
        if (done->load(std::memory_order_acquire) == 1 &&
            q.peek_shared(0) == 0) {
          break;
        }
        rt.relax();
      }
    }
    rt.barrier();

    // Exactly-once fingerprint: counts, id sum, and id square sum must all
    // match the closed forms for 1..kTasks (a dup + a loss that fool the
    // sum cannot also fool the square sum).
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

INSTANTIATE_TEST_SUITE_P(Modes, StealStressModeThreads,
                         ::testing::ValuesIn(kStressModes),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace scioto
