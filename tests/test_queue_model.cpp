// Property/model test for the split queue on a tiny ring: exhaustively
// enumerate short sequences of owner/thief operations against a reference
// model (two std::vectors) and assert after every single transition that
//
//   * the control indices obey steal_head <= split <= priv_tail,
//   * queue occupancy never exceeds capacity,
//   * sizes of the private/shared portions match the model exactly,
//   * every operation's return value matches the model's prediction,
//   * every task that comes back out (pop or steal) carries exactly the
//     id the model says occupies that position, and every stolen task the
//     ring lands and publishes sits where the model says,
//   * after draining, nothing was lost and nothing was duplicated.
//
// The ring is deliberately minuscule (capacity 8 -> internal capacity 13
// with one rank and chunk 2). Because the indices start at
// kIndexBase = 2^32 and 2^32 mod 13 = 9, the physical ring wraps after
// only four slots of advance -- wrap-around coverage is automatic, and a
// phase-spin between sequences shifts the wrap point through the ring.
//
// Runs the enumeration with steal-half off and on. With one rank and chunk
// 2, any shared portion of two or more tasks is a deep victim (chunk * P),
// so every steal-half self-steal takes ceil(avail / 2), bounded by the
// free room of the same ring its tasks land in -- landing, publishing and
// their wrap-around are all enumerated.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <set>
#include <vector>

#include "scioto/queue.hpp"
#include "scioto/task.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using pgas::Runtime;

constexpr std::size_t kSlot = 16;
constexpr std::uint64_t kCapacity = 8;
constexpr int kChunk = 2;
constexpr std::uint64_t kThreshold = 2;

enum class Op { PushHigh, PushLow, Pop, Release, Reacquire, SelfSteal };
constexpr Op kOps[] = {Op::PushHigh, Op::PushLow,    Op::Pop,
                       Op::Release,  Op::Reacquire,  Op::SelfSteal};
constexpr int kNumOps = 6;

const char* op_name(Op op) {
  switch (op) {
    case Op::PushHigh:  return "PushHigh";
    case Op::PushLow:   return "PushLow";
    case Op::Pop:       return "Pop";
    case Op::Release:   return "Release";
    case Op::Reacquire: return "Reacquire";
    case Op::SelfSteal: return "SelfSteal";
  }
  return "?";
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

/// Reference model of one rank's split queue. Both deques hold task ids in
/// ring order: shared_[0] sits at steal_head (oldest, stolen first),
/// priv_.back() sits at priv_tail - 1 (newest, popped first).
struct Model {
  std::deque<std::uint64_t> shared_;
  std::deque<std::uint64_t> priv_;

  std::uint64_t size() const { return shared_.size() + priv_.size(); }

  bool push_high(std::uint64_t id) {
    if (size() >= kCapacity) return false;
    priv_.push_back(id);
    return true;
  }
  // The low-affinity path enters at steal_head - 1 and reserves one slot
  // of headroom (the capacity check counts the slot being claimed).
  bool push_low(std::uint64_t id) {
    if (size() + 1 >= kCapacity) return false;
    shared_.push_front(id);
    return true;
  }
  bool pop(std::uint64_t* id) {
    if (priv_.empty()) return false;
    *id = priv_.back();
    priv_.pop_back();
    return true;
  }
  std::uint64_t release_maybe() {
    if (priv_.size() <= kThreshold ||
        shared_.size() >= static_cast<std::uint64_t>(kChunk)) {
      return 0;
    }
    std::uint64_t give = priv_.size() / 2;
    // The oldest private tasks sit just above split: they become the
    // newest shared tasks.
    for (std::uint64_t i = 0; i < give; ++i) {
      shared_.push_back(priv_.front());
      priv_.pop_front();
    }
    return give;
  }
  std::uint64_t reacquire() {
    if (shared_.empty()) return 0;
    std::uint64_t avail = shared_.size();
    std::uint64_t take = avail - avail / 2;  // ceil(avail / 2)
    // The newest shared tasks (just below split) become the oldest
    // private tasks.
    for (std::uint64_t i = 0; i < take; ++i) {
      priv_.push_front(shared_.back());
      shared_.pop_back();
    }
    return take;
  }
  /// SplitQueue::steal_width on one rank: steal-half takes ceil(avail /
  /// 2), at most the chunk unless the victim is deep (avail >= chunk * 1),
  /// then at most kDeepStealCap; every steal takes at most the execute
  /// slot plus the ring's free room.
  std::uint64_t steal_width(bool half) const {
    std::uint64_t avail = shared_.size();
    const auto chunk = static_cast<std::uint64_t>(kChunk);
    std::uint64_t cap = chunk;
    if (half) {
      if (avail >= chunk) {
        cap = std::max<std::uint64_t>(chunk, SplitQueue::kDeepStealCap);
      }
      avail = (avail + 1) / 2;
    }
    const std::uint64_t room = kCapacity - size() + 1;
    return std::min({avail, cap, room});
  }
  /// Removes the n oldest shared tasks (what a steal takes) into `out`;
  /// all but the first, which runs from the execute slot, are published
  /// as private pushes in stolen order.
  void steal(std::uint64_t n, std::vector<std::uint64_t>* out) {
    for (std::uint64_t i = 0; i < n; ++i) {
      out->push_back(shared_.front());
      shared_.pop_front();
      if (i > 0) {
        priv_.push_back(out->back());
      }
    }
  }
};

SplitQueue::Config model_cfg(bool half) {
  SplitQueue::Config c;
  c.slot_bytes = kSlot;
  c.capacity = kCapacity;
  c.chunk = kChunk;
  c.release_threshold = kThreshold;
  c.steal_half = half;
  return c;
}

/// Applies one op to both queue and model, checking predictions and index
/// invariants. Records removed ids (with duplicates detection) in `seen`.
void apply_checked(SplitQueue& q, Model& m, Op op, bool half,
                   std::uint64_t* next_id,
                   std::uint64_t* pushed,
                   std::multiset<std::uint64_t>* removed,
                   const std::string& ctx) {
  std::byte buf[kSlot];
  switch (op) {
    case Op::PushHigh: {
      make_slot(buf, *next_id);
      bool want = m.push_high(*next_id);
      bool got = q.push_local(buf, kAffinityHigh);
      ASSERT_EQ(got, want) << ctx;
      if (want) ++*pushed;
      ++*next_id;
      break;
    }
    case Op::PushLow: {
      make_slot(buf, *next_id);
      bool want = m.push_low(*next_id);
      bool got = q.push_local(buf, kAffinityLow);
      ASSERT_EQ(got, want) << ctx;
      if (want) ++*pushed;
      ++*next_id;
      break;
    }
    case Op::Pop: {
      std::uint64_t want_id = 0;
      bool want = m.pop(&want_id);
      bool got = q.pop_local(buf);
      ASSERT_EQ(got, want) << ctx;
      if (want) {
        ASSERT_EQ(slot_id(buf), want_id) << ctx;
        removed->insert(want_id);
      }
      break;
    }
    case Op::Release: {
      std::uint64_t want = m.release_maybe();
      ASSERT_EQ(q.release_maybe(), want) << ctx;
      break;
    }
    case Op::Reacquire: {
      std::uint64_t want = m.reacquire();
      ASSERT_EQ(q.reacquire(), want) << ctx;
      break;
    }
    case Op::SelfSteal: {
      std::uint64_t want_n = m.steal_width(half);
      std::vector<std::uint64_t> want_ids;
      m.steal(want_n, &want_ids);
      int got = q.steal_from(q.runtime().me(), buf);
      ASSERT_GE(got, 0) << ctx;  // single rank: the lock is never busy
      ASSERT_EQ(static_cast<std::uint64_t>(got), want_n) << ctx;
      if (got == 0) break;
      ASSERT_EQ(slot_id(buf), want_ids[0]) << ctx;
      removed->insert(want_ids[0]);
      ASSERT_EQ(q.landed(), want_n - 1) << ctx;
      for (std::uint64_t i = 0; i < q.landed(); ++i) {
        ASSERT_EQ(slot_id(q.landed_task(i)), want_ids[i + 1]) << ctx;
      }
      ASSERT_TRUE(q.publish_landed()) << ctx;
      break;
    }
  }
  // Index invariants + exact size agreement after EVERY transition.
  SplitQueue::Snapshot s = q.debug_snapshot(q.runtime().me());
  ASSERT_LE(s.steal_head, s.split) << ctx;
  ASSERT_LE(s.split, s.priv_tail) << ctx;
  ASSERT_LE(s.priv_tail - s.steal_head, kCapacity) << ctx;
  ASSERT_EQ(s.split - s.steal_head, m.shared_.size()) << ctx;
  ASSERT_EQ(s.priv_tail - s.split, m.priv_.size()) << ctx;
  ASSERT_EQ(q.shared_size(), m.shared_.size()) << ctx;
  ASSERT_EQ(q.private_size(), m.priv_.size()) << ctx;
}

/// Empties queue + model, asserting every remaining task comes out with
/// the right id, then checks conservation for the whole sequence.
void drain_checked(SplitQueue& q, Model& m, std::uint64_t pushed,
                   std::multiset<std::uint64_t>* removed,
                   const std::string& ctx) {
  std::byte buf[kSlot];
  while (m.size() > 0) {
    if (!m.priv_.empty()) {
      std::uint64_t want_id = 0;
      ASSERT_TRUE(m.pop(&want_id)) << ctx;
      ASSERT_TRUE(q.pop_local(buf)) << ctx;
      ASSERT_EQ(slot_id(buf), want_id) << ctx;
      removed->insert(want_id);
    } else {
      std::uint64_t want = m.reacquire();
      ASSERT_GT(want, 0u) << ctx;
      ASSERT_EQ(q.reacquire(), want) << ctx;
    }
  }
  ASSERT_TRUE(q.empty()) << ctx;
  SplitQueue::Snapshot s = q.debug_snapshot(q.runtime().me());
  ASSERT_EQ(s.steal_head, s.split) << ctx;
  ASSERT_EQ(s.split, s.priv_tail) << ctx;
  // Conservation: every accepted push came back out exactly once.
  ASSERT_EQ(removed->size(), pushed) << ctx;
  for (auto it = removed->begin(); it != removed->end(); ++it) {
    ASSERT_EQ(removed->count(*it), 1u) << ctx << " dup id=" << *it;
  }
}

/// Advances the ring phase by 2 slots per cycle while leaving the queue
/// empty, so different `phase_cycles` values place the physical
/// wrap-around point at different logical positions.
void spin_phase(SplitQueue& q, int cycles, std::uint64_t* next_id) {
  std::byte buf[kSlot];
  for (int i = 0; i < cycles; ++i) {
    for (int j = 0; j < 4; ++j) {
      make_slot(buf, *next_id + static_cast<std::uint64_t>(j));
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    }
    *next_id += 4;
    ASSERT_EQ(q.release_maybe(), 2u);
    while (q.shared_size() > 0) {
      // Nothing is published: the landed tasks are dropped.
      ASSERT_GT(q.steal_from(q.runtime().me(), buf), 0);
    }
    while (q.pop_local(buf)) {
    }
    ASSERT_TRUE(q.empty());
  }
}

/// Enumerates every op sequence of length `len` against one knob combo,
/// starting each sequence at the given ring phase.
void run_enumeration(bool half, int len, int phase_cycles) {
  testing::run_sim(1, [&](Runtime& rt) {
    TcStats st;
    SplitQueue q(rt, model_cfg(half), st);
    std::uint64_t next_id = 1;
    long total = 1;
    for (int i = 0; i < len; ++i) total *= kNumOps;
    for (long code = 0; code < total; ++code) {
      q.reset_collective();
      spin_phase(q, phase_cycles, &next_id);
      if (::testing::Test::HasFatalFailure()) return;
      Model m;
      std::multiset<std::uint64_t> removed;
      std::uint64_t pushed = 0;
      std::string ctx;
      long c = code;
      for (int i = 0; i < len; ++i) {
        Op op = kOps[c % kNumOps];
        c /= kNumOps;
        ctx += op_name(op);
        ctx += ' ';
        apply_checked(q, m, op, half, &next_id, &pushed, &removed, ctx);
        if (::testing::Test::HasFatalFailure()) return;
      }
      drain_checked(q, m, pushed, &removed, ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
    q.destroy();
  });
}

TEST(QueueModel, ExhaustiveLength6Baseline) {
  run_enumeration(/*half=*/false, /*len=*/6, /*phase_cycles=*/0);
}

TEST(QueueModel, ExhaustiveLength6StealHalf) {
  run_enumeration(/*half=*/true, /*len=*/6, /*phase_cycles=*/1);
}

TEST(QueueModel, ExhaustiveLength4AcrossKnobsAndPhases) {
  for (bool half : {false, true}) {
    for (int phase : {0, 3, 5}) {
      run_enumeration(half, /*len=*/4, phase);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// A long random walk on the same tiny ring pushes the indices far enough
// that the physical ring wraps hundreds of times; the model must track
// every transition.
TEST(QueueModel, RandomWalkLongWrap) {
  testing::run_sim(1, [&](Runtime& rt) {
    TcStats st;
    SplitQueue q(rt, model_cfg(/*half=*/true), st);
    Model m;
    std::multiset<std::uint64_t> removed;
    std::uint64_t next_id = 1, pushed = 0;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;  // deterministic walk
    for (int step = 0; step < 20000; ++step) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      Op op = kOps[state % kNumOps];
      std::string ctx = "step " + std::to_string(step) + " " + op_name(op);
      apply_checked(q, m, op, /*half=*/true, &next_id, &pushed, &removed,
                    ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
    drain_checked(q, m, pushed, &removed, "random-walk drain");
    q.destroy();
  });
}

}  // namespace
}  // namespace scioto
