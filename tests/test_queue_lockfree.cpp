// LockFree queue mode (Chase-Lev steal path): exhaustive interleaving
// model, pinned ABA/empty-race scenarios, and randomized conservation
// stress on the real queue.
//
// Three layers, weakest assumptions first:
//
//   1. A word-level step machine mirrors the protocol's shared-memory
//      transitions exactly -- the tagged steal_head (tag << 48 | index),
//      the split, the physical ring aliasing (slot = index % capacity) --
//      at the granularity of the real code's atomic accesses: a thief is
//      T_LOAD_RAW / T_LOAD_SPLIT(+copy) / T_CAS, an adder is A_WRITE /
//      A_CAS under the victim's lock, the owner's validated reacquire is
//      O_PUB / O_VAL. A DFS enumerates EVERY interleaving of these steps
//      and checks two oracles in each one: (a) a successful claim's
//      copied slots still equal the ring at CAS time (no stale/ABA claim
//      escapes), and (b) every task is consumed exactly once (multiset
//      conservation, including tasks the owner privatizes). The model is
//      sequentially consistent by construction; the weak-memory argument
//      that the real seq_cst annotations reduce to this machine is in
//      DESIGN.md.
//
//   2. The same DFS with the tag mechanics REMOVED must detect the
//      classic "steal n then add n returns steal_head to a value a stale
//      thief still holds" recurrence -- proving the harness has teeth,
//      i.e. that the zero-violation results above are the tag's doing and
//      not a blind oracle.
//
//   3. The real SplitQueue: deterministic sim legs (chunked multi-CAS
//      take + live set_knob chunk flip, ring wraparound conservation,
//      owner self-steal on a thin shared portion) and a real-threads
//      stress leg (suite name carries "Threads" for the CI TSan filter):
//      one victim, many thieves, remote adds re-opening the ABA window
//      mid-flight, per-thief mid-run StealChunk flips, exactly-once
//      fingerprint over all ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "control/knobs.hpp"
#include "scioto/queue.hpp"
#include "scioto/task.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using pgas::Runtime;

// ======================================================================
// Layer 1+2: the word-level step machine.
// ======================================================================

// Small on purpose: 8 physical slots and single-digit scripts keep full
// DFS enumeration in the tens of thousands of interleavings. Scenarios
// must keep the live window within kModelCap, as the real queue's
// capacity check does -- seeding more tasks than slots would alias the
// ring in the SEED, a state the protocol can never reach.
constexpr std::uint64_t kModelCap = 8;
constexpr std::uint64_t kModelBase = 1ull << 20;
constexpr int kTagShift = 48;  // mirrors SplitQueue::kShTagShift
constexpr std::uint64_t kIdxMask = (1ull << kTagShift) - 1;

constexpr std::uint64_t midx(std::uint64_t raw) { return raw & kIdxMask; }

struct World {
  // When false the adder's publishing CAS writes a plain index word --
  // the deliberately broken variant layer 2 uses to prove the oracles
  // would catch the ABA the tag exists to close.
  bool tag_on = true;

  std::uint64_t raw = kModelBase;        // tagged steal_head ("top")
  std::uint64_t split = kModelBase;      // shared/private boundary
  std::uint64_t priv_tail = kModelBase;  // owner push/pop end
  std::array<std::uint64_t, kModelCap> ring{};  // id per PHYSICAL slot

  std::uint64_t bump(std::uint64_t old_raw, std::uint64_t new_idx) const {
    if (!tag_on) return new_idx;
    return (((old_raw >> kTagShift) + 1) & 0xffff) << kTagShift | new_idx;
  }
  std::uint64_t& slot(std::uint64_t index) { return ring[index % kModelCap]; }

  // --- Thief: the bounded multi-CAS take loop at real-code atomic
  // granularity. pc 0 = load raw, 1 = load split + speculative copy,
  // 2 = publishing CAS, 3 = done. A failed CAS retries from pc 0 while
  // `retries` last (the real loop bounds this at 16).
  struct Thief {
    std::uint64_t chunk = 1;
    int retries = 1;
    int pc = 0;
    std::uint64_t loaded_raw = 0;
    std::uint64_t n = 0;
    std::array<std::uint64_t, kModelCap> copy{};
    std::uint64_t claimed = 0;   // tasks won across the whole attempt
    int cas_fails = 0;
    bool aba_defeated = false;   // CAS failed on same-index different-tag
  };

  // --- Adder: add_remote_lockfree's body. Adders hold the victim's lock
  // against EACH OTHER in the real code, so a scenario uses at most one
  // at a time; the lock does not order them against thieves, which is
  // why both steps interleave freely here. pc 0 = load raw + slot write,
  // 1 = publishing tag-bump CAS (failure rewrites at the new position),
  // 2 = done. Scenarios keep the live window under capacity, matching
  // the internal_cap_ headroom that makes the real capacity check safe.
  struct Adder {
    std::uint64_t id = 0;
    int pc = 0;
    std::uint64_t loaded_raw = 0;
  };

  // --- Owner validated split-lowering (reacquire fast path). pc 0 =
  // publish the lowered split, 1 = validation load of raw (commit or
  // restore), 2 = done. On commit the owner privatizes -- and, for the
  // conservation oracle, immediately consumes -- tasks [new_sp, old_sp).
  struct Reacq {
    std::uint64_t chunk_max = 1;
    int pc = 0;
    std::uint64_t old_sp = 0;
    std::uint64_t new_sp = 0;
    bool committed = false;
  };

  std::vector<Thief> thieves;
  std::vector<Adder> adders;
  std::vector<Reacq> reacqs;

  std::multiset<std::uint64_t> pushed;
  std::multiset<std::uint64_t> consumed;
  int stale_claims = 0;  // successful CAS whose copy != ring at CAS time
};

/// Seeds `ids` as the shared portion ([base, base+n), oldest first).
void seed_shared(World* w, const std::vector<std::uint64_t>& ids) {
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    w->slot(kModelBase + i) = ids[i];
    w->pushed.insert(ids[i]);
  }
  w->split = kModelBase + ids.size();
  w->priv_tail = w->split;
}

void thief_step(World* w, World::Thief* t) {
  switch (t->pc) {
    case 0: {  // T_LOAD_RAW
      t->loaded_raw = w->raw;
      t->pc = 1;
      return;
    }
    case 1: {  // T_LOAD_SPLIT + speculative copy
      std::uint64_t sh = midx(t->loaded_raw);
      std::uint64_t bd = w->split;
      std::uint64_t avail = bd > sh ? bd - sh : 0;
      t->n = std::min(avail, t->chunk);
      if (t->n == 0) {
        t->pc = 3;  // empty-handed
        return;
      }
      for (std::uint64_t i = 0; i < t->n; ++i) {
        t->copy[i] = w->slot(sh + i);
      }
      t->pc = 2;
      return;
    }
    case 2: {  // T_CAS
      if (w->raw == t->loaded_raw) {
        std::uint64_t sh = midx(t->loaded_raw);
        for (std::uint64_t i = 0; i < t->n; ++i) {
          if (w->slot(sh + i) != t->copy[i]) {
            w->stale_claims++;  // the oracle the tag must keep at zero
          }
          w->consumed.insert(t->copy[i]);
        }
        w->raw = t->loaded_raw + t->n;  // tag bits preserved: idx < 2^48
        t->claimed += t->n;
        t->pc = 3;
      } else {
        t->cas_fails++;
        if (midx(w->raw) == midx(t->loaded_raw)) {
          t->aba_defeated = true;  // same index, different history
        }
        t->pc = t->retries-- > 0 ? 0 : 3;
      }
      return;
    }
    default:
      return;
  }
}

void adder_step(World* w, World::Adder* a) {
  switch (a->pc) {
    case 0: {  // A_WRITE (scenarios never fill the ring: no Full path)
      a->loaded_raw = w->raw;
      w->slot(midx(a->loaded_raw) - 1) = a->id;
      a->pc = 1;
      return;
    }
    case 1: {  // A_CAS: bump the tag, move the index down
      if (w->raw == a->loaded_raw) {
        w->raw = w->bump(a->loaded_raw, midx(a->loaded_raw) - 1);
        w->pushed.insert(a->id);
        a->pc = 2;
      } else {
        a->pc = 0;  // a thief moved the window; rewrite at the new spot
      }
      return;
    }
    default:
      return;
  }
}

void reacq_step(World* w, World::Reacq* r) {
  switch (r->pc) {
    case 0: {  // O_PUB
      std::uint64_t sh = midx(w->raw);
      std::uint64_t sp = w->split;
      std::uint64_t avail = sp > sh ? sp - sh : 0;
      if (avail < 2 * r->chunk_max) {
        r->pc = 2;  // scenarios that want the thin path use a thief actor
        return;
      }
      std::uint64_t take = avail - avail / 2;
      r->old_sp = sp;
      r->new_sp = sp - take;
      w->split = r->new_sp;
      r->pc = 1;
      return;
    }
    case 1: {  // O_VAL: the chunk_max-margin check from the real code
      std::uint64_t sh2 = midx(w->raw);
      if (sh2 + r->chunk_max <= r->new_sp) {
        r->committed = true;
        // Privatized tasks are the owner's now; consume them immediately
        // so a stale thief claim overlapping them shows up as a
        // duplicate in the conservation oracle.
        for (std::uint64_t j = r->new_sp; j < r->old_sp; ++j) {
          w->consumed.insert(w->slot(j));
        }
      } else {
        w->split = r->old_sp;  // restore: raising split is just a release
      }
      r->pc = 2;
      return;
    }
    default:
      return;
  }
}

struct DfsStats {
  std::uint64_t interleavings = 0;
  std::uint64_t stale_claims = 0;
  std::uint64_t conservation_violations = 0;
  std::uint64_t aba_defeats = 0;  // thief CAS failed same-idx-new-tag
  std::uint64_t cas_fails = 0;
  // Per-actor claim totals across terminal states (coverage assertions).
  std::map<std::uint64_t, std::uint64_t> thief_claim_counts;
  std::map<std::uint64_t, std::uint64_t> reacq_commits;  // 1 = committed
};

void finish_check(const World& w, DfsStats* stats) {
  stats->interleavings++;
  stats->stale_claims += static_cast<std::uint64_t>(w.stale_claims);

  // Remaining tasks: shared [idx(raw), split) plus the still-unconsumed
  // private region. The only privatized-and-consumed span is a committed
  // reacquire's [new_sp, old_sp).
  World scratch = w;  // slot() is non-const; the copy is 100 bytes
  std::multiset<std::uint64_t> all = w.consumed;
  std::uint64_t sh = midx(w.raw);
  for (std::uint64_t j = sh; j < w.priv_tail; ++j) {
    bool owner_consumed = false;
    for (const auto& r : w.reacqs) {
      if (r.committed && j >= r.new_sp && j < r.old_sp) {
        owner_consumed = true;
      }
    }
    if (!owner_consumed) {
      all.insert(scratch.slot(j));
    }
  }
  if (all != w.pushed) {
    stats->conservation_violations++;
  }

  for (std::uint64_t i = 0; i < w.thieves.size(); ++i) {
    stats->thief_claim_counts[i] += w.thieves[i].claimed;
    stats->aba_defeats += w.thieves[i].aba_defeated ? 1 : 0;
    stats->cas_fails += static_cast<std::uint64_t>(w.thieves[i].cas_fails);
  }
  for (std::uint64_t i = 0; i < w.reacqs.size(); ++i) {
    stats->reacq_commits[i] += w.reacqs[i].committed ? 1 : 0;
  }
}

/// Enumerates EVERY interleaving of the enabled actors' next steps.
/// Every actor's steps are always enabled (the protocol never blocks),
/// so terminal states are exactly "all actors done".
void dfs(const World& w, DfsStats* stats) {
  bool any = false;
  for (std::uint64_t i = 0; i < w.thieves.size(); ++i) {
    if (w.thieves[i].pc < 3) {
      World w2 = w;
      thief_step(&w2, &w2.thieves[i]);
      dfs(w2, stats);
      any = true;
    }
  }
  for (std::uint64_t i = 0; i < w.adders.size(); ++i) {
    if (w.adders[i].pc < 2) {
      World w2 = w;
      adder_step(&w2, &w2.adders[i]);
      dfs(w2, stats);
      any = true;
    }
  }
  for (std::uint64_t i = 0; i < w.reacqs.size(); ++i) {
    if (w.reacqs[i].pc < 2) {
      World w2 = w;
      reacq_step(&w2, &w2.reacqs[i]);
      dfs(w2, stats);
      any = true;
    }
  }
  if (!any) {
    finish_check(w, stats);
  }
}

// The single-element empty race: one task exposed, the owner reclaiming
// it through the self-steal CAS path (reacquire's thin-shared fallback is
// literally steal_from_lockfree(me), so the owner IS a thief here) versus
// a remote thief. Exactly one side must win in every interleaving, and
// both outcomes must be reachable.
TEST(LockFreeModel, OwnerTakeLastVsConcurrentSteal) {
  World w;
  seed_shared(&w, {1});
  w.thieves.push_back({/*chunk=*/1, /*retries=*/1});  // remote thief
  w.thieves.push_back({/*chunk=*/1, /*retries=*/1});  // owner self-steal
  DfsStats stats;
  dfs(w, &stats);
  EXPECT_GT(stats.interleavings, 0u);
  EXPECT_EQ(stats.stale_claims, 0u);
  EXPECT_EQ(stats.conservation_violations, 0u)
      << "a contested last element was lost or executed twice";
  // Coverage: each contender wins in at least one interleaving.
  EXPECT_GT(stats.thief_claim_counts[0], 0u);
  EXPECT_GT(stats.thief_claim_counts[1], 0u);
}

// The ABA race the tag exists for: thief A snapshots (raw, split, slots),
// thief B steals a task, an adder then moves steal_head back DOWN to the
// exact index A still holds as its CAS expected value -- writing a
// different task into the physically aliased slot. Interleavings where
// that full recurrence happens must fail A's CAS on the tag; nowhere may
// a stale copy escape or a task be lost/duplicated.
TEST(LockFreeModel, AbaTagDefeatsStealAddRecurrence) {
  World w;
  seed_shared(&w, {1, 2});
  w.thieves.push_back({/*chunk=*/1, /*retries=*/0});  // A: the stale one
  w.thieves.push_back({/*chunk=*/1, /*retries=*/1});  // B
  w.adders.push_back({/*id=*/3});
  DfsStats stats;
  dfs(w, &stats);
  EXPECT_GT(stats.interleavings, 0u);
  EXPECT_EQ(stats.stale_claims, 0u)
      << "a thief published a claim over slots that no longer hold the "
         "tasks it copied";
  EXPECT_EQ(stats.conservation_violations, 0u);
  // The dangerous recurrence genuinely occurred in some interleavings --
  // and only the tag (same index, different history word) stopped it.
  EXPECT_GT(stats.aba_defeats, 0u)
      << "the enumeration never produced the steal+add index recurrence; "
         "the scenario has lost its teeth";
}

// Layer 2: the same scenario with the tag disabled (the adder's CAS
// writes a plain index) must produce detectable violations. This is what
// certifies the two oracles: zero violations above is a property of the
// protocol, not of a harness that cannot see the bug.
TEST(LockFreeModel, TagRemovedHarnessDetectsAba) {
  World w;
  w.tag_on = false;
  seed_shared(&w, {1, 2});
  w.thieves.push_back({/*chunk=*/1, /*retries=*/0});
  w.thieves.push_back({/*chunk=*/1, /*retries=*/1});
  w.adders.push_back({/*id=*/3});
  DfsStats stats;
  dfs(w, &stats);
  EXPECT_GT(stats.stale_claims + stats.conservation_violations, 0u)
      << "without the tag the model found no ABA violation -- the "
         "oracles are blind and the lockfree-mode results prove nothing";
}

// Owner validated split-lowering racing a chunked thief: the chunk_max
// margin must make the commit safe against the one stale claim that can
// land after the validation load, in every interleaving. Both the commit
// and the restore path must be exercised.
TEST(LockFreeModel, OwnerFastPathReacquireVsChunkedThief) {
  World w;
  seed_shared(&w, {1, 2, 3, 4, 5, 6});  // avail 6 >= 2 * chunk_max
  w.thieves.push_back({/*chunk=*/2, /*retries=*/1});
  w.reacqs.push_back({/*chunk_max=*/2});
  DfsStats stats;
  dfs(w, &stats);
  EXPECT_GT(stats.interleavings, 0u);
  EXPECT_EQ(stats.stale_claims, 0u);
  EXPECT_EQ(stats.conservation_violations, 0u)
      << "a privatized task was also claimed by a thief (margin too "
         "thin) or work was lost on restore";
  EXPECT_GT(stats.reacq_commits[0], 0u) << "fast path never committed";
  EXPECT_LT(stats.reacq_commits[0], stats.interleavings)
      << "restore path never exercised";
}

// Chunked multi-CAS take under interference: a width-2 thief against an
// adder that keeps moving the window down. Lost CASes must retry with
// fresh loads and fresh slots; some interleaving must land a full
// 2-task chunk and some must retry.
TEST(LockFreeModel, ChunkedMultiCasTakeWithConcurrentAdd) {
  World w;
  seed_shared(&w, {1, 2, 3});
  w.thieves.push_back({/*chunk=*/2, /*retries=*/2});
  w.adders.push_back({/*id=*/9});
  DfsStats stats;
  dfs(w, &stats);
  EXPECT_EQ(stats.stale_claims, 0u);
  EXPECT_EQ(stats.conservation_violations, 0u);
  EXPECT_GT(stats.thief_claim_counts[0], 0u);
  EXPECT_GT(stats.cas_fails, 0u) << "the multi-CAS retry leg never ran";
}

// Pinned deterministic replay of the exact ABA order, asserting the
// precise mechanism: after steal(1) + add(1) the index has RECURRED but
// the word has not, so the stale CAS fails -- and would have succeeded
// on a plain index word.
TEST(LockFreeModel, PinnedAbaSequenceFailsOnTagOnly) {
  World w;
  seed_shared(&w, {1, 2});
  w.thieves.push_back({/*chunk=*/1, /*retries=*/0});  // A, to go stale
  w.thieves.push_back({/*chunk=*/1, /*retries=*/0});  // B
  w.adders.push_back({/*id=*/3});

  thief_step(&w, &w.thieves[0]);  // A: T_LOAD_RAW
  thief_step(&w, &w.thieves[0]);  // A: T_LOAD_SPLIT + copy (copies id 1)
  thief_step(&w, &w.thieves[1]);  // B: full steal of id 1
  thief_step(&w, &w.thieves[1]);
  thief_step(&w, &w.thieves[1]);
  ASSERT_EQ(w.thieves[1].claimed, 1u);
  adder_step(&w, &w.adders[0]);  // add id 3 at the recurred index
  adder_step(&w, &w.adders[0]);
  ASSERT_EQ(w.adders[0].pc, 2);

  // The index is back where A loaded it; the raw word is not.
  EXPECT_EQ(midx(w.raw), midx(w.thieves[0].loaded_raw));
  EXPECT_NE(w.raw, w.thieves[0].loaded_raw);
  // The aliased slot now holds id 3, not the id 1 that A copied.
  EXPECT_NE(w.slot(midx(w.raw)), w.thieves[0].copy[0]);

  thief_step(&w, &w.thieves[0]);  // A: T_CAS -- must fail on the tag
  EXPECT_EQ(w.thieves[0].claimed, 0u);
  EXPECT_EQ(w.thieves[0].cas_fails, 1);
  EXPECT_TRUE(w.thieves[0].aba_defeated);
  EXPECT_EQ(w.stale_claims, 0);
}

// Long sequential walk across both wrap boundaries: the 4-slot physical
// ring wraps thousands of times and 70000 adds wrap the 16-bit tag
// itself. Each cycle adds one task (index moves down, tag bumps) and
// steals it back (index moves up); no interleaving, so every claim must
// be fresh and conservation exact throughout.
TEST(LockFreeModel, WraparoundTagAndRingSeededWalk) {
  World w;
  seed_shared(&w, {});
  constexpr std::uint64_t kCycles = 70000;  // > 2^16: tag wraps too
  for (std::uint64_t i = 0; i < kCycles; ++i) {
    World::Adder a{/*id=*/i + 1};
    while (a.pc < 2) adder_step(&w, &a);
    World::Thief t{/*chunk=*/1, /*retries=*/0};
    while (t.pc < 3) thief_step(&w, &t);
    ASSERT_EQ(t.claimed, 1u) << "cycle " << i;
    ASSERT_EQ(w.stale_claims, 0) << "cycle " << i;
  }
  EXPECT_EQ(midx(w.raw), kModelBase);  // index recurred kCycles times...
  EXPECT_EQ(w.raw >> kTagShift, kCycles % 65536);  // ...the word did not
  EXPECT_EQ(w.consumed, w.pushed);
}

// ======================================================================
// Layer 3: the real SplitQueue.
// ======================================================================

constexpr std::size_t kSlot = 16;

void make_slot(std::byte* buf, std::uint64_t id) {
  std::memset(buf, 0, kSlot);
  std::memcpy(buf, &id, sizeof(id));
}

std::uint64_t slot_id(const std::byte* buf) {
  std::uint64_t id;
  std::memcpy(&id, buf, sizeof(id));
  return id;
}

SplitQueue::Config lockfree_cfg(int chunk = 4, int chunk_max = 8,
                                std::uint64_t capacity = 4096,
                                QueueMode mode = QueueMode::LockFree) {
  SplitQueue::Config c;
  c.slot_bytes = kSlot;
  c.capacity = capacity;
  c.chunk = chunk;
  c.chunk_max = chunk_max;
  c.mode = mode;
  c.release_threshold = 4;
  return c;
}

// Chunked multi-CAS take widths obey the LIVE knob, including a
// set_knob flip between steals, and claims come off the steal end
// oldest-index-first. Low-affinity pushes enter at steal_head - 1, so
// push order 1..12 exposes 12 as the OLDEST (lowest index): exact
// deterministic steal order under sim. The locked Split mode must honour
// the queue's own KnobSet identically (the knob path is shared). Fixed
// widths, so steal-half is off: with it the last take would be 2 of 4.
TEST(LockFreeQueueSim, ChunkFlipTakesLiveWidthOldestFirst) {
  for (QueueMode mode : {QueueMode::LockFree, QueueMode::Split}) {
    SCOPED_TRACE(queue_mode_name(mode));
    testing::run_sim(2, [&](Runtime& rt) {
      SplitQueue::Config c = lockfree_cfg(/*chunk=*/3, /*chunk_max=*/8,
                                          /*capacity=*/4096, mode);
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
}

// 400 tasks through an 8-slot ring: indices lap the physical array ~50
// times on both the add (downward) and steal (upward) end. Exact id-set
// conservation after every round.
TEST(LockFreeQueueSim, WraparoundConservation) {
  testing::run_sim(2, [&](Runtime& rt) {
    SplitQueue q(rt, lockfree_cfg(/*chunk=*/4, /*chunk_max=*/4,
                                  /*capacity=*/8));
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

// Owner-side thin-shared reclaim: with one exposed task the reacquire
// falls back to self-stealing through the SAME CAS path a thief uses
// (the owner-CAS-on-top arbitration), while a deep shared portion takes
// the validated fast path. Counters separate the two.
TEST(LockFreeQueueSim, ReacquireSelfStealsThinSharedFastPathsDeep) {
  testing::run_sim(1, [&](Runtime& rt) {
    auto c = lockfree_cfg(/*chunk=*/2, /*chunk_max=*/2);
    c.release_threshold = 100;
    SplitQueue q(rt, c);
    std::byte buf[kSlot];

    // Thin: one task exposed -> CAS self-steal, re-pushed private.
    make_slot(buf, 7);
    ASSERT_TRUE(q.push_local(buf, kAffinityLow));
    ASSERT_EQ(q.shared_size(), 1u);
    ASSERT_FALSE(q.pop_local(buf));
    EXPECT_EQ(q.reacquire(), 1u);
    EXPECT_EQ(q.counters().reacquires, 1u);
    EXPECT_EQ(q.counters().reacquires_fast, 0u);
    ASSERT_TRUE(q.pop_local(buf));
    EXPECT_EQ(slot_id(buf), 7u);

    // Deep: avail 8 >= 2 * chunk_max -> validated split-lowering, no CAS.
    for (std::uint64_t id = 10; id < 18; ++id) {
      make_slot(buf, id);
      ASSERT_TRUE(q.push_local(buf, kAffinityLow));
    }
    ASSERT_EQ(q.shared_size(), 8u);
    EXPECT_EQ(q.reacquire(), 4u);  // ceil(8 / 2)
    EXPECT_EQ(q.counters().reacquires, 2u);
    EXPECT_EQ(q.counters().reacquires_fast, 1u);
    std::uint64_t got = 0, want = 0;
    while (q.pop_local(buf)) got += slot_id(buf);
    // The privatized half is the NEWEST-index half [split-4, split):
    // low-affinity pushes 10..17 landed at descending indices, so that
    // half holds ids 10..13.
    for (std::uint64_t id = 10; id < 14; ++id) want += id;
    EXPECT_EQ(got, want);
    EXPECT_EQ(q.shared_size(), 4u);
    q.destroy();
  });
}

// Real-threads conservation stress (CI TSan filter matches "Threads"):
// one victim feeding 2000 tasks, 7 thieves on the unlocked CAS path.
// Three aggravations beyond the locked-mode stress: (a) thieves re-add
// a slice of their loot back to the victim via add_remote -- each add
// moves steal_head DOWN and bumps the tag, continuously re-opening the
// ABA window against in-flight claims; (b) every thief flips its OWN
// StealChunk knob mid-run (1 <-> 4), so chunked multi-CAS takes and
// single-task takes interleave; (c) the victim races its own validated
// reacquires and CAS self-steals against everything. Exactly-once is
// checked with the count / id-sum / id-square-sum fingerprint.
TEST(LockFreeStealThreads, OneVictimManyThievesKnobFlipConservation) {
  constexpr std::uint64_t kTasks = 2000;
  constexpr int kRanks = 8;
  testing::run_threads(kRanks, [&](Runtime& rt) {
    auto c = lockfree_cfg(/*chunk=*/4, /*chunk_max=*/4);
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
      // re-add (each one spins until the shared portion reads empty and
      // its own re-add budget is spent).
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
            if (readds_left > 0 && (steals + static_cast<std::uint64_t>(
                                                 i)) % 7 == 0 &&
                q.add_remote(0, t)) {
              --readds_left;  // tag-bumping add races in-flight claims
            } else {
              record(slot_id(t));
            }
          }
          continue;
        }
        if (done->load(std::memory_order_acquire) == 1 &&
            q.peek_shared(0) == 0) {
          // Any task WE re-added was either still visible (we would have
          // stolen it back) or is now another active thief's problem --
          // and every re-adder spins here until its own view drains, so
          // the finite global re-add budget bounds the chain.
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

}  // namespace
}  // namespace scioto
