// KnobSet: the live, hot-swappable tuning parameters of one rank's task
// collection.
//
// Before the control plane existed, every tuning value (steal chunk,
// release threshold) was copied out of TcConfig into
// SplitQueue::Config at construction and never looked at again -- so
// post-init changes through the C API silently did nothing. KnobSet is
// the single source of truth the queue and the steal path now read
// through on every decision, which makes the values retunable while tasks
// are in flight. Each SplitQueue owns its rank's KnobSet
// (SplitQueue::knobs()), initialized from the queue's Config.
//
// Ownership discipline: a KnobSet belongs to exactly one rank and is only
// ever read or written from that rank's execution context -- the owner
// pops/releases from its own queue, and a *thief* consults its own
// KnobSet (steal width is a thief-side policy). Cross-rank visibility
// (ward inheritance after a kill, the dashboard) goes through the control
// session's published rows (control.hpp), never through another rank's
// KnobSet. That keeps the hot-path reads plain loads: no atomics, no
// fences, trivially TSan-clean.
//
// Every set() clamps to per-knob bounds fixed at init. The steal-chunk
// bound matters most: the fault-mode steal-transaction log is sized for
// `chunk_max` at queue construction, so the live chunk may never exceed it.
#pragma once

#include <cstdint>

#include "base/error.hpp"

namespace scioto::control {

enum class Knob : int {
  StealChunk,        // max tasks moved per steal / release / reacquire
  ReleaseThreshold,  // min private depth before releasing work to thieves
  VictimSetSize,     // 0 = any victim; k>0 = only the next k ranks in
                     // ring order (restricted victim set)
  kCount
};

inline constexpr int kNumKnobs = static_cast<int>(Knob::kCount);

inline const char* knob_name(Knob k) {
  switch (k) {
    case Knob::StealChunk: return "steal_chunk";
    case Knob::ReleaseThreshold: return "release_threshold";
    case Knob::VictimSetSize: return "victim_set";
    case Knob::kCount: break;
  }
  return "?";
}

/// Why a knob changed: the decision log and the trace's knob_change
/// events name it with reason_name().
enum Reason : int {
  kReasonHighCov = 0,   // sustained fleet imbalance
  kReasonInherit = 1,   // adopted a dead rank's published knobs
};

inline const char* reason_name(int r) {
  switch (r) {
    case kReasonHighCov: return "high_cov";
    case kReasonInherit: return "inherit";
  }
  return "?";
}

/// Parses a knob name as printed by knob_name(); returns false on unknown.
inline bool knob_from_name(const char* name, Knob* out) {
  for (int i = 0; i < kNumKnobs; ++i) {
    Knob k = static_cast<Knob>(i);
    const char* n = knob_name(k);
    const char* p = name;
    while (*n && *p && *n == *p) { ++n; ++p; }
    if (*n == '\0' && *p == '\0') {
      *out = k;
      return true;
    }
  }
  return false;
}

class KnobSet {
 public:
  KnobSet() = default;

  /// Fixes bounds and initial values. `chunk_max` caps the live steal
  /// chunk (buffers are sized for it); `nprocs` caps the victim set.
  void init(int chunk, int chunk_max, std::int64_t release_threshold,
            int nprocs) {
    SCIOTO_REQUIRE(chunk >= 1 && chunk_max >= chunk,
                   "knob init needs chunk >= 1 and chunk_max >= chunk");
    lo_[idx(Knob::StealChunk)] = 1;
    hi_[idx(Knob::StealChunk)] = chunk_max;
    lo_[idx(Knob::ReleaseThreshold)] = 1;
    hi_[idx(Knob::ReleaseThreshold)] = std::int64_t{1} << 32;
    lo_[idx(Knob::VictimSetSize)] = 0;
    hi_[idx(Knob::VictimSetSize)] = nprocs > 1 ? nprocs - 1 : 0;
    v_[idx(Knob::StealChunk)] = clamp(Knob::StealChunk, chunk);
    v_[idx(Knob::ReleaseThreshold)] =
        clamp(Knob::ReleaseThreshold, release_threshold);
    v_[idx(Knob::VictimSetSize)] = 0;
  }

  std::int64_t get(Knob k) const { return v_[idx(k)]; }

  std::int64_t clamp(Knob k, std::int64_t v) const {
    if (v < lo_[idx(k)]) return lo_[idx(k)];
    if (v > hi_[idx(k)]) return hi_[idx(k)];
    return v;
  }

  std::int64_t lo(Knob k) const { return lo_[idx(k)]; }
  std::int64_t hi(Knob k) const { return hi_[idx(k)]; }

  /// Clamped write; returns true iff the stored value changed.
  bool set(Knob k, std::int64_t v) {
    v = clamp(k, v);
    if (v_[idx(k)] == v) return false;
    v_[idx(k)] = v;
    return true;
  }

 private:
  static int idx(Knob k) { return static_cast<int>(k); }

  std::int64_t v_[kNumKnobs] = {};
  std::int64_t lo_[kNumKnobs] = {};
  std::int64_t hi_[kNumKnobs] = {};
};

}  // namespace scioto::control
