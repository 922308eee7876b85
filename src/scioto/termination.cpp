#include "scioto/termination.hpp"

#include <algorithm>
#include <cstddef>

#include "detect/membership.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace scioto {

namespace {

// All mailbox access goes through atomic_ref so the one-sided stores the
// runtime performs on our TdCtl are race-free against these local ops.
template <class T>
std::atomic_ref<T> aref(T& word) {
  return std::atomic_ref<T>(word);
}

}  // namespace

TerminationDetector::TerminationDetector(pgas::Runtime& rt, Config cfg,
                                         TcStats& stats)
    : rt_(rt), cfg_(cfg), stats_(stats) {
  seg_ = rt_.seg_alloc(sizeof(TdCtl));
  if (rt_.me() == 0) {
    for (Rank r = 0; r < rt_.nprocs(); ++r) {
      new (rt_.seg_ptr(seg_, r)) TdCtl();
    }
  }
  rt_.barrier();
}

void TerminationDetector::destroy() { rt_.seg_free(seg_); }

TerminationDetector::TdCtl& TerminationDetector::ctl(Rank r) {
  return *reinterpret_cast<TdCtl*>(rt_.seg_ptr(seg_, r));
}

bool TerminationDetector::pos_is_descendant(int v, int anc) {
  if (v <= anc) {
    return false;  // descendants have strictly larger heap indices
  }
  while (v > anc) {
    v = (v - 1) / 2;
  }
  return v == anc;
}

bool TerminationDetector::is_descendant(const LocalState& st, Rank v,
                                        Rank anc) const {
  if (st.epoch_seen == 0) {
    // Static tree: rank == heap position.
    return pos_is_descendant(v, anc);
  }
  int pv = -1;
  int pa = -1;
  for (std::size_t i = 0; i < st.alive.size(); ++i) {
    if (st.alive[i] == v) pv = static_cast<int>(i);
    if (st.alive[i] == anc) pa = static_cast<int>(i);
  }
  if (pv < 0 || pa < 0) {
    return false;
  }
  return pos_is_descendant(pv, pa);
}

bool TerminationDetector::maybe_resplice(LocalState& st) {
  std::uint64_t e = detect::epoch();
  if (e == st.epoch_seen) {
    return false;
  }
  Rank me = rt_.me();
  std::vector<Rank> alive = detect::alive_ranks();
  int pos = -1;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (alive[i] == me) {
      pos = static_cast<int>(i);
      break;
    }
  }
  if (pos < 0) {
    // This rank is (falsely) confirmed dead in the new epoch and has no
    // seat in the respliced tree. Keep the previous tree rather than
    // electing ourselves root-by-default: the work loop observes the same
    // verdict, fences off, and rejoins -- which bumps the epoch again
    // with us back in the alive list.
    return false;
  }
  st.epoch_seen = e;
  st.alive = std::move(alive);
  st.parent =
      pos == 0 ? kNoRank : st.alive[static_cast<std::size_t>((pos - 1) / 2)];
  st.up_slot = pos == 0 ? 0 : (pos - 1) % 2;
  for (int s = 0; s < 2; ++s) {
    std::size_t k = static_cast<std::size_t>(2 * pos + 1 + s);
    st.kids[s] = k < st.alive.size() ? st.alive[k] : kNoRank;
  }
  // Restart wave numbering in the new epoch and force our next vote black:
  // together these guarantee no all-white decision rests on votes cast
  // before the death, so termination is never declared early.
  st.wave_seen = 0;
  st.voted_wave = 0;
  st.self_black = !st.join_white;
  st.join_white = false;
  SCIOTO_EVENT(me, stats_, TreeRespliced, e, st.alive.size(), 0);
  return true;
}

void TerminationDetector::put_kids(const LocalState& st, std::size_t offset,
                                   std::uint64_t value, int what) {
  for (Rank kid : st.kids) {
    if (kid != kNoRank) {
      put_token(kid, offset, value, sizeof(std::uint64_t), what);
    }
  }
}

void TerminationDetector::put_token(Rank target, std::size_t offset,
                                    std::uint64_t value, std::size_t width,
                                    int what) {
  int retries = 0;
  rt_.put_word_reliable(seg_, target, offset, value, width, &retries);
  stats_.op_retries += static_cast<std::uint64_t>(retries);
  // Tokens go to tree neighbours and dirty-mark partners, never to this
  // rank, so the event counts one remote put.
  SCIOTO_EVENT(rt_.me(), stats_, TokenSend, target, what, width);
}

void TerminationDetector::reset_local() {
  TdCtl& my = ctl(rt_.me());
  aref(my.down_wave).store(0, std::memory_order_relaxed);
  aref(my.up[0]).store(0, std::memory_order_relaxed);
  aref(my.up[1]).store(0, std::memory_order_relaxed);
  aref(my.term_wave).store(0, std::memory_order_relaxed);
  aref(my.dirty).store(0, std::memory_order_relaxed);
  LocalState st{};
  Rank me = rt_.me();
  st.parent = me == 0 ? kNoRank : (me - 1) / 2;
  st.up_slot = me == 0 ? 0 : (me - 1) % 2;
  for (int s = 0; s < 2; ++s) {
    Rank c = 2 * me + 1 + s;
    st.kids[s] = c < rt_.nprocs() ? c : kNoRank;
  }
  state_ = std::move(st);
}

void TerminationDetector::reset() {
  rt_.barrier();
  reset_local();
  rt_.barrier();
}

void TerminationDetector::note_lb_op(Rank other) {
  LocalState& st = state_;
  st.self_black = true;

  if ((fault::active() || detect::active()) && !detect::alive(other)) {
    // A dead partner never votes again; our own black vote covers the op.
    stats_.td_marks_skipped++;
    return;
  }
  if (cfg_.color_optimization) {
    // Skip the mark if we have not voted in the newest wave we know of:
    // our own future vote will be black and forces the re-vote anyway.
    bool have_voted = st.voted_wave > 0 && st.voted_wave == st.wave_seen;
    if (!have_voted || is_descendant(st, other, rt_.me())) {
      stats_.td_marks_skipped++;
      return;
    }
  }
  put_token(other, offsetof(TdCtl, dirty), 1, sizeof(std::uint32_t),
            /*what=*/3);
  stats_.td_marks_sent++;
}

void TerminationDetector::mark_self_black() {
  state_.self_black = true;
}

void TerminationDetector::arm_join_white() {
  state_.join_white = true;
}

bool TerminationDetector::term_seen_local() {
  if (state_.terminated) {
    return true;
  }
  return aref(ctl(rt_.me()).term_wave).load(std::memory_order_acquire) != 0;
}

bool TerminationDetector::poll_term_remote() {
  Rank me = rt_.me();
  LocalState& st = state_;
  if (st.terminated) {
    return true;
  }
  std::vector<Rank> alive = detect::alive_ranks();
  if (alive.empty() || alive.front() == me) {
    return false;
  }
  std::uint64_t tw = 0;
  pgas::OpStatus pst = rt_.get_u64_with_retry(
      seg_, alive.front(), offsetof(TdCtl, term_wave), &tw);
  if (pst != pgas::OpStatus::Dropped && tw != 0) {
    aref(ctl(me).term_wave).store(tw, std::memory_order_relaxed);
    st.terminated = true;
    SCIOTO_TRACE_EVENT(me, trace::Ev::Terminate, tw, 0, 0);
    return true;
  }
  return false;
}

TerminationDetector::Mailbox TerminationDetector::mailbox() {
  TdCtl& my = ctl(rt_.me());
  Mailbox m;
  m.down_wave = aref(my.down_wave).load(std::memory_order_acquire);
  m.up[0] = aref(my.up[0]).load(std::memory_order_acquire);
  m.up[1] = aref(my.up[1]).load(std::memory_order_acquire);
  m.term_wave = aref(my.term_wave).load(std::memory_order_acquire);
  m.dirty = aref(my.dirty).load(std::memory_order_acquire);
  return m;
}

TerminationDetector::Status TerminationDetector::step() {
  Rank me = rt_.me();
  LocalState& st = state_;
  quiet_ = false;
  if (st.terminated) {
    return Status::Terminated;
  }
  rt_.charge(step_charge());
  // A resplice is not quiet, and neither is any step under the detector's
  // membership view, which other ranks move without an op aimed at this
  // one. The fault oracle's deaths wake every sleeper instead.
  const bool view = detect::active();
  bool quiet = !view;
  if ((view || fault::active()) && maybe_resplice(st)) {
    quiet = false;
  }
  TdCtl& my = ctl(me);
  ++st.steps;

  // ---- Termination broadcast ----
  std::uint64_t tw = aref(my.term_wave).load(std::memory_order_acquire);
  if (tw == 0 && st.epoch_seen > 0 && st.parent != kNoRank &&
      (st.steps & 7u) == 0) {
    // Post-resplice liveness: a decision broadcast down the old tree can
    // strand behind a dead (or already-terminated) forwarder, so poll the
    // current parent's mailbox directly now and then -- through the
    // retrying failure-aware read, so a dropped poll is repeated instead
    // of silently read as "not decided". Chained polling percolates the
    // decision down the new tree.
    quiet = false;
    std::uint64_t ptw = 0;
    pgas::OpStatus pst = rt_.get_u64_with_retry(
        seg_, st.parent, offsetof(TdCtl, term_wave), &ptw);
    if (pst != pgas::OpStatus::Dropped && ptw != 0) {
      tw = ptw;
      aref(my.term_wave).store(tw, std::memory_order_relaxed);
    }
  }
  if (tw != 0) {
    // Accepted regardless of epoch: an all-white wave certifies there was
    // globally no work, a fact later deaths cannot un-make.
    if (!st.term_forwarded) {
      st.term_forwarded = true;
      put_kids(st, offsetof(TdCtl, term_wave), tw, /*what=*/2);
    }
    st.terminated = true;
    SCIOTO_TRACE_EVENT(me, trace::Ev::Terminate, tw, 0, 0);
    return Status::Terminated;
  }

  bool root = st.parent == kNoRank;

  // ---- Down wave ----
  if (root) {
    if (st.wave_seen == st.voted_wave) {
      // Previous wave concluded (or none started): launch the next one.
      quiet = false;
      ++st.wave_seen;
      st.wave_begin = SCIOTO_METRICS_ON() ? rt_.now() : 0;
      SCIOTO_EVENT(me, stats_, WaveStart, st.wave_seen, 0, 0);
      put_kids(st, offsetof(TdCtl, down_wave),
               tag(st.epoch_seen, st.wave_seen), /*what=*/0);
    }
  } else {
    std::uint64_t dw = aref(my.down_wave).load(std::memory_order_acquire);
    if ((dw >> kEpochShift) == st.epoch_seen &&
        (dw & kWaveMask) > st.wave_seen) {
      quiet = false;
      st.wave_seen = dw & kWaveMask;
      put_kids(st, offsetof(TdCtl, down_wave),
               tag(st.epoch_seen, st.wave_seen), /*what=*/0);
    }
  }

  // ---- Up wave: vote once per wave, when idle and children reported ----
  if (st.wave_seen > st.voted_wave) {
    std::uint64_t expected = tag(st.epoch_seen, st.wave_seen);
    bool children_in = true;
    bool children_black = false;
    for (int s = 0; s < 2; ++s) {
      if (st.kids[s] == kNoRank) continue;
      std::uint64_t u = aref(my.up[s]).load(std::memory_order_acquire);
      if ((u >> 1) != expected) {
        children_in = false;
        break;
      }
      children_black = children_black || (u & 1);
    }
    if (children_in) {
      quiet = false;
      // Read the mark unconditionally: left set behind a black child, it
      // would black out the next wave too, one more per tree level.
      const bool dirty =
          aref(my.dirty).exchange(0, std::memory_order_acq_rel) != 0;
      bool black = children_black || st.self_black || dirty;
      st.self_black = false;
      st.voted_wave = st.wave_seen;
      SCIOTO_EVENT(me, stats_, Vote, st.wave_seen, black ? 1 : 0, 0);
      if (root && SCIOTO_METRICS_ON()) {
        // Root vote closes the wave it launched: wave latency = launch ->
        // all votes in (the paper's Figure 4 latency, live).
        metrics::hist_record(me, metrics::Hist::WaveNs,
                             static_cast<std::uint64_t>(std::max<TimeNs>(
                                 rt_.now() - st.wave_begin, 0)));
      }
      if (root) {
        if (!black) {
          // All-white wave: decide termination and broadcast.
          aref(my.term_wave).store(expected, std::memory_order_release);
        }
        // Black: the next step() launches a fresh wave.
      } else {
        put_token(st.parent,
                  offsetof(TdCtl, up) +
                      static_cast<std::size_t>(st.up_slot) *
                          sizeof(std::uint64_t),
                  (expected << 1) | (black ? 1u : 0u), sizeof(std::uint64_t),
                  /*what=*/1);
      }
    }
  }
  quiet_ = quiet;
  return Status::Working;
}

TcStats TerminationDetector::counters_sum() const {
  return rt_.allreduce(stats_, [](TcStats a, const TcStats& b) {
    return a += b;
  });
}

}  // namespace scioto
