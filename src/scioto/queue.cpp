#include "scioto/queue.hpp"

#include <algorithm>
#include <cstring>

#include "detect/membership.hpp"
#include "metrics/metrics.hpp"
#include "scioto/task.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

namespace scioto {

const char* queue_mode_name(QueueMode mode) {
  switch (mode) {
    case QueueMode::Split:
      return "split";
    case QueueMode::NoSplit:
      return "no-split";
  }
  return "?";
}

SplitQueue::SplitQueue(pgas::Runtime& rt, Config cfg, TcStats& stats)
    : rt_(rt), cfg_(cfg), stats_(stats) {
  SCIOTO_REQUIRE(cfg_.slot_bytes >= sizeof(std::uint64_t),
                 "slot_bytes too small: " << cfg_.slot_bytes);
  SCIOTO_REQUIRE(cfg_.capacity >= 2, "capacity too small: " << cfg_.capacity);
  SCIOTO_REQUIRE(cfg_.chunk >= 1, "chunk must be >= 1, got " << cfg_.chunk);
  // chunk_max = 0 means no headroom: the layout (and so every index and
  // trace) is identical to a pre-control build. Collective by contract.
  chunk_max_ = cfg_.chunk_max > cfg_.chunk ? cfg_.chunk_max : cfg_.chunk;
  cfg_.chunk_max = chunk_max_;
  // The ReleaseThreshold knob clamps to >= 1; reject 0 rather than let the
  // clamp silently change the caller's policy.
  SCIOTO_REQUIRE(cfg_.release_threshold >= 1,
                 "release_threshold must be >= 1, got "
                     << cfg_.release_threshold);
  knobs_.init(cfg_.chunk, chunk_max_,
              static_cast<std::int64_t>(cfg_.release_threshold), rt.nprocs());
  cfg_.slot_bytes = align_up(cfg_.slot_bytes, 8);  // word-aligned slots
  ft_ = fault::active();
  // The adoption lease packs (epoch << 16) | (adopter + 1) into one CAS-able
  // word; a rank id that spills past 16 bits would corrupt the epoch field
  // the rival-ward comparison keys off. (Epochs bump only on deaths and
  // rejoins, so 48 bits cannot realistically wrap within a session.)
  SCIOTO_REQUIRE(!ft_ || rt.nprocs() < 0xffff,
                 "fault tolerance supports at most 65534 ranks: the "
                 "adoption lease packs the adopter rank into 16 bits");
  internal_cap_ = cfg_.capacity + static_cast<std::uint64_t>(rt.nprocs()) +
                  2 * static_cast<std::uint64_t>(chunk_max_);
  const std::size_t nranks = static_cast<std::size_t>(rt.nprocs());
  slots_off_ = sizeof(Ctl);
  if (ft_) {
    txn_off_ = sizeof(Ctl);
    buf_off_ = txn_off_ + nranks * sizeof(TxnRecord);
    slots_off_ = buf_off_ + nranks *
                               static_cast<std::size_t>(chunk_max_) *
                               cfg_.slot_bytes;
  }
  seg_ = rt_.seg_alloc(slots_off_ + internal_cap_ * cfg_.slot_bytes);
  if (rt_.me() == 0) {
    // Placement-initialize every rank's control block exactly once.
    for (Rank r = 0; r < rt_.nprocs(); ++r) {
      new (rt_.seg_ptr(seg_, r)) Ctl();
      if (ft_) {
        for (Rank t = 0; t < rt_.nprocs(); ++t) {
          new (rt_.seg_ptr(seg_, r) + txn_off_ +
               static_cast<std::size_t>(t) * sizeof(TxnRecord)) TxnRecord();
        }
      }
    }
  }
  locks_ = rt_.lockset_create();
  if (ft_) {
    drain_buf_.resize(static_cast<std::size_t>(chunk_max_) * cfg_.slot_bytes);
  }
  rt_.barrier();
}

void SplitQueue::destroy() { rt_.seg_free(seg_); }

SplitQueue::Ctl& SplitQueue::ctl(Rank r) {
  return *reinterpret_cast<Ctl*>(rt_.seg_ptr(seg_, r));
}

std::byte* SplitQueue::slot(Rank r, std::uint64_t index) {
  return rt_.seg_ptr(seg_, r) + slots_off_ +
         (index % internal_cap_) * cfg_.slot_bytes;
}

SplitQueue::TxnRecord& SplitQueue::txn(Rank victim, Rank thief) {
  return *reinterpret_cast<TxnRecord*>(
      rt_.seg_ptr(seg_, victim) + txn_off_ +
      static_cast<std::size_t>(thief) * sizeof(TxnRecord));
}

std::byte* SplitQueue::txn_buf(Rank victim, Rank thief) {
  return rt_.seg_ptr(seg_, victim) + buf_off_ +
         static_cast<std::size_t>(thief) *
             static_cast<std::size_t>(cfg_.chunk_max) * cfg_.slot_bytes;
}

std::uint64_t SplitQueue::steal_boundary(const Ctl& c) const {
  // unfrozen(): a dead NoSplit rank's priv_tail stays freeze-tagged after
  // adoption; the masked value is the anchored index thieves may read.
  return cfg_.mode == QueueMode::NoSplit
             ? unfrozen(c.priv_tail.load(std::memory_order_acquire))
             : c.split.load(std::memory_order_acquire);
}

std::uint64_t SplitQueue::private_size() const {
  const Ctl& c = const_cast<SplitQueue*>(this)->ctl(rt_.me());
  // Clamped: a ward freezing priv_tail mid-adoption can transiently leave
  // priv_tail below split; the difference must not wrap. The freeze tag is
  // masked off so a fenced queue reports its true (empty) private depth.
  std::uint64_t pt = unfrozen(c.priv_tail.load(std::memory_order_relaxed));
  std::uint64_t sp = c.split.load(std::memory_order_relaxed);
  return pt > sp ? pt - sp : 0;
}

std::uint64_t SplitQueue::shared_size() const {
  const Ctl& c = const_cast<SplitQueue*>(this)->ctl(rt_.me());
  std::uint64_t sp = c.split.load(std::memory_order_relaxed);
  std::uint64_t sh = c.steal_head.load(std::memory_order_relaxed);
  return sp > sh ? sp - sh : 0;
}

bool SplitQueue::push_local(const std::byte* task, int affinity) {
  switch (try_push_local(task, affinity)) {
    case PushOutcome::Ok:
      return true;
    case PushOutcome::Full:
      return false;
    case PushOutcome::Fenced:
      // Our queue was adopted while we were falsely suspected: keep the
      // task in the private stash (it is ours alone -- the ward never saw
      // it -- and re-enters after rejoin) and let the work loop observe
      // the fence. `task` never aliases the stash here: flush_overflow
      // goes through try_push_local directly.
      stash_overflow(task);
      return true;
  }
  return false;
}

SplitQueue::PushOutcome SplitQueue::try_push_local(const std::byte* task,
                                                   int affinity) {
  Rank me = rt_.me();
  Ctl& c = ctl(me);
  SCIOTO_METRIC_CTR(me, metrics::Ctr::QPushes, 1);
  TimeNs t0 = SCIOTO_METRICS_ON() ? rt_.now() : 0;

  if (cfg_.mode == QueueMode::NoSplit) {
    // No-split ablation: single fully locked region; everything enters at
    // the private end (affinity ordering needs the split design).
    rt_.lock(locks_, me);
    if (ft_ && c.fence.load(std::memory_order_acquire) != 0) {
      rt_.unlock(locks_, me);
      return PushOutcome::Fenced;
    }
    std::uint64_t pt = c.priv_tail.load(std::memory_order_relaxed);
    std::uint64_t sh = c.steal_head.load(std::memory_order_relaxed);
    if (pt - sh >= cfg_.capacity) {
      rt_.unlock(locks_, me);
      return PushOutcome::Full;
    }
    std::memcpy(slot(me, pt), task, cfg_.slot_bytes);
    c.priv_tail.store(pt + 1, std::memory_order_release);
    c.split.store(pt + 1, std::memory_order_release);
    rt_.unlock(locks_, me);
    rt_.charge(rt_.machine().local_insert);
    SCIOTO_TRACE_EVENT(me, trace::Ev::Push, affinity, 0, (pt + 1) - sh);
    metrics_owner_op(metrics::Hist::PushNs, t0);
    return PushOutcome::Ok;
  }

  if (affinity >= kAffinityHigh) {
    // Unlocked private push: thieves never touch [split, priv_tail).
    std::uint64_t pt = c.priv_tail.load(std::memory_order_relaxed);
    if (ft_ && (pt & kFrozenBit)) {
      // A ward froze the queue mid-adoption: bail before touching any
      // slot -- the ward may be copying the ring out right now.
      return PushOutcome::Fenced;
    }
    std::uint64_t sh = c.steal_head.load(std::memory_order_acquire);
    if (pt - sh >= cfg_.capacity) {
      return PushOutcome::Full;
    }
    std::memcpy(slot(me, pt), task, cfg_.slot_bytes);
    if (ft_) {
      // The CAS arbitrates against a ward freezing priv_tail mid-adoption
      // (priv_tail has no other concurrent writer): the freeze installs
      // kFrozenBit, a value no loaded index can equal, so this CAS fails
      // iff our queue was adopted out from under us -- even if the freeze
      // landed between our load above and here. The slot we wrote sits at
      // the old tail, outside the [steal_head, old priv_tail) span the
      // ward copies, so the discarded write can never tear an adopted
      // task.
      if (!c.priv_tail.compare_exchange_strong(pt, pt + 1,
                                               std::memory_order_seq_cst)) {
        return PushOutcome::Fenced;
      }
    } else {
      c.priv_tail.store(pt + 1, std::memory_order_release);
    }
    rt_.charge(rt_.machine().local_insert);
    SCIOTO_TRACE_EVENT(me, trace::Ev::Push, affinity, 0, (pt + 1) - sh);
    metrics_owner_op(metrics::Hist::PushNs, t0);
    return PushOutcome::Ok;
  }

  // Low affinity: enter at the steal end so this task migrates first.
  // The owner takes its own lock, as a remote add does, because thieves
  // move steal_head under it.
  rt_.lock(locks_, me);
  if (ft_ && c.fence.load(std::memory_order_acquire) != 0) {
    rt_.unlock(locks_, me);
    return PushOutcome::Fenced;
  }
  std::uint64_t sh = c.steal_head.load(std::memory_order_relaxed);
  std::uint64_t pt = c.priv_tail.load(std::memory_order_relaxed);
  if (pt - (sh - 1) >= cfg_.capacity) {
    rt_.unlock(locks_, me);
    return PushOutcome::Full;
  }
  std::memcpy(slot(me, sh - 1), task, cfg_.slot_bytes);
  c.steal_head.store(sh - 1, std::memory_order_seq_cst);
  rt_.unlock(locks_, me);
  rt_.charge(rt_.machine().local_insert);
  SCIOTO_TRACE_EVENT(me, trace::Ev::Push, affinity, 0, pt - (sh - 1));
  metrics_owner_op(metrics::Hist::PushNs, t0);
  return PushOutcome::Ok;
}

bool SplitQueue::pop_local(std::byte* out) {
  Rank me = rt_.me();
  Ctl& c = ctl(me);
  TimeNs t0 = SCIOTO_METRICS_ON() ? rt_.now() : 0;

  if (cfg_.mode == QueueMode::NoSplit) {
    rt_.lock(locks_, me);
    if (ft_ && c.fence.load(std::memory_order_acquire) != 0) {
      rt_.unlock(locks_, me);
      return false;  // adopted: the work loop handles the fence abort
    }
    std::uint64_t pt = c.priv_tail.load(std::memory_order_relaxed);
    std::uint64_t sh = c.steal_head.load(std::memory_order_relaxed);
    if (pt == sh) {
      rt_.unlock(locks_, me);
      return false;
    }
    std::memcpy(out, slot(me, pt - 1), cfg_.slot_bytes);
    c.priv_tail.store(pt - 1, std::memory_order_release);
    c.split.store(pt - 1, std::memory_order_release);
    rt_.unlock(locks_, me);
    rt_.charge(rt_.machine().local_get);
    SCIOTO_EVENT(me, stats_, Pop, 0, 0, (pt - 1) - sh);
    metrics_owner_op(metrics::Hist::PopNs, t0);
    return true;
  }

  std::uint64_t pt = c.priv_tail.load(std::memory_order_relaxed);
  if (ft_ && (pt & kFrozenBit)) {
    // Adopted: bail before the index arithmetic below (the tagged word
    // would read as a huge private depth) and, crucially, before the CAS
    // -- a CAS whose expected value IS the frozen word would "succeed"
    // and corrupt the freeze. The work loop observes the fence next.
    return false;
  }
  std::uint64_t sp = c.split.load(std::memory_order_relaxed);
  if (pt <= sp) {
    return false;  // private portion empty; caller should reacquire()
  }
  std::memcpy(out, slot(me, pt - 1), cfg_.slot_bytes);
  if (ft_) {
    // Arbitrates against a ward's priv_tail freeze: the freeze replaces
    // the index with a kFrozenBit-tagged word no loaded value matches, so
    // a lost CAS means the task (and the rest of our queue) now belongs
    // to the adopter -- discard the copy, report empty, and let the work
    // loop observe the fence. This is what makes "drains nothing twice"
    // hold even when the suspicion was wrong.
    if (!c.priv_tail.compare_exchange_strong(pt, pt - 1,
                                             std::memory_order_seq_cst)) {
      return false;
    }
  } else {
    c.priv_tail.store(pt - 1, std::memory_order_release);
  }
  rt_.charge(rt_.machine().local_get);
  SCIOTO_EVENT(me, stats_, Pop, 0, 0,
               (pt - 1) - c.steal_head.load(std::memory_order_relaxed));
  metrics_owner_op(metrics::Hist::PopNs, t0);
  return true;
}

std::uint64_t SplitQueue::reacquire() {
  if (cfg_.mode == QueueMode::NoSplit || shared_size() == 0) {
    return 0;  // NoSplit has no distinct portions to move between
  }
  Rank me = rt_.me();
  Ctl& c = ctl(me);
  // Lowering `split` races in-flight steals, so it needs the lock.
  rt_.lock(locks_, me);
  if (ft_ && c.fence.load(std::memory_order_acquire) != 0) {
    rt_.unlock(locks_, me);
    return 0;  // adopted: the work loop handles the fence abort
  }
  std::uint64_t sh = c.steal_head.load(std::memory_order_relaxed);
  std::uint64_t sp = c.split.load(std::memory_order_relaxed);
  std::uint64_t avail = sp - sh;
  if (avail == 0) {
    rt_.unlock(locks_, me);
    return 0;
  }
  std::uint64_t take = avail - avail / 2;  // ceil(avail / 2)
  c.split.store(sp - take, std::memory_order_release);
  rt_.unlock(locks_, me);
  SCIOTO_EVENT(me, stats_, Reacquire, take, 0,
               c.priv_tail.load(std::memory_order_relaxed) - sh);
  metrics_queue_gauges();
  return take;
}

std::uint64_t SplitQueue::release_maybe() {
  if (cfg_.mode == QueueMode::NoSplit) {
    return 0;  // everything is always exposed in the locked variant
  }
  Ctl& c = ctl(rt_.me());
  std::uint64_t priv = private_size();
  if (priv <= live_release_threshold() ||
      shared_size() >= static_cast<std::uint64_t>(live_chunk())) {
    return 0;
  }
  std::uint64_t give;
  std::uint64_t sp;
  if (ft_) {
    // Fault mode: an unlocked split raise could interleave with a ward
    // mid-adoption and fabricate a phantom private portion, so the release
    // serializes on our own lock and honours the fence like every other
    // locked owner op.
    rt_.lock(locks_, rt_.me());
    if (c.fence.load(std::memory_order_acquire) != 0) {
      rt_.unlock(locks_, rt_.me());
      return 0;
    }
    std::uint64_t pt = c.priv_tail.load(std::memory_order_relaxed);
    sp = c.split.load(std::memory_order_relaxed);
    priv = pt > sp ? pt - sp : 0;
    give = priv / 2;
    if (give == 0) {
      rt_.unlock(locks_, rt_.me());
      return 0;
    }
    c.split.store(sp + give, std::memory_order_release);
    rt_.unlock(locks_, rt_.me());
  } else {
    // Raising `split` only grows the shared portion; thieves reading the
    // old value just see fewer tasks, so no lock is needed (paper §5).
    give = priv / 2;
    sp = c.split.load(std::memory_order_relaxed);
    c.split.store(sp + give, std::memory_order_release);
  }
  SCIOTO_EVENT(rt_.me(), stats_, Release, give, 0,
               c.priv_tail.load(std::memory_order_relaxed) -
                   c.steal_head.load(std::memory_order_relaxed));
  metrics_queue_gauges();
  return give;
}

std::uint64_t SplitQueue::peek_shared(Rank victim) {
  Ctl& c = ctl(victim);
  if (victim != rt_.me()) {
    rt_.rma_charge(victim, 2 * sizeof(std::uint64_t));
  }
  std::uint64_t sh = c.steal_head.load(std::memory_order_acquire);
  std::uint64_t bd = steal_boundary(c);
  return bd > sh ? bd - sh : 0;
}

void SplitQueue::copy_out_span(Rank victim, std::uint64_t first,
                               std::uint64_t count, std::byte* out) {
  // Contiguous modulo wrap-around: at most two memcpys, one RMA charge.
  rt_.rma_charge(victim, count * cfg_.slot_bytes);
  copy_span_raw(victim, first, count, out);
}

void SplitQueue::copy_span_raw(Rank victim, std::uint64_t first,
                               std::uint64_t count, std::byte* out) {
  std::uint64_t first_mod = first % internal_cap_;
  std::uint64_t until_wrap = internal_cap_ - first_mod;
  std::uint64_t n1 = std::min(count, until_wrap);
  std::memcpy(out, slot(victim, first), n1 * cfg_.slot_bytes);
  if (n1 < count) {
    std::memcpy(out + n1 * cfg_.slot_bytes, slot(victim, first + n1),
                (count - n1) * cfg_.slot_bytes);
  }
}

std::uint64_t SplitQueue::steal_width(std::uint64_t avail) const {
  // Thief-side policy: the *caller's* live chunk and steal-half config
  // decide how much to take (the victim never constrains width beyond
  // what is visible/available).
  const auto chunk = static_cast<std::uint64_t>(live_chunk());
  if (!cfg_.steal_half) {
    return std::min(avail, chunk);
  }
  // Steal-half: take ceil(avail / 2), capped at the live chunk, which the
  // KnobSet in turn clamps to the chunk_max the caller's buffers (and the
  // fault-mode transaction log) are sized for.
  return std::min((avail + 1) / 2, chunk);
}

int SplitQueue::steal_from_locked(Rank victim, std::byte* out) {
  // The lock word is co-located with the queue's control block, so the
  // indices arrive with the lock-acquisition response -- no separate
  // round trip (this is what keeps the paper's remote ops near 5 one-way
  // latencies).
  Rank me = rt_.me();
  rt_.lock(locks_, victim);
  Ctl& c = ctl(victim);
  std::uint64_t sh = c.steal_head.load(std::memory_order_seq_cst);
  std::uint64_t bd = cfg_.mode == QueueMode::NoSplit
                         ? unfrozen(c.priv_tail.load(std::memory_order_acquire))
                         : c.split.load(std::memory_order_seq_cst);
  std::uint64_t avail = bd > sh ? bd - sh : 0;
  std::uint64_t n = steal_width(avail);
  if (ft_ && n > 0 && victim != me) {
    // Injected message truncation: the steal response carries fewer tasks
    // than requested, possibly none at all.
    int allowed = fault::truncate_steal(me, victim, static_cast<int>(n));
    if (allowed == 0) {
      rt_.unlock(locks_, victim);
      SCIOTO_EVENT(me, stats_, StealAborted, victim, 0, 0);
      return 0;
    }
    n = static_cast<std::uint64_t>(allowed);
  }
  if (n == 0) {
    rt_.unlock(locks_, victim);
    return 0;
  }
  // The copy happens under the lock: the moment steal_head moves, a
  // remote add may reuse the slot just below it.
  copy_out_span(victim, sh, n, out);
  if (ft_ && victim != me) {
    // Log the in-flight chunk victim-side before releasing the lock: if we
    // die before requeue+commit, the victim (or its ward) replays it from
    // this buffer. The ring itself cannot serve as the log -- remote adds
    // overwrite slots just below steal_head. The data already lives on the
    // victim, so only the 16-byte record publish is charged.
    std::byte* buf = txn_buf(victim, me);
    std::uint64_t first_mod = sh % internal_cap_;
    std::uint64_t n1 = std::min(n, internal_cap_ - first_mod);
    std::memcpy(buf, slot(victim, sh), n1 * cfg_.slot_bytes);
    if (n1 < n) {
      std::memcpy(buf + n1 * cfg_.slot_bytes, slot(victim, sh + n1),
                  (n - n1) * cfg_.slot_bytes);
    }
    TxnRecord& t = txn(victim, me);
    t.count.store(n, std::memory_order_relaxed);
    t.state.store(1, std::memory_order_release);
    rt_.backend().rma_charge_oneway(victim, sizeof(TxnRecord));
  }
  c.steal_head.store(sh + n, std::memory_order_seq_cst);
  rt_.unlock(locks_, victim);
  return static_cast<int>(n);
}

void SplitQueue::commit_steal(Rank victim) {
  if (!ft_ || victim == rt_.me()) {
    return;
  }
  Rank me = rt_.me();
  TxnRecord& t = txn(victim, me);
  if (t.state.load(std::memory_order_relaxed) == 0) {
    return;
  }
  int attempt = 0;
  for (;;) {
    fault::OpFate f = fault::one_sided_fate(fault::OpKind::Commit, me, victim);
    if (f.fate == fault::Fate::Fail) {
      // A lost commit would make the victim replay a chunk we already
      // requeued, so commits retry past the drop budget (finite by plan).
      stats_.op_retries++;
      rt_.charge(fault::backoff(me, attempt++));
      rt_.relax();
      continue;
    }
    if (f.fate == fault::Fate::Delay && f.delay > 0) {
      rt_.charge(f.delay);
    }
    break;
  }
  // Closing the record on a dead victim's (still readable/writable)
  // segment is exactly what keeps the ward from replaying this chunk.
  rt_.backend().rma_charge_oneway(victim, sizeof(std::uint64_t));
  t.state.store(0, std::memory_order_release);
}

std::uint64_t SplitQueue::recover_open_txns() {
  if (!ft_) {
    return 0;
  }
  Rank me = rt_.me();
  std::uint64_t total = 0;
  for (Rank t = 0; t < rt_.nprocs(); ++t) {
    TxnRecord& rec = txn(me, t);
    if (detect::alive(t)) {
      continue;  // a live thief still commits (or reclaims) itself
    }
    // Claim 1 -> 2 before copying: a falsely-suspected thief reclaiming
    // concurrently (1 -> 0) and a ward draining us both arbitrate on the
    // same word, so exactly one party replays the chunk.
    std::uint64_t expect = 1;
    if (!rec.state.compare_exchange_strong(expect, 2,
                                           std::memory_order_acq_rel)) {
      continue;
    }
    TimeNs t0 = rt_.now();
    std::uint64_t n = rec.count.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::byte* task =
          txn_buf(me, t) + static_cast<std::size_t>(i) * cfg_.slot_bytes;
      if (!push_local(task, kAffinityHigh)) {
        stash_overflow(task);
      }
    }
    rec.state.store(0, std::memory_order_release);
    total += n;
    metrics_queue_gauges();
    SCIOTO_EVENT(me, stats_, TaskRecovered, t, n, rt_.now() - t0);
  }
  return total;
}

std::uint64_t SplitQueue::drain_dead(Rank dead) {
  if (!ft_ || dead == rt_.me() || detect::alive(dead)) {
    return 0;
  }
  Rank me = rt_.me();
  Ctl& c = ctl(dead);
  // Unlocked peek first so an idle ward does not hammer the dead rank's
  // lock when there is nothing left to adopt.
  rt_.rma_charge(dead, 2 * sizeof(std::uint64_t));
  std::uint64_t sh = c.steal_head.load(std::memory_order_acquire);
  std::uint64_t pt = unfrozen(c.priv_tail.load(std::memory_order_acquire));
  bool txn_work = false;
  for (Rank t = 0; t < rt_.nprocs() && !txn_work; ++t) {
    txn_work = txn(dead, t).state.load(std::memory_order_acquire) == 1 &&
               !detect::alive(t);
  }
  if (sh >= pt && !txn_work) {
    return 0;
  }
  TimeNs t0 = rt_.now();
  std::uint64_t adopted = 0;
  // The lock serializes us against thieves that have not yet observed the
  // death, against rival wards, and -- in detector mode -- against a
  // falsely-suspected owner's locked operations.
  rt_.lock(locks_, dead);
  if (detect::alive(dead)) {
    // The "dead" rank rejoined while we waited on the lock; its queue is
    // its own again.
    rt_.unlock(locks_, dead);
    return 0;
  }
  // Lease fence: CAS our (epoch, adopter) claim into the victim's control
  // block. A falsely-suspected owner observes the fence on its next
  // acquisition and aborts instead of double-draining. If we already hold
  // this epoch's lease we re-scoop without reinstalling, so remote adds
  // that landed after the first adoption are not stranded; a rival ward's
  // same-or-newer-epoch lease means the queue is already spoken for.
  std::uint64_t ep = detect::epoch();
  std::uint64_t mine = (ep << 16) | (static_cast<std::uint64_t>(me) + 1);
  std::uint64_t cur = c.fence.load(std::memory_order_acquire);
  if (cur != mine) {
    if (cur != 0 && (cur >> 16) >= ep) {
      rt_.unlock(locks_, dead);
      return 0;
    }
    if (!c.fence.compare_exchange_strong(cur, mine,
                                         std::memory_order_acq_rel)) {
      rt_.unlock(locks_, dead);
      return 0;
    }
    rt_.backend().rma_charge_oneway(dead, sizeof(std::uint64_t));
  }
  // Freeze the queue: swinging priv_tail to the kFrozenBit-tagged anchor
  // makes every unlocked owner CAS (push pt->pt+1, pop pt->pt-1) fail --
  // in-flight ones because their pre-freeze expected value cannot match
  // the tag, future ones because the owner's re-read sees the tag and
  // bails before touching a slot. (Freezing to the bare steal_head index
  // would leave a hole: an owner confirmed dead mid-task-body could
  // re-read priv_tail==sh after the freeze, memcpy into slot sh while we
  // are copying it out, and CAS sh->sh+1 *successfully* -- torn bytes or
  // a task executed by both owner and ward.) So a falsely-suspected owner
  // can neither overwrite a slot we are copying nor execute a task we are
  // adopting; only its own fence_ack thaws the index. The RMW total order
  // on priv_tail also gives us visibility of every slot the owner
  // published before it.
  sh = c.steal_head.load(std::memory_order_acquire);
  pt = unfrozen(c.priv_tail.exchange(sh | kFrozenBit,
                                     std::memory_order_seq_cst));
  SCIOTO_CHECK_MSG(pt >= sh, "drain_dead: priv_tail " << pt
                                 << " below steal_head " << sh);
  // Adopt everything in [steal_head, priv_tail): with the owner gone the
  // private/shared distinction is moot. steal_head stays put -- the lock
  // excludes all readers -- and the queue ends low-anchored (sh = sp =
  // unfrozen(pt)) so a rejoining owner, whose fence_ack thaws priv_tail
  // back to that anchor, restarts from a trivially consistent state.
  std::byte* buf = drain_buf_.data();
  std::uint64_t idx = sh;
  while (idx < pt) {
    // Batch by the buffer's capacity (chunk_max), not the live policy
    // chunk: adoption drains everything regardless of steal tuning.
    std::uint64_t n = std::min<std::uint64_t>(
        pt - idx, static_cast<std::uint64_t>(chunk_max_));
    copy_out_span(dead, idx, n, buf);
    idx += n;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::byte* task = buf + static_cast<std::size_t>(i) * cfg_.slot_bytes;
      if (!push_local(task, kAffinityHigh)) {
        stash_overflow(task);
      }
      ++adopted;
    }
  }
  c.split.store(sh, std::memory_order_release);
  // Orphaned in-flight steals whose thief also died: nobody else will
  // replay them. Chunks with a live thief are left alone -- that thief
  // still requeues and commits them itself. The 1->2 claim arbitrates
  // against a falsely-suspected thief reclaiming (2->0 on our side wins;
  // its 1->0 reclaim wins) so each chunk is replayed exactly once.
  for (Rank t = 0; t < rt_.nprocs(); ++t) {
    TxnRecord& rec = txn(dead, t);
    if (detect::alive(t)) {
      continue;
    }
    std::uint64_t expect = 1;
    if (!rec.state.compare_exchange_strong(expect, 2,
                                           std::memory_order_acq_rel)) {
      continue;
    }
    std::uint64_t n = rec.count.load(std::memory_order_relaxed);
    rt_.rma_charge(dead, n * cfg_.slot_bytes);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::byte* task =
          txn_buf(dead, t) + static_cast<std::size_t>(i) * cfg_.slot_bytes;
      if (!push_local(task, kAffinityHigh)) {
        stash_overflow(task);
      }
      ++adopted;
    }
    rec.state.store(0, std::memory_order_release);
  }
  rt_.unlock(locks_, dead);
  if (adopted > 0) {
    metrics_queue_gauges();
    SCIOTO_EVENT(me, stats_, TaskRecovered, dead, adopted, rt_.now() - t0);
  }
  return adopted;
}

std::uint64_t SplitQueue::fence_ack() {
  if (!ft_) {
    return 0;
  }
  Rank me = rt_.me();
  Ctl& c = ctl(me);
  // Take our own lock unconditionally -- even when the fence currently
  // reads 0 -- and keep it across the clear, the thaw, AND the membership
  // rejoin. A ward that passed its under-lock alive() re-check serializes
  // here: either its fence install happened before we got the lock (we
  // clear it below) or it acquires the lock after rejoin() marked us
  // alive again and its re-check bails. An unlocked fence==0 early-out
  // followed by a rejoin outside the lock leaves a fatal window: the ward
  // installs its fence just after our read, we rejoin, and -- being alive
  // -- we never come back to clear it, so pops fail, reacquire returns 0,
  // and the stash counts as live work forever (termination hangs).
  rt_.lock(locks_, me);
  std::uint64_t old = c.fence.exchange(0, std::memory_order_acq_rel);
  std::uint64_t pt = c.priv_tail.load(std::memory_order_relaxed);
  if (pt & kFrozenBit) {
    // Thaw: restore the low anchor the adopter's freeze tagged (it left
    // sh = split = unfrozen(priv_tail)), re-enabling our unlocked ops.
    c.priv_tail.store(unfrozen(pt), std::memory_order_release);
  }
  if (detect::active() && !detect::alive(me)) {
    detect::rejoin(me);
  }
  rt_.unlock(locks_, me);
  return old;
}

bool SplitQueue::reclaim_txn(Rank victim) {
  Rank me = rt_.me();
  if (!ft_ || victim == me) {
    return false;
  }
  TxnRecord& rec = txn(victim, me);
  // 1 -> 0: the chunk is still ours (no ward claimed it while we were
  // presumed dead). Any other state means a ward won the 1 -> 2 claim (or
  // already finished replaying it) and our copy must be discarded.
  std::uint64_t expect = 1;
  bool won = rec.state.compare_exchange_strong(expect, 0,
                                               std::memory_order_acq_rel);
  rt_.backend().rma_charge_oneway(victim, sizeof(std::uint64_t));
  return won;
}

void SplitQueue::stash_overflow(const std::byte* task) {
  const std::size_t n = cfg_.slot_bytes;
  // Alias-safe append: if `task` points into the stash's own storage, a
  // plain insert() could reallocate and then copy from freed memory. Grow
  // first, then copy by offset.
  const std::byte* base = overflow_.data();
  const std::size_t old_size = overflow_.size();
  const bool aliases = std::less_equal<const std::byte*>{}(base, task) &&
                       std::less<const std::byte*>{}(task, base + old_size);
  const std::size_t off = aliases ? static_cast<std::size_t>(task - base) : 0;
  overflow_.resize(old_size + n);
  std::memcpy(overflow_.data() + old_size,
              aliases ? overflow_.data() + off : task, n);
}

bool SplitQueue::overflow_pending() const {
  return ft_ && !overflow_.empty();
}

std::uint64_t SplitQueue::flush_overflow() {
  if (!ft_) {
    return 0;
  }
  std::uint64_t moved = 0;
  while (!overflow_.empty()) {
    const std::byte* task =
        overflow_.data() + overflow_.size() - cfg_.slot_bytes;
    // try_push_local, not push_local: the stash-on-fence fallback would
    // append a copy of the very task we are flushing (reading from the
    // stash while growing it) and report success, so the loop would re-flush
    // the identical task forever. A Fenced outcome instead leaves the
    // task stashed until after rejoin; Full leaves it for a later pass.
    if (try_push_local(task, kAffinityHigh) != PushOutcome::Ok) {
      break;
    }
    overflow_.resize(overflow_.size() - cfg_.slot_bytes);
    ++moved;
  }
  return moved;
}

int SplitQueue::steal_from(Rank victim, std::byte* out) {
  SCIOTO_EVENT(rt_.me(), stats_, StealAttempt, victim, 0, 0);
  TimeNs t0 = SCIOTO_METRICS_ON() ? rt_.now() : 0;
  int n = steal_from_locked(victim, out);
  if (n > 0) {
    SCIOTO_EVENT(rt_.me(), stats_, StealOk, victim, n, 0);
    if (cfg_.lineage_off != 0 && victim != rt_.me()) {
      // The thief stamps the migration into its landed copy (the
      // victim's slots are dead or replayable either way): one hop bump
      // and one MigrateEdge per task, so per-task hop counts and the
      // steal matrix reconcile one-for-one. A rank stealing from itself
      // migrates nothing, so it stays out of the lineage stream.
      for (int i = 0; i < n; ++i) {
        std::byte* slot =
            out + static_cast<std::size_t>(i) * cfg_.slot_bytes;
        trace::lineage::LineageRec rec;
        std::memcpy(&rec, slot + cfg_.lineage_off, sizeof(rec));
        rec.hops += 1;
        std::memcpy(slot + cfg_.lineage_off, &rec, sizeof(rec));
        SCIOTO_TRACE_EVENT(rt_.me(), trace::Ev::MigrateEdge, victim,
                           rec.hops, rec.id);
      }
    }
    if (SCIOTO_METRICS_ON()) {
      // Attempt -> tasks landed in our buffer; the thief's own gauges are
      // untouched (the stolen chunk is not in its queue yet).
      metrics::hist_record(rt_.me(), metrics::Hist::StealNs,
                           static_cast<std::uint64_t>(
                               std::max<TimeNs>(rt_.now() - t0, 0)));
    }
  } else {
    SCIOTO_EVENT(rt_.me(), stats_, StealFail, victim, 0, 0);
  }
  return n;
}

bool SplitQueue::add_remote(Rank target, const std::byte* task) {
  SCIOTO_REQUIRE(target != rt_.me(), "add_remote to self; use push_local");
  // As in steal_from: the control block rides along with the lock grant.
  rt_.lock(locks_, target);
  Ctl& c = ctl(target);
  std::uint64_t sh = c.steal_head.load(std::memory_order_acquire);
  // unfrozen(): an add racing a dead target's adoption (alive-check then
  // death) must not misread the freeze tag as a full queue.
  std::uint64_t pt = unfrozen(c.priv_tail.load(std::memory_order_acquire));
  if (pt - (sh - 1) >= cfg_.capacity) {
    rt_.unlock(locks_, target);
    return false;
  }
  rt_.rma_charge(target, cfg_.slot_bytes);
  std::memcpy(slot(target, sh - 1), task, cfg_.slot_bytes);
  c.steal_head.store(sh - 1, std::memory_order_seq_cst);
  rt_.unlock(locks_, target);
  SCIOTO_EVENT(rt_.me(), stats_, RemoteAdd, target, 0, 0);
  return true;
}

std::uint64_t SplitQueue::snapshot_local(std::vector<std::byte>& out) {
  Rank me = rt_.me();
  Ctl& c = ctl(me);
  std::uint64_t sh = c.steal_head.load(std::memory_order_acquire);
  std::uint64_t pt = unfrozen(c.priv_tail.load(std::memory_order_acquire));
  std::uint64_t n = pt > sh ? pt - sh : 0;
  std::size_t base = out.size();
  out.resize(base + static_cast<std::size_t>(n) * cfg_.slot_bytes);
  if (n > 0) {
    copy_span_raw(me, sh, n, out.data() + base);
  }
  out.insert(out.end(), overflow_.begin(), overflow_.end());
  return n + static_cast<std::uint64_t>(overflow_.size() / cfg_.slot_bytes);
}

SplitQueue::Snapshot SplitQueue::debug_snapshot(Rank r) {
  Ctl& c = ctl(r);
  Snapshot s;
  s.steal_head = c.steal_head.load(std::memory_order_seq_cst);
  s.split = c.split.load(std::memory_order_seq_cst);
  s.priv_tail = c.priv_tail.load(std::memory_order_seq_cst);
  return s;
}

void SplitQueue::metrics_owner_op(metrics::Hist h, TimeNs t0) {
  if (!SCIOTO_METRICS_ON()) {
    return;
  }
  // Under sim this measures the op's charged virtual time (lock waits
  // included); under threads, actual elapsed wall time.
  metrics::hist_record(rt_.me(), h,
                       static_cast<std::uint64_t>(
                           std::max<TimeNs>(rt_.now() - t0, 0)));
  metrics_queue_gauges();
}

void SplitQueue::metrics_queue_gauges() {
  if (!SCIOTO_METRICS_ON()) {
    return;
  }
  Rank me = rt_.me();
  Ctl& c = ctl(me);
  std::uint64_t pt = unfrozen(c.priv_tail.load(std::memory_order_relaxed));
  std::uint64_t sp = c.split.load(std::memory_order_relaxed);
  std::uint64_t sh = c.steal_head.load(std::memory_order_relaxed);
  metrics::gauge_set(me, metrics::Gauge::QueueDepth, pt > sh ? pt - sh : 0);
  metrics::gauge_set(me, metrics::Gauge::QueueShared, sp > sh ? sp - sh : 0);
  // Split position relative to the ring origin: how far the split point
  // has travelled this phase (monotone except for reacquires).
  metrics::gauge_set(me, metrics::Gauge::QueueSplit,
                     sp > kIndexBase ? sp - kIndexBase : 0);
}

void SplitQueue::reset_collective() {
  rt_.barrier();
  Ctl& c = ctl(rt_.me());
  c.steal_head.store(kIndexBase, std::memory_order_relaxed);
  c.split.store(kIndexBase, std::memory_order_relaxed);
  c.priv_tail.store(kIndexBase, std::memory_order_relaxed);
  c.fence.store(0, std::memory_order_relaxed);
  if (ft_) {
    for (Rank t = 0; t < rt_.nprocs(); ++t) {
      txn(rt_.me(), t).state.store(0, std::memory_order_relaxed);
      txn(rt_.me(), t).count.store(0, std::memory_order_relaxed);
    }
    overflow_.clear();
  }
  rt_.barrier();
}

}  // namespace scioto
