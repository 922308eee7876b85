#include "scioto/victim.hpp"

#include <algorithm>

#include "control/control.hpp"
#include "detect/membership.hpp"

namespace scioto {

VictimPolicy::VictimPolicy(Rank me, int nprocs, int cores_per_node,
                           double node_bias, const control::KnobSet& knobs,
                           Xoshiro256 rng)
    : me_(me),
      n_(nprocs),
      cores_(cores_per_node),
      node_bias_(node_bias),
      knobs_(knobs),
      rng_(rng) {}

void VictimPolicy::refresh() {
  // Membership through the detector's view (oracle fallback when
  // disarmed): the pool re-forms on every epoch bump -- deaths, rejoins
  // of falsely-suspected ranks, and elastic admissions alike. While every
  // rank is alive the view is full and pick() draws "every rank but me"
  // arithmetically, so the list is built only after a death or while
  // ranks are parked.
  if (!watch_) {
    return;
  }
  const std::uint64_t e = detect::epoch();
  if (e == epoch_seen_) {
    return;
  }
  epoch_seen_ = e;
  alive_others_.clear();
  full_view_ = detect::alive_count() == n_;
  if (full_view_) {
    return;
  }
  for (Rank r = 0; r < n_; ++r) {
    if (r != me_ && detect::alive(r)) {
      alive_others_.push_back(r);
    }
  }
}

Rank VictimPolicy::pick() {
  // §8 multicore enhancement: optionally prefer a victim sharing our
  // node, whose queue we can raid through shared memory.
  if (node_bias_ > 0 && cores_ > 1 && rng_.bernoulli(node_bias_)) {
    const Rank node_base = (me_ / cores_) * cores_;
    const int node_sz = std::min(cores_, n_ - node_base);
    if (node_sz > 1) {
      Rank victim = node_base + static_cast<Rank>(rng_.next_below(
                                    static_cast<std::uint64_t>(node_sz - 1)));
      if (victim >= me_) {
        ++victim;
      }
      if (!watch_ || detect::alive(victim)) {
        return victim;
      }
      // Node bias picked a dead or parked rank: resample below.
    }
  }
  const int vset = static_cast<int>(knobs_.get(control::Knob::VictimSetSize));
  if (vset > 0) {
    const Rank hot = pick_hot(vset);
    if (hot != kNoRank) {
      return hot;
    }
  }
  if (watch_ && !full_view_) {
    // Sample among live ranks only; stealing from the dead is the ward's
    // job (drain_dead), not the victim-selection RNG's -- and parked
    // ranks have no work to take.
    const std::size_t live = alive_others_.size();
    if (live == 0) {
      return kNoRank;  // sole survivor: nothing left to steal from
    }
    return alive_others_[static_cast<std::size_t>(
        rng_.next_below(static_cast<std::uint64_t>(live)))];
  }
  // Every rank but me. Over the ordered all-but-me list this is exactly
  // the pool draw above: list[idx] is idx < me ? idx : idx + 1.
  Rank victim =
      static_cast<Rank>(rng_.next_below(static_cast<std::uint64_t>(n_ - 1)));
  if (victim >= me_) {
    ++victim;
  }
  return victim;
}

Rank VictimPolicy::pick_hot(int vset) {
  // Restricted victim set (control plane): with the victim_set knob at
  // k > 0, aim at the k deepest ranks from the monitor digest (the
  // controller sets this under sustained imbalance -- blind uniform
  // choice finds one deep rank among n with probability 1/(n-1), and
  // every miss inflates the steal backoff). Without a digest (knob set
  // via the C API, no control session) fall back to the next k ranks in
  // ring order. A dead fallback pick returns kNoRank, and the caller
  // samples the alive pool instead.
  Rank hot[control::kMaxHotVictims];
  const int nhot = control::hot_victims(hot);
  Rank pool[control::kMaxHotVictims];
  int npool = 0;
  for (int i = 0; i < nhot && npool < vset; ++i) {
    if (hot[i] == me_ || (watch_ && !detect::alive(hot[i]))) {
      continue;
    }
    pool[npool++] = hot[i];
  }
  if (npool > 0) {
    return pool[rng_.next_below(static_cast<std::uint64_t>(npool))];
  }
  const std::uint64_t off = rng_.next_below(static_cast<std::uint64_t>(vset));
  const Rank cand = static_cast<Rank>((me_ + 1 + static_cast<Rank>(off)) % n_);
  return !watch_ || detect::alive(cand) ? cand : kNoRank;
}

}  // namespace scioto
