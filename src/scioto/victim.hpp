// Victim selection for the steal path: the paper's uniform draw among the
// other ranks (§5.1), refined by node bias (§8), the control plane's
// victim_set knob, and -- under fault and elastic sessions -- the live
// membership. A refinement draws from the thief's RNG stream only when
// armed, so default-config runs draw exactly one number per pick.
#pragma once

#include <cstdint>
#include <vector>

#include "base/rng.hpp"
#include "base/types.hpp"
#include "control/knobs.hpp"

namespace scioto {

class VictimPolicy {
 public:
  /// `knobs` is the thief's live knob set (victim_set is read on every
  /// pick); `rng` seeds its victim-selection stream.
  VictimPolicy(Rank me, int nprocs, int cores_per_node, double node_bias,
               const control::KnobSet& knobs, Xoshiro256 rng);

  /// Whether membership can move during this phase (a fault or elastic
  /// session is armed): picks then skip dead and parked ranks.
  void watch_membership(bool on) { watch_ = on; }
  /// Re-forms the alive pool when the membership epoch moved since the
  /// last refresh; a no-op unless membership is watched.
  void refresh();
  /// Forgets the epoch seen, so the next refresh rebuilds the pool.
  void forget() { epoch_seen_ = ~std::uint64_t{0}; }

  /// The next victim, or kNoRank when there is nobody to steal from.
  Rank pick();

 private:
  Rank pick_hot(int vset);

  const Rank me_;
  const int n_;
  const int cores_;
  const double node_bias_;
  const control::KnobSet& knobs_;
  Xoshiro256 rng_;
  bool watch_ = false;
  /// Starts at ~0 so the first refresh builds the pool.
  std::uint64_t epoch_seen_ = ~std::uint64_t{0};
  /// Every rank was alive at the last refresh: victims are drawn from
  /// every rank but me without building a list.
  bool full_view_ = true;
  /// Alive ranks other than me: the pool once the view is not full.
  std::vector<Rank> alive_others_;
};

}  // namespace scioto
