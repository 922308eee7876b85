// The elastic session's side of the task-collection work loop: parking,
// admission, checkpoint quiesce and restore (protocol: elastic.hpp and
// DESIGN.md §11). Compiled into scioto_core, since it drives a collection's
// queue and termination detector; the join and checkpoint schedule it
// consults lives in scioto_elastic below pgas.
#pragma once

#include <cstdint>
#include <string>

#include "scioto/task_collection.hpp"

namespace scioto {

class ElasticLoop final : public LoopHook {
 public:
  /// Collective: allocates the elastic control patch (join requests,
  /// quiesce arrivals, checkpoint progress) on every rank.
  explicit ElasticLoop(TaskCollection& tc);
  /// Collective: frees the patch.
  void destroy();

  /// Phase entry: the collective restore (once per collection, when a
  /// restore path is configured), then -- on a parked rank -- the wait
  /// for admission. Returns false when the phase ended while this rank
  /// was still parked.
  bool enter();
  /// Phase exit: publishes the phase-over sentinel.
  void leave();
  /// Re-zeroes this rank's protocol words (tc_reset, behind its barriers).
  void reset();

  /// The elastic pump: admitter scan and checkpoint trigger. Leave after
  /// a snapshot when the session halts after checkpoints. next_due stays
  /// `now`: admission and quiesce requests arrive through the membership
  /// view and the checkpoint request counter, which other ranks write
  /// with no op aimed at this rank, and pump_iter_ counts every poll.
  Top top(bool idled) override;

 private:
  /// Parked-rank wait loop: publishes the join request when due; returns
  /// true on admission, false when the phase ended (termination broadcast
  /// or fleet halt) while this rank was still parked.
  bool parked_wait();
  /// Admitter duty (lowest joined-alive rank): batch-admits parked ranks
  /// with a published join request under one membership epoch bump.
  void admit_scan();
  /// Quiesces the fleet at checkpoint generation `gen` and writes this
  /// rank's part file (the leader also writes the manifest). Returns
  /// false when the snapshot was aborted because the phase terminated
  /// underneath it.
  bool quiesce_and_checkpoint(std::uint64_t gen);
  /// Deals the manifest's descriptors round-robin across the joined ranks
  /// of this (possibly different-sized) fleet.
  void restore_from(const std::string& path);
  /// One wait poll: heartbeats keep flowing (deaths keep being confirmed,
  /// so no wait can hang on a dead rank), then one poll's worth of time.
  void spin();

  TaskCollection& tc_;
  pgas::Runtime& rt_;
  pgas::SegId seg_;
  std::uint64_t pump_iter_ = 0;      // this phase's pump calls
  std::uint64_t ckpt_gen_done_ = 0;  // latest checkpoint generation handled
  bool restore_done_ = false;  // the collective restore ran at first entry
};

}  // namespace scioto
