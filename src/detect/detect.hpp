// The heartbeat failure detector: the probe engine each rank pumps from
// its work loop.
//
// Protocol (see DESIGN.md "Detector-mode recovery"):
//   * Every rank owns a 16-byte patch in a collectively allocated PGAS
//     segment: a monotonically increasing heartbeat counter and the
//     membership-epoch word it last observed. The owner publishes both
//     with cheap local atomic stores every hb_period.
//   * Every probe_period the rank reads one neighbor's pair with a
//     one-sided failure-aware probe (Runtime::probe_pair_checked), cycling
//     through its neighbor set: the next `fanout` alive ranks after it.
//     Every alive rank is therefore covered by its `fanout` predecessors,
//     so a death is always observed by someone.
//   * A peer whose counter advances is alive (a suspected peer is refuted).
//     A peer silent past suspect_after becomes suspect; past confirm_after
//     the prober calls detect::confirm_dead -- the first prober to do so
//     wins the transition, bumps the membership epoch, and emits the
//     ConfirmDead trace event. Timeouts are virtual time under the sim
//     backend and wall-clock time under threads (both via Runtime::now).
//   * Suspicion is prober-local; only confirmed deaths and rejoins are
//     global. A long gap in the prober's own polling (it was stalled, or
//     ran a long task) resets its peer timers instead of mass-suspecting
//     everyone whose heartbeats it slept through.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/membership.hpp"
#include "pgas/runtime.hpp"

namespace scioto::detect {

/// Per-rank probe engine. Construction is collective (allocates the
/// heartbeat segment); destroy() is collective too and must be called by
/// every surviving rank. Pump poll() from the owner's work loop -- it is
/// cheap when nothing is due (two clock comparisons).
class HeartbeatProbe {
 public:
  /// Collective. Snapshots detect::config(); requires an armed view
  /// (detect::active()).
  explicit HeartbeatProbe(pgas::Runtime& rt);
  ~HeartbeatProbe();

  HeartbeatProbe(const HeartbeatProbe&) = delete;
  HeartbeatProbe& operator=(const HeartbeatProbe&) = delete;

  /// Publish own heartbeat / probe one neighbor if due.
  void poll();

  /// Forget all peer observations (timers restart from now). Called after
  /// the owner was away from its loop longer than suspect_after -- on
  /// rejoin after a false suspicion, or automatically when poll() notices
  /// the gap -- so stale silence is not misread as peer death.
  void reset_observations();

  /// Collective. Frees the heartbeat segment and flushes stats.
  void destroy();

 private:
  struct Peer {
    std::uint64_t hb = 0;       // last observed heartbeat value
    TimeNs last_change = 0;     // when we last saw it advance
    bool suspected = false;
  };

  void publish(TimeNs now);
  void probe_one(TimeNs now);
  void recompute_neighbors();
  void publish_view_gauges();
  /// Adds this probe's counters into the session stats and zeroes them.
  void flush_stats();

  pgas::Runtime& rt_;
  Config cfg_;
  pgas::SegId seg_ = -1;
  Rank me_ = kNoRank;
  int nranks_ = 0;
  bool destroyed_ = false;

  std::uint64_t hb_count_ = 0;
  TimeNs last_pub_ = 0;
  TimeNs last_probe_ = 0;
  TimeNs last_poll_ = 0;
  std::uint64_t epoch_seen_ = 0;
  std::vector<Peer> peers_;
  std::vector<Rank> neighbors_;
  std::size_t next_neighbor_ = 0;

  // Local stat accumulators, flushed to the global view on destroy() so
  // the hot path never takes the stats mutex.
  std::uint64_t n_heartbeats_ = 0;
  std::uint64_t n_probes_ = 0;
  std::uint64_t n_suspects_ = 0;
  std::uint64_t n_refutes_ = 0;
};

}  // namespace scioto::detect
