// Elastic membership: runtime rank join + checkpoint/restore scheduling.
//
// The runtime could already *shrink* (detector-confirmed deaths, lease-
// fenced queue adoption); this layer lets the fleet *grow* and lets a
// phase's task-collection state survive a restart:
//
//   * Runtime rank join. run_spmd always launches the full fleet, but an
//     elastic session parks a contiguous tail of ranks in the detector
//     view's NotJoined state: parked ranks execute the SPMD body, sit out
//     the work loop (no tree seat, never a steal victim, never adopted),
//     and when their join rule fires they publish a JoinRequest word into
//     the task collection's elastic PGAS segment. The lowest joined-alive
//     rank batch-admits pending requests under ONE membership epoch bump
//     (detect::join_ranks -- the exact mechanism detect::rejoin uses), and
//     every rank resplices its termination tree and ward table on the next
//     TD step exactly as it would for a death or rejoin. The joiner's
//     first vote is forced WHITE (its queue is empty and it has issued no
//     LB ops, so the §5.3 color argument is vacuous for it) -- see
//     Termination::arm_join_white.
//
//   * Checkpoint/restore. A checkpoint rule quiesces the fleet (every
//     joined-alive rank drains its recovery paths and rendezvouses through
//     arrival words in the elastic segment; in-flight steals drain because
//     a steal's copy->publish->commit completes within one work-loop
//     iteration with no interior safepoint), then each rank serializes its
//     queue's descriptor span plus a user blob into an SHA1-framed part
//     file and the leader writes a manifest. A later run -- on a DIFFERENT
//     nranks if desired -- restores by dealing the global descriptor list
//     round-robin across the new fleet. See DESIGN.md §11.
//
// This header is the schedule. The work-loop side -- the parked-rank
// wait, admission, quiesce, checkpoint and restore -- is ElasticLoop
// (elastic_loop.hpp), the elastic hook in the task collection's
// process() loop, compiled into scioto_core above pgas.
//
// Session discipline matches fault/detect/control: process-global staged
// Config surviving start/stop, relaxed-atomic active() fast path,
// default-off (elastic-off traces are byte-identical to pre-elastic
// baselines).
#pragma once

#include <cstdint>
#include <string>

#include "base/types.hpp"

namespace scioto::elastic {

struct Config {
  bool enabled = false;          // staged knob: arm the session in run_spmd
  std::string ckpt_path;         // snapshot manifest path ("" = no ckpt)
  TimeNs ckpt_period = 0;        // periodic checkpoint cadence (virtual ns,
                                 // 0 = one-shot rules / requests only)
  bool halt_after_ckpt = false;  // process() returns right after a snapshot
                                 // completes (the restart-from-ckpt story)
  std::string restore_path;      // restore collectively at process() entry
};

/// Per-session counters (process-global; join/grow counts live in
/// detect::Stats beside rejoins, where the monitor rollup reads them).
struct Stats {
  std::uint64_t checkpoints = 0;  // completed snapshot generations
  std::uint64_t restores = 0;     // completed collective restores
};

/// The staged configuration; like fault::policy() it survives start/stop
/// so C-API setters before run_spmd apply.
Config config();
void set_config(const Config& c);

/// True when the staged config asks for elasticity (knob, not armed).
bool enabled();

/// True between start() and stop().
bool active();

/// Arms the session for `nranks` ranks. Consumes `join:` and `ckpt:` rules
/// from the armed fault plan (they are inert in the fault machinery).
/// Join ranks must form a contiguous tail [j, nranks) -- membership parks
/// by count, and tail ranks keep rank 0 (the usual root-task owner and
/// collective leader) always joined. Arms the detect membership view with
/// the parked tail if no one armed it yet; stop() disarms it again iff
/// this session armed it.
void start(int nranks);
void stop();

int session_nranks();

// ---- Join schedule (consumed by the parked-rank loop) ----

/// True iff `r` has a join rule in this session.
bool join_scheduled(Rank r);

/// True when `r`'s join request should be published: sim backend once
/// virtual time reaches the rule's at=; threads backend once the rank has
/// spun `after=` parked polls.
bool join_due(Rank r, TimeNs now, int polls);

// ---- Checkpoint schedule ----

/// The checkpoint generation that should exist by `now` (0 = none yet).
/// Sums the plan's due ckpt rules, the ckpt_period cadence, and C-API
/// requests; every joined-alive rank evaluates the same monotone predicate
/// locally, so no leader request word is needed.
std::uint64_t ckpt_target_gen(TimeNs now, int polls);

/// Asks for one more checkpoint generation (C API / tests).
void request_ckpt();

std::string ckpt_path();
bool halt_after_ckpt();

/// Non-empty when a collective restore is pending at process() entry.
/// Both backends are in-process, so "restore exactly once" is tracked
/// per rank by the task collection, not consumed here.
std::string restore_path();

void note_checkpoint();
void note_restore();
Stats stats();

}  // namespace scioto::elastic
