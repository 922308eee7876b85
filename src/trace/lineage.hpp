// Causal task lineage: the per-task identity layer under the flow-event
// tracer and the critical-path profiler (trace/analysis.hpp).
//
// The trace plane records *rank-local* events: steals, pushes, task
// begin/end. None of them name a task, so a recorded run can say how many
// tasks moved but not *which* task travelled from its spawner, through a
// chain of steals, to the rank that finally ran it. This module closes
// that gap with a Dapper-style causal record stamped into every task
// descriptor:
//
//   LineageRec {
//     id     -- 64-bit globally unique task id: a rank-salted counter,
//               (origin_rank + 1) << 40 | per-rank sequence. No
//               coordination, bit-deterministic under sim (each rank's
//               spawn order is fixed by the fiber schedule), and id != 0
//               always, so 0 can mean "no task" / "root".
//     parent -- the id of the task that was executing on the spawning
//               rank when tc_add ran; 0 for root spawns (seeds added
//               from outside any task).
//     hops   -- migrations suffered so far: bumped by the thief after a
//               successful steal and by the elastic redeal when a
//               checkpointed descriptor lands on a new rank.
//   }
//
// Wire format: the record rides as a 24-byte *trailer* after the padded
// descriptor body, inside the queue slot. The trailer exists only while a
// lineage session is armed -- slot layouts, PGAS transfer sizes, and
// therefore the sim's virtual-time charges of a lineage-off run are
// byte-identical to a build that never heard of lineage. Because the
// trailer is part of the slot, it flows through every path a descriptor
// takes -- local push, release/reacquire, all three steal protocols,
// remote add, DAG node firing, fault-mode steal replay, checkpoint
// save/restore -- without any of those paths knowing it is there; only
// the stamp (tc_add), the hop bump (steal landing, redeal), and the read
// (execute) touch it.
//
// Events: the stamp emits Ev::SpawnEdge (spawner side), each migration
// emits Ev::MigrateEdge (thief side), and execution emits Ev::ExecSpan
// (executor side). The exporter turns the three into Chrome flow events
// (arrows across rank tracks in Perfetto); trace::lineage_report() merges
// them into a causal timeline, validates happens-before, and extracts the
// weighted critical path.
//
// Gate: the SCIOTO_LINEAGE=1 environment variable (or a caller-started
// session, e.g. `trace_demo --flow`) arms the hooks at runtime. Off by
// default: one predicted-false branch per hook on the hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "base/types.hpp"

namespace scioto::trace::lineage {

/// The causal record carried in each task descriptor's trailer.
struct LineageRec {
  std::uint64_t id = 0;      // rank-salted unique id; never 0 for a task
  std::uint64_t parent = 0;  // spawner's executing task id; 0 = root
  std::uint32_t hops = 0;    // steals + redeals this descriptor survived
  std::uint32_t pad = 0;     // keeps the trailer 8-byte aligned
};
static_assert(sizeof(LineageRec) == 24, "lineage trailer is 24 bytes");
static_assert(std::is_trivially_copyable_v<LineageRec>,
              "the trailer is memcpy'd through the wire format");

/// Id layout: (origin + 1) << kSeqBits | seq. 40 sequence bits give every
/// rank a trillion spawns; 23 origin bits clear int64 for the trace
/// payload field.
inline constexpr int kSeqBits = 40;

inline constexpr std::uint64_t make_id(Rank origin, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(origin) + 1) << kSeqBits | seq;
}
inline constexpr Rank id_origin(std::uint64_t id) {
  return static_cast<Rank>((id >> kSeqBits) - 1);
}
inline constexpr std::uint64_t id_seq(std::uint64_t id) {
  return id & ((std::uint64_t{1} << kSeqBits) - 1);
}

/// Staged configuration consumed by the next pgas::run_spmd (the C API
/// stages through this before a runtime exists); SCIOTO_LINEAGE env
/// overrides it there.
struct Config {
  bool enabled = false;
};
Config config();
void set_config(const Config& cfg);

/// True between start() and stop(). One relaxed atomic load; every
/// descriptor-path hook checks this (via TaskCollection's cached trailer
/// offset) before paying for the stamp.
bool active();

/// Allocates per-rank id counters and arms the session. Must bracket the
/// SPMD region like trace::start: task collections size their slots for
/// the trailer at construction, so arming mid-run would split the fleet's
/// wire format.
void start(int nranks);
void stop();

int session_nranks();

/// Allocates the next task id for a spawn on rank r. Rank-local counter:
/// no atomics needed beyond the session gate, deterministic under sim.
std::uint64_t next_id(Rank r);

/// The id of the task currently executing on rank r (0 outside any
/// task). TaskCollection::execute saves/sets/restores this around the
/// callback so nested spawns link to their true parent.
std::uint64_t current(Rank r);
void set_current(Rank r, std::uint64_t id);

/// Trailer bytes a task collection must add to its slot size: 24 while a
/// session is armed, 0 otherwise.
std::size_t rec_bytes();

}  // namespace scioto::trace::lineage
