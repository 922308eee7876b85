// The dependency engine: a dataflow DAG scheduler over task collections.
//
// This subsystem promotes the paper's §8 sketch ("extending our independent
// task model with support for tasks that exhibit arbitrary inter-task
// dependencies") from the old TaskDag stub into a real engine, with two
// mechanisms on top of the dependency counters:
//
//   * swiftsim-style *conflict edges*: nodes sharing a conflict group
//     serialize without ordering. Each group owns one CAS lock word in
//     PGAS (homed round-robin); a dispatch that finds it held defers the
//     node and retries, so mutually exclusive updates to the same datum
//     need no artificial ordering edges and keep full commutativity.
//   * *fence before release* for remote data: an edge may carry a
//     (seg, owner, offset, len) record naming the payload the producer
//     writes. On completion the producer fences each distinct owner its
//     data edges name, and only then decrements its successors, so the
//     decrement that fires a consumer is ordered after the payload. This
//     gives read-after-write safety for PGAS data without any barrier and
//     without a readiness check at dispatch: the dependency counter alone
//     says when the data is there.
//
// Mechanics (same counter discipline as the retired stub, hardened):
// every node carries a remaining-dependency counter homed on the node's
// home rank; completing a task decrements each successor's counter with a
// one-sided fetch-and-add, and the decrement that reaches zero fires the
// successor into the split queue on its home rank. The paper's §5.1
// affinity decides what thieves see: a static node on a longest
// root-to-sink path (unit weights) and every dynamic node fire with high
// affinity, at the head of the home's private queue; every other node
// fires low, into the home's steal end, where idle ranks take it first.
// A DAG rank rarely holds enough private tasks for release to expose
// them, so low-affinity firing is how nodes with slack migrate. Dataflow
// scheduling thus composes with the paper's load balancing -- and, under
// a fault session, with dead-rank queue adoption (deferred nodes re-enter
// the queue rather than rank-local parking, so they are adoptable).
//
// Graphs are built *replicated*: every rank makes identical add_node /
// add_edge / conflict_group / register_kind calls (the SPMD discipline of
// callback registration), keeping node bodies local everywhere a task
// might execute. On top of the static graph, *dynamic* nodes may be
// spawned while executing (NodeCtx::spawn from inside any node body):
// their descriptors -- a collectively pre-registered kind id plus POD
// arguments -- are written one-sided into an arena on the child's home
// rank, enabling recursive task graphs without stopping the machine.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "scioto/task_collection.hpp"

namespace scioto::dag {

/// Node identifier. Static nodes are dense indices [0, num_nodes());
/// dynamic nodes pack (home, arena index) under kDynBit. Ids are valid on
/// every rank.
using NodeId = std::int64_t;
/// Conflict (mutual-exclusion) group handle from conflict_group().
using GroupId = std::int32_t;
/// Handle of a collectively registered dynamic-node kind.
using KindId = std::int32_t;

inline constexpr GroupId kNoGroup = -1;

/// Data record attached to an edge: the producer writes data the successor
/// reads on rank `owner`. The record is descriptive, not a transfer: it
/// names the owner the producer fences before releasing its successors.
struct DataDep {
  Rank owner = kNoRank;
};

struct DagConfig {
  /// Capacity of each rank's dynamic-node arena (descriptors + counters).
  std::int64_t max_dynamic_per_rank = 1 << 12;
  /// Max POD argument bytes a dynamic node may carry.
  std::int32_t max_dynamic_body = 64;
  /// Max successors recorded inline in one dynamic node's descriptor.
  std::int32_t max_dynamic_succ = 8;
};

/// Per-rank execution statistics (summable; max_depth maxes).
struct DagStats {
  std::uint64_t nodes_run = 0;        // nodes executed by this rank
  std::uint64_t nodes_fired = 0;      // zero-reaching decrements + roots
  std::uint64_t remote_fires = 0;     // fired nodes homed on another rank
  std::uint64_t conflict_retries = 0; // dispatches bounced off a held lock
  std::uint64_t version_waits = 0;    // always 0; kept while
                                      // perfbench/scioto_bench.cpp reads it
  std::uint64_t dyn_spawned = 0;      // dynamic children this rank spawned
  std::uint64_t satisfies = 0;        // manual satisfy() decrements issued
  std::uint64_t max_depth = 0;        // deepest node this rank executed

  DagStats& operator+=(const DagStats& o) {
    nodes_run += o.nodes_run;
    nodes_fired += o.nodes_fired;
    remote_fires += o.remote_fires;
    conflict_retries += o.conflict_retries;
    version_waits += o.version_waits;
    dyn_spawned += o.dyn_spawned;
    satisfies += o.satisfies;
    max_depth = max_depth > o.max_depth ? max_depth : o.max_depth;
    return *this;
  }
  bool operator==(const DagStats&) const = default;
};

class DagScheduler;

/// Execution context handed to a node body: identity, critical-path depth,
/// dynamic arguments, and the streaming-build interface.
class NodeCtx {
 public:
  NodeId id() const { return id_; }
  /// Longest-path depth from the static roots (parent depth + 1 for
  /// dynamic nodes).
  std::int32_t depth() const { return depth_; }
  /// POD argument bytes of a dynamic node (nullptr for static nodes).
  const void* args() const { return args_; }
  std::int32_t args_len() const { return args_len_; }
  DagScheduler& dag() { return dag_; }

  /// Spawns a dynamic child of kind `kind` homed on `home`, carrying `len`
  /// bytes of POD arguments. The child always depends on this node
  /// completing (the parent edge) plus `extra_deps` further decrements
  /// delivered via child_edge() or DagScheduler::satisfy(). satisfy() on
  /// the returned id is legal only after this callback has returned (the
  /// child publishes at completion). Returns the child's id.
  NodeId spawn(KindId kind, Rank home, const void* args = nullptr,
               std::int32_t len = 0, std::int64_t extra_deps = 0,
               GroupId group = kNoGroup);
  /// Orders two children spawned by *this* callback: `succ` additionally
  /// waits for `pred`. (Edges between children of different invocations go
  /// through extra_deps + satisfy().)
  void child_edge(NodeId pred, NodeId succ);

 private:
  friend class DagScheduler;
  NodeCtx(DagScheduler& dag, NodeId id, std::int32_t depth, const void* args,
          std::int32_t args_len)
      : dag_(dag), id_(id), depth_(depth), args_(args), args_len_(args_len) {}
  DagScheduler& dag_;
  NodeId id_;
  std::int32_t depth_;
  const void* args_;
  std::int32_t args_len_;
};

using NodeFn = std::function<void(NodeCtx&)>;

/// Attaches to its collection's work loop as the scheduler extension
/// (LoopHook): parked nodes are retried from the idle slot and keep this
/// rank's termination vote black through the pending slot.
class DagScheduler : private LoopHook {
 public:
  /// Collective: registers the internal dispatch callback on `tc` (the
  /// same-order rule of callback registration applies).
  explicit DagScheduler(TaskCollection& tc, DagConfig cfg = {});

  // ---- Replicated build (identical calls on every rank) ----
  /// Adds a node homed on `home`, optionally in a conflict group. `fn`
  /// runs on whichever rank executes the node.
  NodeId add_node(Rank home, NodeFn fn, GroupId group = kNoGroup);
  /// Convenience overload for bodies that need no NodeCtx (no args, no
  /// dynamic spawns).
  NodeId add_node(Rank home, std::function<void()> fn);
  /// `succ` cannot start until `pred` completed. Rejects self-edges,
  /// out-of-range ids, and dynamic ids at call time.
  void add_edge(NodeId pred, NodeId succ);
  /// Same, with a data record: `pred` fences `data.owner` before it
  /// decrements `succ` (read-after-write safety for the named PGAS bytes,
  /// no barrier).
  void add_edge(NodeId pred, NodeId succ, const DataDep& data);
  /// Creates a conflict group: nodes given this group serialize without
  /// ordering (at most one runs at a time, in any order). A node belongs
  /// to at most one group, which also bounds lock holds to one per node
  /// (no deadlock by construction).
  GroupId conflict_group();
  void set_group(NodeId id, GroupId group);
  /// Registers a dynamic-node kind (replicated, like callbacks); dynamic
  /// spawns name kinds by id so bodies stay local everywhere.
  KindId register_kind(NodeFn fn);

  /// Static nodes added so far (dynamic nodes are not counted).
  std::size_t num_nodes() const { return nodes_.size(); }

  // ---- Execution ----
  /// Collective: validates the graph (throws scioto::Error naming the
  /// offending cycle's node ids if one exists), allocates the control
  /// segment, seeds the roots, and processes the collection until every
  /// node -- including dynamically spawned ones -- has executed.
  void execute();
  /// Manual one-sided decrement of `id`'s dependency counter (joins whose
  /// shape is only known at run time); callable from any rank while
  /// execute() is in flight. The zero-reaching call fires the node.
  void satisfy(NodeId id, std::int64_t n = 1);

  // ---- Statistics ----
  const DagStats& stats_local() const { return stats_; }
  /// Collective: counters summed (max_depth maxed) over all ranks.
  DagStats stats_global();

 private:
  struct Node {
    Rank home = 0;
    NodeFn fn;
    GroupId group = kNoGroup;
    std::int64_t deps = 0;          // in-degree
    std::int32_t depth = 0;         // longest path from a root
    bool critical = false;          // on a longest root-to-sink path
    std::int64_t home_slot = -1;    // counter index on the home rank
    std::vector<NodeId> successors;
    std::vector<Rank> fence_owners;  // distinct DataDep owners, first-named
  };
  struct DagBody {
    NodeId node;
  };
  /// A deferred node parked on this rank until its group lock looks free.
  struct ParkEntry {
    NodeId id;
    GroupId group;
    std::uint64_t lineage;  // the parking dispatch: the re-fire's parent
  };
  /// A dynamic child staged between spawn() and the parent's completion.
  struct StagedChild {
    NodeId id;
    Rank home;
    KindId kind;
    GroupId group;
    std::int32_t depth;
    std::int64_t deps;  // includes the +1 parent hold
    std::vector<std::byte> body;
    std::vector<NodeId> succ;
  };

  static constexpr NodeId kDynBit = NodeId{1} << 62;
  static bool is_dyn(NodeId id) { return (id & kDynBit) != 0; }
  static NodeId dyn_node_id(Rank home, std::int64_t idx) {
    return kDynBit | (static_cast<NodeId>(home) << 32) | idx;
  }
  static Rank dyn_home(NodeId id) {
    return static_cast<Rank>((id >> 32) & 0x3fffffff);
  }
  static std::int64_t dyn_idx(NodeId id) { return id & 0xffffffff; }
  static std::int32_t id32(NodeId id) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(id));
  }

  void run_node(TaskContext& ctx);
  void decrement(NodeId succ, std::int64_t delta);
  void fire(NodeId id, Rank home, std::int32_t depth);
  /// Queue affinity of a node entering the collection: high for a critical
  /// node or on a one-rank fleet, low (the steal end) otherwise.
  int affinity(bool critical) const;
  void defer(NodeId id, GroupId group);
  bool lock_looks_free(GroupId group);
  std::uint64_t retry_parked();
  std::uint64_t idle() override { return retry_parked(); }
  bool pending() override { return !parked_.empty(); }
  /// Nothing to retry until a node parks; a remote fire is a tc_.add to
  /// this rank, which wakes it.
  TimeNs next_due(TimeNs now) override {
    return parked_.empty() ? kForever : now;
  }
  void publish_and_release_children();
  void check_acyclic_and_levels();

  Rank lock_home(GroupId g) const { return g % rt_.nprocs(); }
  std::size_t lock_offset(GroupId g) const {
    return lock_base_ +
           static_cast<std::size_t>(g / rt_.nprocs()) * sizeof(std::int64_t);
  }
  std::size_t static_ctr_offset(NodeId id) const {
    return ctr_base_ + static_cast<std::size_t>(
                           nodes_[static_cast<std::size_t>(id)].home_slot) *
                           sizeof(std::int64_t);
  }

  TaskCollection& tc_;
  pgas::Runtime& rt_;
  DagConfig cfg_;
  TaskHandle dispatch_handle_ = kInvalidHandle;
  std::vector<Node> nodes_;
  std::vector<NodeFn> kinds_;
  GroupId ngroups_ = 0;
  std::int64_t nedges_ = 0;
  std::vector<std::int64_t> slots_per_rank_;  // static counter slots
  pgas::SegId seg_ = -1;
  // Per-rank patch layout (identical on every rank): [dyn cursor][static
  // counters][group locks][dyn counters][descriptor arena].
  std::size_t ctr_base_ = 0;
  std::size_t lock_base_ = 0;
  std::size_t dyn_ctr_base_ = 0;
  std::size_t desc_base_ = 0;
  std::size_t desc_stride_ = 0;
  DagStats stats_;
  std::vector<ParkEntry> parked_;
  std::vector<StagedChild> staged_;
  std::vector<std::byte> dyn_buf_;  // descriptor fetch scratch
  std::vector<std::byte> pub_buf_;  // descriptor publish scratch
  bool executed_ = false;
  bool running_ = false;
  bool in_node_ = false;

  friend class NodeCtx;
  NodeId spawn_child(KindId kind, Rank home, const void* args,
                     std::int32_t len, std::int64_t extra_deps, GroupId group,
                     std::int32_t parent_depth);
  void stage_child_edge(NodeId pred, NodeId succ);
};

}  // namespace scioto::dag
