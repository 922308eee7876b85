#include "dag/dag.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

namespace scioto::dag {

namespace {

/// Fixed prefix of a dynamic node's descriptor in the home-rank arena.
struct DynHeader {
  KindId kind = -1;
  GroupId group = kNoGroup;
  std::int32_t depth = 0;
  std::int32_t body_len = 0;
  std::int32_t nsucc = 0;
  std::int32_t pad = 0;
};
static_assert(sizeof(DynHeader) == 24);

/// Nonzero lock-word token identifying the holder (ids are unique, so
/// id + 1 never collides and 0 stays the released state).
std::int64_t lock_token(NodeId id) { return id + 1; }

}  // namespace

// ---- NodeCtx -------------------------------------------------------------

NodeId NodeCtx::spawn(KindId kind, Rank home, const void* args,
                      std::int32_t len, std::int64_t extra_deps,
                      GroupId group) {
  return dag_.spawn_child(kind, home, args, len, extra_deps, group, depth_);
}

void NodeCtx::child_edge(NodeId pred, NodeId succ) {
  dag_.stage_child_edge(pred, succ);
}

// ---- Build ---------------------------------------------------------------

DagScheduler::DagScheduler(TaskCollection& tc, DagConfig cfg)
    : tc_(tc), rt_(tc.runtime()), cfg_(cfg) {
  SCIOTO_REQUIRE(cfg_.max_dynamic_per_rank >= 1 &&
                     cfg_.max_dynamic_per_rank <= (std::int64_t{1} << 32),
                 "max_dynamic_per_rank out of range");
  SCIOTO_REQUIRE(cfg_.max_dynamic_body >= 0 && cfg_.max_dynamic_succ >= 0,
                 "negative dynamic-node limits");
  dispatch_handle_ =
      tc_.register_callback([this](TaskContext& ctx) { run_node(ctx); });
  const std::size_t n = static_cast<std::size_t>(rt_.nprocs());
  slots_per_rank_.assign(n, 0);
  desc_stride_ = align_up(
      sizeof(DynHeader) +
          static_cast<std::size_t>(cfg_.max_dynamic_succ) * sizeof(NodeId) +
          static_cast<std::size_t>(cfg_.max_dynamic_body),
      alignof(std::int64_t));
  dyn_buf_.resize(desc_stride_);
  pub_buf_.resize(desc_stride_);
}

NodeId DagScheduler::add_node(Rank home, NodeFn fn, GroupId group) {
  SCIOTO_REQUIRE(!executed_, "DagScheduler::add_node after execute()");
  SCIOTO_REQUIRE(home >= 0 && home < rt_.nprocs(),
                 "invalid home rank " << home);
  SCIOTO_REQUIRE(group == kNoGroup || (group >= 0 && group < ngroups_),
                 "add_node with unknown conflict group " << group);
  Node n;
  n.home = home;
  n.fn = std::move(fn);
  n.group = group;
  n.home_slot = slots_per_rank_[static_cast<std::size_t>(home)]++;
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId DagScheduler::add_node(Rank home, std::function<void()> fn) {
  return add_node(home, [f = std::move(fn)](NodeCtx&) { f(); });
}

void DagScheduler::add_edge(NodeId pred, NodeId succ) {
  SCIOTO_REQUIRE(!executed_, "DagScheduler::add_edge after execute()");
  SCIOTO_REQUIRE(!is_dyn(pred) && !is_dyn(succ),
                 "add_edge on dynamic ids (use spawn deps / child_edge / "
                 "satisfy for streaming-built nodes)");
  SCIOTO_REQUIRE(pred >= 0 && static_cast<std::size_t>(pred) < nodes_.size(),
                 "add_edge: pred id " << pred << " out of range [0, "
                                      << nodes_.size() << ")");
  SCIOTO_REQUIRE(succ >= 0 && static_cast<std::size_t>(succ) < nodes_.size(),
                 "add_edge: succ id " << succ << " out of range [0, "
                                      << nodes_.size() << ")");
  SCIOTO_REQUIRE(pred != succ, "add_edge: self-dependency on node " << pred);
  nodes_[static_cast<std::size_t>(pred)].successors.push_back(succ);
  nodes_[static_cast<std::size_t>(succ)].deps++;
  nedges_++;
}

void DagScheduler::add_edge(NodeId pred, NodeId succ, const DataDep& data) {
  SCIOTO_REQUIRE(data.owner >= 0 && data.owner < rt_.nprocs(),
                 "add_edge: DataDep owner " << data.owner
                                            << " out of range [0, "
                                            << rt_.nprocs() << ")");
  add_edge(pred, succ);
  std::vector<Rank>& owners =
      nodes_[static_cast<std::size_t>(pred)].fence_owners;
  if (std::find(owners.begin(), owners.end(), data.owner) == owners.end()) {
    owners.push_back(data.owner);
  }
}

GroupId DagScheduler::conflict_group() {
  SCIOTO_REQUIRE(!executed_, "conflict_group after execute()");
  return ngroups_++;
}

void DagScheduler::set_group(NodeId id, GroupId group) {
  SCIOTO_REQUIRE(!executed_, "set_group after execute()");
  SCIOTO_REQUIRE(!is_dyn(id) && id >= 0 &&
                     static_cast<std::size_t>(id) < nodes_.size(),
                 "set_group: invalid node id " << id);
  SCIOTO_REQUIRE(group == kNoGroup || (group >= 0 && group < ngroups_),
                 "set_group: unknown conflict group " << group);
  nodes_[static_cast<std::size_t>(id)].group = group;
}

KindId DagScheduler::register_kind(NodeFn fn) {
  SCIOTO_REQUIRE(!executed_, "register_kind after execute()");
  kinds_.push_back(std::move(fn));
  return static_cast<KindId>(kinds_.size() - 1);
}

// ---- Cycle detection -----------------------------------------------------

void DagScheduler::check_acyclic_and_levels() {
  const std::size_t n = nodes_.size();
  std::vector<std::int64_t> indeg(n);
  for (std::size_t i = 0; i < n; ++i) {
    indeg[i] = nodes_[i].deps;
  }
  // Kahn's algorithm doubles as the critical-path depth computation the
  // trace/metrics plane reports, and its order walked backwards gives the
  // bottom levels that decide which nodes fire with high affinity.
  std::vector<NodeId> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) {
      order.push_back(static_cast<NodeId>(i));
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Node& u = nodes_[static_cast<std::size_t>(order[head])];
    for (NodeId s : u.successors) {
      Node& v = nodes_[static_cast<std::size_t>(s)];
      v.depth = std::max(v.depth, u.depth + 1);
      if (--indeg[static_cast<std::size_t>(s)] == 0) {
        order.push_back(s);
      }
    }
  }
  if (order.size() == n) {
    // Unit-weight bottom level: the longest hop count to a sink. A node
    // is critical iff a longest root-to-sink path runs through it.
    std::vector<std::int32_t> height(n, 0);
    std::int32_t longest = 0;
    for (std::size_t k = n; k-- > 0;) {
      const auto i = static_cast<std::size_t>(order[k]);
      for (NodeId s : nodes_[i].successors) {
        height[i] =
            std::max(height[i], height[static_cast<std::size_t>(s)] + 1);
      }
      longest = std::max(longest, nodes_[i].depth + height[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes_[i].critical = nodes_[i].depth + height[i] == longest;
    }
    return;
  }
  // Some nodes never topologically sorted: walk predecessors within the
  // unsorted remainder (every unsorted node has one) until a node repeats,
  // then report the enclosed cycle in forward edge order.
  std::vector<std::vector<NodeId>> preds(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (NodeId s : nodes_[i].successors) {
      if (indeg[static_cast<std::size_t>(s)] > 0 && indeg[i] > 0) {
        preds[static_cast<std::size_t>(s)].push_back(static_cast<NodeId>(i));
      }
    }
  }
  NodeId cur = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] > 0) {
      cur = static_cast<NodeId>(i);
      break;
    }
  }
  std::vector<NodeId> walk;
  std::vector<std::int64_t> pos(n, -1);
  while (pos[static_cast<std::size_t>(cur)] < 0) {
    pos[static_cast<std::size_t>(cur)] =
        static_cast<std::int64_t>(walk.size());
    walk.push_back(cur);
    SCIOTO_CHECK(!preds[static_cast<std::size_t>(cur)].empty());
    cur = preds[static_cast<std::size_t>(cur)].front();
  }
  // walk[pos[cur]..] is the cycle in reverse (predecessor) order.
  std::ostringstream msg;
  msg << "DagScheduler: dependency cycle: ";
  const auto start = static_cast<std::size_t>(
      pos[static_cast<std::size_t>(cur)]);
  for (std::size_t i = walk.size(); i-- > start;) {
    msg << walk[i] << " -> ";
  }
  msg << walk.back();
  throw Error(msg.str());
}

// ---- Execution -----------------------------------------------------------

void DagScheduler::execute() {
  SCIOTO_REQUIRE(!executed_, "DagScheduler::execute called twice");
  // Cycle check first: it is local and replicated, so every rank throws
  // identically before any collective is entered.
  check_acyclic_and_levels();
  executed_ = true;

  // The replicated build must agree across ranks.
  struct BuildSig {
    std::int64_t v[4];
  } sig{{static_cast<std::int64_t>(nodes_.size()), nedges_,
         static_cast<std::int64_t>(ngroups_),
         static_cast<std::int64_t>(kinds_.size())}};
  BuildSig total = rt_.allreduce(sig, [](BuildSig a, const BuildSig& b) {
    for (int i = 0; i < 4; ++i) a.v[i] += b.v[i];
    return a;
  });
  for (int i = 0; i < 4; ++i) {
    SCIOTO_REQUIRE(total.v[i] == sig.v[i] * rt_.nprocs(),
                   "DagScheduler build diverged across ranks");
  }

  // Control-segment layout: identical on every rank (maxima over ranks).
  const int n = rt_.nprocs();
  std::int64_t max_slots = 1;
  for (int r = 0; r < n; ++r) {
    max_slots = std::max(max_slots, slots_per_rank_[static_cast<std::size_t>(r)]);
  }
  const std::int64_t lock_slots =
      std::max<std::int64_t>((ngroups_ + n - 1) / n, 1);
  ctr_base_ = sizeof(std::int64_t);  // word 0: dynamic-arena cursor
  lock_base_ = ctr_base_ + static_cast<std::size_t>(max_slots) * 8;
  dyn_ctr_base_ = lock_base_ + static_cast<std::size_t>(lock_slots) * 8;
  desc_base_ =
      dyn_ctr_base_ + static_cast<std::size_t>(cfg_.max_dynamic_per_rank) * 8;
  const std::size_t bytes =
      desc_base_ +
      static_cast<std::size_t>(cfg_.max_dynamic_per_rank) * desc_stride_;
  seg_ = rt_.seg_alloc(bytes);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    if (nd.home == rt_.me()) {
      auto* p = reinterpret_cast<std::int64_t*>(
          rt_.seg_ptr(seg_, rt_.me()) +
          static_ctr_offset(static_cast<NodeId>(i)));
      *p = nd.deps;
    }
  }
  rt_.barrier();

  // Parked nodes are retried from the idle loop and keep this rank's
  // termination vote black while they wait.
  tc_.set_extension(this);
  running_ = true;

  // Seed the roots at their home ranks.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    if (nd.home == rt_.me() && nd.deps == 0) {
      fire(static_cast<NodeId>(i), nd.home, nd.depth);
    }
  }

  tc_.process();

  running_ = false;
  tc_.set_extension(nullptr);
  SCIOTO_CHECK_MSG(parked_.empty(), "DagScheduler terminated with "
                                        << parked_.size()
                                        << " node(s) still parked");

  // Post-run backstop (static Kahn cannot see dynamically added edges):
  // any counter still positive names a node that never became ready.
  std::ostringstream stuck_ids;
  std::int64_t stuck_local = 0;
  const std::byte* patch = rt_.seg_ptr(seg_, rt_.me());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].home != rt_.me()) continue;
    auto v = *reinterpret_cast<const std::int64_t*>(
        patch + static_ctr_offset(static_cast<NodeId>(i)));
    if (v > 0) {
      if (stuck_local < 8) stuck_ids << " " << i;
      ++stuck_local;
    }
  }
  const auto spawned_here =
      *reinterpret_cast<const std::int64_t*>(patch);  // cursor word
  for (std::int64_t i = 0; i < spawned_here; ++i) {
    auto v = *reinterpret_cast<const std::int64_t*>(
        patch + dyn_ctr_base_ + static_cast<std::size_t>(i) * 8);
    if (v > 0) {
      if (stuck_local < 8) stuck_ids << " " << dyn_node_id(rt_.me(), i);
      ++stuck_local;
    }
  }
  std::int64_t stuck = rt_.allreduce_sum(stuck_local);
  rt_.seg_free(seg_);
  SCIOTO_REQUIRE(stuck == 0,
                 "DagScheduler: " << stuck
                     << " node(s) never became ready (unsatisfied extra_deps "
                        "or a cycle through dynamic edges); local ids:"
                     << stuck_ids.str());
}

void DagScheduler::satisfy(NodeId id, std::int64_t n) {
  SCIOTO_REQUIRE(running_, "satisfy outside execute()");
  SCIOTO_REQUIRE(n >= 1, "satisfy with n < 1");
  SCIOTO_REQUIRE(id >= 0, "satisfy: invalid node id " << id);
  if (is_dyn(id)) {
    SCIOTO_REQUIRE(dyn_home(id) < rt_.nprocs() &&
                       dyn_idx(id) < cfg_.max_dynamic_per_rank,
                   "satisfy: malformed dynamic node id " << id);
  } else {
    SCIOTO_REQUIRE(static_cast<std::size_t>(id) < nodes_.size(),
                   "satisfy: invalid node id " << id);
  }
  stats_.satisfies++;
  decrement(id, n);
}

// ---- Dispatch ------------------------------------------------------------

void DagScheduler::run_node(TaskContext& tctx) {
  const NodeId id = tctx.body_as<DagBody>().node;
  const Rank me = rt_.me();
  GroupId group = kNoGroup;
  std::int32_t depth = 0;
  const NodeFn* fn = nullptr;
  const void* args = nullptr;
  std::int32_t args_len = 0;
  std::vector<NodeId> dyn_succ;

  if (!is_dyn(id)) {
    Node& nd = nodes_[static_cast<std::size_t>(id)];
    group = nd.group;
    depth = nd.depth;
    fn = &nd.fn;
  } else {
    // Dynamic node: fetch its descriptor from the home-rank arena.
    const Rank home = dyn_home(id);
    const std::int64_t idx = dyn_idx(id);
    rt_.get(seg_, home,
            desc_base_ + static_cast<std::size_t>(idx) * desc_stride_,
            dyn_buf_.data(), desc_stride_);
    const auto* h = reinterpret_cast<const DynHeader*>(dyn_buf_.data());
    SCIOTO_CHECK_MSG(h->kind >= 0 &&
                         static_cast<std::size_t>(h->kind) < kinds_.size(),
                     "dynamic node " << id << " has corrupt kind " << h->kind);
    group = h->group;
    depth = h->depth;
    args_len = h->body_len;
    const std::byte* base = dyn_buf_.data() + sizeof(DynHeader);
    dyn_succ.resize(static_cast<std::size_t>(h->nsucc));
    if (!dyn_succ.empty()) {
      std::memcpy(dyn_succ.data(), base, dyn_succ.size() * sizeof(NodeId));
    }
    args = base + static_cast<std::size_t>(cfg_.max_dynamic_succ) *
                      sizeof(NodeId);
    fn = &kinds_[static_cast<std::size_t>(h->kind)];
  }

  // Conflict gate: one CAS on the group's lock word. Busy means a group
  // peer is running somewhere -- defer, do not spin on a remote lock.
  if (group != kNoGroup) {
    std::int64_t prev = rt_.compare_swap(seg_, lock_home(group),
                                         lock_offset(group), 0,
                                         lock_token(id));
    if (prev != 0) {
      defer(id, group);
      return;
    }
  }

  SCIOTO_EVENT(me, stats_, NodeRun, id32(id), group, depth);
  SCIOTO_METRIC_HIST(me, metrics::Hist::DagNodeDepth,
                     static_cast<std::uint64_t>(depth));
  if (static_cast<std::uint64_t>(depth) > stats_.max_depth) {
    stats_.max_depth = static_cast<std::uint64_t>(depth);
    SCIOTO_METRIC_GAUGE(me, metrics::Gauge::DagDepthMax, depth);
  }

  SCIOTO_CHECK(!in_node_);
  in_node_ = true;
  staged_.clear();
  NodeCtx nctx(*this, id, depth, args, args_len);
  (*fn)(nctx);
  in_node_ = false;

  // Release the conflict lock before firing successors, so a same-group
  // successor fired below can acquire immediately.
  if (group != kNoGroup) {
    std::int64_t prev =
        rt_.swap(seg_, lock_home(group), lock_offset(group), 0);
    SCIOTO_CHECK_MSG(prev == lock_token(id),
                     "conflict lock of group " << group
                         << " corrupted while node " << id << " held it");
  }

  // Completion protocol, in order: (1) fence every owner this node's data
  // edges name, so the payload is complete before anything it releases can
  // run, (2) publish this invocation's dynamic children, (3) release all
  // successors via one-sided decrements -- the parent hold makes children
  // fireable only now.
  if (!is_dyn(id)) {
    for (Rank owner : nodes_[static_cast<std::size_t>(id)].fence_owners) {
      rt_.fence(owner);
    }
  }
  publish_and_release_children();
  if (!is_dyn(id)) {
    for (NodeId s : nodes_[static_cast<std::size_t>(id)].successors) {
      decrement(s, 1);
    }
  } else {
    for (NodeId s : dyn_succ) {
      decrement(s, 1);
    }
  }

  // Opportunistic parked retry: a completion is the likeliest gate-opening
  // event on this rank, so check before going back through the idle loop.
  retry_parked();
}

void DagScheduler::decrement(NodeId succ, std::int64_t delta) {
  Rank home;
  std::size_t off;
  std::int32_t depth = -1;
  if (!is_dyn(succ)) {
    const Node& nd = nodes_[static_cast<std::size_t>(succ)];
    home = nd.home;
    off = static_ctr_offset(succ);
    depth = nd.depth;
  } else {
    home = dyn_home(succ);
    off = dyn_ctr_base_ + static_cast<std::size_t>(dyn_idx(succ)) * 8;
  }
  std::int64_t prev = rt_.fetch_add(seg_, home, off, -delta);
  SCIOTO_CHECK_MSG(prev >= delta,
                   "dependency counter underflow on node " << succ);
  if (prev == delta) {
    fire(succ, home, depth);
  }
}

void DagScheduler::fire(NodeId id, Rank home, std::int32_t depth) {
  const Rank me = rt_.me();
  SCIOTO_EVENT(me, stats_, NodeReady, id32(id), home, depth);
  if (home != me) {
    stats_.remote_fires++;
    SCIOTO_METRIC_CTR(me, metrics::Ctr::DagRemoteFires, 1);
  }
  Task t = tc_.task_create(sizeof(DagBody), dispatch_handle_);
  t.body_as<DagBody>().node = id;
  // The node lands on its home (dead homes are redirected locally by the
  // collection itself). Critical static nodes and dynamic nodes, which
  // have no static level, go to the head of the home's private queue;
  // nodes with slack go to its steal end, where idle ranks take them
  // first. A remote fire lands at the steal end whatever its affinity.
  const bool critical =
      is_dyn(id) || nodes_[static_cast<std::size_t>(id)].critical;
  tc_.add(home, affinity(critical), t);
}

int DagScheduler::affinity(bool critical) const {
  // With one rank there is no thief to expose slack to, and a steal-end
  // push costs the owner a lock round trip plus a reacquire.
  return critical || rt_.nprocs() == 1 ? kAffinityHigh : kAffinityLow;
}

void DagScheduler::defer(NodeId id, GroupId group) {
  const Rank me = rt_.me();
  SCIOTO_EVENT(me, stats_, ConflictRetry, id32(id), group, 0);
  if (fault::active()) {
    // Parked memory is rank-local and dies with the rank. Under a fault
    // session deferred nodes go back through the queue instead -- queue
    // contents survive a kill via the adoption path, so composition with
    // the detector/lease machinery is preserved.
    Task t = tc_.task_create(sizeof(DagBody), dispatch_handle_);
    t.body_as<DagBody>().node = id;
    tc_.add(me, kAffinityLow, t);
    return;
  }
  parked_.push_back({id, group, trace::lineage::current(me)});
  SCIOTO_METRIC_GAUGE(me, metrics::Gauge::DagParked, parked_.size());
}

bool DagScheduler::lock_looks_free(GroupId group) {
  // Advisory one-sided read; the dispatch re-checks authoritatively (the
  // CAS can still lose a race and re-defer, which is harmless).
  std::uint64_t w = 0;
  rt_.get_u64_with_retry(seg_, lock_home(group), lock_offset(group), &w);
  return w == 0;
}

std::uint64_t DagScheduler::retry_parked() {
  if (parked_.empty()) {
    return 0;
  }
  const Rank me = rt_.me();
  // The re-fire's lineage parent is the dispatch that parked the node, not
  // whatever task (or none, from the idle loop) happens to be running.
  const std::uint64_t running = trace::lineage::current(me);
  std::uint64_t injected = 0;
  for (std::size_t i = 0; i < parked_.size();) {
    if (lock_looks_free(parked_[i].group)) {
      Task t = tc_.task_create(sizeof(DagBody), dispatch_handle_);
      t.body_as<DagBody>().node = parked_[i].id;
      trace::lineage::set_current(me, parked_[i].lineage);
      tc_.add(me, affinity(/*critical=*/false), t);
      parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
      ++injected;
    } else {
      ++i;
    }
  }
  trace::lineage::set_current(me, running);
  if (injected > 0) {
    SCIOTO_METRIC_GAUGE(me, metrics::Gauge::DagParked, parked_.size());
  }
  return injected;
}

// ---- Streaming build -----------------------------------------------------

NodeId DagScheduler::spawn_child(KindId kind, Rank home, const void* args,
                                 std::int32_t len, std::int64_t extra_deps,
                                 GroupId group, std::int32_t parent_depth) {
  SCIOTO_CHECK_MSG(in_node_, "spawn outside a node callback");
  SCIOTO_REQUIRE(kind >= 0 && static_cast<std::size_t>(kind) < kinds_.size(),
                 "spawn: unknown kind " << kind
                     << " (register_kind is replicated, like callbacks)");
  SCIOTO_REQUIRE(home >= 0 && home < rt_.nprocs(),
                 "spawn: invalid home rank " << home);
  SCIOTO_REQUIRE(len >= 0 && len <= cfg_.max_dynamic_body,
                 "spawn: args length " << len << " exceeds max_dynamic_body "
                                       << cfg_.max_dynamic_body);
  SCIOTO_REQUIRE(extra_deps >= 0, "spawn: negative extra_deps");
  SCIOTO_REQUIRE(group == kNoGroup || (group >= 0 && group < ngroups_),
                 "spawn: unknown conflict group " << group);
  // Reserve an arena slot on the child's home with a one-sided cursor
  // bump; the id is usable immediately, the descriptor publishes when this
  // callback completes.
  std::int64_t idx = rt_.fetch_add(seg_, home, 0, 1);
  SCIOTO_REQUIRE(idx < cfg_.max_dynamic_per_rank,
                 "dynamic-node arena on rank "
                     << home << " is full (max_dynamic_per_rank="
                     << cfg_.max_dynamic_per_rank << ")");
  StagedChild c;
  c.id = dyn_node_id(home, idx);
  c.home = home;
  c.kind = kind;
  c.group = group;
  c.depth = parent_depth + 1;
  c.deps = 1 + extra_deps;  // the +1 is the parent hold
  if (len > 0) {
    c.body.assign(static_cast<const std::byte*>(args),
                  static_cast<const std::byte*>(args) + len);
  }
  staged_.push_back(std::move(c));
  stats_.dyn_spawned++;
  return staged_.back().id;
}

void DagScheduler::stage_child_edge(NodeId pred, NodeId succ) {
  SCIOTO_CHECK_MSG(in_node_, "child_edge outside a node callback");
  SCIOTO_REQUIRE(pred != succ, "child_edge: self-dependency on " << pred);
  StagedChild* p = nullptr;
  StagedChild* s = nullptr;
  for (StagedChild& c : staged_) {
    if (c.id == pred) p = &c;
    if (c.id == succ) s = &c;
  }
  SCIOTO_REQUIRE(p != nullptr && s != nullptr,
                 "child_edge: both ends must be children spawned by this "
                 "callback (pred=" << pred << ", succ=" << succ << ")");
  SCIOTO_REQUIRE(
      p->succ.size() < static_cast<std::size_t>(cfg_.max_dynamic_succ),
      "child_edge: node " << pred << " exceeds max_dynamic_succ "
                          << cfg_.max_dynamic_succ);
  p->succ.push_back(succ);
  s->deps++;
}

void DagScheduler::publish_and_release_children() {
  if (staged_.empty()) {
    return;
  }
  for (const StagedChild& c : staged_) {
    std::memset(pub_buf_.data(), 0, pub_buf_.size());
    DynHeader h;
    h.kind = c.kind;
    h.group = c.group;
    h.depth = c.depth;
    h.body_len = static_cast<std::int32_t>(c.body.size());
    h.nsucc = static_cast<std::int32_t>(c.succ.size());
    std::memcpy(pub_buf_.data(), &h, sizeof(h));
    // memcpy from an empty vector's null data() is undefined even for 0
    // bytes.
    if (!c.succ.empty()) {
      std::memcpy(pub_buf_.data() + sizeof(h), c.succ.data(),
                  c.succ.size() * sizeof(NodeId));
    }
    if (!c.body.empty()) {
      std::memcpy(pub_buf_.data() + sizeof(h) +
                      static_cast<std::size_t>(cfg_.max_dynamic_succ) *
                          sizeof(NodeId),
                  c.body.data(), c.body.size());
    }
    const auto idx = static_cast<std::size_t>(dyn_idx(c.id));
    rt_.put(seg_, c.home, desc_base_ + idx * desc_stride_, pub_buf_.data(),
            desc_stride_);
    // Plain put of the counter is safe: the only writer until the release
    // fetch_add below is this thread, and that RMW publishes both words to
    // every later decrementer.
    rt_.put(seg_, c.home, dyn_ctr_base_ + idx * 8, &c.deps,
            sizeof(std::int64_t));
  }
  // Release the parent holds only after every sibling is published, so a
  // child firing now may already name its siblings as successors.
  for (const StagedChild& c : staged_) {
    decrement(c.id, 1);
  }
  staged_.clear();
}

// ---- Statistics ----------------------------------------------------------

DagStats DagScheduler::stats_global() {
  return rt_.allreduce(stats_, [](DagStats a, const DagStats& b) {
    return a += b;
  });
}

}  // namespace scioto::dag
