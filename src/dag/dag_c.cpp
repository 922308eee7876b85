// C veneer over dag::DagScheduler, layered on the tc_t handles of
// scioto_c.cpp (same per-rank table discipline: handles are dense indices
// identical on every rank because the build is replicated).
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "dag/dag.hpp"
#include "scioto/scioto_c.h"

namespace {

struct DagCState {
  std::mutex m;
  // Indexed [rank][handle]; entries are never erased within a run so the
  // dense handles stay aligned across ranks even after destroys.
  std::vector<std::vector<std::unique_ptr<scioto::dag::DagScheduler>>> dags;
};

DagCState& state() {
  static DagCState s;
  return s;
}

scioto::dag::DagScheduler& scheduler(scioto_dag_t h) {
  DagCState& s = state();
  const auto me =
      static_cast<std::size_t>(scioto::capi::bound_runtime().me());
  SCIOTO_REQUIRE(me < s.dags.size(), "scioto_dag handle before any create");
  auto& mine = s.dags[me];
  SCIOTO_REQUIRE(h >= 0 && static_cast<std::size_t>(h) < mine.size() &&
                     mine[static_cast<std::size_t>(h)] != nullptr,
                 "invalid or destroyed scioto_dag handle " << h);
  return *mine[static_cast<std::size_t>(h)];
}

void copy_error(const char* what, char* errbuf, int errbuf_len) {
  if (errbuf != nullptr && errbuf_len > 0) {
    std::strncpy(errbuf, what, static_cast<std::size_t>(errbuf_len) - 1);
    errbuf[errbuf_len - 1] = '\0';
  }
}

}  // namespace

extern "C" {

scioto_dag_t scioto_dag_create(tc_t tc) {
  scioto::TaskCollection& coll = scioto::capi::lookup_collection(tc);
  auto dag = std::make_unique<scioto::dag::DagScheduler>(coll);
  DagCState& s = state();
  std::lock_guard<std::mutex> g(s.m);
  const auto n =
      static_cast<std::size_t>(scioto::capi::bound_runtime().nprocs());
  if (s.dags.size() < n) {
    s.dags.resize(n);
  }
  auto& mine =
      s.dags[static_cast<std::size_t>(scioto::capi::bound_runtime().me())];
  mine.push_back(std::move(dag));
  return static_cast<scioto_dag_t>(mine.size() - 1);
}

void scioto_dag_destroy(scioto_dag_t dag) {
  (void)scheduler(dag);  // validate
  DagCState& s = state();
  std::lock_guard<std::mutex> g(s.m);
  s.dags[static_cast<std::size_t>(scioto::capi::bound_runtime().me())]
        [static_cast<std::size_t>(dag)] = nullptr;
}

scioto_dag_node_t scioto_dag_add_node(scioto_dag_t dag, int home,
                                      scioto_dag_node_fn fn, void* user,
                                      int group) {
  if (fn == nullptr) {
    return -1;
  }
  try {
    return scheduler(dag).add_node(
        home, [fn, user](scioto::dag::NodeCtx&) { fn(user); },
        static_cast<scioto::dag::GroupId>(group));
  } catch (const scioto::Error&) {
    return -1;
  }
}

int scioto_dag_add_edge(scioto_dag_t dag, scioto_dag_node_t pred,
                        scioto_dag_node_t succ, char* errbuf,
                        int errbuf_len) {
  try {
    scheduler(dag).add_edge(pred, succ);
    return 0;
  } catch (const scioto::Error& e) {
    copy_error(e.what(), errbuf, errbuf_len);
    return -1;
  }
}

int scioto_dag_conflict_group(scioto_dag_t dag) {
  return scheduler(dag).conflict_group();
}

int scioto_dag_execute(scioto_dag_t dag, char* errbuf, int errbuf_len) {
  try {
    scheduler(dag).execute();
    return 0;
  } catch (const scioto::Error& e) {
    copy_error(e.what(), errbuf, errbuf_len);
    return -1;
  }
}

void scioto_dag_stats_get(scioto_dag_t dag, scioto_dag_stats_t* out) {
  SCIOTO_REQUIRE(out != nullptr, "scioto_dag_stats_get: NULL out");
  scioto::dag::DagStats g = scheduler(dag).stats_global();
  out->nodes_run = g.nodes_run;
  out->nodes_fired = g.nodes_fired;
  out->remote_fires = g.remote_fires;
  out->conflict_retries = g.conflict_retries;
  out->dyn_spawned = g.dyn_spawned;
  out->satisfies = g.satisfies;
  out->max_depth = g.max_depth;
}

}  // extern "C"
