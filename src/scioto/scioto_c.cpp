#include "scioto/scioto_c.h"

#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/control.hpp"
#include "elastic/elastic.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "scioto/task_collection.hpp"
#include "trace/analysis.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

namespace {

using scioto::TaskCollection;

// Per-rank shim state. All ranks of a run bind the same Runtime; each rank
// owns its per-rank TaskCollection objects (ARMCI style), stored in a table
// indexed [rank][handle] so handles are identical everywhere.
struct CapiState {
  std::mutex m;
  scioto::pgas::Runtime* rt = nullptr;
  int bound = 0;
  std::vector<std::vector<std::unique_ptr<TaskCollection>>> tcs;
};

CapiState& state() {
  static CapiState s;
  return s;
}

scioto::pgas::Runtime& runtime() {
  CapiState& s = state();
  SCIOTO_REQUIRE(s.rt != nullptr,
                 "scioto C API used without a bound runtime; create a "
                 "scioto::capi::RuntimeBinding in the rank body first");
  return *s.rt;
}

TaskCollection& collection(tc_t h) {
  CapiState& s = state();
  auto& mine = s.tcs[static_cast<std::size_t>(runtime().me())];
  SCIOTO_REQUIRE(h >= 0 && static_cast<std::size_t>(h) < mine.size() &&
                     mine[static_cast<std::size_t>(h)] != nullptr,
                 "invalid or destroyed tc handle " << h);
  return *mine[static_cast<std::size_t>(h)];
}

scioto::TaskHeader* header_of(task_t* t) {
  return reinterpret_cast<scioto::TaskHeader*>(t);
}

}  // namespace

namespace scioto::capi {

RuntimeBinding::RuntimeBinding(pgas::Runtime& rt) {
  CapiState& s = state();
  std::lock_guard<std::mutex> g(s.m);
  if (s.bound == 0) {
    s.rt = &rt;
    s.tcs.clear();
    s.tcs.resize(static_cast<std::size_t>(rt.nprocs()));
  }
  SCIOTO_REQUIRE(s.rt == &rt,
                 "scioto C API already bound to a different runtime");
  ++s.bound;
}

RuntimeBinding::~RuntimeBinding() {
  CapiState& s = state();
  std::lock_guard<std::mutex> g(s.m);
  if (--s.bound == 0) {
    s.rt = nullptr;
    s.tcs.clear();
  }
}

pgas::Runtime& bound_runtime() { return runtime(); }

TaskCollection& lookup_collection(tc_t h) { return collection(h); }

}  // namespace scioto::capi

extern "C" {

tc_t tc_create(int task_sz, int chunk_sz, long max_sz) {
  scioto::TcConfig cfg;
  cfg.max_task_body = task_sz;
  cfg.chunk_size = chunk_sz;
  cfg.max_tasks_per_rank = max_sz;
  auto tc = std::make_unique<TaskCollection>(runtime(), cfg);
  CapiState& s = state();
  auto& mine = s.tcs[static_cast<std::size_t>(runtime().me())];
  mine.push_back(std::move(tc));
  return static_cast<tc_t>(mine.size() - 1);
}

void tc_destroy(tc_t tc) {
  collection(tc).destroy();
  CapiState& s = state();
  s.tcs[static_cast<std::size_t>(runtime().me())][static_cast<std::size_t>(
      tc)] = nullptr;
}

task_handle_t tc_register_callback(tc_t tc, tc_callback_t fcn) {
  return collection(tc).register_callback(
      [tc, fcn](scioto::TaskContext& ctx) {
        fcn(tc, reinterpret_cast<task_t*>(&ctx.header));
      });
}

void tc_add(tc_t tc, int proc, int affty, task_t* t) {
  scioto::TaskHeader* hdr = header_of(t);
  collection(tc).add_raw(
      proc, affty, reinterpret_cast<const std::byte*>(t),
      sizeof(scioto::TaskHeader) + static_cast<std::size_t>(hdr->body_bytes));
}

void tc_process(tc_t tc) { collection(tc).process(); }

void tc_reset(tc_t tc) { collection(tc).reset(); }

void tc_stats_get(tc_t tc, scioto_stats_t* out) {
  SCIOTO_REQUIRE(out != nullptr, "tc_stats_get: null output pointer");
  scioto::TcStats g = collection(tc).stats_global();
  out->tasks_executed = g.tasks_executed;
  out->tasks_spawned_local = g.tasks_spawned_local;
  out->tasks_spawned_remote = g.tasks_spawned_remote;
  out->steals = g.steals;
  out->steals_same_node = g.steals_same_node;
  out->steal_attempts = g.steal_attempts;
  out->tasks_stolen = g.tasks_stolen;
  out->releases = g.releases;
  out->reacquires = g.reacquires;
  out->td_waves_voted = g.td_waves_voted;
  out->td_black_votes = g.td_black_votes;
  out->time_total_ns = g.time_total;
  out->time_working_ns = g.time_working;
  out->time_searching_ns = g.time_searching;
  out->tasks_recovered = g.tasks_recovered;
  out->steals_aborted = g.steals_aborted;
  out->op_retries = g.op_retries;
  out->td_resplices = g.td_resplices;
  out->owner_lock_acqs = g.owner_lock_acqs;
}

task_t* tc_task_create(int body_sz, task_handle_t th) {
  SCIOTO_REQUIRE(body_sz >= 0, "negative task body size");
  auto* bytes = new std::byte[sizeof(scioto::TaskHeader) +
                              static_cast<std::size_t>(body_sz)]{};
  auto* hdr = reinterpret_cast<scioto::TaskHeader*>(bytes);
  hdr->callback = th;
  hdr->body_bytes = body_sz;
  hdr->affinity = TC_AFFINITY_HIGH;
  hdr->created_by = scioto::kNoRank;
  return reinterpret_cast<task_t*>(bytes);
}

void tc_task_destroy(task_t* task) {
  delete[] reinterpret_cast<std::byte*>(task);
}

void* tc_task_body(task_t* task) {
  return reinterpret_cast<std::byte*>(task) + sizeof(scioto::TaskHeader);
}

void tc_task_reuse(task_t* task) { (void)task; }

int tc_mype(void) { return runtime().me(); }

int tc_nprocs(void) { return runtime().nprocs(); }

int scioto_retry_limit(void) { return scioto::fault::policy().max_attempts; }

void scioto_set_retry_limit(int max_attempts) {
  SCIOTO_REQUIRE(max_attempts >= 1,
                 "scioto_set_retry_limit: need at least one attempt");
  scioto::fault::RetryPolicy p = scioto::fault::policy();
  p.max_attempts = max_attempts;
  scioto::fault::set_policy(p);
}

int64_t scioto_backoff_cap_ns(void) {
  return scioto::fault::policy().backoff_cap;
}

void scioto_set_backoff_cap_ns(int64_t cap_ns) {
  SCIOTO_REQUIRE(cap_ns > 0, "scioto_set_backoff_cap_ns: cap must be > 0");
  scioto::fault::RetryPolicy p = scioto::fault::policy();
  p.backoff_cap = cap_ns;
  scioto::fault::set_policy(p);
}

int64_t scioto_backoff_base_ns(void) {
  return scioto::fault::policy().backoff_base;
}

void scioto_set_backoff_base_ns(int64_t base_ns) {
  SCIOTO_REQUIRE(base_ns > 0, "scioto_set_backoff_base_ns: base must be > 0");
  scioto::fault::RetryPolicy p = scioto::fault::policy();
  p.backoff_base = base_ns;
  scioto::fault::set_policy(p);
}

namespace {
std::string& staged_fault_plan() {
  static std::string spec;
  return spec;
}
}  // namespace

int scioto_fault_plan_set(const char* spec, char* errbuf, int errbuf_len) {
  if (errbuf != nullptr && errbuf_len > 0) {
    errbuf[0] = '\0';
  }
  if (spec == nullptr || spec[0] == '\0') {
    staged_fault_plan().clear();
    ::unsetenv("SCIOTO_FAULT_PLAN");
    return 0;
  }
  try {
    (void)scioto::fault::FaultPlan::parse(spec);
  } catch (const std::exception& e) {
    if (errbuf != nullptr && errbuf_len > 0) {
      std::strncpy(errbuf, e.what(), static_cast<std::size_t>(errbuf_len) - 1);
      errbuf[errbuf_len - 1] = '\0';
    }
    return -1;
  }
  staged_fault_plan() = spec;
  ::setenv("SCIOTO_FAULT_PLAN", spec, 1);
  return 0;
}

const char* scioto_fault_plan(void) { return staged_fault_plan().c_str(); }

int scioto_detector_enabled(void) {
  return scioto::detect::config().enabled ? 1 : 0;
}

void scioto_detector_set(int enabled) {
  scioto::detect::Config c = scioto::detect::config();
  c.enabled = enabled != 0;
  scioto::detect::set_config(c);
}

int64_t scioto_hb_period_ns(void) {
  return scioto::detect::config().hb_period;
}

void scioto_set_hb_period_ns(int64_t period_ns) {
  SCIOTO_REQUIRE(period_ns > 0,
                 "scioto_set_hb_period_ns: period must be > 0");
  scioto::detect::Config c = scioto::detect::config();
  c.hb_period = period_ns;
  if (c.suspect_after <= c.hb_period) {
    // Keep the staged config self-consistent: suspicion needs to tolerate
    // at least a couple of missed heartbeats.
    c.suspect_after = 8 * c.hb_period;
  }
  if (c.confirm_after <= c.suspect_after) {
    c.confirm_after = 4 * c.suspect_after;
  }
  scioto::detect::set_config(c);
}

int64_t scioto_suspect_timeout_ns(void) {
  return scioto::detect::config().suspect_after;
}

void scioto_set_suspect_timeout_ns(int64_t timeout_ns) {
  scioto::detect::Config c = scioto::detect::config();
  SCIOTO_REQUIRE(timeout_ns > c.hb_period,
                 "scioto_set_suspect_timeout_ns: timeout "
                     << timeout_ns << " must exceed the heartbeat period "
                     << c.hb_period);
  c.suspect_after = timeout_ns;
  if (c.confirm_after <= c.suspect_after) {
    c.confirm_after = 4 * c.suspect_after;
  }
  scioto::detect::set_config(c);
}

void scioto_detector_stats_get(scioto_detector_stats_t* out) {
  SCIOTO_REQUIRE(out != nullptr, "scioto_detector_stats_get: NULL out");
  scioto::detect::Stats s = scioto::detect::stats();
  out->heartbeats = s.heartbeats;
  out->probes = s.probes;
  out->suspects = s.suspects;
  out->refutes = s.refutes;
  out->confirms = s.confirms;
  out->fence_aborts = s.fence_aborts;
  out->rejoins = s.rejoins;
  out->max_detect_latency_ns = s.max_detect_latency;
}

int scioto_elastic_enabled(void) {
  return scioto::elastic::config().enabled ? 1 : 0;
}

void scioto_elastic_set(int enabled) {
  scioto::elastic::Config c = scioto::elastic::config();
  c.enabled = enabled != 0;
  scioto::elastic::set_config(c);
}

namespace {
// scioto_ckpt_path/scioto_ckpt_restore_path return pointers into
// library-owned storage; keep a stable copy of the staged strings.
std::string& ckpt_path_storage() {
  static std::string s;
  return s;
}
std::string& restore_path_storage() {
  static std::string s;
  return s;
}
}  // namespace

const char* scioto_ckpt_path(void) {
  ckpt_path_storage() = scioto::elastic::config().ckpt_path;
  return ckpt_path_storage().c_str();
}

void scioto_ckpt_path_set(const char* path) {
  scioto::elastic::Config c = scioto::elastic::config();
  c.ckpt_path = path != nullptr ? path : "";
  if (c.ckpt_path.empty()) {
    c.ckpt_period = 0;  // a cadence without a path cannot stage
  }
  scioto::elastic::set_config(c);
}

int64_t scioto_ckpt_period_ns(void) {
  return scioto::elastic::config().ckpt_period;
}

void scioto_ckpt_set_period_ns(int64_t period_ns) {
  SCIOTO_REQUIRE(period_ns >= 0,
                 "scioto_ckpt_set_period_ns: period must be >= 0");
  scioto::elastic::Config c = scioto::elastic::config();
  SCIOTO_REQUIRE(period_ns == 0 || !c.ckpt_path.empty(),
                 "scioto_ckpt_set_period_ns: set scioto_ckpt_path_set first "
                 "(a cadence needs somewhere to write)");
  c.ckpt_period = period_ns;
  scioto::elastic::set_config(c);
}

const char* scioto_ckpt_restore_path(void) {
  restore_path_storage() = scioto::elastic::config().restore_path;
  return restore_path_storage().c_str();
}

void scioto_ckpt_restore_set(const char* path) {
  scioto::elastic::Config c = scioto::elastic::config();
  c.restore_path = path != nullptr ? path : "";
  scioto::elastic::set_config(c);
}

int scioto_ckpt_halt_after(void) {
  return scioto::elastic::config().halt_after_ckpt ? 1 : 0;
}

void scioto_ckpt_set_halt_after(int halt) {
  scioto::elastic::Config c = scioto::elastic::config();
  c.halt_after_ckpt = halt != 0;
  scioto::elastic::set_config(c);
}

void scioto_ckpt_request(void) { scioto::elastic::request_ckpt(); }

void scioto_elastic_stats_get(scioto_elastic_stats_t* out) {
  SCIOTO_REQUIRE(out != nullptr, "scioto_elastic_stats_get: NULL out");
  scioto::elastic::Stats e = scioto::elastic::stats();
  scioto::detect::Stats d = scioto::detect::stats();
  out->checkpoints = e.checkpoints;
  out->restores = e.restores;
  out->joins = d.joins;
  out->grows = d.grows;
}

int scioto_metrics_enabled(void) {
  return scioto::metrics::config().enabled ? 1 : 0;
}

void scioto_metrics_set(int enabled) {
  scioto::metrics::Config c = scioto::metrics::config();
  c.enabled = enabled != 0;
  scioto::metrics::set_config(c);
}

int64_t scioto_metrics_period_ns(void) {
  return scioto::metrics::config().period;
}

void scioto_set_metrics_period_ns(int64_t period_ns) {
  SCIOTO_REQUIRE(period_ns > 0,
                 "scioto_set_metrics_period_ns: period must be > 0");
  scioto::metrics::Config c = scioto::metrics::config();
  c.period = period_ns;
  scioto::metrics::set_config(c);
}

// The opaque handle wraps the C++ snapshot; the struct tag in the header
// is completed here so the pointer round-trips type-safely.
struct scioto_metrics_snapshot {
  scioto::metrics::Snapshot snap;
};

scioto_metrics_snapshot_t* scioto_metrics_snapshot(int rank) {
  if (!scioto::metrics::active() || rank < 0 ||
      rank >= scioto::metrics::session_nranks()) {
    return nullptr;
  }
  auto* out = new scioto_metrics_snapshot_t();
  if (!scioto::metrics::scrape(rank, &out->snap)) {
    delete out;
    return nullptr;
  }
  return out;
}

void scioto_metrics_snapshot_free(scioto_metrics_snapshot_t* snap) {
  delete snap;
}

int scioto_metrics_read(const scioto_metrics_snapshot_t* snap,
                        const char* name, uint64_t* value) {
  if (snap == nullptr || name == nullptr || value == nullptr) {
    return -1;
  }
  return scioto::metrics::read_metric(snap->snap, name, value) ? 0 : -1;
}

int scioto_metrics_read_rank(int rank, const char* name, uint64_t* value) {
  scioto_metrics_snapshot_t* s = scioto_metrics_snapshot(rank);
  if (s == nullptr) {
    return -1;
  }
  int rc = scioto_metrics_read(s, name, value);
  scioto_metrics_snapshot_free(s);
  return rc;
}

const char* scioto_ctl_mode(void) {
  return scioto::control::mode_name(scioto::control::config().mode);
}

int scioto_ctl_mode_set(const char* mode) {
  scioto::control::Mode m;
  if (mode == nullptr || !scioto::control::mode_from_name(mode, &m)) {
    return -1;
  }
  scioto::control::Config c = scioto::control::config();
  c.mode = m;
  scioto::control::set_config(c);
  return 0;
}

int64_t scioto_ctl_period_ns(void) {
  return scioto::control::config().period;
}

void scioto_ctl_set_period_ns(int64_t period_ns) {
  SCIOTO_REQUIRE(period_ns > 0,
                 "scioto_ctl_set_period_ns: period must be > 0");
  scioto::control::Config c = scioto::control::config();
  c.period = period_ns;
  scioto::control::set_config(c);
}

int scioto_ctl_rules_set(const char* spec, char* errbuf, int errbuf_len) {
  if (errbuf != nullptr && errbuf_len > 0) {
    errbuf[0] = '\0';
  }
  scioto::control::Config c = scioto::control::config();
  if (spec == nullptr || spec[0] == '\0') {
    c.rules = scioto::control::Rules{};
    scioto::control::set_config(c);
    return 0;
  }
  scioto::control::Rules parsed;
  std::string err;
  if (!scioto::control::Rules::parse(spec, &parsed, &err)) {
    if (errbuf != nullptr && errbuf_len > 0) {
      std::strncpy(errbuf, err.c_str(),
                   static_cast<std::size_t>(errbuf_len) - 1);
      errbuf[errbuf_len - 1] = '\0';
    }
    return -1;
  }
  c.rules = parsed;
  scioto::control::set_config(c);
  return 0;
}

void scioto_ctl_stats_get(scioto_ctl_stats_t* out) {
  SCIOTO_REQUIRE(out != nullptr, "scioto_ctl_stats_get: NULL out");
  scioto::control::Stats s = scioto::control::stats();
  out->epochs = s.epochs;
  out->decisions = s.decisions;
  out->inherits = s.inherits;
}

const char* tc_queue_mode(tc_t tc) {
  return scioto::queue_mode_name(collection(tc).queue_mode());
}

int scioto_lineage_enabled(void) {
  return scioto::trace::lineage::config().enabled ? 1 : 0;
}

void scioto_lineage_set(int enabled) {
  scioto::trace::lineage::Config c = scioto::trace::lineage::config();
  c.enabled = enabled != 0;
  scioto::trace::lineage::set_config(c);
}

int scioto_lineage_report_get(scioto_lineage_report_t* out) {
  SCIOTO_REQUIRE(out != nullptr, "scioto_lineage_report_get: NULL out");
  std::memset(out, 0, sizeof(*out));
  if (!scioto::trace::lineage::active() || !scioto::trace::active()) {
    return -1;
  }
  const int nranks = scioto::trace::session_nranks();
  const std::vector<scioto::trace::Event> events =
      scioto::trace::all_events();
  const scioto::trace::LineageReport rep = scioto::trace::lineage_report(
      events, nranks, scioto::trace::total_dropped());
  const scioto::trace::CriticalPath cp =
      scioto::trace::critical_path(rep, events, nranks);
  out->tasks_spawned = rep.spawns;
  out->tasks_executed = rep.execs;
  out->migrations = rep.migrations;
  out->max_hops = rep.max_hops;
  out->violations = rep.violations.size();
  out->ring_dropped = rep.dropped;
  out->critical_path_ns = cp.length;
  out->spawn_exec_p50_ns =
      static_cast<int64_t>(rep.spawn_to_exec.percentile(50));
  out->spawn_exec_p99_ns =
      static_cast<int64_t>(rep.spawn_to_exec.percentile(99));
  return 0;
}

int tc_knob_get(tc_t tc, const char* name, int64_t* value) {
  scioto::control::Knob k;
  if (name == nullptr || value == nullptr ||
      !scioto::control::knob_from_name(name, &k)) {
    return -1;
  }
  *value = collection(tc).knob(k);
  return 0;
}

int tc_knob_set(tc_t tc, const char* name, int64_t value) {
  scioto::control::Knob k;
  if (name == nullptr || !scioto::control::knob_from_name(name, &k)) {
    return -1;
  }
  collection(tc).set_knob(k, value);
  return 0;
}

}  // extern "C"
