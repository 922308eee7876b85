// The committed benchmark: one fixed workload per process on the
// deterministic sim backend, printing one JSON result line.
//
//   scioto_bench --workload NAME --seed S --seconds T [--trace 0|1]
//   scioto_bench --selfcheck   bench-owned UTS run == apps::uts_run_scioto
//   scioto_bench --smoke       traced reduced-size runs of every workload
//
// Every workload runs on the sim engine's single host thread, so the
// virtual-time metrics are exact functions of (workload, seed) and only the
// host-clock metrics carry noise. The UTS and phase workloads run code
// owned by this file, over the public TaskCollection / UTS generator /
// Runtime APIs, so an edit to an app's run function cannot silently change
// a workload. Workloads, metrics and the layer map: BENCHMARK.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/cholesky/cholesky.hpp"
#include "apps/uts/uts.hpp"
#include "apps/uts/uts_drivers.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "base/rng.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "pgas/runtime.hpp"
#include "scioto/task_collection.hpp"
#include "trace/analysis.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

extern char** environ;

using namespace scioto;

namespace {

using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: p99 of 1000 samples leaves 10 above it.
template <class T>
T percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto k = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::max<std::size_t>(k, 1) - 1];
}

// ---- Workloads ------------------------------------------------------------

enum class Kind { Uts, Cholesky, Phases };

struct Workload {
  std::string name;
  Kind kind = Kind::Uts;
  int procs = 0;
  sim::MachineModel machine;
  std::size_t stack_bytes = 256 * 1024;
  // Uts: one run_spmd per tree, one process() each.
  std::vector<apps::UtsParams> trees;
  TimeNs node_cost = 0;
  int chunk = 10;
  std::int64_t max_tasks = 1 << 14;
  // Cholesky: one apps::cholesky_dag call.
  apps::CholeskyConfig chol;
  // Phases: `phases` back-to-back process() calls in one run_spmd.
  int phases = 0;
  TimeNs task_cost = 0;
  // Runtime seeds per measurement, all derived from --seed: victim choice
  // moves the virtual makespan by up to ~15% (Cholesky: ~35%) from one
  // seed to the next, so the end-to-end metrics average this many.
  int seeds = 1;

  int runs() const {
    return kind == Kind::Uts ? static_cast<int>(trees.size()) : 1;
  }
  int phases_per_run() const { return kind == Kind::Phases ? phases : 1; }
};

apps::UtsParams geo_tree(int depth) {
  apps::UtsParams p = apps::uts_bench();  // GEO-linear, seed 19, b0 6
  p.gen_mx = depth;
  return p;
}

/// The T2 bursty binomial of the chunk/control benches.
apps::UtsParams burst_tree(int seed, double b0) {
  apps::UtsParams p;
  p.tree = apps::UtsTree::Binomial;
  p.seed = seed;
  p.b0 = b0;
  p.q = 0.120;
  p.m = 8;
  return p;
}

/// The five workloads. `reduced` shrinks each to a seconds-scale variant
/// of the same shape for --smoke.
std::vector<Workload> all_workloads(bool reduced) {
  std::vector<Workload> ws;
  {
    Workload w;
    w.name = "uts_geo_xt4_512";
    w.procs = reduced ? 64 : 512;
    w.machine = sim::cray_xt4();
    w.stack_bytes = 192 * 1024;
    w.trees = {geo_tree(reduced ? 9 : 13)};
    w.node_cost = ns(568);
    w.max_tasks = 1 << 13;
    w.seeds = 2;
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "uts_geo_cluster64";
    w.procs = reduced ? 16 : 64;
    w.machine = sim::cluster2008();
    w.trees = {geo_tree(reduced ? 8 : 11)};
    w.node_cost = ns(316);
    w.seeds = 16;
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "uts_bin_burst8";
    w.procs = 8;
    w.machine = sim::cluster2008();
    for (int s = 42; s < (reduced ? 44 : 50); ++s) {
      w.trees.push_back(burst_tree(s, reduced ? 200 : 2000));
    }
    w.node_cost = ns(316);
    w.seeds = 8;
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "cholesky_dag8";
    w.kind = Kind::Cholesky;
    w.procs = reduced ? 4 : 8;
    w.machine = sim::cluster2008_uniform();
    w.chol.tiles = reduced ? 6 : 16;
    w.chol.tile = 16;
    w.seeds = 48;
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "phases_td64";
    w.kind = Kind::Phases;
    w.procs = reduced ? 16 : 64;
    w.machine = sim::cluster2008_uniform();
    w.phases = reduced ? 50 : 1000;
    w.task_cost = us(5.0);
    w.seeds = 2;
    ws.push_back(w);
  }
  return ws;
}

// The Cholesky app's per-kernel fma counts (apps/cholesky/cholesky.cpp):
// the exact virtual compute the factorization charges.
std::int64_t cholesky_app_ns(const apps::CholeskyConfig& c) {
  const std::int64_t b = c.tile, nt = c.tiles;
  std::int64_t flops = 0;
  for (std::int64_t k = 0; k < nt; ++k) {
    const std::int64_t rest = nt - 1 - k;
    flops += b * b * b / 3 + b;                 // potrf
    flops += rest * (b * b * b / 2);            // trsm
    flops += rest * (b * b * b / 2);            // syrk
    flops += rest * (rest - 1) / 2 * b * b * b;  // gemm
  }
  return flops * c.flop_cost;
}

std::int64_t cholesky_nodes(int nt) {
  std::int64_t n = 0;
  for (int k = 0; k < nt; ++k) {
    const std::int64_t rest = nt - 1 - k;
    n += 1 + rest + rest * (rest + 1) / 2;
  }
  return n;
}

// ---- Per-run records ------------------------------------------------------

/// One rank's split of its process() time, summed over a run's phases:
/// process = ramp + bodies + gaps + tail, bodies = app + adds + other.
/// Filled only by traced runs, from the bench's own spans.
struct RankLayers {
  TimeNs process = 0, ramp = 0, bodies = 0, gaps = 0, tail = 0;
  TimeNs app = 0, add_local = 0, add_remote = 0;
  std::uint64_t body_n = 0, add_local_n = 0, add_remote_n = 0;
  // The open phase.
  TimeNs entry = 0, body_start = 0, last_exit = -1;
};

/// What one run_spmd call leaves behind. The sim engine runs every rank on
/// one host thread, so ranks write their own slots without locking.
struct RunRec {
  int procs = 0;
  int phases = 0;
  std::vector<TimeNs> t0;         // per phase: post-barrier start
  std::vector<TimeNs> ret;        // [phase * procs + r]: process() return
  std::vector<TimeNs> last_body;  // [phase * procs + r]: last body exit
  std::vector<RankLayers> layers;
  // Host ns of each traced local add. Reported as a median: a sim charge
  // inside the add may yield, and the host time other ranks' fibers then
  // run lands inside whichever span is open. A remote add always yields
  // (its RMA charge syncs with the scheduler), so it is not sampled.
  std::vector<double> add_host_ns;
  std::vector<TcStats> stats;           // per rank, summed over phases
  std::vector<apps::UtsCounts> counts;  // Uts: per rank
  apps::CholeskyResult chol;
  TimeNs app_window = -1;  // Cholesky: the app's own measured window
  Clock::time_point host_call, host_begin, host_end;

  RunRec(int p, int nphases)
      : procs(p),
        phases(nphases),
        t0(static_cast<std::size_t>(nphases)),
        ret(static_cast<std::size_t>(nphases) * p),
        last_body(static_cast<std::size_t>(nphases) * p, -1),
        layers(static_cast<std::size_t>(p)),
        stats(static_cast<std::size_t>(p)),
        counts(static_cast<std::size_t>(p)) {}

  TimeNs phase_latency(int ph) const {
    if (app_window >= 0) return app_window;
    TimeNs end = t0[static_cast<std::size_t>(ph)];
    for (int r = 0; r < procs; ++r) {
      end = std::max(end, ret[static_cast<std::size_t>(ph * procs + r)]);
    }
    return end - t0[static_cast<std::size_t>(ph)];
  }
};

// ---- Spans (compiled out of the measured, untraced instantiations) --------

template <bool kTraced>
void body_begin(RunRec& rec, pgas::Runtime& rt) {
  if constexpr (kTraced) {
    RankLayers& L = rec.layers[static_cast<std::size_t>(rt.me())];
    const TimeNs now = rt.now();
    if (L.last_exit < 0) {
      L.ramp += now - L.entry;
    } else {
      L.gaps += now - L.last_exit;
    }
    L.body_start = now;
  }
}

template <bool kTraced>
void body_end(RunRec& rec, pgas::Runtime& rt) {
  if constexpr (kTraced) {
    RankLayers& L = rec.layers[static_cast<std::size_t>(rt.me())];
    L.last_exit = rt.now();
    L.bodies += L.last_exit - L.body_start;
    L.body_n++;
  }
}

template <bool kTraced>
void app_charge(RunRec& rec, pgas::Runtime& rt, TimeNs cost) {
  if constexpr (kTraced) {
    const TimeNs t = rt.now();
    rt.charge(cost);
    rec.layers[static_cast<std::size_t>(rt.me())].app += rt.now() - t;
  } else {
    rt.charge(cost);
  }
}

template <bool kTraced>
void add_task(RunRec& rec, TaskCollection& tc, Rank where, const Task& t) {
  if constexpr (kTraced) {
    pgas::Runtime& rt = tc.runtime();
    RankLayers& L = rec.layers[static_cast<std::size_t>(rt.me())];
    const bool local = where == rt.me();
    const TimeNs v = rt.now();
    const Clock::time_point h = Clock::now();
    tc.add(where, kAffinityHigh, t);
    if (local) rec.add_host_ns.push_back(secs(h, Clock::now()) * 1e9);
    (local ? L.add_local : L.add_remote) += rt.now() - v;
    (local ? L.add_local_n : L.add_remote_n)++;
  } else {
    tc.add(where, kAffinityHigh, t);
  }
}

/// Every rank, right after the barrier that opens phase `ph` (clocks agree
/// there): stamps the phase's virtual start, and rank 0 the host instant
/// set-up ends.
void begin_phase(RunRec& rec, pgas::Runtime& rt, int ph) {
  if (rt.me() == 0) {
    rec.t0[static_cast<std::size_t>(ph)] = rt.now();
    if (ph == 0) rec.host_begin = Clock::now();
  }
}

template <bool kTraced>
void timed_process(RunRec& rec, pgas::Runtime& rt, TaskCollection& tc,
                   int ph) {
  const auto me = static_cast<std::size_t>(rt.me());
  const std::size_t slot = static_cast<std::size_t>(ph) * rec.procs + me;
  const TimeNs entry = rt.now();
  if constexpr (kTraced) {
    rec.layers[me].entry = entry;
    rec.layers[me].last_exit = -1;
  }
  tc.process();
  const TimeNs ret = rt.now();
  rec.host_end = Clock::now();
  rec.ret[slot] = ret;
  if constexpr (kTraced) {
    RankLayers& L = rec.layers[me];
    L.process += ret - entry;
    if (L.last_exit < 0) {
      L.ramp += ret - entry;  // no body ran on this rank
    } else {
      L.tail += ret - L.last_exit;
    }
    rec.last_body[slot] = L.last_exit;
  }
  rec.stats[me] += tc.stats_local();
}

// ---- Workload bodies ------------------------------------------------------

/// UTS with apps::uts_run_scioto's collection config and callback: charge
/// the node, walk the first-child chain inline, add every other child to
/// the local queue. --selfcheck pins the two to the same makespan.
template <bool kTraced>
void uts_body(pgas::Runtime& rt, const Workload& w,
              const apps::UtsParams& tree, RunRec& rec, bool setup_only) {
  TcConfig tcc;
  tcc.max_task_body = sizeof(apps::UtsNode);
  tcc.chunk_size = w.chunk;
  tcc.max_tasks_per_rank = w.max_tasks;
  TaskCollection tc(rt, tcc);
  CloHandle counts_clo =
      tc.register_clo(&rec.counts[static_cast<std::size_t>(rt.me())]);
  TaskHandle h = tc.register_callback([&, counts_clo](TaskContext& ctx) {
    pgas::Runtime& r = ctx.tc.runtime();
    body_begin<kTraced>(rec, r);
    apps::UtsCounts& counts = ctx.tc.clo<apps::UtsCounts>(counts_clo);
    apps::UtsNode node = ctx.body_as<apps::UtsNode>();
    for (;;) {
      app_charge<kTraced>(rec, r, w.node_cost);
      ++counts.nodes;
      counts.max_depth = std::max<std::int64_t>(counts.max_depth, node.depth);
      const int nc = apps::uts_num_children(node, tree);
      if (nc == 0) {
        ++counts.leaves;
        break;
      }
      for (int i = 1; i < nc; ++i) {
        Task t = ctx.tc.task_create(sizeof(apps::UtsNode), ctx.header.callback);
        t.body_as<apps::UtsNode>() = apps::uts_child(node, i);
        add_task<kTraced>(rec, ctx.tc, r.me(), t);
      }
      node = apps::uts_child(node, 0);
    }
    body_end<kTraced>(rec, r);
  });
  if (rt.me() == 0) {
    Task t = tc.task_create(sizeof(apps::UtsNode), h);
    t.body_as<apps::UtsNode>() = apps::uts_root(tree);
    tc.add_local(t);
  }
  rt.barrier();
  begin_phase(rec, rt, 0);
  if (!setup_only) {
    timed_process<kTraced>(rec, rt, tc, 0);
  }
  tc.destroy();
}

/// Back-to-back phases: every rank adds one task to another rank (a
/// seed-chosen offset per phase, so each rank receives exactly one), then
/// all call process() and reset().
template <bool kTraced>
void phases_body(pgas::Runtime& rt, const Workload& w,
                 const std::vector<int>& offsets, RunRec& rec,
                 bool setup_only) {
  TcConfig tcc;
  tcc.max_task_body = 8;
  tcc.max_tasks_per_rank = 1 << 10;
  TaskCollection tc(rt, tcc);
  TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
    pgas::Runtime& r = ctx.tc.runtime();
    body_begin<kTraced>(rec, r);
    app_charge<kTraced>(rec, r, w.task_cost);
    body_end<kTraced>(rec, r);
  });
  const Task task = tc.task_create(0, h);
  for (int ph = 0; ph < w.phases; ++ph) {
    rt.barrier();
    begin_phase(rec, rt, ph);
    if (setup_only) break;
    add_task<kTraced>(rec, tc,
                      (rt.me() + offsets[static_cast<std::size_t>(ph)]) %
                          rt.nprocs(),
                      task);
    timed_process<kTraced>(rec, rt, tc, ph);
    tc.reset();
  }
  tc.destroy();
}

/// The app owns its collection, so set-up here ends where the app begins;
/// its graph build and verification fall in the measured host time.
void cholesky_body(pgas::Runtime& rt, const Workload& w, RunRec& rec,
                   bool setup_only) {
  if (rt.me() == 0) rec.host_begin = Clock::now();
  if (setup_only) return;
  apps::CholeskyResult res = apps::cholesky_dag(rt, w.chol);
  rec.host_end = Clock::now();
  if (rt.me() == 0) rec.chol = res;
}

// ---- pgas probe -----------------------------------------------------------

/// Mean virtual and host cost of single one-sided ops from rank 0 to rank
/// P-1 with everyone else parked in a barrier, plus the barrier itself.
struct Probe {
  double get_us = 0, put_us = 0, fadd_us = 0, cas_us = 0, lock_us = 0,
         barrier_us = 0;
  double get_host_ns = 0, fadd_host_ns = 0, lock_host_ns = 0,
         barrier_host_us = 0;
};

constexpr int kProbeOps = 200;

void probe_pgas(pgas::Runtime& rt, std::size_t slot_bytes, Probe& out) {
  const Rank peer = rt.nprocs() - 1;
  pgas::SegId seg = rt.seg_alloc(std::max<std::size_t>(slot_bytes, 64));
  pgas::LockSet locks = rt.lockset_create();
  rt.barrier();
  if (rt.me() == 0) {
    std::vector<std::byte> buf(slot_bytes);
    auto time_op = [&](double* virt_us, double* host_ns,
                       const std::function<void()>& op) {
      const TimeNs v = rt.now();
      const Clock::time_point h = Clock::now();
      for (int i = 0; i < kProbeOps; ++i) op();
      *virt_us = to_us(rt.now() - v) / kProbeOps;
      if (host_ns != nullptr) {
        *host_ns = secs(h, Clock::now()) * 1e9 / kProbeOps;
      }
    };
    time_op(&out.get_us, &out.get_host_ns,
            [&] { rt.get(seg, peer, 0, buf.data(), slot_bytes); });
    time_op(&out.put_us, nullptr,
            [&] { rt.put(seg, peer, 0, buf.data(), slot_bytes); });
    time_op(&out.fadd_us, &out.fadd_host_ns,
            [&] { rt.fetch_add(seg, peer, 0, 1); });
    time_op(&out.cas_us, nullptr,
            [&] { rt.compare_swap(seg, peer, 0, 0, 1); });
    time_op(&out.lock_us, &out.lock_host_ns, [&] {
      rt.lock(locks, peer);
      rt.unlock(locks, peer);
    });
  }
  rt.barrier();
  const TimeNs v = rt.now();
  const Clock::time_point h = Clock::now();
  for (int i = 0; i < kProbeOps; ++i) rt.barrier();
  if (rt.me() == 0) {
    out.barrier_us = to_us(rt.now() - v) / kProbeOps;
    out.barrier_host_us = secs(h, Clock::now()) * 1e6 / kProbeOps;
  }
  rt.seg_free(seg);
}

std::size_t slot_bytes(const Workload& w) {
  std::int32_t body = TcConfig{}.max_task_body;  // the Cholesky app's default
  if (w.kind == Kind::Uts) body = sizeof(apps::UtsNode);
  if (w.kind == Kind::Phases) body = 8;
  return align_up(sizeof(TaskHeader) + static_cast<std::size_t>(body), 8);
}

// ---- Cholesky layers from the trace ---------------------------------------

/// The Cholesky app runs its own collection, so its traced run reads the
/// same split (and the TcStats fields the metrics use) from the library's
/// trace events instead of bench spans; searching time comes from the
/// public trace::time_breakdown, which must agree with the split.
std::string layers_from_trace(RunRec& rec) {
  const std::vector<trace::RankBreakdown> bd =
      trace::time_breakdown(trace::all_events(), rec.procs);
  for (Rank r = 0; r < rec.procs; ++r) {
    RankLayers& L = rec.layers[static_cast<std::size_t>(r)];
    TcStats& st = rec.stats[static_cast<std::size_t>(r)];
    TimeNs body_start = 0;
    for (const trace::Event& e : trace::events(r)) {
      switch (e.kind) {
        case trace::Ev::PhaseBegin:
          L.entry = e.t;
          L.last_exit = -1;
          break;
        case trace::Ev::TaskBegin:
          if (L.last_exit < 0) {
            L.ramp += e.t - L.entry;
          } else {
            L.gaps += e.t - L.last_exit;
          }
          body_start = e.t;
          break;
        case trace::Ev::TaskEnd:
          L.bodies += e.t - body_start;
          L.last_exit = e.t;
          L.body_n++;
          st.tasks_executed++;
          break;
        case trace::Ev::PhaseEnd:
          L.process += e.c;
          if (L.last_exit < 0) {
            L.ramp += e.t - L.entry;
          } else {
            L.tail += e.t - L.last_exit;
          }
          rec.ret[static_cast<std::size_t>(r)] = e.t;
          rec.last_body[static_cast<std::size_t>(r)] = L.last_exit;
          break;
        case trace::Ev::StealAttempt:
          st.steal_attempts++;
          break;
        case trace::Ev::StealOk:
          st.steals++;
          st.tasks_stolen += static_cast<std::uint64_t>(e.b);
          break;
        case trace::Ev::Release:
          st.releases++;
          break;
        case trace::Ev::Reacquire:
        case trace::Ev::ReacquireFast:
          st.reacquires++;
          break;
        case trace::Ev::Vote:
          st.td_waves_voted++;
          st.td_black_votes += e.b != 0;
          break;
        default:
          break;
      }
    }
    const trace::RankBreakdown& b = bd[static_cast<std::size_t>(r)];
    if (b.total != L.process || b.working != L.bodies) {
      return "rank " + std::to_string(r) +
             ": trace::time_breakdown disagrees with the event split";
    }
    st.time_searching = b.searching;
  }
  return "";
}

// ---- One run_spmd call ----------------------------------------------------

enum class Arm { None, Trace, Metrics, Lineage };

struct RunOpts {
  bool traced = false;
  bool setup_only = false;
  Arm arm = Arm::None;
  Probe* probe = nullptr;
};

/// Runs workload run `idx` once. Returns "" when the outputs verify, else
/// what failed.
std::string run_once(const Workload& w, int idx, std::uint64_t seed,
                     const RunOpts& o, RunRec& rec,
                     const std::vector<apps::UtsCounts>& expect) {
  pgas::Config cfg;
  cfg.nranks = w.procs;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = w.machine;
  cfg.stack_bytes = w.stack_bytes;
  cfg.seed = seed;
  const bool chol_trace = o.traced && w.kind == Kind::Cholesky;
  if (chol_trace) {
    trace::start(w.procs, 1 << 16);
  } else if (o.arm == Arm::Trace) {
    trace::start(w.procs, 1 << 12);
  } else if (o.arm == Arm::Metrics) {
    metrics::start(w.procs);
    metrics::MonitorOptions mo;
    mo.period = metrics::config().period;
    metrics::monitor_start(w.procs, mo);
  } else if (o.arm == Arm::Lineage) {
    trace::lineage::start(w.procs);
  }
  std::vector<int> offsets;
  if (w.kind == Kind::Phases) {
    Xoshiro256 rng(derive_seed(seed, 0, 0xB0));
    for (int p = 0; p < w.phases; ++p) {
      offsets.push_back(1 + static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(w.procs - 1))));
    }
  }
  std::string err;
  rec.host_call = Clock::now();
  try {
    pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
      switch (w.kind) {
        case Kind::Uts:
          if (o.traced) {
            uts_body<true>(rt, w, w.trees[static_cast<std::size_t>(idx)], rec,
                           o.setup_only);
          } else {
            uts_body<false>(rt, w, w.trees[static_cast<std::size_t>(idx)],
                            rec, o.setup_only);
          }
          break;
        case Kind::Phases:
          if (o.traced) {
            phases_body<true>(rt, w, offsets, rec, o.setup_only);
          } else {
            phases_body<false>(rt, w, offsets, rec, o.setup_only);
          }
          break;
        case Kind::Cholesky:
          cholesky_body(rt, w, rec, o.setup_only);
          break;
      }
      if (o.probe != nullptr) probe_pgas(rt, slot_bytes(w), *o.probe);
    });
  } catch (const std::exception& e) {
    err = std::string("exception: ") + e.what();
  }
  if (chol_trace) {
    if (trace::total_dropped() != 0) err = "trace ring dropped events";
    if (err.empty() && !o.setup_only) err = layers_from_trace(rec);
    trace::stop();
  } else if (o.arm == Arm::Trace) {
    trace::stop();
  } else if (o.arm == Arm::Metrics) {
    metrics::monitor_stop();
    metrics::stop();
  } else if (o.arm == Arm::Lineage) {
    trace::lineage::stop();
  }
  if (!err.empty() || o.setup_only) return err;

  // Outputs must be right.
  std::uint64_t executed = 0, spawned = 0;
  for (const TcStats& s : rec.stats) {
    executed += s.tasks_executed;
    spawned += s.tasks_spawned_local + s.tasks_spawned_remote;
  }
  if (w.kind == Kind::Uts) {
    apps::UtsCounts got;
    for (const apps::UtsCounts& c : rec.counts) got += c;
    if (!(got == expect[static_cast<std::size_t>(idx)])) {
      return "UTS traversal of " +
             apps::uts_describe(w.trees[static_cast<std::size_t>(idx)]) +
             " counted " + std::to_string(got.nodes) + " nodes, expected " +
             std::to_string(expect[static_cast<std::size_t>(idx)].nodes);
    }
    if (executed != spawned) return "executed tasks != seeded tasks";
  } else if (w.kind == Kind::Phases) {
    if (executed != spawned ||
        executed != static_cast<std::uint64_t>(w.phases) * w.procs) {
      return "executed tasks != seeded tasks";
    }
  } else {
    if (!(rec.chol.residual <= 1e-12)) {
      return "Cholesky residual " + std::to_string(rec.chol.residual);
    }
    if (rec.chol.dag.nodes_run !=
        static_cast<std::uint64_t>(cholesky_nodes(w.chol.tiles))) {
      return "Cholesky ran " + std::to_string(rec.chol.dag.nodes_run) +
             " nodes, expected " +
             std::to_string(cholesky_nodes(w.chol.tiles));
    }
    rec.app_window =
        static_cast<TimeNs>(std::llround(rec.chol.elapsed_ms * 1e6));
  }
  return "";
}

// ---- One repetition of a workload -----------------------------------------

/// Every run of a workload under `nseeds` runtime seeds derived from
/// `seed`: the unit the end-to-end metrics describe.
struct Rep {
  int nseeds = 1;
  int attempted = 0, failed = 0;
  std::string error;
  std::vector<RunRec> recs;
  std::vector<TimeNs> phase_lat;  // every process() window of every run
  TimeNs makespan = 0;            // their sum
  double app_ns = 0;              // exact app compute of every rank
  double host_s = 0;              // host seconds of the measured regions
  std::uint64_t tasks = 0;        // task bodies executed
};

std::uint64_t runtime_seed(std::uint64_t seed, int k) {
  return derive_seed(seed, k, 0x5EED);
}

Rep run_rep(const Workload& w, std::uint64_t seed, int nseeds,
            const RunOpts& o, const std::vector<apps::UtsCounts>& expect) {
  Rep rep;
  rep.nseeds = nseeds;
  for (int n = 0; n < nseeds * w.runs(); ++n) {
    const int i = n % w.runs();
    rep.recs.emplace_back(w.procs, w.phases_per_run());
    RunRec& rec = rep.recs.back();
    rep.attempted++;
    RunOpts oi = o;
    if (n > 0) oi.probe = nullptr;  // one probe per rep
    std::string err =
        run_once(w, i, runtime_seed(seed, n / w.runs()), oi, rec, expect);
    if (!err.empty()) {
      rep.failed++;
      if (rep.error.empty()) rep.error = w.name + ": " + err;
      continue;
    }
    rep.host_s += secs(rec.host_begin, rec.host_end);
    for (int ph = 0; ph < rec.phases; ++ph) {
      rep.phase_lat.push_back(rec.phase_latency(ph));
      rep.makespan += rep.phase_lat.back();
    }
    if (w.kind == Kind::Cholesky) {
      rep.app_ns += static_cast<double>(cholesky_app_ns(w.chol));
      const dag::DagStats& d = rec.chol.dag;
      rep.tasks += d.nodes_run + d.conflict_retries + d.version_waits;
      continue;
    }
    for (Rank r = 0; r < w.procs; ++r) {
      const auto u = static_cast<std::size_t>(r);
      const std::uint64_t units = w.kind == Kind::Uts
                                      ? rec.counts[u].nodes
                                      : rec.stats[u].tasks_executed;
      const TimeNs cost = w.kind == Kind::Uts ? w.node_cost : w.task_cost;
      rep.app_ns += static_cast<double>(units) *
                    static_cast<double>(std::llround(
                        static_cast<double>(cost) *
                        w.machine.cpu_scale(r, w.procs)));
      rep.tasks += rec.stats[u].tasks_executed;
    }
  }
  return rep;
}

// ---- Output ---------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Virtual-time results of a rep (ns), each a mean over its runtime
/// seeds; identical on every rep of one seed.
struct Virtual {
  double makespan = 0;
  double p50 = 0, p99 = 0;  // over the workload's phases
  double efficiency = 0;
  bool operator==(const Virtual&) const = default;
};

Virtual virtual_of(const Workload& w, const Rep& rep) {
  Virtual v;
  v.makespan = static_cast<double>(rep.makespan) / rep.nseeds;
  // phase_lat holds one block of (run, phase) windows per runtime seed.
  const std::size_t n = rep.phase_lat.size() / rep.nseeds;
  std::vector<double> mean(n);
  for (std::size_t k = 0; k < rep.phase_lat.size(); ++k) {
    mean[k % n] += static_cast<double>(rep.phase_lat[k]) / rep.nseeds;
  }
  v.p50 = percentile(mean, 50);
  v.p99 = percentile(mean, 99);
  v.efficiency = ratio(rep.app_ns, static_cast<double>(w.procs) *
                                       static_cast<double>(rep.makespan));
  return v;
}

// ---- Modes ----------------------------------------------------------------

std::vector<apps::UtsCounts> reference_counts(const Workload& w) {
  std::vector<apps::UtsCounts> out;
  for (const apps::UtsParams& t : w.trees) {
    out.push_back(apps::uts_sequential(t));
  }
  return out;
}

/// Back-to-back set-up-only runs (construction up to the post-seed
/// barrier, then teardown) after the measured ones, so every sample sees
/// the same warm allocator; the median of this many is `setup_s`.
constexpr int kSetups = 7;

double setup_median(const Workload& w, std::uint64_t seed,
                    const std::vector<apps::UtsCounts>& expect, int* attempted,
                    int* failed, std::string* error) {
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    RunRec rec(w.procs, w.phases_per_run());
    RunOpts o;
    o.setup_only = true;
    ++*attempted;
    std::string err = run_once(w, 0, seed, o, rec, expect);
    if (!err.empty()) {
      ++*failed;
      if (error->empty()) *error = w.name + ": " + err;
      break;
    }
    setup.push_back(secs(rec.host_call, rec.host_begin));
  }
  return median(setup);
}

/// --trace 0: repeat the workload's seed set while another repetition fits
/// in `seconds`; report the end-to-end metrics (virtual ones must repeat
/// exactly, host ones are medians over repetitions).
int measure(const Workload& w, std::uint64_t seed, double seconds) {
  const std::vector<apps::UtsCounts> expect = reference_counts(w);
  const Clock::time_point start = Clock::now();
  int attempted = 0, failed = 0;
  std::vector<double> host;
  Virtual first;
  std::string error;
  for (;;) {
    const Clock::time_point t = Clock::now();
    Rep rep = run_rep(w, seed, w.seeds, {}, expect);
    attempted += rep.attempted;
    failed += rep.failed;
    if (rep.failed > 0 && error.empty()) error = rep.error;
    if (rep.failed == 0) {
      const Virtual v = virtual_of(w, rep);
      if (host.empty()) {
        first = v;
      } else if (!(v == first)) {
        ++failed;
        error = w.name + ": virtual results differ between reps of one seed";
      }
      host.push_back(rep.host_s / rep.nseeds);
    }
    const double elapsed = secs(start, Clock::now());
    if (failed > 0 || elapsed + secs(t, Clock::now()) > seconds) break;
  }
  const double setup =
      setup_median(w, seed, expect, &attempted, &failed, &error);
  if (!error.empty()) std::fprintf(stderr, "scioto_bench: %s\n", error.c_str());
  std::fprintf(stderr,
               "scioto_bench: %s seed %llu: %zu reps, makespan %.6f ms, "
               "efficiency %.4f, host %.3f s\n",
               w.name.c_str(), static_cast<unsigned long long>(seed),
               host.size(), first.makespan / 1e6, first.efficiency,
               median(host));
  print_result(failed == 0, attempted, failed,
               {{"makespan_ms", "ms", first.makespan / 1e6},
                {"efficiency", "ratio", first.efficiency},
                {"phase_p50_us", "us", first.p50 / 1e3},
                {"phase_p99_us", "us", first.p99 / 1e3},
                {"host_s", "s", median(host)},
                {"setup_s", "s", setup},
                {"peak_rss_mb", "MB", peak_rss_mb()}});
  return 0;
}

/// Per-layer metrics of one traced cycle: an untraced rep (with the pgas
/// probe after the workload), a traced rep, one rep with each optional
/// subsystem armed alone, and the untraced rep again -- host overheads are
/// taken against the mean of the two, which cancels a drift across the
/// cycle and the first run's cold page faults. Fails the cycle when the
/// split does not add up.
std::vector<Metric> trace_cycle(const Workload& w, std::uint64_t seed,
                                const std::vector<apps::UtsCounts>& expect,
                                int* attempted, int* failed,
                                std::string* error, double* rss_mb) {
  std::vector<Metric> m;
  auto note = [&](const Rep& r) {
    *attempted += r.attempted;
    *failed += r.failed;
    if (r.failed > 0 && error->empty()) *error = r.error;
  };
  auto fail = [&](const std::string& why) {
    ++*failed;
    if (error->empty()) *error = w.name + ": " + why;
  };
  Probe probe;
  RunOpts plain;
  plain.probe = &probe;
  Rep base = run_rep(w, seed, 1, plain, expect);
  note(base);
  if (*rss_mb == 0) *rss_mb = peak_rss_mb();
  RunOpts traced_opts;
  traced_opts.traced = true;
  Rep traced = run_rep(w, seed, 1, traced_opts, expect);
  note(traced);
  std::map<Arm, Rep> armed;
  for (Arm a : {Arm::Trace, Arm::Metrics, Arm::Lineage}) {
    RunOpts ao;
    ao.arm = a;
    armed.emplace(a, run_rep(w, seed, 1, ao, expect));
    note(armed.at(a));
  }
  Rep again = run_rep(w, seed, 1, {}, expect);
  note(again);
  if (*failed > 0) return m;
  const double base_host_s = 0.5 * (base.host_s + again.host_s);

  // The split must be exact and the spans must not perturb the program.
  if (!(virtual_of(w, traced) == virtual_of(w, base))) {
    fail("traced makespan differs from the untraced one");
  }
  const int P = w.procs;
  RankLayers tot;
  TcStats st;
  std::vector<TimeNs> detect;
  std::vector<double> add_host_ns;
  for (const RunRec& rec : traced.recs) {
    for (Rank r = 0; r < P; ++r) {
      const RankLayers& L = rec.layers[static_cast<std::size_t>(r)];
      const TcStats& s = rec.stats[static_cast<std::size_t>(r)];
      if (L.ramp + L.bodies + L.gaps + L.tail != L.process) {
        fail("rank " + std::to_string(r) +
             ": ramp + bodies + gaps + tail != process() time");
      }
      if (L.body_n != s.tasks_executed) {
        fail("rank " + std::to_string(r) +
             ": body entries != TcStats.tasks_executed");
      }
      tot.process += L.process;
      tot.ramp += L.ramp;
      tot.bodies += L.bodies;
      tot.gaps += L.gaps;
      tot.tail += L.tail;
      tot.app += L.app;
      tot.add_local += L.add_local;
      tot.add_remote += L.add_remote;
      tot.body_n += L.body_n;
      tot.add_local_n += L.add_local_n;
      tot.add_remote_n += L.add_remote_n;
      st += s;
    }
    for (int ph = 0; ph < rec.phases; ++ph) {
      TimeNs last_exit = -1, last_return = 0;
      for (Rank r = 0; r < P; ++r) {
        const std::size_t k = static_cast<std::size_t>(ph) * P + r;
        last_exit = std::max(last_exit, rec.last_body[k]);
        last_return = std::max(last_return, rec.ret[k]);
      }
      if (last_exit >= 0) detect.push_back(last_return - last_exit);
    }
    add_host_ns.insert(add_host_ns.end(), rec.add_host_ns.begin(),
                       rec.add_host_ns.end());
  }
  if (w.kind != Kind::Cholesky &&
      static_cast<double>(tot.app) != traced.app_ns) {
    fail("app spans != nodes x node_cost x cpu_scale");
  }
  if (tot.body_n != traced.tasks) fail("body entries != tasks executed");

  const double per_rank = 1.0 / (1e6 * P);  // ns summed over ranks -> ms/rank
  const double runs_phases =
      static_cast<double>(w.runs()) * w.phases_per_run();
  auto pct = [&](double a, double b) { return 100.0 * ratio(a - b, b); };
  auto put = [&](const char* name, const char* unit, double v) {
    m.push_back({name, unit, v});
  };
  put("app.exec_ms", "ms", traced.app_ns / 1e6);
  put("queue.add_local_us", "us",
      ratio(to_us(tot.add_local), static_cast<double>(tot.add_local_n)));
  put("queue.add_local_n", "count", static_cast<double>(tot.add_local_n));
  put("queue.add_remote_us", "us",
      ratio(to_us(tot.add_remote), static_cast<double>(tot.add_remote_n)));
  put("queue.add_remote_n", "count", static_cast<double>(tot.add_remote_n));
  put("queue.add_host_ns", "ns", median(std::move(add_host_ns)));
  put("tc.ramp_ms", "ms", tot.ramp * per_rank);
  put("tc.body_ms", "ms", tot.bodies * per_rank);
  put("tc.gap_ms", "ms", tot.gaps * per_rank);
  put("tc.tail_ms", "ms", tot.tail * per_rank);
  put("tc.search_ms", "ms", st.time_searching * per_rank);
  put("tc.steal_attempts", "count", static_cast<double>(st.steal_attempts));
  put("tc.steals", "count", static_cast<double>(st.steals));
  put("tc.steal_success", "ratio", ratio(st.steals, st.steal_attempts));
  put("tc.tasks_per_steal", "tasks", ratio(st.tasks_stolen, st.steals));
  put("tc.releases", "count", static_cast<double>(st.releases));
  put("tc.reacquires", "count", static_cast<double>(st.reacquires));
  put("tc.host_ns_per_task", "ns",
      ratio(base_host_s * 1e9, static_cast<double>(base.tasks)));
  put("term.detect_us_p50", "us", to_us(percentile(detect, 50)));
  put("term.detect_us_p99", "us", to_us(percentile(detect, 99)));
  TimeNs waves = 0;
  for (const RunRec& rec : traced.recs) {
    std::uint64_t mx = 0;
    for (const TcStats& s : rec.stats) mx = std::max(mx, s.td_waves_voted);
    waves += static_cast<TimeNs>(mx);
  }
  put("term.waves", "count", static_cast<double>(waves) / runs_phases);
  put("term.black_votes", "count",
      static_cast<double>(st.td_black_votes) / runs_phases);
  put("pgas.get_us", "us", probe.get_us);
  put("pgas.put_us", "us", probe.put_us);
  put("pgas.fetch_add_us", "us", probe.fadd_us);
  put("pgas.cas_us", "us", probe.cas_us);
  put("pgas.lock_us", "us", probe.lock_us);
  put("pgas.barrier_us", "us", probe.barrier_us);
  put("pgas.get_host_ns", "ns", probe.get_host_ns);
  put("pgas.fetch_add_host_ns", "ns", probe.fadd_host_ns);
  put("pgas.lock_host_ns", "ns", probe.lock_host_ns);
  put("pgas.barrier_host_us", "us", probe.barrier_host_us);
  put("sim.setup_ms_per_rank", "ms",
      setup_median(w, seed, expect, attempted, failed, error) * 1e3 / P);
  put("sim.rss_mb_per_rank", "MB", *rss_mb / P);
  const dag::DagStats& d = traced.recs.front().chol.dag;
  const bool chol = w.kind == Kind::Cholesky;
  put("dag.nodes_fired", "count", static_cast<double>(d.nodes_fired));
  put("dag.remote_fires", "count", static_cast<double>(d.remote_fires));
  put("dag.conflict_retries", "count", static_cast<double>(d.conflict_retries));
  put("dag.version_waits", "count", static_cast<double>(d.version_waits));
  put("dag.work_ms", "ms", chol ? tot.bodies * per_rank : 0);
  put("dag.search_ms", "ms", chol ? st.time_searching * per_rank : 0);
  put("dag.other_ms", "ms",
      chol ? (tot.process - tot.bodies - st.time_searching) * per_rank : 0);
  put("trace.armed_host_pct", "%",
      pct(armed.at(Arm::Trace).host_s, base_host_s));
  put("metrics.armed_host_pct", "%",
      pct(armed.at(Arm::Metrics).host_s, base_host_s));
  put("lineage.armed_host_pct", "%",
      pct(armed.at(Arm::Lineage).host_s, base_host_s));
  put("lineage.armed_virt_pct", "%",
      pct(static_cast<double>(armed.at(Arm::Lineage).makespan),
          static_cast<double>(base.makespan)));
  put("bench.span_host_pct", "%", pct(traced.host_s, base_host_s));
  return m;
}

/// --trace 1: traced cycles for `seconds` (at least one); per-layer
/// metrics, host-clock ones as medians over cycles.
int measure_traced(const Workload& w, std::uint64_t seed, double seconds) {
  const std::vector<apps::UtsCounts> expect = reference_counts(w);
  const Clock::time_point start = Clock::now();
  int attempted = 0, failed = 0;
  std::string error;
  double rss_mb = 0;
  std::vector<Metric> out;
  std::vector<std::vector<double>> samples;
  for (;;) {
    const Clock::time_point t = Clock::now();
    std::vector<Metric> m =
        trace_cycle(w, seed, expect, &attempted, &failed, &error, &rss_mb);
    if (failed > 0) break;
    out = m;
    samples.resize(m.size());
    for (std::size_t i = 0; i < m.size(); ++i) samples[i].push_back(m[i].value);
    if (secs(start, Clock::now()) + secs(t, Clock::now()) > seconds) break;
  }
  if (!error.empty()) std::fprintf(stderr, "scioto_bench: %s\n", error.c_str());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].value = median(samples[i]);
  }
  print_result(failed == 0, attempted, failed, out);
  return 0;
}

// ---- Checks (ctest) -------------------------------------------------------

/// The bench-owned UTS run against apps::uts_run_scioto, to the ns, and
/// the committed figures.
int selfcheck() {
  int bad = 0;
  std::vector<Workload> ws = all_workloads(true);
  std::vector<Workload> full = all_workloads(false);
  for (const Workload& w : full) {
    if (w.name == "uts_geo_cluster64") ws.push_back(w);
  }
  for (const Workload& w : ws) {
    if (w.kind != Kind::Uts) continue;
    const std::vector<apps::UtsCounts> expect = reference_counts(w);
    for (int i = 0; i < w.runs(); ++i) {
      const apps::UtsParams& tree = w.trees[static_cast<std::size_t>(i)];
      for (std::uint64_t seed : {42u, 7u}) {
        pgas::Config cfg;
        cfg.nranks = w.procs;
        cfg.backend = pgas::BackendKind::Sim;
        cfg.machine = w.machine;
        cfg.stack_bytes = w.stack_bytes;
        cfg.seed = seed;
        apps::UtsRunConfig rc;
        rc.node_cost = w.node_cost;
        rc.chunk = w.chunk;
        rc.max_tasks = w.max_tasks;
        apps::UtsResult app;
        pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
          app = apps::uts_run_scioto(rt, tree, rc);
        });
        for (bool traced : {false, true}) {
          RunRec rec(w.procs, 1);
          RunOpts o;
          o.traced = traced;
          std::string err = run_once(w, i, seed, o, rec, expect);
          const TimeNs mine = rec.phase_latency(0);
          const bool ok = err.empty() && mine == app.elapsed;
          bad += !ok;
          std::printf("%s %s tree %d seed %llu%s: bench %lld ns, app %lld ns "
                      "%s\n",
                      ok ? "PASS" : "FAIL", w.name.c_str(), i,
                      static_cast<unsigned long long>(seed),
                      traced ? " traced" : "", static_cast<long long>(mine),
                      static_cast<long long>(app.elapsed), err.c_str());
        }
      }
    }
  }
  // The committed figures (BENCHMARK.md): each full-size workload's
  // summed process() windows at the library's default runtime seed.
  const std::map<std::string, TimeNs> figures = {
      {"uts_geo_xt4_512", 13772065},
      {"uts_geo_cluster64", 8464300},
      {"cholesky_dag8", 75527346},
      {"phases_td64", 94653664}};
  for (const Workload& w : full) {
    auto it = figures.find(w.name);
    if (it == figures.end()) continue;
    RunRec rec(w.procs, w.phases_per_run());
    std::string err =
        run_once(w, 0, pgas::Config{}.seed, {}, rec, reference_counts(w));
    TimeNs got = 0;
    for (int ph = 0; ph < rec.phases; ++ph) got += rec.phase_latency(ph);
    const bool ok = err.empty() && got == it->second;
    bad += !ok;
    std::printf("%s %s figure: %lld ns, committed %lld ns %s\n",
                ok ? "PASS" : "FAIL", w.name.c_str(),
                static_cast<long long>(got),
                static_cast<long long>(it->second), err.c_str());
  }
  return bad == 0 ? 0 : 1;
}

/// One traced cycle of every reduced workload; the cycle fails on any
/// split, makespan or body-count mismatch.
int smoke() {
  int bad = 0;
  for (const Workload& w : all_workloads(true)) {
    int attempted = 0, failed = 0;
    std::string error;
    double rss = 0;
    std::vector<Metric> m = trace_cycle(w, 1, reference_counts(w), &attempted,
                                        &failed, &error, &rss);
    bad += failed > 0;
    std::printf("%s %s: %d runs, %zu metrics %s\n", failed ? "FAIL" : "PASS",
                w.name.c_str(), attempted, m.size(), error.c_str());
  }
  return bad == 0 ? 0 : 1;
}

/// Measured runs are of the default program only: no SCIOTO_* knob may
/// reach the library.
std::string env_knob() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SCIOTO_", 7) == 0) {
      return std::string(*e, std::strcspn(*e, "="));
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("scioto_bench", "the committed benchmark (see BENCHMARK.md)");
  opts.add_string("workload", "", "workload name");
  opts.add_int("seed", 1, "runtime seed (victim choice, phase targets)");
  opts.add_double("seconds", 10, "measure for this long");
  opts.add_int("trace", 0, "1 = per-layer metrics from a traced run");
  opts.add_flag("selfcheck", false,
                "check the bench UTS run against apps::uts_run_scioto");
  opts.add_flag("smoke", false, "traced reduced-size run of every workload");
  try {
    if (!opts.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scioto_bench: %s\n", e.what());
    return 2;
  }
  const std::string knob = env_knob();
  if (!knob.empty()) {
    std::fprintf(stderr,
                 "scioto_bench: environment variable %s is set; the "
                 "benchmark measures the default program only\n",
                 knob.c_str());
    return 2;
  }
  if (opts.get_flag("selfcheck")) return selfcheck();
  if (opts.get_flag("smoke")) return smoke();
#ifndef NDEBUG
  std::fprintf(stderr,
               "scioto_bench: built without NDEBUG; measure an optimized "
               "build\n");
  return 2;
#endif
  const std::string name = opts.get_string("workload");
  for (const Workload& w : all_workloads(false)) {
    if (w.name != name) continue;
    const auto seed = static_cast<std::uint64_t>(opts.get_int("seed"));
    const double seconds = opts.get_double("seconds");
    return opts.get_int("trace") != 0 ? measure_traced(w, seed, seconds)
                                      : measure(w, seed, seconds);
  }
  std::fprintf(stderr, "scioto_bench: unknown workload '%s'\n", name.c_str());
  return 2;
}
