// Table 1 reproduction: microbenchmark timings for core task-collection
// operations (paper §6.1).
//
// "Results ... were collected using a task body size of 1kB and a chunk
// size of 10." We time the same four operations on the split queue, under
// the simulated cluster and Cray XT4 machine models, and print them next
// to the paper's measurements:
//
//              Operation     Cluster     Cray XT4
//              Local Insert  0.4952 us   0.9330 us
//              Remote Insert 18.0819 us  27.018 us
//              Local Get     0.3613 us   0.6913 us
//              Remote Steal  29.0080 us  32.384 us
#include <cstdio>
#include <vector>

#include "base/options.hpp"
#include "base/table.hpp"
#include "metrics/metrics.hpp"
#include "pgas/runtime.hpp"
#include "scioto/queue.hpp"
#include "scioto/task.hpp"

using namespace scioto;

namespace {

struct OpTimes {
  double local_insert_us = 0;
  double remote_insert_us = 0;
  double local_get_us = 0;
  double remote_steal_us = 0;
};

/// Full op-latency distributions from the live metrics histograms (the
/// mean-only Table 1 numbers hide the tail the telemetry plane exposes).
struct OpHists {
  metrics::HistSnap push;   // rank 0's local pushes
  metrics::HistSnap pop;    // rank 0's local pops
  metrics::HistSnap steal;  // rank 1's remote steals
  bool valid = false;
};

OpTimes measure(const sim::MachineModel& machine, int iters,
                OpHists* hists) {
  OpTimes out;
  pgas::Config cfg;
  cfg.nranks = 2;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = machine;
  // Bench-owned metrics session: run_spmd sees an already-active session
  // and leaves it alone, so we can scrape the histograms after the run.
  if (hists != nullptr) {
    metrics::start(cfg.nranks);
  }

  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    SplitQueue::Config qc;
    qc.slot_bytes = align_up(sizeof(TaskHeader) + 1024, 8);  // 1 kB body
    qc.capacity = static_cast<std::uint64_t>(iters) * 16;
    qc.chunk = 10;
    qc.steal_half = false;  // Table 1 times the paper's fixed 10-task steal
    TcStats st;
    SplitQueue q(rt, qc, st);
    std::vector<std::byte> task(qc.slot_bytes, std::byte{7});
    std::vector<std::byte> steal_buf(qc.slot_bytes * 10);

    // --- Local insert / local get (rank 0, unlocked private end) ---
    if (rt.me() == 0) {
      TimeNs t0 = rt.now();
      for (int i = 0; i < iters; ++i) {
        SCIOTO_CHECK(q.push_local(task.data(), kAffinityHigh));
      }
      out.local_insert_us = to_us(rt.now() - t0) / iters;
      t0 = rt.now();
      for (int i = 0; i < iters; ++i) {
        SCIOTO_CHECK(q.pop_local(task.data()));
      }
      out.local_get_us = to_us(rt.now() - t0) / iters;
    }
    rt.barrier();

    // --- Remote insert (rank 1 adds into rank 0's patch) ---
    if (rt.me() == 1) {
      TimeNs t0 = rt.now();
      for (int i = 0; i < iters; ++i) {
        SCIOTO_CHECK(q.add_remote(0, task.data()));
      }
      out.remote_insert_us = to_us(rt.now() - t0) / iters;
    }
    rt.barrier();
    q.reset_collective();

    // --- Remote steal (rank 1 steals 10-task chunks from rank 0) ---
    if (rt.me() == 0) {
      for (int i = 0; i < iters * 10; ++i) {
        SCIOTO_CHECK(q.push_local(task.data(), kAffinityHigh));
      }
      // Expose everything for stealing.
      while (q.release_maybe() > 0) {
      }
      // release_maybe stops once the shared side looks full; force the
      // rest across for a pure steal measurement.
      while (q.private_size() > 0) {
        if (q.release_maybe() == 0) break;
      }
    }
    rt.barrier();
    if (rt.me() == 1) {
      TimeNs t0 = rt.now();
      int got = 0;
      int steals = 0;
      while (got < iters * 10) {
        int n = q.steal_from(0, steal_buf.data());
        if (n == 0) break;
        got += n;
        ++steals;
      }
      if (steals > 0) {
        out.remote_steal_us = to_us(rt.now() - t0) / steals;
      }
    }
    rt.barrier();
    q.destroy();
  });
  if (hists != nullptr) {
    metrics::Snapshot s0, s1;
    if (metrics::scrape(0, &s0) && metrics::scrape(1, &s1)) {
      hists->push = s0.hist(metrics::Hist::PushNs);
      hists->pop = s0.hist(metrics::Hist::PopNs);
      hists->steal = s1.hist(metrics::Hist::StealNs);
      hists->valid = true;
    }
    metrics::stop();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_table1_ops",
               "Table 1: core task collection operation costs");
  opts.add_int("iters", 500, "operations per measurement");
  opts.add_string("json", "", "also write results as JSON to this file");
  opts.add_string("metrics-json", "",
                  "write op-latency percentiles from the live metrics "
                  "histograms to this file");
  if (!opts.parse(argc, argv)) return 0;
  int iters = static_cast<int>(opts.get_int("iters"));
  const std::string metrics_json = opts.get_string("metrics-json");
  const bool want_hists = !metrics_json.empty();

  OpHists cluster_h, xt4_h;
  OpTimes cluster = measure(sim::cluster2008_uniform(), iters,
                            want_hists ? &cluster_h : nullptr);
  OpTimes xt4 =
      measure(sim::cray_xt4(), iters, want_hists ? &xt4_h : nullptr);

  Table t({"Task Collection Operation", "Cluster(us)", "Paper-Cluster",
           "XT4(us)", "Paper-XT4"});
  t.add_row({"Local Insert", Table::fmt(cluster.local_insert_us, 4), "0.4952",
             Table::fmt(xt4.local_insert_us, 4), "0.9330"});
  t.add_row({"Remote Insert", Table::fmt(cluster.remote_insert_us, 3),
             "18.082", Table::fmt(xt4.remote_insert_us, 3), "27.018"});
  t.add_row({"Local Get", Table::fmt(cluster.local_get_us, 4), "0.3613",
             Table::fmt(xt4.local_get_us, 4), "0.6913"});
  t.add_row({"Remote Steal", Table::fmt(cluster.remote_steal_us, 3),
             "29.008", Table::fmt(xt4.remote_steal_us, 3), "32.384"});
  t.print("Table 1: microbenchmark timings for core Scioto operations "
          "(task body 1 kB, chunk 10)");

  const std::string json = opts.get_string("json");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << json);
    auto emit = [&](const char* name, const OpTimes& o, const char* sep) {
      std::fprintf(f,
                   "  \"%s\": {\"local_insert_us\": %.4f, "
                   "\"remote_insert_us\": %.4f, \"local_get_us\": %.4f, "
                   "\"remote_steal_us\": %.4f}%s\n",
                   name, o.local_insert_us, o.remote_insert_us,
                   o.local_get_us, o.remote_steal_us, sep);
    };
    std::fprintf(f, "{\n  \"bench\": \"table1_ops\", \"iters\": %d,\n",
                 iters);
    emit("cluster", cluster, ",");
    emit("cray_xt4", xt4, "");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json: wrote %s\n", json.c_str());
  }

  if (want_hists && cluster_h.valid && xt4_h.valid) {
    std::FILE* f = std::fopen(metrics_json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << metrics_json);
    auto hist = [&](const char* name, const metrics::HistSnap& h,
                    const char* sep) {
      std::fprintf(
          f,
          "    \"%s\": {\"count\": %llu, \"mean_ns\": %.1f, "
          "\"p50_ns\": %llu, \"p95_ns\": %llu, \"p99_ns\": %llu, "
          "\"max_ns\": %llu}%s\n",
          name, static_cast<unsigned long long>(h.count), h.mean(),
          static_cast<unsigned long long>(h.percentile(50)),
          static_cast<unsigned long long>(h.percentile(95)),
          static_cast<unsigned long long>(h.percentile(99)),
          static_cast<unsigned long long>(h.max), sep);
    };
    auto model = [&](const char* name, const OpHists& o, const char* sep) {
      std::fprintf(f, "  \"%s\": {\n", name);
      hist("push_ns", o.push, ",");
      hist("pop_ns", o.pop, ",");
      hist("steal_ns", o.steal, "");
      std::fprintf(f, "  }%s\n", sep);
    };
    std::fprintf(f, "{\n  \"bench\": \"metrics_ops\", \"iters\": %d,\n",
                 iters);
    model("cluster", cluster_h, ",");
    model("cray_xt4", xt4_h, "");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("metrics-json: wrote %s\n", metrics_json.c_str());
  }
  return 0;
}
