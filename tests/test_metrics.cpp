// Tests for the global-view telemetry plane (src/metrics): the log2-bucket
// percentile helpers it shares with the trace analyses, the seqlock
// scrape protocol under concurrent writers, the zero-cost-off guarantee
// (metrics-off traces identical to baseline), metrics-on sim determinism,
// the three-way reconciliation metrics == TcStats == trace on a fixed-seed
// UTS run over both backends, and the C API surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "base/stats.hpp"
#include "dag/dag.hpp"
#include "detect/membership.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "row_reconcile.hpp"
#include "scioto/scioto_c.h"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

using namespace scioto;
using namespace scioto::testing;

// ---- Percentile helpers (shared by metrics and trace/analysis) ----

TEST(Stats, PercentileRankExactBoundaries) {
  // Nearest rank: smallest 1-based k with k/n >= p/100.
  EXPECT_EQ(stats::percentile_rank(50, 10), 5u);
  EXPECT_EQ(stats::percentile_rank(50.1, 10), 6u);  // 5/10 < 0.501
  EXPECT_EQ(stats::percentile_rank(95, 100), 95u);
  EXPECT_EQ(stats::percentile_rank(95, 20), 19u);
  EXPECT_EQ(stats::percentile_rank(99, 100), 99u);
  EXPECT_EQ(stats::percentile_rank(100, 7), 7u);
  EXPECT_EQ(stats::percentile_rank(0, 7), 1u);    // clamped to first sample
  EXPECT_EQ(stats::percentile_rank(-5, 7), 1u);   // p clamp low
  EXPECT_EQ(stats::percentile_rank(200, 7), 7u);  // p clamp high
  EXPECT_EQ(stats::percentile_rank(50, 1), 1u);
  EXPECT_EQ(stats::percentile_rank(50, 0), 0u);   // empty population
}

TEST(Stats, Log2BucketExactBoundaries) {
  // Bucket b holds values of bit width b: 0 -> 0, [2^(b-1), 2^b - 1] -> b.
  EXPECT_EQ(stats::log2_bucket(0), 0);
  EXPECT_EQ(stats::log2_bucket(1), 1);
  EXPECT_EQ(stats::log2_bucket(2), 2);
  EXPECT_EQ(stats::log2_bucket(3), 2);
  EXPECT_EQ(stats::log2_bucket(4), 3);
  EXPECT_EQ(stats::log2_bucket(1023), 10);
  EXPECT_EQ(stats::log2_bucket(1024), 11);
  // Clamp: anything at or past the last bucket lands in it.
  EXPECT_EQ(stats::log2_bucket(~std::uint64_t{0}, 8), 7);
  EXPECT_EQ(stats::log2_bucket(1u << 20, 8), 7);
  // Floor/ceil round-trip the bucket edges.
  EXPECT_EQ(stats::log2_bucket_floor(0), 0u);
  EXPECT_EQ(stats::log2_bucket_ceil(0), 0u);
  EXPECT_EQ(stats::log2_bucket_floor(5), 16u);
  EXPECT_EQ(stats::log2_bucket_ceil(5), 31u);
  for (int b = 1; b < 20; ++b) {
    EXPECT_EQ(stats::log2_bucket(stats::log2_bucket_floor(b)), b);
    EXPECT_EQ(stats::log2_bucket(stats::log2_bucket_ceil(b)), b);
  }
}

TEST(Stats, HistPercentileExactBoundaries) {
  std::uint64_t counts[stats::kLog2Buckets] = {};
  EXPECT_EQ(stats::hist_percentile(counts, stats::kLog2Buckets, 50), 0u);

  // 10 samples in bucket 3 ([4,7]), 10 in bucket 6 ([32,63]): p50 must be
  // the ceiling of bucket 3 (rank 10 is the last sample of bucket 3) and
  // p50.1 the ceiling of bucket 6 (rank 11).
  counts[3] = 10;
  counts[6] = 10;
  EXPECT_EQ(stats::hist_percentile(counts, stats::kLog2Buckets, 50), 7u);
  EXPECT_EQ(stats::hist_percentile(counts, stats::kLog2Buckets, 50.1), 63u);
  EXPECT_EQ(stats::hist_percentile(counts, stats::kLog2Buckets, 100), 63u);
  EXPECT_EQ(stats::hist_percentile(counts, stats::kLog2Buckets, 0), 7u);

  // 99 samples at bucket 1, one at bucket 10: p99 stays in bucket 1 and
  // anything above it crosses over.
  std::uint64_t skew[stats::kLog2Buckets] = {};
  skew[1] = 99;
  skew[10] = 1;
  EXPECT_EQ(stats::hist_percentile(skew, stats::kLog2Buckets, 99), 1u);
  EXPECT_EQ(stats::hist_percentile(skew, stats::kLog2Buckets, 99.5), 1023u);
}

namespace {

/// Caller-owned metrics session for one scope.
struct MetricsSession {
  explicit MetricsSession(int nranks) { metrics::start(nranks); }
  ~MetricsSession() { metrics::stop(); }
};

/// Scrapes every rank of the active session.
std::vector<metrics::Snapshot> scrape_all(int nranks) {
  std::vector<metrics::Snapshot> out(nranks);
  for (Rank r = 0; r < nranks; ++r) {
    EXPECT_TRUE(metrics::scrape(r, &out[r])) << "rank " << r;
  }
  return out;
}

std::uint64_t fleet_ctr(const std::vector<metrics::Snapshot>& snaps,
                        metrics::Ctr c) {
  std::uint64_t sum = 0;
  for (const auto& s : snaps) sum += s.ctr(c);
  return sum;
}

/// A small deterministic binary-tree task workload.
void tree_workload(pgas::Runtime& rt, int depth) {
  struct Node {
    int depth;
  };
  TcConfig tcc;
  tcc.chunk_size = 2;
  TaskCollection tc(rt, tcc);
  TaskHandle h = tc.register_callback([](TaskContext& ctx) {
    ctx.tc.runtime().charge(2000);
    int d = ctx.body_as<Node>().depth;
    if (d > 0) {
      Task child = ctx.tc.task_create(sizeof(Node), ctx.header.callback);
      child.body_as<Node>().depth = d - 1;
      ctx.tc.add_local(child);
      ctx.tc.add_local(child);
    }
  });
  if (rt.me() == 0) {
    Task root = tc.task_create(sizeof(Node), h);
    root.body_as<Node>().depth = depth;
    tc.add_local(root);
  }
  tc.process();
  tc.destroy();
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace

// ---- Seqlock: tear-free snapshots under a concurrent writer ----

TEST(MetricsSeqlock, TearFreeUnderConcurrentWriter) {
  MetricsSession sess(2);
  std::atomic<bool> stop{false};

  // Owner thread for rank 0: every hist_record bumps count, sum, max, and
  // one bucket inside a single seqlock critical section, so in any valid
  // snapshot count == sum == buckets[1] (all recorded values are 1). The
  // paired counters move one seqlock section apart, so their difference
  // can be at most 1 and both must be monotone across snapshots. Writes
  // come in bursts with short gaps -- a writer that NEVER pauses starves
  // the scraper by design (seqlock readers retry, owners never wait),
  // and real owners run task bodies between metric updates.
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int burst = 0; burst < 32; ++burst) {
        metrics::counter_add(0, metrics::Ctr::QPushes, 1);
        metrics::counter_add(0, metrics::Ctr::QPops, 1);
        metrics::hist_record(0, metrics::Hist::PushNs, 1);
        metrics::gauge_set(0, metrics::Gauge::QueueDepth, 7);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  std::uint64_t prev_pushes = 0, prev_count = 0;
  int validated = 0;
  for (int i = 0; i < 5000; ++i) {
    metrics::Snapshot s;
    ASSERT_TRUE(metrics::scrape(0, &s));
    EXPECT_EQ(s.seq % 2, 0u);
    const metrics::HistSnap& h = s.hist(metrics::Hist::PushNs);
    ASSERT_EQ(h.count, h.sum) << "torn histogram snapshot";
    ASSERT_EQ(h.count, h.buckets[1]) << "torn histogram snapshot";
    ASSERT_EQ(h.max, h.count ? 1u : 0u);
    std::uint64_t pushes = s.ctr(metrics::Ctr::QPushes);
    std::uint64_t pops = s.ctr(metrics::Ctr::QPops);
    ASSERT_GE(pushes, pops);
    ASSERT_LE(pushes - pops, 1u);
    ASSERT_GE(pushes, prev_pushes) << "counter went backwards";
    ASSERT_GE(h.count, prev_count);
    if (s.gauge(metrics::Gauge::QueueDepth) != 0) {
      EXPECT_EQ(s.gauge(metrics::Gauge::QueueDepth), 7u);
    }
    prev_pushes = pushes;
    prev_count = h.count;
    ++validated;
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(validated, 5000);
}

// ---- Zero-cost-off: metrics-off traces identical to metrics-on ----

TEST(MetricsOff, TraceIdenticalWithAndWithoutSession) {
  auto traced_run = [&](bool with_metrics) {
    trace::start(4);
    if (with_metrics) metrics::start(4);
    run_sim(4, [&](pgas::Runtime& rt) { tree_workload(rt, 9); });
    if (with_metrics) metrics::stop();
    std::vector<trace::Event> evs = trace::all_events();
    trace::stop();
    return evs;
  };
  std::vector<trace::Event> off = traced_run(false);
  std::vector<trace::Event> on = traced_run(true);
  ASSERT_FALSE(off.empty());
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i].t, on[i].t) << "event " << i;
    ASSERT_EQ(off[i].c, on[i].c) << "event " << i;
    ASSERT_EQ(off[i].a, on[i].a) << "event " << i;
    ASSERT_EQ(off[i].b, on[i].b) << "event " << i;
    ASSERT_EQ(off[i].rank, on[i].rank) << "event " << i;
    ASSERT_EQ(off[i].kind, on[i].kind) << "event " << i;
  }
}

// ---- Metrics-on sim runs are bit-deterministic ----

TEST(MetricsOn, SimDeterministicAcrossRepeats) {
  auto one_run = [&](const std::string& jsonl) {
    metrics::start(4);
    metrics::MonitorOptions mopts;
    mopts.period = 50'000;
    mopts.out_path = jsonl;
    metrics::monitor_start(4, mopts);
    run_sim(4, [&](pgas::Runtime& rt) { tree_workload(rt, 9); });
    std::vector<metrics::Snapshot> snaps = scrape_all(4);
    metrics::monitor_stop();
    metrics::stop();
    return snaps;
  };
  const std::string out_a = ::testing::TempDir() + "scioto_metrics_a.jsonl";
  const std::string out_b = ::testing::TempDir() + "scioto_metrics_b.jsonl";
  std::vector<metrics::Snapshot> a = one_run(out_a);
  std::vector<metrics::Snapshot> b = one_run(out_b);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (int c = 0; c < metrics::kNumCtrs; ++c) {
      EXPECT_EQ(a[r].counters[c], b[r].counters[c])
          << "rank " << r << " ctr " << metrics::ctr_name(metrics::Ctr(c));
    }
    for (int g = 0; g < metrics::kNumGauges; ++g) {
      EXPECT_EQ(a[r].gauges[g], b[r].gauges[g])
          << "rank " << r << " gauge "
          << metrics::gauge_name(metrics::Gauge(g));
    }
    for (int h = 0; h < metrics::kNumHists; ++h) {
      EXPECT_EQ(a[r].hists[h].count, b[r].hists[h].count);
      EXPECT_EQ(a[r].hists[h].sum, b[r].hists[h].sum);
      EXPECT_EQ(a[r].hists[h].max, b[r].hists[h].max);
    }
  }
  // The monitor's JSONL stream (virtual-time sampled) must replay
  // byte-for-byte too.
  std::string ja = slurp(out_a), jb = slurp(out_b);
  EXPECT_FALSE(ja.empty());
  EXPECT_EQ(ja, jb);
  std::remove(out_a.c_str());
  std::remove(out_b.c_str());
}

// ---- Three-way reconciliation: metrics == TcStats == trace ----

class MetricsReconcile
    : public ::testing::TestWithParam<pgas::BackendKind> {};

TEST_P(MetricsReconcile, UtsCountersAgreeWithTcStatsAndTrace) {
  const int nranks = 4;
  apps::UtsParams tree = apps::uts_tiny();
  apps::UtsRunConfig rc;
  rc.chunk = 2;

  trace::start(nranks);
  metrics::start(nranks);
  apps::UtsResult res;
  run(nranks, GetParam(), [&](pgas::Runtime& rt) {
    apps::UtsResult r = apps::uts_run_scioto(rt, tree, rc);
    if (rt.me() == 0) res = r;
  });
  std::vector<metrics::Snapshot> snaps = scrape_all(nranks);
  metrics::stop();
  ASSERT_EQ(trace::total_dropped(), 0u);
  std::vector<trace::Event> evs = trace::all_events();
  trace::stop();

  // Metrics counters vs the scheduler's own TcStats, for every twin row.
#define EXPECT_TWIN(field, group, id, name)                          \
  EXPECT_EQ(fleet_ctr(snaps, metrics::Ctr::id), res.stats.field) << name;
  SCIOTO_COUNTER_ROWS(SCIOTO_ROW_SKIP, EXPECT_TWIN, SCIOTO_ROW_SKIP,
                      SCIOTO_ROW_SKIP)
#undef EXPECT_TWIN
  // Every counter a trace kind's row names -- TcStats field, metrics
  // counter, or both -- against the trace stream's record of the run.
  std::map<std::string, std::uint64_t> sums = expect_rows_reconcile(
      evs, snaps, res.stats, dag::DagStats{}, detect::Stats{});
  EXPECT_GT(sums["metrics.q_pops"], 0u);
  if (GetParam() == pgas::BackendKind::Sim) {  // threads may never steal
    EXPECT_GT(sums["stats.steals"], 0u);
    EXPECT_GT(sums["stats.td_waves_voted"], 0u);
  }
  EXPECT_EQ(fleet_ctr(snaps, metrics::Ctr::TasksSpawned),
            res.stats.tasks_spawned_local + res.stats.tasks_spawned_remote);

  // Every executed task fed the exec-time histogram.
  std::uint64_t hist_exec = 0;
  for (const auto& s : snaps) {
    hist_exec += s.hist(metrics::Hist::TaskExecNs).count;
  }
  EXPECT_EQ(hist_exec, res.stats.tasks_executed);
}

TEST(MetricsReconcileFault, FaultRowsAgreeOnTheSurvivors) {
  // A killed rank's TcStats leave the fleet sum with it, so the rows are
  // reconciled over the survivors' events and patches. The kill drives
  // adoption and a resplice, the truncation aborts steals, and the armed
  // heartbeat detector suspects and confirms the dead rank.
  const int nranks = 8;
  const apps::UtsParams tree = apps::uts_small();
  const detect::Config staged = detect::config();
  detect::Config armed = staged;
  armed.enabled = true;
  detect::set_config(armed);
  fault::start(nranks,
               fault::FaultPlan::parse(
                   "kill:rank=2,at=400us;truncate:keep=0,count=3"),
               42);
  trace::start(nranks);
  metrics::start(nranks);
  apps::UtsResult res;
  run_sim(nranks, [&](pgas::Runtime& rt) {
    apps::UtsResult r = apps::uts_run_scioto_ft(rt, tree, {});
    if (rt.me() == 0) res = r;
  });
  std::vector<Rank> survivors;
  for (Rank r = 0; r < nranks; ++r) {
    if (fault::alive(r)) survivors.push_back(r);
  }
  fault::stop();
  detect::set_config(staged);
  std::vector<metrics::Snapshot> snaps;
  for (Rank r : survivors) {
    snaps.emplace_back();
    ASSERT_TRUE(metrics::scrape(r, &snaps.back()));
  }
  metrics::stop();
  ASSERT_EQ(trace::total_dropped(), 0u);
  std::vector<trace::Event> evs;
  for (Rank r : survivors) {
    std::vector<trace::Event> mine = trace::events(r);
    evs.insert(evs.end(), mine.begin(), mine.end());
  }
  trace::stop();
  ASSERT_EQ(survivors.size(), static_cast<std::size_t>(nranks - 1));
  EXPECT_TRUE(res.counts == apps::uts_sequential(tree));

  std::map<std::string, std::uint64_t> sums = expect_rows_reconcile(
      evs, snaps, res.stats, dag::DagStats{}, detect::stats());
  EXPECT_GT(sums["stats.suspects"], 0u);
  EXPECT_GT(sums["metrics.confirms"], 0u);
  EXPECT_GT(sums["stats.tasks_recovered"], 0u);
  EXPECT_GT(sums["stats.steals_aborted"], 0u);
  EXPECT_GT(sums["stats.td_resplices"], 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, MetricsReconcile,
                         ::testing::Values(pgas::BackendKind::Sim,
                                           pgas::BackendKind::Threads),
                         [](const auto& info) {
                           return backend_name(info.param);
                         });

// ---- Monitor aggregates ----

TEST(Monitor, ImbalanceIndices) {
  EXPECT_DOUBLE_EQ(metrics::cov_index({}), 0.0);
  EXPECT_DOUBLE_EQ(metrics::cov_index({5, 5, 5, 5}), 0.0);
  EXPECT_GT(metrics::cov_index({0, 0, 0, 40}), 1.0);
  EXPECT_DOUBLE_EQ(metrics::gini_index({7, 7, 7, 7}), 0.0);
  EXPECT_DOUBLE_EQ(metrics::gini_index({0, 0, 0, 0}), 0.0);
  // One rank holds everything: Gini -> (n-1)/n.
  EXPECT_NEAR(metrics::gini_index({0, 0, 0, 100}), 0.75, 1e-9);
}

TEST(Monitor, SampleScrapesAndAggregates) {
  MetricsSession sess(3);
  metrics::gauge_set(0, metrics::Gauge::QueueDepth, 10);
  metrics::gauge_set(1, metrics::Gauge::QueueDepth, 10);
  metrics::gauge_set(2, metrics::Gauge::QueueDepth, 10);
  metrics::counter_add(0, metrics::Ctr::TasksExecuted, 5);
  metrics::counter_add(1, metrics::Ctr::StealAttempts, 4);
  metrics::counter_add(1, metrics::Ctr::Steals, 2);

  metrics::MonitorOptions mopts;
  metrics::monitor_start(3, mopts);
  EXPECT_EQ(metrics::monitor_sample(12345), 3);
  metrics::monitor_stop();

  ASSERT_EQ(metrics::monitor_samples().size(), 1u);
  const metrics::FleetSample& s = metrics::monitor_samples()[0];
  EXPECT_EQ(s.t, 12345);
  EXPECT_EQ(s.alive, 3);
  EXPECT_EQ(s.depth_sum, 30u);
  EXPECT_EQ(s.executed, 5u);
  EXPECT_DOUBLE_EQ(s.cov, 0.0);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
  EXPECT_DOUBLE_EQ(s.steal_success, 0.5);
}

// ---- read_metric + Prometheus exposition ----

TEST(MetricsRead, NamesAndHistSuffixes) {
  MetricsSession sess(2);
  metrics::counter_add(0, metrics::Ctr::TasksExecuted, 42);
  metrics::gauge_set(0, metrics::Gauge::QueueDepth, 9);
  for (int i = 0; i < 100; ++i) {
    metrics::hist_record(0, metrics::Hist::StealNs, 100);  // bucket 7
  }
  metrics::hist_record(0, metrics::Hist::StealNs, 5000);  // bucket 13

  metrics::Snapshot s;
  ASSERT_TRUE(metrics::scrape(0, &s));
  std::uint64_t v = 0;
  EXPECT_TRUE(metrics::read_metric(s, "tasks_executed", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(metrics::read_metric(s, "queue_depth", &v));
  EXPECT_EQ(v, 9u);
  EXPECT_TRUE(metrics::read_metric(s, "steal_ns_count", &v));
  EXPECT_EQ(v, 101u);
  EXPECT_TRUE(metrics::read_metric(s, "steal_ns_sum", &v));
  EXPECT_EQ(v, 15000u);
  EXPECT_TRUE(metrics::read_metric(s, "steal_ns_max", &v));
  EXPECT_EQ(v, 5000u);
  EXPECT_TRUE(metrics::read_metric(s, "steal_ns_mean", &v));
  EXPECT_EQ(v, 15000u / 101u);
  EXPECT_TRUE(metrics::read_metric(s, "steal_ns_p50", &v));
  EXPECT_EQ(v, 127u);  // ceiling of bucket 7
  EXPECT_TRUE(metrics::read_metric(s, "steal_ns_p99", &v));
  EXPECT_EQ(v, 127u);  // rank 100 of 101 still in bucket 7
  EXPECT_TRUE(metrics::read_metric(s, "steal_ns_p95", &v));
  EXPECT_EQ(v, 127u);
  EXPECT_FALSE(metrics::read_metric(s, "no_such_metric", &v));
  EXPECT_FALSE(metrics::read_metric(s, "steal_ns_p101x", &v));

  std::string prom = metrics::prometheus_text();
  EXPECT_NE(prom.find("scioto_tasks_executed{rank=\"0\"} 42"),
            std::string::npos);
  EXPECT_NE(prom.find("scioto_queue_depth{rank=\"0\"} 9"),
            std::string::npos);
  EXPECT_NE(prom.find("scioto_steal_ns_count{rank=\"0\"} 101"),
            std::string::npos);
}

// ---- C API ----

TEST(MetricsCApi, KnobRoundTrip) {
  EXPECT_EQ(scioto_metrics_enabled(), 0);
  scioto_metrics_set(1);
  EXPECT_NE(scioto_metrics_enabled(), 0);
  scioto_metrics_set(0);
  EXPECT_EQ(scioto_metrics_enabled(), 0);

  int64_t period = scioto_metrics_period_ns();
  EXPECT_GT(period, 0);
  scioto_set_metrics_period_ns(250'000);
  EXPECT_EQ(scioto_metrics_period_ns(), 250'000);
  scioto_set_metrics_period_ns(period);
  EXPECT_EQ(scioto_metrics_period_ns(), period);
}

TEST(MetricsCApi, SnapshotAndRead) {
  // No session: everything reports unavailable.
  EXPECT_EQ(scioto_metrics_snapshot(0), nullptr);
  uint64_t v = 0;
  EXPECT_EQ(scioto_metrics_read_rank(0, "tasks_executed", &v), -1);
  scioto_metrics_snapshot_free(nullptr);  // must be a safe no-op

  MetricsSession sess(2);
  metrics::counter_add(1, metrics::Ctr::TasksExecuted, 17);
  metrics::hist_record(1, metrics::Hist::TaskExecNs, 300);

  scioto_metrics_snapshot_t* s = scioto_metrics_snapshot(1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(scioto_metrics_read(s, "tasks_executed", &v), 0);
  EXPECT_EQ(v, 17u);
  EXPECT_EQ(scioto_metrics_read(s, "task_exec_ns_count", &v), 0);
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(scioto_metrics_read(s, "bogus", &v), -1);
  EXPECT_EQ(scioto_metrics_read(nullptr, "tasks_executed", &v), -1);
  scioto_metrics_snapshot_free(s);

  EXPECT_EQ(scioto_metrics_snapshot(-1), nullptr);
  EXPECT_EQ(scioto_metrics_snapshot(2), nullptr);
  EXPECT_EQ(scioto_metrics_read_rank(1, "tasks_executed", &v), 0);
  EXPECT_EQ(v, 17u);
}
