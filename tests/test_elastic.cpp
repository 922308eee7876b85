// Elastic membership tests: runtime rank join (a parked tail of ranks is
// admitted mid-UTS and the traversal total stays bit-exact), quiesce +
// checkpoint/restore (a killed-then-checkpointed run restored onto a
// DIFFERENT fleet size sums to exactly the uninterrupted traversal),
// quiesce under real concurrent steal traffic (threads backend, the TSan
// leg), restore's named rejection of corrupt checkpoints, the C API
// knobs, the fail-fast on join/ckpt rules naming ranks outside the run,
// and the elastic-off byte-identity pin on the trace stream.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "base/sha1.hpp"
#include "detect/membership.hpp"
#include "elastic/elastic.hpp"
#include "fault/fault.hpp"
#include "fault/plan.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "scioto/scioto_c.h"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace scioto {
namespace {

using pgas::Runtime;

/// Stages elasticity on for the enclosing scope and restores the prior
/// staged config on exit (run_spmd arms/disarms the session itself).
class ElasticGuard {
 public:
  explicit ElasticGuard(const elastic::Config* tuned = nullptr)
      : saved_(elastic::config()) {
    elastic::Config c = tuned ? *tuned : saved_;
    c.enabled = true;
    elastic::set_config(c);
  }
  ~ElasticGuard() { elastic::set_config(saved_); }

 private:
  elastic::Config saved_;
};

std::string tmp_ckpt_path(const char* tag) {
  return ::testing::TempDir() + "scioto_elastic_" + tag + ".ckpt";
}

void remove_ckpt_files(const std::string& base, int nranks) {
  std::remove(base.c_str());
  for (int r = 0; r < nranks; ++r) {
    std::remove((base + ".r" + std::to_string(r)).c_str());
  }
}

apps::UtsResult run_uts_elastic(int nranks, const std::string& plan,
                                std::uint64_t seed,
                                const apps::UtsParams& tree,
                                pgas::BackendKind backend =
                                    pgas::BackendKind::Sim) {
  fault::start(nranks, fault::FaultPlan::parse(plan), seed);
  apps::UtsResult res;
  std::mutex res_mu;
  testing::run(
      nranks, backend,
      [&](Runtime& rt) {
        apps::UtsRunConfig rc;
        apps::UtsResult mine = apps::uts_run_scioto_elastic(rt, tree, rc);
        std::lock_guard<std::mutex> g(res_mu);
        res = mine;
      },
      seed);
  fault::stop();
  return res;
}

// ---- runtime rank join: grow the fleet mid-traversal ----

TEST(ElasticGrow, UtsExactGrow4To8Sim8Seeds) {
  const apps::UtsParams tree = apps::uts_small();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  const std::string plan =
      "join:rank=4,at=60us;join:rank=5,at=60us;"
      "join:rank=6,at=120us;join:rank=7,at=120us";
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ElasticGuard guard;
    apps::UtsResult res = run_uts_elastic(8, plan, seed, tree);
    EXPECT_TRUE(res.counts == expected)
        << "seed " << seed << " counted " << res.counts.nodes
        << " nodes, expected " << expected.nodes;
    EXPECT_EQ(res.survivors, 8) << "seed " << seed;
    detect::Stats s = detect::stats();
    // All four parked ranks were admitted, in at most two waves (the
    // admitter batches whatever requests it finds per scan).
    EXPECT_EQ(s.joins, 4u) << "seed " << seed;
    EXPECT_GE(s.grows, 1u) << "seed " << seed;
    EXPECT_LE(s.grows, 4u) << "seed " << seed;
  }
}

TEST(ElasticGrow, UtsExactGrow2To4Threads8Seeds) {
  apps::UtsParams tree = apps::uts_small();
  tree.gen_mx = 13;
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  // Threads-backend join rules trigger on parked-poll counts (after=),
  // not virtual time. The thresholds are tiny and the tree is ~72k nodes
  // (uts_small two generations deeper): a wall-clock backend gives no
  // scheduling guarantees, so the request must go out on the parked rank's
  // first few time slices and the traversal must comfortably outlast
  // thread-scheduling noise for the admission to be deterministic in
  // practice. On uts_small itself the second join often arrives after
  // termination on a loaded host.
  const std::string plan = "join:rank=2,after=2;join:rank=3,after=4";
  // The detector itself is not under test here (no kills in the plan) and
  // its default cadence is tuned for the sim: on a wall-clock backend,
  // scheduling noise can push a live rank past the sub-millisecond confirm
  // window, and the resulting false-confirm churn destabilizes who the
  // parked ranks believe the admitter is. Back detection way off.
  detect::Config saved_d = detect::config();
  detect::Config dc = saved_d;
  dc.hb_period = us(200);
  dc.probe_period = us(1000);
  dc.suspect_after = ms(50);
  dc.confirm_after = ms(200);
  detect::set_config(dc);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ElasticGuard guard;
    apps::UtsResult res = run_uts_elastic(4, plan, seed, tree,
                                          pgas::BackendKind::Threads);
    EXPECT_TRUE(res.counts == expected)
        << "seed " << seed << " counted " << res.counts.nodes
        << " nodes, expected " << expected.nodes;
    detect::Stats s = detect::stats();
    EXPECT_EQ(s.joins, 2u) << "seed " << seed;
  }
  detect::set_config(saved_d);
}

TEST(ElasticGrow, JoinersBecomeWorkersNotJustPassengers) {
  // Pin that admitted ranks actually execute work: with the join early in
  // a decently sized traversal, the grown fleet's execution totals must
  // exceed what the initial fleet alone could have done by the join time
  // -- concretely, every rank's durable patch ends nonzero, which the
  // bit-exact total already implies unless the joiners stole nothing.
  const apps::UtsParams tree = apps::uts_small();
  ElasticGuard guard;
  apps::UtsResult res = run_uts_elastic(
      8, "join:rank=4,at=50us;join:rank=5,at=50us;"
         "join:rank=6,at=50us;join:rank=7,at=50us",
      3, tree);
  // Joiners enter empty and can only acquire work by stealing; a grown
  // run that stays exact must therefore have steal traffic.
  EXPECT_GT(res.stats.steals, 0u);
  EXPECT_EQ(detect::stats().joins, 4u);
}

// ---- checkpoint/restore ----

TEST(ElasticCkpt, KillQuarterCkptRestoreOntoFewerRanksExact) {
  const apps::UtsParams tree = apps::uts_small();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  const std::string base = tmp_ckpt_path("kill_restore");
  remove_ckpt_files(base, 8);

  // Run 1 (8 ranks): two ranks die early, the heartbeat detector (armed
  // by the elastic session's membership view) confirms them, wards adopt
  // their queues, and at 1.2ms the survivors quiesce, snapshot, and halt.
  {
    elastic::Config ec;
    ec.ckpt_path = base;
    ec.halt_after_ckpt = true;
    ElasticGuard guard(&ec);
    apps::UtsResult partial = run_uts_elastic(
        8, "kill:rank=2,at=200us;kill:rank=5,at=300us;ckpt:at=1200us", 42,
        tree);
    // The phase was cut short: the snapshot exists and the partial count
    // is strictly less than the full traversal.
    EXPECT_EQ(elastic::stats().checkpoints, 1u);
    EXPECT_LT(partial.counts.nodes, expected.nodes);
    std::FILE* mf = std::fopen(base.c_str(), "r");
    ASSERT_NE(mf, nullptr) << "manifest " << base << " missing";
    std::fclose(mf);
  }

  // Run 2 (4 ranks -- a different fleet size): restore the snapshot and
  // run to completion. The restored descriptors are dealt round-robin,
  // the blobs carry every patch's executed-node counts (dead ranks'
  // included, folded by the quiesce leader), and the final sum must be
  // bit-identical to the uninterrupted traversal.
  {
    elastic::Config ec;
    ec.restore_path = base;
    ElasticGuard guard(&ec);
    apps::UtsResult res = run_uts_elastic(4, "", 7, tree);
    EXPECT_TRUE(res.counts == expected)
        << "restored run counted " << res.counts.nodes
        << " nodes, expected " << expected.nodes;
    EXPECT_EQ(elastic::stats().restores, 1u);
  }
  remove_ckpt_files(base, 8);
}

TEST(ElasticCkpt, MidRunCheckpointDoesNotPerturbTheResultSim) {
  // A checkpoint without halt_after_ckpt is a pure pause: quiesce,
  // snapshot, resume. The traversal must stay exact and the run must
  // still terminate through the normal all-white wave.
  const apps::UtsParams tree = apps::uts_small();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  const std::string base = tmp_ckpt_path("passthrough");
  remove_ckpt_files(base, 8);
  elastic::Config ec;
  ec.ckpt_path = base;
  ElasticGuard guard(&ec);
  apps::UtsResult res = run_uts_elastic(8, "ckpt:at=300us", 11, tree);
  EXPECT_TRUE(res.counts == expected)
      << "counted " << res.counts.nodes << " nodes, expected "
      << expected.nodes;
  EXPECT_EQ(elastic::stats().checkpoints, 1u);
  remove_ckpt_files(base, 8);
}

TEST(ElasticCkpt, GrowThenCheckpointThenRestoreExact) {
  // Compose the two halves: grow 4 -> 6 mid-run, checkpoint the grown
  // fleet, halt, and restore onto 3 ranks. Exercises restore-onto-fewer
  // with a manifest whose parts came from a fleet that itself changed
  // size mid-phase.
  const apps::UtsParams tree = apps::uts_small();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  const std::string base = tmp_ckpt_path("grow_ckpt");
  remove_ckpt_files(base, 6);
  {
    elastic::Config ec;
    ec.ckpt_path = base;
    ec.halt_after_ckpt = true;
    ElasticGuard guard(&ec);
    (void)run_uts_elastic(
        6, "join:rank=4,at=80us;join:rank=5,at=80us;ckpt:at=1ms", 21, tree);
    EXPECT_EQ(elastic::stats().checkpoints, 1u);
    EXPECT_EQ(detect::stats().joins, 2u);
  }
  {
    elastic::Config ec;
    ec.restore_path = base;
    ElasticGuard guard(&ec);
    apps::UtsResult res = run_uts_elastic(3, "", 5, tree);
    EXPECT_TRUE(res.counts == expected)
        << "restored run counted " << res.counts.nodes
        << " nodes, expected " << expected.nodes;
  }
  remove_ckpt_files(base, 6);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Restores `base` onto `nranks` ranks; returns the error's text, or ""
/// when the restore went through.
std::string restore_error(const std::string& base, int nranks) {
  elastic::Config ec;
  ec.restore_path = base;
  ElasticGuard guard(&ec);
  try {
    (void)run_uts_elastic(nranks, "", 5, apps::uts_small());
  } catch (const Error& e) {
    fault::stop();
    return e.what();
  }
  return "";
}

/// Replaces the count on manifest line "part <rank> <count>".
std::string with_part_count(const std::string& manifest, int rank,
                            const std::string& count) {
  const std::string key = "part " + std::to_string(rank) + " ";
  const std::size_t at = manifest.find(key);
  EXPECT_NE(at, std::string::npos) << manifest;
  const std::size_t from = at + key.size();
  return manifest.substr(0, from) + count +
         manifest.substr(manifest.find('\n', from));
}

TEST(ElasticCkpt, RestoreRejectsCorruptCheckpointsByName) {
  const std::string base = tmp_ckpt_path("corrupt");
  remove_ckpt_files(base, 4);
  {
    elastic::Config ec;
    ec.ckpt_path = base;
    ec.halt_after_ckpt = true;
    ElasticGuard guard(&ec);
    (void)run_uts_elastic(4, "ckpt:at=300us", 3, apps::uts_small());
    ASSERT_EQ(elastic::stats().checkpoints, 1u);
  }
  const std::string manifest = read_file(base);
  const std::string part = read_file(base + ".r0");
  ASSERT_GT(part.size(), 8 + 6 * 8 + Sha1::kDigestBytes);
  EXPECT_EQ(restore_error(base, 4), "") << "the pristine checkpoint restores";

  // A flipped byte anywhere before the trailing digest.
  std::string flipped = part;
  flipped[20] = static_cast<char>(flipped[20] ^ 0x01);
  write_file(base + ".r0", flipped);
  std::string err = restore_error(base, 4);
  EXPECT_NE(err.find("SHA1 mismatch"), std::string::npos) << err;
  write_file(base + ".r0", part);

  // A non-numeric count must fail by name, not end the parse and drop
  // every later part line.
  write_file(base, with_part_count(manifest, 0, "many"));
  err = restore_error(base, 4);
  EXPECT_NE(err.find("'part count' needs a numeric value"), std::string::npos)
      << err;

  // A forged count whose nd * slot_bytes wraps to the real payload size,
  // in a part file that still carries a valid digest: the size check
  // must catch it before any descriptor is read.
  std::uint64_t hdr[6];
  std::memcpy(hdr, part.data() + 8, sizeof(hdr));
  const int tz = std::countr_zero(hdr[4]);
  ASSERT_GT(tz, 0) << "slot_bytes " << hdr[4] << " is odd";
  hdr[3] += std::uint64_t{1} << (64 - tz);
  std::string forged = part;
  std::memcpy(forged.data() + 8, hdr, sizeof(hdr));
  const std::size_t body = forged.size() - Sha1::kDigestBytes;
  const Sha1::Digest d = Sha1::hash(forged.data(), body);
  std::memcpy(forged.data() + body, d.data(), d.size());
  write_file(base + ".r0", forged);
  write_file(base, with_part_count(manifest, 0, std::to_string(hdr[3])));
  err = restore_error(base, 4);
  EXPECT_NE(err.find("has inconsistent sizes"), std::string::npos) << err;
  remove_ckpt_files(base, 4);
}

// ---- quiesce under real concurrency (the TSan leg) ----

TEST(ElasticQuiesce, UnderConcurrentStealsThreads4Seeds) {
  // Threads backend: the quiesce rendezvous races live steal traffic with
  // no virtual-time serialization. The in-flight-steal drain argument
  // (a steal transaction never spans a safepoint) plus the SHA1-framed
  // parts must hold under TSan; the checkpoint is write-only here, the
  // pinned property is an exact traversal with >= 1 completed quiesce.
  const apps::UtsParams tree = apps::uts_tiny();
  const apps::UtsCounts expected = apps::uts_sequential(tree);
  const std::string base = tmp_ckpt_path("tsan_quiesce");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    remove_ckpt_files(base, 4);
    elastic::Config ec;
    ec.ckpt_path = base;
    ElasticGuard guard(&ec);
    // Threads-backend ckpt rules trigger on pump-poll counts (after=).
    apps::UtsResult res = run_uts_elastic(4, "ckpt:after=20", seed, tree,
                                          pgas::BackendKind::Threads);
    EXPECT_TRUE(res.counts == expected)
        << "seed " << seed << " counted " << res.counts.nodes
        << " nodes, expected " << expected.nodes;
  }
  remove_ckpt_files(base, 4);
}

// ---- monitor rollup: joins/grows surface in the fleet samples ----

TEST(ElasticMonitor, JoinsSurfaceInFleetSamples) {
  const apps::UtsParams tree = apps::uts_small();
  ElasticGuard guard;
  metrics::Config mc = metrics::config();
  mc.enabled = true;
  metrics::set_config(mc);
  apps::UtsResult res = run_uts_elastic(
      6, "join:rank=4,at=60us;join:rank=5,at=60us", 9, tree);
  mc.enabled = false;
  metrics::set_config(mc);
  (void)res;
  const std::vector<metrics::FleetSample>& samples =
      metrics::monitor_samples();
  ASSERT_FALSE(samples.empty());
  // Before the join the parked tail reports as not-participating, after
  // it the rollup closes at 6 alive; the growth counters land in the
  // samples once the admission wave happens.
  const metrics::FleetSample& last = samples.back();
  EXPECT_EQ(last.joins, 2u);
  EXPECT_GE(last.grows, 1u);
  EXPECT_EQ(last.alive + last.suspects + last.dead,
            static_cast<int>(last.ranks.size()));
}

// ---- C API ----

TEST(ElasticCApi, KnobsRoundTrip) {
  const elastic::Config before = elastic::config();

  EXPECT_EQ(scioto_elastic_enabled(), 0);
  scioto_elastic_set(1);
  EXPECT_EQ(scioto_elastic_enabled(), 1);

  scioto_ckpt_path_set("/tmp/roundtrip.ckpt");
  EXPECT_STREQ(scioto_ckpt_path(), "/tmp/roundtrip.ckpt");
  scioto_ckpt_set_period_ns(ms(2));
  EXPECT_EQ(scioto_ckpt_period_ns(), ms(2));

  scioto_ckpt_restore_set("/tmp/roundtrip.ckpt");
  EXPECT_STREQ(scioto_ckpt_restore_path(), "/tmp/roundtrip.ckpt");
  scioto_ckpt_restore_set(nullptr);
  EXPECT_STREQ(scioto_ckpt_restore_path(), "");

  EXPECT_EQ(scioto_ckpt_halt_after(), 0);
  scioto_ckpt_set_halt_after(1);
  EXPECT_EQ(scioto_ckpt_halt_after(), 1);
  scioto_ckpt_set_halt_after(0);

  // Clearing the path drops the staged cadence with it (a period without
  // a path cannot stage).
  scioto_ckpt_path_set("");
  EXPECT_EQ(scioto_ckpt_period_ns(), 0);

  elastic::set_config(before);
  EXPECT_EQ(scioto_elastic_enabled(), before.enabled ? 1 : 0);
}

TEST(ElasticCApi, StatsSurfaceAfterGrowRun) {
  const apps::UtsParams tree = apps::uts_tiny();
  ElasticGuard guard;
  (void)run_uts_elastic(4, "join:rank=3,at=30us", 13, tree);
  scioto_elastic_stats_t s;
  scioto_elastic_stats_get(&s);
  EXPECT_EQ(s.joins, 1u);
  EXPECT_EQ(s.grows, 1u);
  EXPECT_EQ(s.checkpoints, 0u);
  EXPECT_EQ(s.restores, 0u);
}

// ---- fail-fast: rules naming ranks outside the run ----

TEST(ElasticPlan, JoinRuleRankOutOfRangeFailsFastEchoingTheRule) {
  fault::FaultPlan plan =
      fault::FaultPlan::parse("kill:rank=1,at=1ms;join:rank=9,at=2ms");
  try {
    fault::start(8, plan, 1);
    fault::stop();
    FAIL() << "fault::start accepted a join rule for rank 9 of 8";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nranks=8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("join rank=9"), std::string::npos)
        << "error must echo the offending rule, got: " << msg;
  }
}

TEST(ElasticPlan, JoinersMustFormContiguousTail) {
  // rank 1 of 4 has a join rule but ranks 2..3 do not: membership parks
  // by count, so elastic::start must reject the gap outright.
  ElasticGuard guard;
  fault::start(4, fault::FaultPlan::parse("join:rank=1,at=1ms"), 1);
  EXPECT_THROW(elastic::start(4), Error);
  fault::stop();

  // Rank 0 can never be a joiner: it anchors the initial fleet.
  fault::start(2, fault::FaultPlan::parse("join:rank=0,at=1ms;"
                                          "join:rank=1,at=1ms"),
               1);
  EXPECT_THROW(elastic::start(2), Error);
  fault::stop();
}

// ---- elastic-off byte-identity pin ----

TEST(ElasticOff, TraceByteIdenticalWithElasticStagedButDisabled) {
  // The elastic layer is linked into every run; staged-but-disabled
  // config must leave the trace stream byte-identical to a run that
  // never touched elastic at all (the fig4/fig7 baseline guarantee).
  const apps::UtsParams tree = apps::uts_tiny();
  auto traced_run = [&]() {
    trace::start(4);
    testing::run_sim(4, [&](Runtime& rt) {
      apps::UtsRunConfig rc;
      (void)apps::uts_run_scioto(rt, tree, rc);
    });
    std::vector<trace::Event> evs = trace::all_events();
    trace::stop();
    return evs;
  };
  std::vector<trace::Event> a = traced_run();
  elastic::Config staged = elastic::config();
  staged.enabled = false;
  staged.ckpt_path = "/tmp/never_written.ckpt";
  staged.ckpt_period = ms(1);
  elastic::set_config(staged);
  std::vector<trace::Event> b = traced_run();
  staged = elastic::Config{};
  elastic::set_config(staged);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t) << "event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].rank, b[i].rank) << "event " << i;
    EXPECT_EQ(a[i].a, b[i].a) << "event " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "event " << i;
    EXPECT_EQ(a[i].c, b[i].c) << "event " << i;
    if (::testing::Test::HasFailure()) break;
  }
  // And no elastic event kind ever appears in a disabled run.
  for (const trace::Event& e : b) {
    EXPECT_NE(e.kind, trace::Ev::JoinRequest);
    EXPECT_NE(e.kind, trace::Ev::JoinAdmit);
    EXPECT_NE(e.kind, trace::Ev::Quiesce);
    EXPECT_NE(e.kind, trace::Ev::Checkpoint);
    EXPECT_NE(e.kind, trace::Ev::Restore);
  }
}

}  // namespace
}  // namespace scioto
