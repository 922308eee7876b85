// Byte-identity pins for the outputs armed subsystems write (ctest label
// `golden`). Each test runs one small sim UTS traversal through run_spmd
// with sessions armed by their environment variables, then compares the
// SHA-1 of every output against a recorded digest. A change that moves
// virtual time on purpose re-pins these digests and says why.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "base/sha1.hpp"
#include "control/control.hpp"
#include "pgas/runtime.hpp"
#include "sim/machine.hpp"

namespace scioto {
namespace {

using Env = std::vector<std::pair<const char*, std::string>>;

std::string sha1_hex(const std::string& bytes) {
  return Sha1::hex(Sha1::hash(bytes.data(), bytes.size()));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One UTS traversal on `nranks` sim ranks with `env` set for the run.
void run_armed_uts(int nranks, const sim::MachineModel& machine,
                   const Env& env) {
  for (const auto& [name, value] : env) {
    ASSERT_EQ(setenv(name, value.c_str(), 1), 0);
  }
  pgas::Config cfg;
  cfg.nranks = nranks;
  cfg.machine = machine;
  cfg.seed = 42;
  const apps::UtsParams tree = apps::uts_small();
  std::uint64_t nodes = 0;
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    apps::UtsResult r = apps::uts_run_scioto(rt, tree, apps::UtsRunConfig{});
    if (rt.me() == 0) {
      nodes = r.counts.nodes;
    }
  });
  for (const auto& [name, value] : env) {
    ASSERT_EQ(unsetenv(name), 0);
  }
  EXPECT_EQ(nodes, apps::uts_sequential(tree).nodes);
}

TEST(GoldenArmed, LocalControllerRunOutputs) {
  // The controller arms metrics too, so one run writes all three: the
  // fleet sample stream, the Prometheus dump, and the decision log.
  const std::string base = ::testing::TempDir() + "scioto_golden_ctl";
  run_armed_uts(8, sim::cluster2008(),
                {{"SCIOTO_CONTROLLER", "local"},
                 {"SCIOTO_METRICS_OUT", base + ".jsonl"},
                 {"SCIOTO_METRICS_PROM", base + ".prom"}});
  const std::string jsonl = slurp(base + ".jsonl");
  const std::string prom = slurp(base + ".prom");
  const std::string log = control::decisions_jsonl();
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(sha1_hex(jsonl), "ed28135c2054a814c524b87a6fd5f33a439e6b16")
      << jsonl.size() << " B metrics JSONL";
  EXPECT_EQ(sha1_hex(prom), "b970bfe0e267c06e70f0f57e2f626cda616a6692")
      << prom.size() << " B Prometheus dump";
  EXPECT_EQ(sha1_hex(log), "9389b5cf61d141689ff76c1503fd7dd3836863dc")
      << log.size() << " B decision log";
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".prom").c_str());
}

TEST(GoldenArmed, MetricsOnlyRunOutputs) {
  // Metrics alone, sampled every 20 us on a wider fleet: the sampler's
  // deadline is the only hook deadline, and most ranks idle through it.
  const std::string base = ::testing::TempDir() + "scioto_golden_metrics";
  run_armed_uts(32, sim::cray_xt4(),
                {{"SCIOTO_METRICS", "1"},
                 {"SCIOTO_METRICS_PERIOD", "20us"},
                 {"SCIOTO_METRICS_OUT", base + ".jsonl"},
                 {"SCIOTO_METRICS_PROM", base + ".prom"}});
  const std::string jsonl = slurp(base + ".jsonl");
  const std::string prom = slurp(base + ".prom");
  EXPECT_EQ(sha1_hex(jsonl), "57ecccde889d312ed6f7e618560d42fb77d6c43d")
      << jsonl.size() << " B metrics JSONL";
  EXPECT_EQ(sha1_hex(prom), "a3169de9483f8f6fe0889b7e710ed9b0e0483c0d")
      << prom.size() << " B Prometheus dump";
  std::remove((base + ".jsonl").c_str());
  std::remove((base + ".prom").c_str());
}

}  // namespace
}  // namespace scioto
