// Real-hardware microbenchmarks (google-benchmark) over the *threads*
// backend: the actual data-structure costs of the queue, RMW, SHA-1 and
// UTS child-hash primitives on this host, complementing bench_table1_ops'
// virtual-time reproduction of the paper's Table 1. BM_EngineSegment
// measures the sim engine's own per-segment host cost.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "apps/uts/uts.hpp"
#include "base/sha1.hpp"
#include "pgas/runtime.hpp"
#include "scioto/queue.hpp"
#include "scioto/task.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace {

using namespace scioto;

constexpr std::size_t kBody = 1024;  // Table 1's task body size

SplitQueue::Config qcfg() {
  SplitQueue::Config c;
  c.slot_bytes = align_up(sizeof(TaskHeader) + kBody, 8);
  c.capacity = 1 << 16;
  c.chunk = 10;
  return c;
}

pgas::Config rt_cfg(int nranks) {
  pgas::Config cfg;
  cfg.nranks = nranks;
  cfg.backend = pgas::BackendKind::Threads;
  return cfg;
}

void BM_Sha1TaskDigest(benchmark::State& state) {
  std::uint8_t buf[24] = {1, 2, 3};
  for (auto _ : state) {
    auto d = Sha1::hash(buf, sizeof(buf));
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Sha1TaskDigest);

// One 64-byte block, each fed back into the next (the chaining latency a
// UTS traversal pays), on the compress this CPU dispatches to.
void BM_Sha1Compress(benchmark::State& state) {
  std::uint8_t block[Sha1::kBlockBytes] = {1, 2, 3};
  Sha1::State s = {1, 2, 3, 4, 5};
  for (auto _ : state) {
    Sha1::compress(s, block);
    benchmark::DoNotOptimize(s);
  }
  state.SetLabel(Sha1::compress_name());
}
BENCHMARK(BM_Sha1Compress);

// The same chain on the portable compress, which every CPU runs.
void BM_Sha1CompressPortable(benchmark::State& state) {
  std::uint8_t block[Sha1::kBlockBytes] = {1, 2, 3};
  Sha1::State s = {1, 2, 3, 4, 5};
  for (auto _ : state) {
    Sha1::compress_portable(s, block);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Sha1CompressPortable);

// A UTS node's descriptor from its parent's: one padded-block hash.
void BM_UtsChild(benchmark::State& state) {
  apps::UtsNode n = apps::uts_root(apps::uts_bench());
  int i = 0;
  for (auto _ : state) {
    n = apps::uts_child(n, i++ & 7);
    benchmark::DoNotOptimize(n);
  }
  state.SetLabel(Sha1::compress_name());
}
BENCHMARK(BM_UtsChild);

void BM_QueueLocalPushPop(benchmark::State& state) {
  pgas::run_spmd(rt_cfg(1), [&](pgas::Runtime& rt) {
    TcStats st;
    SplitQueue q(rt, qcfg(), st);
    std::vector<std::byte> task(q.slot_bytes(), std::byte{3});
    for (auto _ : state) {
      benchmark::DoNotOptimize(q.push_local(task.data(), kAffinityHigh));
      benchmark::DoNotOptimize(q.pop_local(task.data()));
    }
    q.destroy();
  });
}
BENCHMARK(BM_QueueLocalPushPop);

void BM_QueueReleaseReacquire(benchmark::State& state) {
  pgas::run_spmd(rt_cfg(1), [&](pgas::Runtime& rt) {
    SplitQueue::Config c = qcfg();
    c.release_threshold = 1;  // always eligible: private depth stays >> 1
    TcStats st;
    SplitQueue q(rt, c, st);
    std::vector<std::byte> task(q.slot_bytes(), std::byte{3});
    for (int i = 0; i < 64; ++i) {
      q.push_local(task.data(), kAffinityHigh);
    }
    for (auto _ : state) {
      benchmark::DoNotOptimize(q.release_maybe());
      benchmark::DoNotOptimize(q.reacquire());
    }
    q.destroy();
  });
}
BENCHMARK(BM_QueueReleaseReacquire);

void BM_RemoteAddPlusSteal(benchmark::State& state) {
  // Rank 1 drives: 10 remote adds into rank 0's patch, then one 10-task
  // steal back -- the full one-sided transfer path (locks + memcpy) on
  // real hardware.
  pgas::run_spmd(rt_cfg(2), [&](pgas::Runtime& rt) {
    TcStats st;
    SplitQueue q(rt, qcfg(), st);
    if (rt.me() == 1) {
      std::vector<std::byte> task(q.slot_bytes(), std::byte{3});
      std::vector<std::byte> out(q.slot_bytes() * 10);
      for (auto _ : state) {
        for (int i = 0; i < 10; ++i) {
          benchmark::DoNotOptimize(q.add_remote(0, task.data()));
        }
        int got = q.steal_from(0, out.data());
        benchmark::DoNotOptimize(got);
      }
      // Signal rank 0 we are done.
      rt.send(0, 1, &state, sizeof(void*));
    } else {
      std::byte buf[sizeof(void*)];
      rt.recv(1, 1, buf, sizeof(buf));
    }
    q.destroy();
  });
}
BENCHMARK(BM_RemoteAddPlusSteal)->Unit(benchmark::kMicrosecond);

void BM_FetchAdd(benchmark::State& state) {
  pgas::run_spmd(rt_cfg(1), [&](pgas::Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(8);
    for (auto _ : state) {
      benchmark::DoNotOptimize(rt.fetch_add(seg, 0, 0, 1));
    }
    rt.seg_free(seg);
  });
}
BENCHMARK(BM_FetchAdd);

// Host time per sim segment: every rank loops charge + sync, so each
// segment is one fiber switch pair plus one re-key of the running rank's
// run-queue entry, at a queue depth of range(0) ranks. Engine setup and
// teardown (mapping and unmapping fiber stacks) are outside the timed region.
void BM_EngineSegment(benchmark::State& state) {
  constexpr int kSyncsPerRank = 200;
  sim::Engine::Config cfg;
  cfg.nranks = static_cast<int>(state.range(0));
  cfg.machine = sim::test_machine();
  cfg.stack_bytes = 64 * 1024;
  std::uint64_t segments = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto e = std::make_unique<sim::Engine>(cfg, [](Rank r) {
      sim::Engine& eng = *sim::current_engine();
      for (int i = 0; i < kSyncsPerRank; ++i) {
        eng.charge(100 + 7 * ((r + i) % 5));
        eng.sync();
      }
    });
    state.ResumeTiming();
    e->run();
    state.PauseTiming();
    segments += e->resumes();
    e.reset();
    state.ResumeTiming();
  }
  state.counters["segment"] = benchmark::Counter(
      static_cast<double>(segments),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineSegment)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
