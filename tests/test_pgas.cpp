// Tests for the PGAS runtime: segments, one-sided data movement, RMW
// atomics, remote mutexes, collectives, and two-sided messaging -- run on
// both the sim and threads backends via TEST_P.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace scioto {
namespace {

using pgas::BackendKind;
using pgas::Runtime;
using testing::run;

class PgasBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(PgasBackends, IdentityAndSize) {
  std::atomic<int> seen{0};
  run(4, GetParam(), [&](Runtime& rt) {
    EXPECT_EQ(rt.nprocs(), 4);
    EXPECT_GE(rt.me(), 0);
    EXPECT_LT(rt.me(), 4);
    seen.fetch_add(1 << rt.me());
  });
  EXPECT_EQ(seen.load(), 0b1111);
}

TEST_P(PgasBackends, BroadcastFromEveryRoot) {
  run(5, GetParam(), [&](Runtime& rt) {
    for (Rank root = 0; root < rt.nprocs(); ++root) {
      int v = (rt.me() == root) ? 100 + root : -1;
      int out = rt.broadcast(v, root);
      EXPECT_EQ(out, 100 + root);
    }
  });
}

TEST_P(PgasBackends, AllreduceSumMinMax) {
  run(6, GetParam(), [&](Runtime& rt) {
    std::int64_t me = rt.me();
    EXPECT_EQ(rt.allreduce_sum(me), 0 + 1 + 2 + 3 + 4 + 5);
    EXPECT_EQ(rt.allreduce_min(me), 0);
    EXPECT_EQ(rt.allreduce_max(me), 5);
    double x = 0.5 * (rt.me() + 1);
    EXPECT_DOUBLE_EQ(rt.allreduce_sum(x), 0.5 + 1.0 + 1.5 + 2.0 + 2.5 + 3.0);
  });
}

TEST_P(PgasBackends, SegmentPutGetRoundTrip) {
  run(4, GetParam(), [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(64);
    // Every rank writes a signature into its right neighbour's patch...
    Rank next = (rt.me() + 1) % rt.nprocs();
    std::int64_t sig = 1000 + rt.me();
    rt.put(seg, next, 8, &sig, sizeof(sig));
    rt.barrier();
    // ...and reads the one its left neighbour wrote into its own patch.
    std::int64_t got = 0;
    rt.get(seg, rt.me(), 8, &got, sizeof(got));
    Rank prev = (rt.me() + rt.nprocs() - 1) % rt.nprocs();
    EXPECT_EQ(got, 1000 + prev);
    rt.seg_free(seg);
  });
}

TEST_P(PgasBackends, SegmentsZeroInitialized) {
  constexpr std::size_t kBytes = 3 * 4096 + 40;
  run(3, GetParam(), [&](Runtime& rt) {
    // The second segment may land on the first one's freed pages.
    for (int round = 0; round < 2; ++round) {
      pgas::SegId seg = rt.seg_alloc(kBytes);
      std::vector<std::byte> buf(kBytes);
      for (Rank r = 0; r < rt.nprocs(); ++r) {
        rt.get(seg, r, 0, buf.data(), buf.size());
        for (std::byte b : buf) {
          ASSERT_EQ(b, std::byte{0}) << "round " << round << ", rank " << r;
        }
      }
      rt.barrier();
      std::memset(rt.seg_ptr(seg, rt.me()), 0xff, kBytes);
      rt.seg_free(seg);
    }
  });
}

TEST_P(PgasBackends, FetchAddTotalsAcrossRanks) {
  constexpr int kIters = 200;
  run(4, GetParam(), [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(sizeof(std::int64_t));
    for (int i = 0; i < kIters; ++i) {
      rt.fetch_add(seg, /*target=*/0, 0, 1);
    }
    rt.barrier();
    std::int64_t total = 0;
    rt.get(seg, 0, 0, &total, sizeof(total));
    EXPECT_EQ(total, 4 * kIters);
    rt.seg_free(seg);
  });
}

TEST_P(PgasBackends, FetchAddValuesAreUnique) {
  // NXTVAL semantics: every returned ticket is distinct.
  constexpr int kPer = 100;
  std::vector<std::vector<std::int64_t>> tickets(4);
  run(4, GetParam(), [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(sizeof(std::int64_t));
    auto& mine = tickets[static_cast<std::size_t>(rt.me())];
    for (int i = 0; i < kPer; ++i) {
      mine.push_back(rt.fetch_add(seg, 0, 0, 1));
    }
    rt.barrier();
    rt.seg_free(seg);
  });
  std::vector<std::int64_t> all;
  for (auto& v : tickets) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], static_cast<std::int64_t>(i));
  }
}

TEST_P(PgasBackends, SwapExchangesAtomically) {
  run(2, GetParam(), [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(sizeof(std::int64_t));
    rt.barrier();
    if (rt.me() == 1) {
      std::int64_t old = rt.swap(seg, 0, 0, 77);
      EXPECT_EQ(old, 0);
      old = rt.swap(seg, 0, 0, 88);
      EXPECT_EQ(old, 77);
    }
    rt.barrier();
    std::int64_t v = 0;
    rt.get(seg, 0, 0, &v, sizeof(v));
    EXPECT_EQ(v, 88);
    rt.seg_free(seg);
  });
}

TEST_P(PgasBackends, AccIsAtomicUnderContention) {
  constexpr int kIters = 300;
  run(4, GetParam(), [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(4 * sizeof(double));
    rt.barrier();
    double inc[4] = {1.0, 2.0, 3.0, 4.0};
    for (int i = 0; i < kIters; ++i) {
      rt.acc(seg, /*target=*/0, 0, inc, 4, 0.5);
    }
    rt.barrier();
    double out[4];
    rt.get(seg, 0, 0, out, sizeof(out));
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(out[j], 0.5 * inc[j] * kIters * rt.nprocs());
    }
    rt.seg_free(seg);
  });
}

TEST_P(PgasBackends, LocksetProvidesMutualExclusion) {
  constexpr int kIters = 200;
  run(4, GetParam(), [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(sizeof(std::int64_t));
    pgas::LockSet ls = rt.lockset_create();
    rt.barrier();
    for (int i = 0; i < kIters; ++i) {
      rt.lock(ls, 0);
      // Unprotected read-modify-write: only correct under the lock.
      auto* p = reinterpret_cast<volatile std::int64_t*>(rt.seg_ptr(seg, 0));
      std::int64_t v = *p;
      *p = v + 1;
      rt.unlock(ls, 0);
    }
    rt.barrier();
    std::int64_t total = 0;
    rt.get(seg, 0, 0, &total, sizeof(total));
    EXPECT_EQ(total, 4 * kIters);
    rt.seg_free(seg);
  });
}

TEST_P(PgasBackends, SendRecvRing) {
  run(5, GetParam(), [&](Runtime& rt) {
    Rank next = (rt.me() + 1) % rt.nprocs();
    Rank prev = (rt.me() + rt.nprocs() - 1) % rt.nprocs();
    int payload = 42 + rt.me();
    rt.send(next, /*tag=*/7, &payload, sizeof(payload));
    int got = 0;
    pgas::MsgInfo info = rt.recv(prev, 7, &got, sizeof(got));
    EXPECT_EQ(got, 42 + prev);
    EXPECT_EQ(info.from, prev);
    EXPECT_EQ(info.tag, 7);
    EXPECT_EQ(info.bytes, sizeof(int));
  });
}

TEST_P(PgasBackends, RecvAnyRankAnyTag) {
  run(4, GetParam(), [&](Runtime& rt) {
    if (rt.me() != 0) {
      int v = rt.me() * 10;
      rt.send(0, rt.me(), &v, sizeof(v));
    } else {
      int sum = 0;
      for (int i = 0; i < 3; ++i) {
        int v = 0;
        pgas::MsgInfo info = rt.recv(pgas::kAnyRank, pgas::kAnyTag, &v,
                                     sizeof(v));
        EXPECT_EQ(v, info.from * 10);
        EXPECT_EQ(info.tag, info.from);
        sum += v;
      }
      EXPECT_EQ(sum, 10 + 20 + 30);
    }
  });
}

TEST_P(PgasBackends, IprobeSeesPendingMessage) {
  run(2, GetParam(), [&](Runtime& rt) {
    if (rt.me() == 1) {
      double x = 2.5;
      rt.send(0, 3, &x, sizeof(x));
      rt.barrier();
    } else {
      rt.barrier();  // message definitely sent now
      pgas::MsgInfo info;
      // Under sim the arrival may still be in the future; poll.
      int guard = 0;
      while (!rt.iprobe(pgas::kAnyRank, 3, &info)) {
        rt.relax();
        ASSERT_LT(++guard, 1000000) << "iprobe never saw the message";
      }
      EXPECT_EQ(info.from, 1);
      EXPECT_EQ(info.bytes, sizeof(double));
      double x = 0;
      EXPECT_TRUE(rt.try_recv(1, 3, &x, sizeof(x), nullptr));
      EXPECT_DOUBLE_EQ(x, 2.5);
      // Queue is drained now.
      EXPECT_FALSE(rt.iprobe(pgas::kAnyRank, pgas::kAnyTag, nullptr));
    }
  });
}

TEST_P(PgasBackends, MessagesFromSameSenderStayOrdered) {
  run(2, GetParam(), [&](Runtime& rt) {
    constexpr int kMsgs = 50;
    if (rt.me() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        rt.send(1, 9, &i, sizeof(i));
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        int v = -1;
        rt.recv(0, 9, &v, sizeof(v));
        ASSERT_EQ(v, i);
      }
    }
  });
}

TEST_P(PgasBackends, StridedPutGetRoundTrip) {
  run(2, GetParam(), [&](Runtime& rt) {
    // Target patch modeled as a 4x8 double matrix in rank 1's segment.
    pgas::SegId seg = rt.seg_alloc(4 * 8 * sizeof(double));
    rt.barrier();
    if (rt.me() == 0) {
      // Write a 3x2 sub-block at (1, 3) from a buffer with ld 5.
      double src[3 * 5] = {};
      for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 2; ++c) {
          src[r * 5 + c] = 10.0 * r + c;
        }
      }
      rt.put_strided(seg, 1, (1 * 8 + 3) * sizeof(double),
                     8 * sizeof(double), 3, 2 * sizeof(double), src,
                     5 * sizeof(double));
      // Read it back with a different destination stride.
      double dst[3 * 4] = {};
      rt.get_strided(seg, 1, (1 * 8 + 3) * sizeof(double),
                     8 * sizeof(double), 3, 2 * sizeof(double), dst,
                     4 * sizeof(double));
      for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 2; ++c) {
          EXPECT_DOUBLE_EQ(dst[r * 4 + c], 10.0 * r + c);
        }
      }
    }
    rt.barrier();
    // Untouched elements stay zero.
    double v = -1;
    rt.get(seg, 1, 0, &v, sizeof(v));
    EXPECT_DOUBLE_EQ(v, 0.0);
    rt.barrier();
    rt.seg_free(seg);
  });
}

TEST_P(PgasBackends, FenceCompletesOutstandingPuts) {
  run(3, GetParam(), [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(16);
    if (rt.me() == 1) {
      std::int64_t v = 4242;
      rt.put(seg, 2, 0, &v, sizeof(v));
      rt.fence(2);
      // Post-fence the value is globally visible; signal rank 2.
      rt.send(2, 5, &v, sizeof(v));
    } else if (rt.me() == 2) {
      std::int64_t sig;
      rt.recv(1, 5, &sig, sizeof(sig));
      std::int64_t got = 0;
      rt.get(seg, 2, 0, &got, sizeof(got));
      EXPECT_EQ(got, 4242);
    }
    rt.barrier();
    rt.seg_free(seg);
  });
}

TEST_P(PgasBackends, RmwCostsMoreThanPlainRmaUnderSim) {
  if (GetParam() != BackendKind::Sim) {
    GTEST_SKIP() << "cost model is sim-only";
  }
  run(2, GetParam(), [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(64);
    rt.barrier();
    if (rt.me() == 1) {
      TimeNs t0 = rt.now();
      std::int64_t v = 1;
      for (int i = 0; i < 20; ++i) {
        rt.put(seg, 0, 0, &v, sizeof(v));
      }
      TimeNs put_time = rt.now() - t0;
      t0 = rt.now();
      for (int i = 0; i < 20; ++i) {
        rt.fetch_add(seg, 0, 8, 1);
      }
      TimeNs rmw_time = rt.now() - t0;
      // Host-assisted atomics occupy the target longer than plain puts.
      EXPECT_GT(rmw_time, put_time);
    }
    rt.barrier();
    rt.seg_free(seg);
  });
}

TEST_P(PgasBackends, ExceptionInRankPropagates) {
  EXPECT_THROW(
      run(3, GetParam(),
          [&](Runtime& rt) {
            if (rt.me() == 2) {
              throw Error("rank 2 failed");
            }
            // Other ranks exit normally (no collectives after the throw).
          }),
      Error);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PgasBackends,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads),
                         [](const auto& info) {
                           return testing::backend_name(info.param);
                         });

TEST(PgasRunSpmd, UnknownLogLevelRejectedByName) {
  // An unknown level used to fall back to warn silently.
  ASSERT_EQ(setenv("SCIOTO_LOG", "verbose", 1), 0);
  bool ran = false;
  try {
    testing::run_sim(2, [&](Runtime&) { ran = true; });
    ADD_FAILURE() << "SCIOTO_LOG=verbose was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("SCIOTO_LOG"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("verbose"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(ran);
  ASSERT_EQ(setenv("SCIOTO_LOG", "warn", 1), 0);
  testing::run_sim(2, [&](Runtime&) { ran = true; });
  EXPECT_TRUE(ran);
  ASSERT_EQ(unsetenv("SCIOTO_LOG"), 0);
}

// ---- Sim-specific behaviours ----

TEST(PgasSim, RemoteOpsCostVirtualTime) {
  std::vector<TimeNs> local_t(2), remote_t(2);
  testing::run_sim(2, [&](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(1024);
    rt.barrier();
    std::int64_t v = 1;
    TimeNs t0 = rt.now();
    rt.put(seg, rt.me(), 0, &v, sizeof(v));
    local_t[static_cast<std::size_t>(rt.me())] = rt.now() - t0;
    t0 = rt.now();
    rt.put(seg, 1 - rt.me(), 8, &v, sizeof(v));
    remote_t[static_cast<std::size_t>(rt.me())] = rt.now() - t0;
    rt.barrier();
    rt.seg_free(seg);
  });
  // Local puts are free; remote ones pay latency + service.
  EXPECT_EQ(local_t[0], 0);
  EXPECT_GT(remote_t[0], 2 * sim::test_machine().rma_latency - 1);
}

// A rank's lock on its own lock word is charged as a network round trip
// plus a one-way unlock, exactly like an idle remote rank's. This is
// calibration, not an oversight: it is what makes the no-split queue (every
// owner op locks) collapse as in the paper's Fig. 7. Charged at intra-node
// cost, no-split at 64 cluster ranks rises from 4.7 to 34.8 Mn/s.
TEST(PgasSim, OwnLockCostsTheSameAsAnIdleRemoteLock) {
  pgas::Config cfg = testing::make_cfg(2, BackendKind::Sim);
  cfg.machine = sim::cluster2008_uniform();
  TimeNs own = 0;
  TimeNs remote = 0;
  pgas::run_spmd(cfg, [&](Runtime& rt) {
    pgas::LockSet ls = rt.lockset_create();
    rt.barrier();
    if (rt.me() == 0) {
      TimeNs t0 = rt.now();
      rt.lock(ls, 0);
      rt.unlock(ls, 0);
      own = rt.now() - t0;
      t0 = rt.now();
      rt.lock(ls, 1);
      rt.unlock(ls, 1);
      remote = rt.now() - t0;
    }
    rt.barrier();
  });
  EXPECT_EQ(own, remote);
  EXPECT_EQ(own, 10187);  // round trip + one-way unlock, in ns
}

TEST(PgasSim, DeterministicElapsed) {
  auto body = [](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(256);
    pgas::LockSet ls = rt.lockset_create();
    for (int i = 0; i < 20; ++i) {
      rt.lock(ls, (rt.me() + i) % rt.nprocs());
      rt.charge(100);
      rt.unlock(ls, (rt.me() + i) % rt.nprocs());
    }
    rt.seg_free(seg);
  };
  TimeNs a = testing::run_sim(6, body);
  TimeNs b = testing::run_sim(6, body);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0);
}

// ---- Segment memory (one mapping per segment, same for both backends) ----

TEST(PgasSegment, UntouchedPagesStayUncommitted) {
  if (testing::resident_bytes() == 0) {
    GTEST_SKIP() << "no /proc/self/statm";
  }
  constexpr int kRanks = 64;
  constexpr std::size_t kPerRank = std::size_t{64} << 20;
  std::size_t before = 0;
  std::size_t after = 0;
  testing::run_sim(kRanks, [&](Runtime& rt) {
    rt.barrier();
    if (rt.me() == 0) {
      before = testing::resident_bytes();
    }
    pgas::SegId seg = rt.seg_alloc(kPerRank);
    std::int64_t one = 1;
    rt.put(seg, rt.me(), kPerRank / 2, &one, sizeof(one));
    rt.barrier();
    if (rt.me() == 0) {
      after = testing::resident_bytes();
    }
    rt.barrier();
    rt.seg_free(seg);
  });
  EXPECT_LT(after, before + kRanks * kPerRank / 8)
      << "resident " << before << " -> " << after << " B";
}

TEST(PgasSegment, UnmappableSizeFailsByName) {
  try {
    testing::run_sim(1,
                     [](Runtime& rt) { rt.seg_alloc(std::size_t{1} << 62); });
    ADD_FAILURE() << "a 4 EiB segment was mapped";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot map a"), std::string::npos)
        << e.what();
  }
}

TEST(PgasSegmentDeathTest, WritePastLastSliceFaults) {
  // A page-multiple slice makes the stride equal seg_bytes, so this byte is
  // the first one past the last rank's slice.
  EXPECT_DEATH(testing::run_sim(4,
                                [](Runtime& rt) {
                                  pgas::SegId seg = rt.seg_alloc(4096);
                                  if (rt.me() == rt.nprocs() - 1) {
                                    auto* end =
                                        reinterpret_cast<volatile std::byte*>(
                                            rt.seg_ptr(seg, rt.me()) +
                                            rt.seg_bytes(seg));
                                    *end = std::byte{1};
                                  }
                                  rt.barrier();
                                  rt.seg_free(seg);
                                }),
               "");
}

TEST(PgasSim, HotCounterSerializesThroughHomeRank) {
  // All ranks hammer one counter: total virtual time must scale with the
  // number of ops (they serialize through the home's RMA service queue),
  // unlike independent counters.
  auto hot = testing::run_sim(8, [](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(sizeof(std::int64_t));
    for (int i = 0; i < 50; ++i) {
      rt.fetch_add(seg, 0, 0, 1);
    }
    rt.barrier();
    rt.seg_free(seg);
  });
  auto spread = testing::run_sim(8, [](Runtime& rt) {
    pgas::SegId seg = rt.seg_alloc(sizeof(std::int64_t));
    for (int i = 0; i < 50; ++i) {
      rt.fetch_add(seg, rt.me(), 0, 1);  // each rank its own location
    }
    rt.barrier();
    rt.seg_free(seg);
  });
  EXPECT_GT(hot, spread);
}

}  // namespace
}  // namespace scioto
