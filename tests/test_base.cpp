// Unit tests for src/base: SHA-1 vectors, RNG statistics and determinism,
// option parsing, table rendering, accumulators.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "base/error.hpp"
#include "base/options.hpp"
#include "base/rng.hpp"
#include "base/sha1.hpp"
#include "base/stats.hpp"
#include "base/table.hpp"
#include "base/types.hpp"

namespace scioto {
namespace {

// ---- SHA-1 (RFC 3174 / FIPS 180-1 test vectors) ----

TEST(Sha1, EmptyMessage) {
  EXPECT_EQ(Sha1::hex(Sha1::hash("", 0)),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(Sha1::hex(Sha1::hash("abc", 3)),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(Sha1::hex(Sha1::hash(msg, 56)),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionA) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(Sha1::hex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  std::string msg(301, 'x');
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<char>('a' + (i * 7) % 26);
  }
  Sha1 h;
  // Uneven chunking across the 64-byte block boundary.
  h.update(msg.data(), 63);
  h.update(msg.data() + 63, 1);
  h.update(msg.data() + 64, 130);
  h.update(msg.data() + 194, msg.size() - 194);
  EXPECT_EQ(Sha1::hex(h.finish()),
            Sha1::hex(Sha1::hash(msg.data(), msg.size())));
}

TEST(Sha1, ResetReusesHasher) {
  Sha1 h;
  h.update("abc", 3);
  (void)h.finish();
  h.reset();
  h.update("abc", 3);
  EXPECT_EQ(Sha1::hex(h.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

/// Independent reference: pads the whole message by hand and folds it
/// block by block through the portable compress, so it also checks the
/// hardware compress where the CPU has one.
std::string reference_hex(const std::string& msg) {
  std::string padded = msg + '\x80';
  padded.append((120 - padded.size() % 64) % 64, '\0');
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<char>(bits >> (8 * i)));
  }
  Sha1::State s = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                   0xC3D2E1F0u};
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    Sha1::compress_portable(
        s, reinterpret_cast<const std::uint8_t*>(padded.data() + off));
  }
  Sha1::Digest d;
  for (int i = 0; i < 20; ++i) {
    d[i] = static_cast<std::uint8_t>(s[i / 4] >> (24 - 8 * (i % 4)));
  }
  return Sha1::hex(d);
}

TEST(Sha1, CompressReproducesFipsVectors) {
  EXPECT_EQ(reference_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(reference_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(reference_hex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, StreamingMatchesReferenceAtEveryLengthAndSplit) {
  // Lengths 0..200 cross the one-block limit (55 bytes fit with the
  // padding, 56 need a second block) and three more block boundaries.
  std::string msg(200, '\0');
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<char>(i * 131 + 7);
  }
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const std::string m = msg.substr(0, len);
    const std::string want = reference_hex(m);
    ASSERT_EQ(Sha1::hex(Sha1::hash(m.data(), len)), want) << "len " << len;
    for (std::size_t cut = 0; cut <= len; ++cut) {
      Sha1 h;
      h.update(m.data(), cut);
      h.update(m.data() + cut, len - cut);
      ASSERT_EQ(Sha1::hex(h.finish()), want)
          << "len " << len << " split at " << cut;
    }
  }
}

/// Whether CPUID reports the SHA extensions and SSE4.1, read here rather
/// than taken from the library whose choice the test checks.
bool cpuid_reports_sha_ni() {
#if defined(__x86_64__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d) || (c & bit_SSE4_1) == 0) {
    return false;
  }
  return __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & bit_SHA) != 0;
#else
  return false;
#endif
}

TEST(Sha1, HardwareCompressMatchesPortable) {
  if (!cpuid_reports_sha_ni()) {
    GTEST_SKIP() << "CPUID reports no SHA-NI (SHA extensions with SSE4.1); "
                    "compress() is the portable one here";
  }
  ASSERT_STREQ(Sha1::compress_name(), "sha-ni");
  Xoshiro256 rng(0x5A1);
  auto random_block = [&rng](std::uint8_t* block) {
    for (std::size_t off = 0; off < Sha1::kBlockBytes; off += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(block + off, &v, 8);
    }
  };
  std::uint8_t block[Sha1::kBlockBytes];
  for (int i = 0; i < 10000; ++i) {
    Sha1::State hw;
    for (std::uint32_t& w : hw) {
      w = static_cast<std::uint32_t>(rng.next());
    }
    random_block(block);
    Sha1::State ref = hw;
    Sha1::compress(hw, block);
    Sha1::compress_portable(ref, block);
    ASSERT_EQ(hw, ref) << "pair " << i;
  }
  // Chained: each state feeds the next compress, as along a UTS path.
  Sha1::State hw = {1, 2, 3, 4, 5};
  Sha1::State ref = hw;
  for (int step = 0; step < 1000; ++step) {
    random_block(block);
    Sha1::compress(hw, block);
    Sha1::compress_portable(ref, block);
    ASSERT_EQ(hw, ref) << "step " << step;
  }
}

// ---- RNG ----

TEST(Rng, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Xoshiro256 r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = r.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 r(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = r.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Xoshiro256 r(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DeriveSeedIndependentStreams) {
  EXPECT_NE(derive_seed(42, 0, 0), derive_seed(42, 1, 0));
  EXPECT_NE(derive_seed(42, 0, 0), derive_seed(42, 0, 1));
  EXPECT_EQ(derive_seed(42, 3, 2), derive_seed(42, 3, 2));
}

// ---- Options ----

TEST(Options, ParsesTypes) {
  Options o("prog", "test");
  o.add_int("n", 4, "count");
  o.add_double("x", 1.5, "factor");
  o.add_string("name", "abc", "label");
  o.add_flag("fast", false, "go fast");
  const char* argv[] = {"prog", "--n", "9", "--x=2.5", "--fast", "pos1"};
  ASSERT_TRUE(o.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(o.get_int("n"), 9);
  EXPECT_DOUBLE_EQ(o.get_double("x"), 2.5);
  EXPECT_EQ(o.get_string("name"), "abc");
  EXPECT_TRUE(o.get_flag("fast"));
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos1");
}

TEST(Options, NoFlagNegation) {
  Options o("prog", "test");
  o.add_flag("dlb", true, "dynamic load balancing");
  const char* argv[] = {"prog", "--no-dlb"};
  ASSERT_TRUE(o.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(o.get_flag("dlb"));
}

TEST(Options, UnknownOptionThrows) {
  Options o("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(o.parse(3, const_cast<char**>(argv)), Error);
}

TEST(Options, BadValueThrows) {
  Options o("prog", "test");
  o.add_int("n", 1, "count");
  const char* argv[] = {"prog", "--n", "xyz"};
  EXPECT_THROW(o.parse(3, const_cast<char**>(argv)), Error);
}

TEST(Options, HelpReturnsFalse) {
  Options o("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(o.parse(2, const_cast<char**>(argv)));
}

// ---- Table ----

TEST(Table, RendersAlignedWithCsvMirror) {
  Table t({"Procs", "Time(us)"});
  t.add_row({"1", "3.5"});
  t.add_row({"64", "29.008"});
  std::string s = t.render("Demo");
  EXPECT_NE(s.find("== Demo =="), std::string::npos);
  EXPECT_NE(s.find("# csv: Procs,Time(us)"), std::string::npos);
  EXPECT_NE(s.find("# csv: 64,29.008"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::int64_t{42}), "42");
}

// ---- Accumulator ----

TEST(Stats, WelfordBasics) {
  Accumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    a.add(v);
  }
  EXPECT_EQ(a.count(), 8);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Stats, MergeMatchesSequential) {
  Accumulator all, left, right;
  for (int i = 0; i < 100; ++i) {
    double v = i * 0.37 - 3;
    all.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Stats, EmptyAccumulatorSafe) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

// ---- Types helpers ----

TEST(Types, TimeConversions) {
  EXPECT_EQ(us(1.0), 1000);
  EXPECT_EQ(ms(1.0), 1000000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_EQ(align_up(13, 8), 16u);
  EXPECT_EQ(align_up(16, 8), 16u);
  EXPECT_EQ(ceil_div(10, 3), 4u);
}

}  // namespace
}  // namespace scioto
