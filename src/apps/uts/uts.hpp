// UTS: the Unbalanced Tree Search benchmark (Olivier et al., LCPC 2006;
// paper §6.2). An exhaustive traversal of a deterministic, highly
// unbalanced tree whose shape is derived from a SHA-1 splittable random
// stream: each node is described by a 20-byte digest, and child i's
// descriptor is SHA1(parent_digest || be32(i)). Because the tree exists
// only implicitly, the benchmark isolates dynamic load balancing:
// performance is reported in tree nodes processed per second.
//
// Two tree families from the UTS suite are implemented:
//   * Geometric: the branching factor's expectation decreases linearly
//     from b0 at the root to 0 at depth gen_mx; node degree is sampled
//     from a geometric distribution. Bounded depth, heavy imbalance.
//   * Binomial: the root has b0 children; every other node has m children
//     with probability q and none otherwise (mq < 1 keeps it finite).
//     Unbounded depth, extreme imbalance.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "base/sha1.hpp"

namespace scioto::apps {

enum class UtsTree { Geometric, Binomial };

/// Shape of the geometric tree's expected branching factor b(d) (the UTS
/// suite's -a parameter):
///   Linear:  b0 * (1 - d/gen_mx)          -- decays to 0 at gen_mx
///   Expdec:  b0 * (d+1)^(-ln(b0)/ln(gen_mx)) -- heavy near the root
///   Cyclic:  oscillates with depth, zero past gen_mx
///   Fixed:   b0 until gen_mx, then 0       -- near-balanced
enum class GeoShape { Linear, Expdec, Cyclic, Fixed };

struct UtsParams {
  UtsTree tree = UtsTree::Geometric;
  GeoShape shape = GeoShape::Linear;
  /// Root RNG seed (the canonical UTS trees use small integers).
  int seed = 19;
  /// Root branching factor.
  double b0 = 4.0;
  /// Geometric: depth at which the expected branching factor reaches 0.
  int gen_mx = 10;
  /// Binomial: non-root nodes have m children with probability q.
  double q = 0.124875;
  int m = 8;
};

/// A tree node: the SHA-1 digest that determines its subtree, plus depth.
struct UtsNode {
  std::array<std::uint8_t, Sha1::kDigestBytes> state;
  std::int32_t depth = 0;
};
static_assert(sizeof(UtsNode) == 24);

/// Traversal totals; exact equality across implementations is the
/// correctness criterion.
struct UtsCounts {
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  std::int64_t max_depth = 0;

  UtsCounts& operator+=(const UtsCounts& o) {
    nodes += o.nodes;
    leaves += o.leaves;
    max_depth = max_depth > o.max_depth ? max_depth : o.max_depth;
    return *this;
  }
  bool operator==(const UtsCounts&) const = default;
};

/// Root node for a given seed.
UtsNode uts_root(const UtsParams& p);

/// Number of children of `node` under the tree parameters (deterministic).
int uts_num_children(const UtsNode& node, const UtsParams& p);

/// Child i's descriptor: SHA1(parent_state || be32(i)), where be32(i) is
/// the index's 32-bit two's-complement value, most significant byte
/// first (UTS rng_spawn). The 24-byte message plus its padding fits one
/// 64-byte SHA-1 block, so each child costs exactly one compress.
UtsNode uts_child(const UtsNode& parent, int i);

/// 31-bit uniform value extracted from a node's digest (UTS rng_rand).
std::uint32_t uts_rand(const UtsNode& node);

/// Sequential depth-first traversal (the reference implementation).
UtsCounts uts_sequential(const UtsParams& p);

/// Human-readable parameter summary for bench output.
std::string uts_describe(const UtsParams& p);

/// Canonical workloads used by tests and benches (sized for a simulated
/// cluster, not the paper's multi-hour runs).
UtsParams uts_tiny();    // ~600 nodes: unit tests
UtsParams uts_small();   // ~19k nodes: integration tests
UtsParams uts_bench();   // ~408k nodes: Figure 7/8 default
UtsParams uts_binomial_small();  // binomial variant for tests

}  // namespace scioto::apps
