// Table-driven reconciliation of the trace with the counters: every
// counter a SCIOTO_TRACE_EV_KINDS row names (trace/trace.hpp) must equal
// the sum of its rows' deltas over the recorded events.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "scioto/stats.hpp"
#include "trace/trace.hpp"

namespace scioto::testing {

/// One event's delta for a bump whose row spells it `payload`: 1, a, b or
/// c.
inline std::uint64_t row_delta(const char* payload, const trace::Event& e) {
  switch (payload[0]) {
    case 'a':
      return static_cast<std::uint64_t>(e.a);
    case 'b':
      return static_cast<std::uint64_t>(e.b);
    case 'c':
      return static_cast<std::uint64_t>(e.c);
  }
  return std::stoull(payload);
}

/// Checks every counter the kind table binds against the sum of its rows'
/// deltas over `evs`. `snaps` are the metrics snapshots and `blocks` the
/// stats blocks (TcStats, dag::DagStats, detect::Stats) of the ranks whose
/// events `evs` holds; a STAT or TWIN field is read from the first block
/// that has it. Returns the trace sums by counter ("stats.<field>" or
/// "metrics.<name>") so callers can check an input exercised a row.
template <class... Blocks>
std::map<std::string, std::uint64_t> expect_rows_reconcile(
    const std::vector<trace::Event>& evs,
    const std::vector<metrics::Snapshot>& snaps, const Blocks&... blocks) {
  struct Sum {
    std::uint64_t trace = 0;
    std::optional<std::uint64_t> counter;
  };
  std::map<std::string, Sum> sums;
  auto fleet = [&](metrics::Ctr c) {
    std::uint64_t n = 0;
    for (const metrics::Snapshot& s : snaps) n += s.ctr(c);
    return std::optional<std::uint64_t>(n);
  };
  auto field = [&](auto read) {
    std::optional<std::uint64_t> v;
    ((v = v ? v : read(blocks)), ...);
    return v;
  };
  auto note = [&](trace::Ev kind, const std::string& counter,
                  const char* payload, std::optional<std::uint64_t> value) {
    Sum& s = sums[counter];
    s.counter = value;
    for (const trace::Event& e : evs) {
      if (e.kind == kind) s.trace += row_delta(payload, e);
    }
  };
#define ROW_FIELD(f)                                                     \
  field([](const auto& blk) -> std::optional<std::uint64_t> {            \
    if constexpr (requires { blk.f; }) {                                 \
      return static_cast<std::uint64_t>(blk.f);                          \
    } else {                                                             \
      return std::nullopt;                                               \
    }                                                                    \
  })
#define ROW_STAT(f, d) note(row_kind, "stats." #f, #d, ROW_FIELD(f));
#define ROW_CTR(id, d)                                                   \
  note(row_kind,                                                         \
       std::string("metrics.") + metrics::ctr_name(metrics::Ctr::id), #d, \
       fleet(metrics::Ctr::id));
#define ROW_TWIN(f, d)                                                   \
  ROW_STAT(f, d)                                                         \
  note(row_kind,                                                         \
       std::string("metrics.") + metrics::ctr_name(stats_twin::f), #d,   \
       fleet(stats_twin::f));
#define ROW(kind, name, cat, ph, scope, a, b, c, bumps)   \
  {                                                       \
    [[maybe_unused]] const trace::Ev row_kind = trace::Ev::kind; \
    bumps                                                 \
  }
  SCIOTO_TRACE_EV_KINDS(ROW, ROW_TWIN, ROW_STAT, ROW_CTR)
#undef ROW
#undef ROW_TWIN
#undef ROW_CTR
#undef ROW_STAT
#undef ROW_FIELD
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, s] : sums) {
    EXPECT_TRUE(s.counter.has_value())
        << name << ": no stats block given holds it";
    EXPECT_EQ(s.counter.value_or(0), s.trace)
        << name << " disagrees with its rows' trace deltas";
    out[name] = s.trace;
  }
  return out;
}

}  // namespace scioto::testing
