// TcStats: a rank's scheduler counters, generated from the counter table
// (metrics/counters.h). The task collection, its queue and its
// termination detector all count into one TcStats block. SCIOTO_EVENT
// records a trace event together with the counter bumps its kind's row
// (trace/trace.hpp) names.
#pragma once

#include <cstdint>

#include "base/types.hpp"
#include "metrics/counters.h"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace scioto {

/// Aggregated execution statistics (per-rank, summable across ranks).
struct TcStats {
#define SCIOTO_STATS_FIELD(field, ...) std::uint64_t field = 0;
#define SCIOTO_STATS_TIME(field) TimeNs field = 0;
  SCIOTO_COUNTER_ROWS(SCIOTO_STATS_FIELD, SCIOTO_STATS_FIELD, SCIOTO_ROW_SKIP,
                      SCIOTO_STATS_TIME)
#undef SCIOTO_STATS_FIELD
#undef SCIOTO_STATS_TIME

  TcStats& operator+=(const TcStats& o) {
#define SCIOTO_STATS_ADD(field, ...) field += o.field;
    SCIOTO_COUNTER_ROWS(SCIOTO_STATS_ADD, SCIOTO_STATS_ADD, SCIOTO_ROW_SKIP,
                        SCIOTO_STATS_ADD)
#undef SCIOTO_STATS_ADD
    return *this;
  }
};

/// stats_twin::<field> is the metrics counter of a TWIN row, looked up
/// by the row's TcStats field name.
namespace stats_twin {
#define SCIOTO_STATS_TWIN(field, group, id, name) \
  inline constexpr metrics::Ctr field = metrics::Ctr::id;
SCIOTO_COUNTER_ROWS(SCIOTO_ROW_SKIP, SCIOTO_STATS_TWIN, SCIOTO_ROW_SKIP,
                    SCIOTO_ROW_SKIP)
#undef SCIOTO_STATS_TWIN
}  // namespace stats_twin

/// The stats block of a site whose event bumps only metrics counters.
inline constexpr struct NoStats {
} kNoStats{};

/// events::<Kind>(rank, st, a, b, c) records one event of trace kind Kind
/// and adds its row's bumps (trace/trace.hpp) to stats block `st` and,
/// while a metrics session is active, to `rank`'s metrics counters. One
/// function per row; call it through SCIOTO_EVENT.
namespace events {

template <class T>
void bump(T& field, std::int64_t d) {
  field += static_cast<T>(d);
}

#define SCIOTO_EVENT_STAT(field, d) bump(st.field, d);
#define SCIOTO_EVENT_CTR(id, d)                                             \
  if (metrics_on) {                                                         \
    metrics::counter_add(rank, id, static_cast<std::uint64_t>(d));          \
  }
#define SCIOTO_EVENT_TWIN(field, d) \
  SCIOTO_EVENT_STAT(field, d) SCIOTO_EVENT_CTR(stats_twin::field, d)
#define SCIOTO_EVENT_METRIC(id, d) SCIOTO_EVENT_CTR(metrics::Ctr::id, d)
#define SCIOTO_EVENT_FN(kind, name, cat, ph, scope, la, lb, lc, bumps)     \
  template <class S>                                                       \
  inline void kind([[maybe_unused]] Rank rank, [[maybe_unused]] S& st,     \
                   std::int64_t a, std::int64_t b, std::int64_t c) {       \
    [[maybe_unused]] const bool metrics_on = metrics::active();            \
    bumps                                                                  \
    if (trace::active()) {                                                 \
      trace::record(rank, trace::Ev::kind, static_cast<std::int32_t>(a),   \
                    static_cast<std::int32_t>(b), c);                      \
    }                                                                      \
  }
SCIOTO_TRACE_EV_KINDS(SCIOTO_EVENT_FN, SCIOTO_EVENT_TWIN, SCIOTO_EVENT_STAT,
                      SCIOTO_EVENT_METRIC)
#undef SCIOTO_EVENT_FN
#undef SCIOTO_EVENT_METRIC
#undef SCIOTO_EVENT_TWIN
#undef SCIOTO_EVENT_CTR
#undef SCIOTO_EVENT_STAT

}  // namespace events

}  // namespace scioto

/// Records one event of trace kind `Kind` (the bare enumerator, e.g.
/// StealOk) on `rank` with payloads a, b, c, and adds the counter bumps
/// its row names to stats block `st` (TcStats, dag::DagStats,
/// detect::Stats, or kNoStats for a row that bumps only metrics counters)
/// and to the metrics plane. One call records one fact; the payloads are
/// evaluated whether or not a trace session is active.
#define SCIOTO_EVENT(rank, st, Kind, a, b, c)                            \
  ::scioto::events::Kind((rank), (st), static_cast<std::int64_t>(a),    \
                         static_cast<std::int64_t>(b),                   \
                         static_cast<std::int64_t>(c))
