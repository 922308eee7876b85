// TcStats: a rank's scheduler counters, generated from the counter table
// (metrics/counters.h). The task collection, its queue and its
// termination detector all count into one TcStats block.
#pragma once

#include <cstdint>

#include "base/types.hpp"
#include "metrics/counters.h"
#include "metrics/metrics.hpp"

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

}  // namespace scioto

/// Adds `delta` to TWIN counter `field` of TcStats block `st` and, while a
/// metrics session is active, to its metrics counter in `rank`'s patch.
#define SCIOTO_COUNT(rank, st, field, delta)                                \
  do {                                                                      \
    const auto scioto_count_d_ = static_cast<std::uint64_t>(delta);         \
    (st).field += scioto_count_d_;                                          \
    if (::scioto::metrics::active()) {                                      \
      ::scioto::metrics::counter_add((rank), ::scioto::stats_twin::field,   \
                                     scioto_count_d_);                      \
    }                                                                       \
  } while (0)
