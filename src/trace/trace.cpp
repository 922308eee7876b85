#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>

#include "base/error.hpp"
#include "sim/engine.hpp"

namespace scioto::trace {

namespace {

constexpr EvInfo kEvInfo[] = {
#define SCIOTO_TRACE_EV_INFO(kind, name, category, ph, scope, a, b, c, bumps) \
  {name, category, ph, scope, a, b, c},
    SCIOTO_TRACE_EV_KINDS(SCIOTO_TRACE_EV_INFO, SCIOTO_ROW_SKIP,
                          SCIOTO_ROW_SKIP, SCIOTO_ROW_SKIP)
#undef SCIOTO_TRACE_EV_INFO
};

}  // namespace

const EvInfo* ev_info(Ev kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kEvInfo) ? &kEvInfo[i] : nullptr;
}

const char* ev_name(Ev kind) {
  const EvInfo* info = ev_info(kind);
  return info ? info->name : "?";
}

const char* ev_category(Ev kind) {
  const EvInfo* info = ev_info(kind);
  return info ? info->category : "?";
}

Sink::Sink(std::size_t capacity)
    : capacity_(capacity), buf_(std::max<std::size_t>(capacity, 1)) {
  SCIOTO_REQUIRE(capacity >= 1, "trace sink capacity must be >= 1");
}

std::size_t Sink::size() const {
  return static_cast<std::size_t>(std::min(count_, capacity_));
}

std::uint64_t Sink::dropped() const {
  return count_ > capacity_ ? count_ - capacity_ : 0;
}

std::vector<Event> Sink::snapshot() const {
  std::vector<Event> out;
  out.reserve(size());
  std::uint64_t first = count_ > capacity_ ? count_ - capacity_ : 0;
  for (std::uint64_t i = first; i < count_; ++i) {
    out.push_back(buf_[static_cast<std::size_t>(i % capacity_)]);
  }
  return out;
}

void Sink::clear() { count_ = 0; }

namespace {

struct Session {
  std::vector<std::unique_ptr<Sink>> sinks;
  std::chrono::steady_clock::time_point wall_start;
};

// The active flag is separate from the session storage so that record()'s
// fast path is a single relaxed load; start/stop only happen outside the
// SPMD region, so no rank can be mid-record across a transition.
std::atomic<bool> g_active{false};
Session g_session;

}  // namespace

bool active() { return g_active.load(std::memory_order_relaxed); }

std::size_t default_capacity() {
  const char* env = std::getenv("SCIOTO_TRACE_CAP");
  if (env == nullptr) {
    return static_cast<std::size_t>(1) << 15;
  }
  // A whole decimal event count; "64k", "0", "-5" or "" fail by name
  // rather than silently becoming some other capacity.
  std::size_t v = 0;
  const char* end = env + std::strlen(env);
  const auto [stop, ec] = std::from_chars(env, end, v);
  SCIOTO_REQUIRE(ec == std::errc() && stop == end && v >= 1,
                 "SCIOTO_TRACE_CAP must be a whole number of events >= 1, "
                 "got '" << env << "'");
  return v;
}

void start(int nranks, std::size_t capacity_per_rank) {
  SCIOTO_REQUIRE(!active(), "trace session already active");
  SCIOTO_REQUIRE(nranks >= 1, "trace session needs >= 1 rank");
  if (capacity_per_rank == 0) {
    capacity_per_rank = default_capacity();
  }
  g_session.sinks.clear();
  g_session.sinks.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    g_session.sinks.push_back(std::make_unique<Sink>(capacity_per_rank));
  }
  g_session.wall_start = std::chrono::steady_clock::now();
  g_active.store(true, std::memory_order_release);
}

void stop() {
  g_active.store(false, std::memory_order_release);
  g_session.sinks.clear();
}

TimeNs clock_now() {
  TimeNs vt = sim::current_virtual_time();
  if (vt >= 0) {
    return vt;
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_session.wall_start)
      .count();
}

int session_nranks() {
  return active() ? static_cast<int>(g_session.sinks.size()) : 0;
}

void record(Rank rank, Ev kind, std::int32_t a, std::int32_t b,
            std::int64_t c) {
  if (!active() || rank < 0 ||
      rank >= static_cast<Rank>(g_session.sinks.size())) {
    return;
  }
  Event e;
  e.t = clock_now();
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.c = c;
  e.rank = rank;
  g_session.sinks[static_cast<std::size_t>(rank)]->record(e);
}

std::vector<Event> events(Rank rank) {
  if (!active() || rank < 0 ||
      rank >= static_cast<Rank>(g_session.sinks.size())) {
    return {};
  }
  return g_session.sinks[static_cast<std::size_t>(rank)]->snapshot();
}

std::vector<Event> all_events() {
  // Merge per-rank streams by (time, rank). Each stream is already in
  // recording order, so a stable sort keyed on (time, rank) preserves the
  // per-rank sequence and gives a deterministic global order.
  std::vector<Event> out;
  for (int r = 0; r < session_nranks(); ++r) {
    std::vector<Event> evs = events(r);
    out.insert(out.end(), evs.begin(), evs.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) {
                     if (x.t != y.t) return x.t < y.t;
                     return x.rank < y.rank;
                   });
  return out;
}

std::uint64_t dropped(Rank rank) {
  if (!active() || rank < 0 ||
      rank >= static_cast<Rank>(g_session.sinks.size())) {
    return 0;
  }
  return g_session.sinks[static_cast<std::size_t>(rank)]->dropped();
}

std::uint64_t total_dropped() {
  std::uint64_t n = 0;
  for (int r = 0; r < session_nranks(); ++r) {
    n += g_session.sinks[static_cast<std::size_t>(r)]->dropped();
  }
  return n;
}

}  // namespace scioto::trace
