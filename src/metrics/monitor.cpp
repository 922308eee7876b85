#include "metrics/monitor.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "base/error.hpp"
#include "base/log.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace scioto::metrics {

double cov_index(const std::vector<std::uint64_t>& xs) {
  if (xs.empty()) return 0.0;
  double n = double(xs.size());
  double sum = 0.0;
  for (std::uint64_t x : xs) sum += double(x);
  double mean = sum / n;
  if (mean <= 0.0) return 0.0;
  double m2 = 0.0;
  for (std::uint64_t x : xs) {
    double d = double(x) - mean;
    m2 += d * d;
  }
  return std::sqrt(m2 / n) / mean;
}

double gini_index(const std::vector<std::uint64_t>& xs) {
  if (xs.size() < 2) return 0.0;
  double sum = 0.0;
  for (std::uint64_t x : xs) sum += double(x);
  if (sum <= 0.0) return 0.0;
  // Mean absolute difference / (2 * mean); O(n log n) via the sorted form.
  std::vector<std::uint64_t> s = xs;
  std::sort(s.begin(), s.end());
  double n = double(s.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    acc += (2.0 * double(i + 1) - n - 1.0) * double(s[i]);
  }
  return acc / (n * sum);
}

namespace {

struct MonState {
  MonitorOptions opts;
  int nranks = 0;
  std::FILE* out = nullptr;
  std::function<RankState(Rank)> liveness;
  std::function<std::pair<std::uint64_t, std::uint64_t>()> growth;
  // Control-plane hooks; installed by control::start, survive
  // monitor_stop so install/arming order does not matter.
  std::function<void(const FleetSample&)> sample_hook;
  std::function<std::string(Rank)> knobs_text;
  std::vector<FleetSample> samples;
  std::mutex mu;  // guards sample emission + the series + the sink
  std::atomic<TimeNs> next_due{0};
  bool poll_driven = true;
  int live_lines = 0;
  bool tty = false;
  // Wall-clock sampler (threads backend).
  std::thread thr;
  std::mutex thr_mu;
  std::condition_variable thr_cv;
  bool thr_stop = false;
  std::chrono::steady_clock::time_point wall_start;
};

std::atomic<bool> g_mon_active{false};

MonState& mon() {
  static MonState m;
  return m;
}

void render_live(MonState& m, const FleetSample& s) {
  // Overwrite the previous block on a real terminal; append otherwise
  // (piped output then shows the full state history, which is what the
  // CI checks and the acceptance demo grep for).
  if (m.tty && m.live_lines > 0) {
    std::printf("\x1b[%dA", m.live_lines);
  }
  int lines = 0;
  char growth[48];
  growth[0] = '\0';
  if (s.joins > 0) {
    // Elastic fleets only: admitted-rank and admission-wave counts.
    std::snprintf(growth, sizeof(growth), " joins=%" PRIu64 "/%" PRIu64,
                  s.joins, s.grows);
  }
  char drops[40];
  drops[0] = '\0';
  if (s.trace_dropped > 0) {
    // Traced runs only, and only once a ring has wrapped: the headline
    // row is where event loss must be impossible to miss.
    std::snprintf(drops, sizeof(drops), " tracedrop=%" PRIu64,
                  s.trace_dropped);
  }
  std::printf("\x1b[K[monitor] t=%10.3fms alive=%d/%d suspect=%d dead=%d%s "
              "inflight=%" PRIu64 " cov=%.2f gini=%.2f steal%%=%.1f "
              "exec=%" PRIu64 "%s\n",
              double(s.t) / 1e6, s.alive, int(s.ranks.size()), s.suspects,
              s.dead, growth, s.depth_sum, s.cov, s.gini,
              100.0 * s.steal_success, s.executed, drops);
  ++lines;
  std::uint64_t maxd = 1;
  for (const RankSample& r : s.ranks) maxd = std::max(maxd, r.depth);
  for (const RankSample& r : s.ranks) {
    const char* st = r.state == RankState::Alive     ? "alive  "
                     : r.state == RankState::Suspect ? "SUSPECT"
                                                     : "DEAD   ";
    char bar[25];
    int fill = static_cast<int>((r.depth * 24) / maxd);
    for (int i = 0; i < 24; ++i) bar[i] = i < fill ? '#' : ' ';
    bar[24] = '\0';
    std::string knobs = m.knobs_text ? m.knobs_text(r.r) : std::string();
    std::printf("\x1b[K  r%-3d %s [%s] depth=%5" PRIu64 " (sh %4" PRIu64
                ") exec=%8" PRIu64 " steals=%6" PRIu64 "%s%s\n",
                r.r, st, bar, r.depth, r.shared, r.executed, r.steals,
                knobs.empty() ? "" : "  ", knobs.c_str());
    ++lines;
  }
  std::fflush(stdout);
  m.live_lines = lines;
}

void append_jsonl(MonState& m, const FleetSample& s) {
  if (m.out == nullptr) return;
  std::fprintf(m.out,
               "{\"t\":%" PRId64 ",\"nranks\":%d,\"alive\":%d,"
               "\"suspect\":%d,\"dead\":%d,\"joins\":%" PRIu64
               ",\"grows\":%" PRIu64 ",\"depth_sum\":%" PRIu64
               ",\"executed\":%" PRIu64 ",\"steal_attempts\":%" PRIu64
               ",\"steals\":%" PRIu64 ",\"tasks_stolen\":%" PRIu64
               ",\"steal_success\":%.6f,\"cov\":%.6f,\"gini\":%.6f,"
               "\"trace_dropped\":%" PRIu64 ",\"ranks\":[",
               s.t, int(s.ranks.size()), s.alive, s.suspects, s.dead,
               s.joins, s.grows,
               s.depth_sum, s.executed, s.steal_attempts, s.steals,
               s.tasks_stolen, s.steal_success, s.cov, s.gini,
               s.trace_dropped);
  for (std::size_t i = 0; i < s.ranks.size(); ++i) {
    const RankSample& r = s.ranks[i];
    std::fprintf(m.out,
                 "%s{\"r\":%d,\"state\":%d,\"depth\":%" PRIu64
                 ",\"shared\":%" PRIu64 ",\"executed\":%" PRIu64
                 ",\"steals\":%" PRIu64 ",\"stolen\":%" PRIu64
                 ",\"tdrop\":%" PRIu64 "}",
                 i ? "," : "", r.r, static_cast<int>(r.state), r.depth,
                 r.shared, r.executed, r.steals, r.stolen,
                 r.trace_dropped);
  }
  std::fprintf(m.out, "]}\n");
  std::fflush(m.out);
}

int sample_locked(MonState& m, TimeNs now) {
  FleetSample s;
  s.t = now;
  if (m.growth) {
    std::pair<std::uint64_t, std::uint64_t> jg = m.growth();
    s.joins = jg.first;
    s.grows = jg.second;
  }
  s.ranks.reserve(static_cast<std::size_t>(m.nranks));
  std::vector<std::uint64_t> alive_depths;
  int scraped = 0;
  for (Rank r = 0; r < m.nranks; ++r) {
    Snapshot snap;
    if (!scrape(r, &snap)) continue;
    ++scraped;
    RankSample rs;
    rs.r = r;
    rs.state = m.liveness ? m.liveness(r) : RankState::Alive;
    rs.depth = snap.gauge(Gauge::QueueDepth);
    rs.shared = snap.gauge(Gauge::QueueShared);
    rs.executed = snap.ctr(Ctr::TasksExecuted);
    rs.steals = snap.ctr(Ctr::Steals);
    rs.stolen = snap.ctr(Ctr::TasksStolen);
    // Ring drops come from the trace plane, not the metric patch: the
    // sink counter is rank-owned and monotone, so this read is as safe
    // as the seqlock scrape (and exactly 0 without a trace session).
    rs.trace_dropped = trace::dropped(r);
    s.trace_dropped += rs.trace_dropped;
    s.executed += rs.executed;
    s.steal_attempts += snap.ctr(Ctr::StealAttempts);
    s.steals += rs.steals;
    s.tasks_stolen += rs.stolen;
    switch (rs.state) {
      case RankState::Alive:
        ++s.alive;
        s.depth_sum += rs.depth;
        alive_depths.push_back(rs.depth);
        break;
      case RankState::Suspect:
        ++s.suspects;
        s.depth_sum += rs.depth;
        alive_depths.push_back(rs.depth);
        break;
      case RankState::Dead:
        ++s.dead;
        break;
    }
    s.ranks.push_back(rs);
  }
  s.cov = cov_index(alive_depths);
  s.gini = gini_index(alive_depths);
  s.steal_success =
      s.steal_attempts ? double(s.steals) / double(s.steal_attempts) : 0.0;
  if (m.sample_hook) m.sample_hook(s);
  append_jsonl(m, s);
  if (m.opts.live) render_live(m, s);
  m.samples.push_back(std::move(s));
  return scraped;
}

}  // namespace

bool monitor_active() {
  return g_mon_active.load(std::memory_order_relaxed);
}

void monitor_start(int nranks, const MonitorOptions& opts) {
  SCIOTO_REQUIRE(!monitor_active(), "monitor already active");
  SCIOTO_REQUIRE(metrics::active(),
                 "monitor_start needs an active metrics session");
  MonState& m = mon();
  m.opts = opts;
  if (m.opts.period <= 0) m.opts.period = 100'000;
  m.nranks = nranks;
  m.samples.clear();
  m.next_due = 0;
  m.poll_driven = !opts.wall_thread;
  m.live_lines = 0;
  m.tty = isatty(STDOUT_FILENO) != 0;
  m.out = nullptr;
  if (!opts.out_path.empty()) {
    m.out = std::fopen(opts.out_path.c_str(), "w");
    if (m.out == nullptr) {
      // Same convention as an unwritable trace sink: warn and keep the
      // run (and the in-memory series) going.
      SCIOTO_WARN("cannot open SCIOTO_METRICS_OUT file " << opts.out_path);
    }
  }
  m.thr_stop = false;
  m.wall_start = std::chrono::steady_clock::now();
  g_mon_active.store(true, std::memory_order_release);
  if (opts.wall_thread) {
    m.thr = std::thread([&m] {
      std::unique_lock<std::mutex> lk(m.thr_mu);
      for (;;) {
        m.thr_cv.wait_for(lk, std::chrono::nanoseconds(m.opts.period),
                          [&m] { return m.thr_stop; });
        if (m.thr_stop) return;
        auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - m.wall_start)
                       .count();
        monitor_sample(now);
      }
    });
  }
}

void monitor_stop() {
  if (!monitor_active()) return;
  MonState& m = mon();
  if (m.thr.joinable()) {
    {
      std::lock_guard<std::mutex> lk(m.thr_mu);
      m.thr_stop = true;
    }
    m.thr_cv.notify_all();
    m.thr.join();
  }
  g_mon_active.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lk(m.mu);
  if (m.out != nullptr) {
    std::fclose(m.out);
    m.out = nullptr;
  }
  m.liveness = nullptr;
  m.growth = nullptr;
}

void monitor_set_liveness(std::function<RankState(Rank)> fn) {
  std::lock_guard<std::mutex> lk(mon().mu);
  mon().liveness = std::move(fn);
}

void monitor_set_growth(
    std::function<std::pair<std::uint64_t, std::uint64_t>()> fn) {
  std::lock_guard<std::mutex> lk(mon().mu);
  mon().growth = std::move(fn);
}

void monitor_set_sample_hook(std::function<void(const FleetSample&)> fn) {
  std::lock_guard<std::mutex> lk(mon().mu);
  mon().sample_hook = std::move(fn);
}

void monitor_set_knobs_text(std::function<std::string(Rank)> fn) {
  std::lock_guard<std::mutex> lk(mon().mu);
  mon().knobs_text = std::move(fn);
}

void monitor_poll(Rank me, TimeNs now) {
  (void)me;
  if (!monitor_active()) return;
  MonState& m = mon();
  if (!m.poll_driven) return;
  // First rank past the deadline takes the sample -- the closest poll-
  // driven emulation of an out-of-band monitor, whose cadence must not
  // depend on any single rank's scheduling (a designated sampler buried
  // in a long task would blind the fleet exactly when one rank hogging
  // the work is the thing worth sampling). Deterministic under sim: the
  // cooperative fiber schedule fixes which rank crosses the deadline
  // first. The common miss path is one relaxed load, no lock.
  if (now < m.next_due.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lk(m.mu);
  if (now < m.next_due.load(std::memory_order_relaxed)) return;
  sample_locked(m, now);
  m.next_due.store(now + m.opts.period, std::memory_order_relaxed);
}

TimeNs monitor_next_due() {
  if (!monitor_active() || !mon().poll_driven) return kTimeNever;
  return mon().next_due.load(std::memory_order_relaxed);
}

int monitor_sample(TimeNs now) {
  if (!monitor_active()) return 0;
  MonState& m = mon();
  std::lock_guard<std::mutex> lk(m.mu);
  return sample_locked(m, now);
}

const std::vector<FleetSample>& monitor_samples() {
  return mon().samples;
}

}  // namespace scioto::metrics
