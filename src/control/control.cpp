#include "control/control.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>

#include "base/error.hpp"
#include "detect/membership.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "trace/trace.hpp"

namespace scioto::control {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::Local: return "local";
  }
  return "?";
}

bool mode_from_name(const std::string& s, Mode* out) {
  if (s == "off" || s.empty()) { *out = Mode::Off; return true; }
  if (s == "local") { *out = Mode::Local; return true; }
  return false;
}

// ---- Rules ----

bool Rules::parse(const std::string& spec, Rules* out, std::string* err) {
  Rules r = *out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    std::string kv = spec.substr(pos, end - pos);
    pos = end + 1;
    if (kv.empty()) continue;
    std::size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      if (err) *err = "expected key=value, got '" + kv + "'";
      return false;
    }
    std::string key = kv.substr(0, eq);
    std::string val = kv.substr(eq + 1);
    char* rest = nullptr;
    double d = std::strtod(val.c_str(), &rest);
    if (rest == val.c_str() || *rest != '\0') {
      if (err) *err = "bad numeric value '" + val + "' for key '" + key + "'";
      return false;
    }
    if (key == "cov_hi") r.cov_hi = d;
    else if (key == "dwell") r.dwell = static_cast<int>(d);
    else if (key == "chunk_burst")
      r.chunk_burst = static_cast<std::int64_t>(d);
    else if (key == "release_min")
      r.release_min = static_cast<std::int64_t>(d);
    else if (key == "hot_set") r.hot_set = static_cast<int>(d);
    else {
      if (err) *err = "unknown rule key '" + key + "'";
      return false;
    }
  }
  if (r.dwell < 1) {
    if (err) *err = "dwell must be >= 1";
    return false;
  }
  *out = r;
  return true;
}

std::string Rules::to_string() const {
  std::ostringstream os;
  os << "cov_hi=" << cov_hi << ";dwell=" << dwell
     << ";release_min=" << release_min << ";chunk_burst=" << chunk_burst
     << ";hot_set=" << hot_set;
  return os.str();
}

// ---- Rule engine ----

void RuleEngine::propose(Knob k, std::int64_t v, int reason,
                         const std::int64_t cur[kNumKnobs],
                         std::vector<Decision>* out) {
  int i = static_cast<int>(k);
  if (dwell_left_[i] > 0) return;  // frozen by a recent change
  if (cur[i] == v) return;         // already there
  out->push_back(Decision{k, v, reason});
  dwell_left_[i] = rules_.dwell;
}

void RuleEngine::step(const Signals& s, const std::int64_t cur[kNumKnobs],
                      std::vector<Decision>* out) {
  for (int k = 0; k < kNumKnobs; ++k) {
    if (dwell_left_[k] > 0) --dwell_left_[k];
  }
  hi_cov_streak_ =
      (s.have_cov && s.cov >= rules_.cov_hi) ? hi_cov_streak_ + 1 : 0;
  if (hi_cov_streak_ < rules_.dwell) return;

  // Fleet imbalanced: spill work to thieves as fast as possible. With
  // steal-half governing the width the chunk is only a *cap* on
  // min(ceil(depth/2), cap): opening it wide cannot overshoot a shallow
  // victim, while each steal from the deep one moves as much work as one
  // fixed one-sided latency can amortize. The owner's KnobSet clamps the
  // proposal at chunk_max.
  const std::int64_t chunk = cur[static_cast<int>(Knob::StealChunk)];
  const std::int64_t rel = cur[static_cast<int>(Knob::ReleaseThreshold)];
  if (rules_.chunk_burst > chunk) {
    propose(Knob::StealChunk, rules_.chunk_burst, kReasonHighCov, cur, out);
  }
  if (s.shared_depth >= 8 * static_cast<std::uint64_t>(rel)) {
    // Only the rank that IS the imbalance (its own shared queue dwarfs
    // its release threshold) spills private work sooner; cutting the
    // threshold fleet-wide makes shallow ranks churn publish/reacquire.
    propose(Knob::ReleaseThreshold, std::max(rules_.release_min, rel / 2),
            kReasonHighCov, cur, out);
  }
  if (rules_.hot_set > 0) {
    // Blind victim choice finds one deep rank among n with probability
    // 1/(n-1), and every miss doubles the thief's steal backoff -- so
    // steer everyone at the digest's deepest queues while the imbalance
    // lasts.
    propose(Knob::VictimSetSize, rules_.hot_set, kReasonHighCov, cur, out);
  }
}

// ---- Session ----

namespace {

struct alignas(64) RankRow {
  // Published knobs: owner writes, anyone reads. A version of 0 means
  // the rank never attached; rows outlive their owner so adoption can
  // still read a dead rank's last published values.
  std::atomic<std::int64_t> pub[kNumKnobs] = {};
  std::atomic<std::uint64_t> pub_version{0};
  // Owner-only controller state.
  KnobSet* knobs = nullptr;
  TimeNs next_epoch = 0;
  bool primed = false;
  RuleEngine engine;
};

struct CtlSession {
  Config cfg;
  int nranks = 0;
  std::unique_ptr<RankRow[]> rows;
  // Fleet digest the monitor hook publishes for the controllers:
  // the latest CoV (as raw double bits), a sample count, and the deepest
  // alive ranks packed 16 bits each (0xFFFF = empty slot) for the
  // restricted-victim-set steal path.
  std::atomic<std::uint64_t> digest_cov_bits{0};
  std::atomic<std::uint64_t> digest_samples{0};
  std::atomic<std::uint64_t> digest_hot{~std::uint64_t{0}};
  std::mutex log_mu;
  std::vector<DecisionRecord> log;
  std::atomic<std::uint64_t> st_epochs{0};
  std::atomic<std::uint64_t> st_decisions{0};
  std::atomic<std::uint64_t> st_inherits{0};
};

std::atomic<bool> g_active{false};
CtlSession g_ctl;

std::mutex g_cfg_mu;
Config g_cfg;

inline bool in_session(Rank r) {
  return g_active.load(std::memory_order_relaxed) && r >= 0 &&
         r < g_ctl.nranks;
}

/// Owner-side: copy the live KnobSet into the published row.
void publish_row(RankRow& row) {
  for (int k = 0; k < kNumKnobs; ++k) {
    row.pub[k].store(row.knobs->get(static_cast<Knob>(k)),
                     std::memory_order_relaxed);
  }
  row.pub_version.store(row.pub_version.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
}

void log_decision(TimeNs t, Rank r, Knob k, std::int64_t v, int reason) {
  std::lock_guard<std::mutex> lk(g_ctl.log_mu);
  g_ctl.log.push_back(DecisionRecord{t, r, k, v, reason});
}

/// Owner-side: push one decision through the KnobSet; on change, trace
/// it, mirror it into the ctl_* gauges, publish, and log.
bool apply_owner(Rank r, RankRow& row, const Decision& d, TimeNs t) {
  if (!row.knobs->set(d.knob, d.value)) return false;
  std::int64_t applied = row.knobs->get(d.knob);
  publish_row(row);
  SCIOTO_TRACE_EVENT(r, trace::Ev::KnobChange, static_cast<int>(d.knob),
                     applied, d.reason);
  SCIOTO_METRIC_CTR(r, metrics::Ctr::CtlDecisions, 1);
  SCIOTO_METRIC_GAUGE(r, metrics::Gauge::CtlChunk,
                      row.knobs->get(Knob::StealChunk));
  SCIOTO_METRIC_GAUGE(r, metrics::Gauge::CtlRelease,
                      row.knobs->get(Knob::ReleaseThreshold));
  SCIOTO_METRIC_GAUGE(r, metrics::Gauge::CtlVictimSet,
                      row.knobs->get(Knob::VictimSetSize));
  g_ctl.st_decisions.fetch_add(1, std::memory_order_relaxed);
  log_decision(t, r, d.knob, applied, d.reason);
  return true;
}

double digest_cov(bool* have) {
  std::uint64_t n = g_ctl.digest_samples.load(std::memory_order_acquire);
  if (n == 0) {
    *have = false;
    return 0.0;
  }
  *have = true;
  std::uint64_t bits = g_ctl.digest_cov_bits.load(std::memory_order_relaxed);
  double cov;
  std::memcpy(&cov, &bits, sizeof(cov));
  return cov;
}

/// The monitor sample hook: publishes the fleet digest. Runs in the
/// sampler's context (the designated rank's fiber under sim, the monitor
/// thread under threads), serialized by the monitor's sample lock.
void digest_tick(const metrics::FleetSample& s) {
  if (!g_active.load(std::memory_order_acquire)) return;
  std::uint64_t bits;
  double cov = s.cov;
  std::memcpy(&bits, &cov, sizeof(bits));
  g_ctl.digest_cov_bits.store(bits, std::memory_order_relaxed);
  // Deepest alive ranks, descending, packed 16 bits apiece: what the
  // restricted-victim-set steal path aims thieves at. A stable insertion
  // sort over at most kMaxHotVictims keeps the hook O(nranks).
  Rank hot[kMaxHotVictims];
  std::uint64_t hot_depth[kMaxHotVictims];
  int nhot = 0;
  for (const metrics::RankSample& rs : s.ranks) {
    if (rs.state == metrics::RankState::Dead) continue;
    std::uint64_t d = rs.shared;
    if (d == 0) continue;
    int i = nhot < kMaxHotVictims ? nhot : kMaxHotVictims - 1;
    if (i == kMaxHotVictims - 1 && nhot == kMaxHotVictims &&
        d <= hot_depth[i]) {
      continue;
    }
    while (i > 0 && hot_depth[i - 1] < d) {
      hot[i] = hot[i - 1];
      hot_depth[i] = hot_depth[i - 1];
      --i;
    }
    hot[i] = rs.r;
    hot_depth[i] = d;
    if (nhot < kMaxHotVictims) ++nhot;
  }
  std::uint64_t packed = 0;
  for (int i = 0; i < kMaxHotVictims; ++i) {
    std::uint64_t v =
        i < nhot ? static_cast<std::uint64_t>(hot[i]) & 0xFFFF : 0xFFFF;
    packed |= v << (16 * i);
  }
  g_ctl.digest_hot.store(packed, std::memory_order_relaxed);
  g_ctl.digest_samples.fetch_add(1, std::memory_order_release);
}

}  // namespace

bool active() { return g_active.load(std::memory_order_relaxed); }

Mode mode() { return active() ? g_ctl.cfg.mode : Mode::Off; }

TimeNs period() { return active() ? g_ctl.cfg.period : 0; }

void start(int nranks, const Config& cfg) {
  SCIOTO_REQUIRE(!active(), "control session already active");
  SCIOTO_REQUIRE(nranks >= 1, "control session needs >= 1 rank");
  SCIOTO_REQUIRE(cfg.mode != Mode::Off, "control::start needs mode local");
  SCIOTO_REQUIRE(metrics::active(),
                 "control needs an active metrics session (the controller "
                 "reads the monitor's fleet digest)");
  g_ctl.cfg = cfg;
  if (g_ctl.cfg.period <= 0) g_ctl.cfg.period = 100'000;
  g_ctl.nranks = nranks;
  g_ctl.rows = std::make_unique<RankRow[]>(static_cast<std::size_t>(nranks));
  g_ctl.digest_cov_bits.store(0, std::memory_order_relaxed);
  g_ctl.digest_samples.store(0, std::memory_order_relaxed);
  g_ctl.digest_hot.store(~std::uint64_t{0}, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(g_ctl.log_mu);
    g_ctl.log.clear();
  }
  g_ctl.st_epochs.store(0, std::memory_order_relaxed);
  g_ctl.st_decisions.store(0, std::memory_order_relaxed);
  g_ctl.st_inherits.store(0, std::memory_order_relaxed);
  g_active.store(true, std::memory_order_release);
  metrics::monitor_set_sample_hook(
      [](const metrics::FleetSample& s) { digest_tick(s); });
  metrics::monitor_set_knobs_text([](Rank r) { return knobs_text(r); });
}

void stop() {
  if (!active()) return;
  metrics::monitor_set_sample_hook(nullptr);
  metrics::monitor_set_knobs_text(nullptr);
  g_active.store(false, std::memory_order_release);
  // Rows and the decision log survive until the next start so post-run
  // inspection (decisions(), stats()) keeps working.
}

void attach(Rank r, KnobSet* knobs) {
  if (!in_session(r) || knobs == nullptr) return;
  RankRow& row = g_ctl.rows[r];
  row.knobs = knobs;
  row.next_epoch = 0;
  row.primed = false;
  publish_row(row);
}

void detach(Rank r) {
  if (!in_session(r)) return;
  // Keep the published row: a ward adopting this rank's queue after a
  // kill still inherits the last published knobs.
  g_ctl.rows[r].knobs = nullptr;
}

bool poll_due(Rank r, TimeNs now) {
  if (!in_session(r)) return false;
  RankRow& row = g_ctl.rows[r];
  return row.knobs != nullptr && now >= row.next_epoch;
}

TimeNs next_due(Rank r) {
  if (!in_session(r)) return kTimeNever;
  const RankRow& row = g_ctl.rows[r];
  return row.knobs == nullptr ? kTimeNever : row.next_epoch;
}

void poll_epoch(Rank r, TimeNs now, std::uint64_t shared_depth) {
  if (!in_session(r)) return;
  RankRow& row = g_ctl.rows[r];
  if (row.knobs == nullptr) return;
  // A fenced/suspected rank never retunes itself; it will either die (its
  // row freezing for the ward) or rejoin and resume at the next epoch.
  if (detect::active() && !detect::alive(r)) return;
  if (now < row.next_epoch) return;
  row.next_epoch = now + g_ctl.cfg.period;
  if (!row.primed) {
    // A rank's first epoch only starts its engine: the cadence (and so
    // every decision timestamp) is one period behind attach.
    row.primed = true;
    row.engine = RuleEngine(g_ctl.cfg.rules);
    return;
  }
  std::int64_t cur[kNumKnobs];
  for (int k = 0; k < kNumKnobs; ++k) {
    cur[k] = row.knobs->get(static_cast<Knob>(k));
  }
  Signals sig;
  sig.shared_depth = shared_depth;
  sig.cov = digest_cov(&sig.have_cov);
  g_ctl.st_epochs.fetch_add(1, std::memory_order_relaxed);
  SCIOTO_METRIC_CTR(r, metrics::Ctr::CtlEpochs, 1);
  std::vector<Decision> ds;
  row.engine.step(sig, cur, &ds);
  for (const Decision& d : ds) apply_owner(r, row, d, now);
}

void inherit(Rank me, Rank dead) {
  if (!in_session(me) || dead < 0 || dead >= g_ctl.nranks) return;
  RankRow& row = g_ctl.rows[me];
  if (row.knobs == nullptr) return;
  RankRow& drow = g_ctl.rows[dead];
  if (drow.pub_version.load(std::memory_order_acquire) == 0) return;
  TimeNs t = trace::active() ? trace::clock_now() : 0;
  bool any = false;
  for (int k = 0; k < kNumKnobs; ++k) {
    Decision d{static_cast<Knob>(k),
               drow.pub[k].load(std::memory_order_relaxed), kReasonInherit};
    any = apply_owner(me, row, d, t) || any;
  }
  if (any) {
    g_ctl.st_inherits.fetch_add(1, std::memory_order_relaxed);
    SCIOTO_METRIC_CTR(me, metrics::Ctr::CtlInherits, 1);
  }
}

void republish(Rank r) {
  if (!in_session(r)) return;
  RankRow& row = g_ctl.rows[r];
  if (row.knobs == nullptr) return;
  publish_row(row);
}

bool published(Rank r, std::int64_t out[kNumKnobs]) {
  if (!in_session(r)) return false;
  RankRow& row = g_ctl.rows[r];
  if (row.pub_version.load(std::memory_order_acquire) == 0) return false;
  for (int k = 0; k < kNumKnobs; ++k) {
    out[k] = row.pub[k].load(std::memory_order_relaxed);
  }
  return true;
}

int hot_victims(Rank out[kMaxHotVictims]) {
  if (!g_active.load(std::memory_order_relaxed)) return 0;
  std::uint64_t packed = g_ctl.digest_hot.load(std::memory_order_relaxed);
  int n = 0;
  for (int i = 0; i < kMaxHotVictims; ++i) {
    std::uint64_t v = (packed >> (16 * i)) & 0xFFFF;
    if (v == 0xFFFF) break;
    out[n++] = static_cast<Rank>(v);
  }
  return n;
}

std::string knobs_text(Rank r) {
  std::int64_t v[kNumKnobs];
  if (!published(r, v)) return {};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "ck=%" PRId64 " rel=%" PRId64 " vs=%" PRId64,
                v[static_cast<int>(Knob::StealChunk)],
                v[static_cast<int>(Knob::ReleaseThreshold)],
                v[static_cast<int>(Knob::VictimSetSize)]);
  return buf;
}

std::vector<DecisionRecord> decisions() {
  std::lock_guard<std::mutex> lk(g_ctl.log_mu);
  return g_ctl.log;
}

std::string decisions_jsonl() {
  std::vector<DecisionRecord> ds = decisions();
  std::ostringstream os;
  for (const DecisionRecord& d : ds) {
    os << "{\"t\":" << d.t << ",\"rank\":" << d.rank << ",\"knob\":\""
       << knob_name(d.knob) << "\",\"value\":" << d.value << ",\"reason\":\""
       << reason_name(d.reason) << "\"}\n";
  }
  return os.str();
}

Stats stats() {
  Stats s;
  s.epochs = g_ctl.st_epochs.load(std::memory_order_relaxed);
  s.decisions = g_ctl.st_decisions.load(std::memory_order_relaxed);
  s.inherits = g_ctl.st_inherits.load(std::memory_order_relaxed);
  return s;
}

Config config() {
  std::lock_guard<std::mutex> lk(g_cfg_mu);
  return g_cfg;
}

void set_config(const Config& cfg) {
  std::lock_guard<std::mutex> lk(g_cfg_mu);
  g_cfg = cfg;
}

}  // namespace scioto::control
