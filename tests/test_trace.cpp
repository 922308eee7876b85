// Tests of the src/trace subsystem: ring-buffer sink semantics, session
// recording, Chrome trace-event JSON export (schema-checked with a small
// JSON parser), bit-determinism under the sim backend, and the post-run
// analyses reconciling with TcStats.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/uts/uts_drivers.hpp"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace scioto {
namespace {

using pgas::Runtime;

// ---- Sink unit tests (no session required) ----

trace::Event make_event(TimeNs t, std::int64_t c) {
  trace::Event e;
  e.t = t;
  e.c = c;
  e.kind = trace::Ev::Push;
  e.rank = 0;
  return e;
}

TEST(TraceSink, RecordsInOrderBelowCapacity) {
  trace::Sink sink(8);
  for (int i = 0; i < 5; ++i) {
    sink.record(make_event(i, i * 10));
  }
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  std::vector<trace::Event> evs = sink.snapshot();
  ASSERT_EQ(evs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(evs[static_cast<std::size_t>(i)].t, i);
    EXPECT_EQ(evs[static_cast<std::size_t>(i)].c, i * 10);
  }
}

TEST(TraceSink, WrapsOverwritingOldestAndCountsDropped) {
  trace::Sink sink(4);
  for (int i = 0; i < 10; ++i) {
    sink.record(make_event(i, 0));
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  std::vector<trace::Event> evs = sink.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // The oldest surviving events are 6..9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[static_cast<std::size_t>(i)].t, 6 + i);
  }
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSession, InactiveByDefaultAndRecordIsNoOp) {
  EXPECT_FALSE(trace::active());
  EXPECT_EQ(trace::session_nranks(), 0);
  trace::record(0, trace::Ev::Push);  // must not crash
  EXPECT_TRUE(trace::events(0).empty());
  EXPECT_TRUE(trace::all_events().empty());
}

TEST(TraceSession, TraceCapAcceptsOnlyWholePositiveCounts) {
  ASSERT_EQ(unsetenv("SCIOTO_TRACE_CAP"), 0);
  EXPECT_EQ(trace::default_capacity(), std::size_t{1} << 15);
  ASSERT_EQ(setenv("SCIOTO_TRACE_CAP", "64", 1), 0);
  EXPECT_EQ(trace::default_capacity(), 64u);
  for (const char* bad : {"abc", "0", "-5", "64k", "", " 64", "+64", "1.5"}) {
    ASSERT_EQ(setenv("SCIOTO_TRACE_CAP", bad, 1), 0);
    try {
      trace::default_capacity();
      ADD_FAILURE() << "SCIOTO_TRACE_CAP='" << bad << "' was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("SCIOTO_TRACE_CAP"),
                std::string::npos)
          << e.what();
    }
    // start() reads the same knob: a bad value fails before any ring is
    // allocated and leaves no session behind.
    EXPECT_THROW(trace::start(2), Error) << bad;
    EXPECT_FALSE(trace::active());
  }
  ASSERT_EQ(unsetenv("SCIOTO_TRACE_CAP"), 0);
}

TEST(TraceExport, EmptySessionProducesValidSkeleton) {
  std::string json = trace::chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

// ---- Minimal JSON parser for schema validation ----
//
// Supports the full value grammar the exporter emits: objects, arrays,
// strings (no escapes needed), numbers, booleans. Throws on malformed
// input, so a parse failure fails the test with a position.

struct Json {
  enum class Kind { Object, Array, String, Number, Bool, Null } kind;
  std::map<std::string, std::unique_ptr<Json>> object;
  std::vector<std::unique_ptr<Json>> array;
  std::string str;
  double num = 0;
  bool boolean = false;

  bool has(const std::string& key) const {
    return object.find(key) != object.end();
  }
  const Json& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key " << key;
    return *it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::unique_ptr<Json> parse() {
    std::unique_ptr<Json> v = value();
    skip_ws();
    check(pos_ == s_.size(), "trailing garbage");
    return v;
  }

 private:
  void check(bool ok, const char* what) {
    if (!ok) {
      ADD_FAILURE() << "JSON parse error at byte " << pos_ << ": " << what;
      throw std::runtime_error(what);
    }
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    check(pos_ < s_.size(), "unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    check(peek() == c, "unexpected character");
    ++pos_;
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      check(s_[pos_] != '\\', "escapes not expected in exporter output");
      out.push_back(s_[pos_++]);
    }
    ++pos_;
    return out;
  }

  std::unique_ptr<Json> value() {
    skip_ws();
    auto v = std::make_unique<Json>();
    char c = peek();
    if (c == '{') {
      v->kind = Json::Kind::Object;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = string_lit();
        skip_ws();
        expect(':');
        v->object[key] = value();
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v->kind = Json::Kind::Array;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v->array.push_back(value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v->kind = Json::Kind::String;
      v->str = string_lit();
      return v;
    }
    if (c == 't' || c == 'f') {
      v->kind = Json::Kind::Bool;
      v->boolean = c == 't';
      pos_ += v->boolean ? 4 : 5;
      check(pos_ <= s_.size(), "truncated literal");
      return v;
    }
    if (c == 'n') {
      v->kind = Json::Kind::Null;
      pos_ += 4;
      check(pos_ <= s_.size(), "truncated literal");
      return v;
    }
    v->kind = Json::Kind::Number;
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    check(pos_ > start, "expected a value");
    v->num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- Traced workload fixture: small UTS run on the sim backend ----

struct TracedRun {
  std::string json;
  std::vector<trace::Event> events;
  TcStats stats;
  std::uint64_t dropped = 0;
  int nranks = 0;
};

TracedRun run_traced_uts(std::uint64_t seed = 42) {
  TracedRun out;
  out.nranks = 4;
  apps::UtsParams tree = apps::uts_small();
  apps::UtsRunConfig rc;
  rc.chunk = 4;
  apps::UtsResult res;
  trace::start(out.nranks, /*capacity_per_rank=*/1 << 18);
  testing::run_sim(
      out.nranks,
      [&](Runtime& rt) { res = apps::uts_run_scioto(rt, tree, rc); }, seed);
  out.json = trace::chrome_trace_json();
  out.events = trace::all_events();
  out.stats = res.stats;
  out.dropped = trace::total_dropped();
  trace::stop();
  return out;
}

/// The default-seed run feeds several tests; capture it once.
const TracedRun& default_run() {
  static const TracedRun run = run_traced_uts();
  return run;
}

TEST(TraceDeterminism, SameSeedProducesByteIdenticalTraces) {
  TracedRun a = run_traced_uts(/*seed=*/7);
  TracedRun b = run_traced_uts(/*seed=*/7);
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.json, b.json) << "sim traces must be bit-reproducible";
  // TcStats must match field for field as well.
  EXPECT_EQ(a.stats.tasks_executed, b.stats.tasks_executed);
  EXPECT_EQ(a.stats.steals, b.stats.steals);
  EXPECT_EQ(a.stats.steal_attempts, b.stats.steal_attempts);
  EXPECT_EQ(a.stats.tasks_stolen, b.stats.tasks_stolen);
  EXPECT_EQ(a.stats.releases, b.stats.releases);
  EXPECT_EQ(a.stats.reacquires, b.stats.reacquires);
  EXPECT_EQ(a.stats.td_waves_voted, b.stats.td_waves_voted);
  EXPECT_EQ(a.stats.time_total, b.stats.time_total);
  EXPECT_EQ(a.stats.time_working, b.stats.time_working);
  EXPECT_EQ(a.stats.time_searching, b.stats.time_searching);
}

TEST(TraceDeterminism, DifferentSeedsProduceDifferentTraces) {
  TracedRun a = run_traced_uts(/*seed=*/7);
  TracedRun b = run_traced_uts(/*seed=*/8);
  // Victim selection depends on the seed, so the streams should diverge
  // (the tree itself is identical).
  EXPECT_NE(a.json, b.json);
}

TEST(TraceExport, EveryTableKindExportsUnderItsNameAndCategory) {
  // One event of every kind in the SCIOTO_TRACE_EV_KINDS table: each must
  // have a name and category, and the exporter must format it into valid
  // JSON. One past the table is the "grew without an exporter case"
  // failure, which must name itself instead of writing a broken file.
#define COUNT_ROW(kind, name, category) +1
  constexpr int kKinds = 0 SCIOTO_TRACE_EV_KINDS(COUNT_ROW);
#undef COUNT_ROW
  trace::start(1, static_cast<std::size_t>(kKinds));
  for (int k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<trace::Ev>(k);
    EXPECT_STRNE(trace::ev_name(kind), "?") << k;
    EXPECT_STRNE(trace::ev_category(kind), "?") << k;
    trace::record(0, kind, 1, 1, 1);
  }
  std::unique_ptr<Json> root;
  ASSERT_NO_THROW(root = JsonParser(trace::chrome_trace_json()).parse());
  const Json& evs = root->at("traceEvents");
  ASSERT_EQ(evs.array.size(), static_cast<std::size_t>(kKinds) + 1);
  for (int k = 0; k < kKinds; ++k) {
    const Json& e = *evs.array[static_cast<std::size_t>(k) + 1];
    EXPECT_EQ(e.at("cat").str,
              trace::ev_category(static_cast<trace::Ev>(k)))
        << k;
  }
  trace::stop();

  const auto past_end = static_cast<trace::Ev>(kKinds);
  EXPECT_STREQ(trace::ev_name(past_end), "?");
  trace::start(1, 4);
  trace::record(0, past_end);
  try {
    trace::chrome_trace_json();
    ADD_FAILURE() << "exporter accepted an unknown kind";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown event kind"),
              std::string::npos)
        << e.what();
  }
  trace::stop();
}

TEST(TraceExport, ChromeTraceSchemaIsValid) {
  const TracedRun& run = default_run();
  EXPECT_EQ(run.dropped, 0u) << "capacity too small for the test workload";

  std::unique_ptr<Json> root;
  ASSERT_NO_THROW(root = JsonParser(run.json).parse());
  ASSERT_EQ(root->kind, Json::Kind::Object);
  ASSERT_TRUE(root->has("traceEvents"));
  const Json& meta = root->at("otherData");
  EXPECT_EQ(meta.at("ranks").num, run.nranks);
  EXPECT_EQ(meta.at("dropped").num, 0);

  const Json& evs = root->at("traceEvents");
  ASSERT_EQ(evs.kind, Json::Kind::Array);
  ASSERT_GT(evs.array.size(), static_cast<std::size_t>(run.nranks));

  // Per-(pid) stack of open duration events: B/E must nest and balance.
  std::map<int, std::vector<std::string>> open;
  std::size_t metadata_events = 0;
  for (const auto& ep : evs.array) {
    const Json& e = *ep;
    ASSERT_EQ(e.kind, Json::Kind::Object);
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("ph"));
    ASSERT_TRUE(e.has("pid"));
    const std::string& ph = e.at("ph").str;
    int pid = static_cast<int>(e.at("pid").num);
    EXPECT_GE(pid, 0);
    EXPECT_LT(pid, run.nranks);
    if (ph == "M") {
      ++metadata_events;
      continue;
    }
    ASSERT_TRUE(e.has("ts"));
    ASSERT_TRUE(e.has("tid"));
    if (ph == "B") {
      open[pid].push_back(e.at("name").str);
    } else if (ph == "E") {
      ASSERT_FALSE(open[pid].empty())
          << "E without matching B on pid " << pid;
      EXPECT_EQ(open[pid].back(), e.at("name").str) << "mismatched nesting";
      open[pid].pop_back();
    } else if (ph == "X") {
      ASSERT_TRUE(e.has("dur"));
      EXPECT_GE(e.at("dur").num, 0);
    } else if (ph == "C") {
      ASSERT_TRUE(e.has("args"));
      EXPECT_TRUE(e.at("args").has("tasks"));
    } else if (ph == "i") {
      ASSERT_TRUE(e.has("s"));
      EXPECT_EQ(e.at("s").str, "t");
    } else {
      ADD_FAILURE() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(metadata_events, static_cast<std::size_t>(run.nranks));
  for (const auto& [pid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed duration event on pid " << pid;
  }
}

TEST(TraceAnalysis, BreakdownReconcilesWithTcStatsWithinOnePercent) {
  const TracedRun& run = default_run();
  ASSERT_EQ(run.dropped, 0u);
  std::vector<trace::RankBreakdown> bd =
      trace::time_breakdown(run.events, run.nranks);
  trace::RankBreakdown sum;
  for (const trace::RankBreakdown& rb : bd) {
    sum.total += rb.total;
    sum.working += rb.working;
    sum.searching += rb.searching;
    EXPECT_GE(rb.other(), 0) << "working+searching exceed the phase";
  }
  auto within_pct = [](TimeNs got, TimeNs want, double pct) {
    double diff = std::abs(static_cast<double>(got - want));
    double tol = pct / 100.0 * static_cast<double>(want) + 1.0;
    EXPECT_LE(diff, tol) << "got " << got << " want " << want;
  };
  // run.stats carries the global sums; under the sim backend the trace
  // events sample the identical virtual clocks, so the reconciliation is
  // exact -- 1% is the acceptance bound.
  within_pct(sum.total, run.stats.time_total, 1.0);
  within_pct(sum.working, run.stats.time_working, 1.0);
  within_pct(sum.searching, run.stats.time_searching, 1.0);
}

TEST(TraceAnalysis, StealMatrixMatchesTcStatsCounters) {
  const TracedRun& run = default_run();
  ASSERT_EQ(run.dropped, 0u);
  trace::StealMatrix sm = trace::steal_matrix(run.events, run.nranks);
  EXPECT_GT(sm.total_steals(), 0u) << "UTS on 4 ranks should steal";
  EXPECT_EQ(sm.total_steals(), run.stats.steals);
  EXPECT_EQ(sm.total_tasks(), run.stats.tasks_stolen);
  // No self-steals through the steal path.
  for (Rank r = 0; r < sm.nranks; ++r) {
    EXPECT_EQ(sm.steals_at(r, r), 0u);
  }
  // The table renders with one row per rank plus header/total columns.
  std::string rendered = sm.table().render("steal matrix");
  EXPECT_NE(rendered.find("thief"), std::string::npos);
}

TEST(TraceAnalysis, OccupancyTimelineIsSaneAndOrdered) {
  const TracedRun& run = default_run();
  auto occ = trace::occupancy_timeline(run.events, run.nranks);
  ASSERT_EQ(occ.size(), static_cast<std::size_t>(run.nranks));
  std::size_t total_samples = 0;
  for (const auto& series : occ) {
    TimeNs last = -1;
    for (const trace::OccupancySample& s : series) {
      EXPECT_GE(s.tasks, 0);
      EXPECT_GE(s.t, last);
      last = s.t;
    }
    total_samples += series.size();
  }
  EXPECT_GT(total_samples, 0u);
}

TEST(TraceAnalysis, EventStreamCoversAllSubsystems) {
  const TracedRun& run = default_run();
  bool saw_task = false, saw_queue = false, saw_steal = false,
       saw_td = false, saw_phase = false, saw_barrier = false;
  for (const trace::Event& e : run.events) {
    switch (e.kind) {
      case trace::Ev::TaskBegin:
        saw_task = true;
        break;
      case trace::Ev::Push:
      case trace::Ev::Pop:
      case trace::Ev::Release:
      case trace::Ev::Reacquire:
        saw_queue = true;
        break;
      case trace::Ev::StealOk:
        saw_steal = true;
        break;
      case trace::Ev::Vote:
      case trace::Ev::TokenSend:
        saw_td = true;
        break;
      case trace::Ev::PhaseBegin:
        saw_phase = true;
        break;
      case trace::Ev::Barrier:
        saw_barrier = true;
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_task);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_steal);
  EXPECT_TRUE(saw_td);
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_barrier);
}

TEST(TraceSession, RingDropAccountingUnderTinyCapacity) {
  // A deliberately undersized ring must drop (oldest first) and report it.
  apps::UtsParams tree = apps::uts_tiny();
  apps::UtsRunConfig rc;
  rc.chunk = 2;
  trace::start(2, /*capacity_per_rank=*/64);
  testing::run_sim(2, [&](Runtime& rt) {
    (void)apps::uts_run_scioto(rt, tree, rc);
  });
  EXPECT_GT(trace::total_dropped(), 0u);
  for (Rank r = 0; r < 2; ++r) {
    EXPECT_LE(trace::events(r).size(), 64u);
  }
  std::string json = trace::chrome_trace_json();
  EXPECT_EQ(json.find("\"dropped\":0,"), std::string::npos);
  trace::stop();
}

}  // namespace
}  // namespace scioto
