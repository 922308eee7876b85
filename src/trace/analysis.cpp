#include "trace/analysis.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "base/error.hpp"
#include "trace/lineage.hpp"

namespace scioto::trace {

namespace {

bool rank_ok(const Event& e, int nranks) {
  return e.rank >= 0 && e.rank < nranks;
}

/// "r<rank>" column label. Built with append: GCC 12 at -O3 reports a
/// false -Wrestrict on `"r" + std::to_string(r)`.
std::string rank_label(Rank r) {
  std::string s = "r";
  s.append(std::to_string(r));
  return s;
}

std::string ns_to_ms(TimeNs t) {
  return Table::fmt(static_cast<double>(t) / 1e6, 3);
}

std::string pct(TimeNs part, TimeNs whole) {
  if (whole <= 0) {
    return Table::fmt(0.0, 1);
  }
  return Table::fmt(100.0 * static_cast<double>(part) /
                        static_cast<double>(whole),
                    1);
}

}  // namespace

std::uint64_t StealMatrix::total_steals() const {
  std::uint64_t s = 0;
  for (std::uint64_t v : steals) s += v;
  return s;
}

std::uint64_t StealMatrix::total_tasks() const {
  std::uint64_t s = 0;
  for (std::uint64_t v : tasks) s += v;
  return s;
}

std::uint64_t StealMatrix::total_recovered() const {
  std::uint64_t s = 0;
  for (std::uint64_t v : recovered) s += v;
  return s;
}

Table StealMatrix::table() const {
  const bool with_recovery = total_recovered() > 0;
  std::vector<std::string> headers;
  headers.reserve(static_cast<std::size_t>(nranks) + 3);
  headers.push_back("thief\\victim");
  for (Rank v = 0; v < nranks; ++v) {
    headers.push_back(rank_label(v));
  }
  headers.push_back("total");
  if (with_recovery) {
    headers.push_back("recovered");
  }
  Table t(std::move(headers));
  for (Rank thief = 0; thief < nranks; ++thief) {
    std::vector<std::string> row;
    row.reserve(static_cast<std::size_t>(nranks) + 3);
    row.push_back(rank_label(thief));
    std::uint64_t row_total = 0;
    for (Rank victim = 0; victim < nranks; ++victim) {
      std::uint64_t n = tasks_at(thief, victim);
      row_total += n;
      row.push_back(Table::fmt(static_cast<std::int64_t>(n)));
    }
    row.push_back(Table::fmt(static_cast<std::int64_t>(row_total)));
    if (with_recovery) {
      std::uint64_t rec = 0;
      for (Rank source = 0; source < nranks; ++source) {
        rec += recovered_at(thief, source);
      }
      row.push_back(Table::fmt(static_cast<std::int64_t>(rec)));
    }
    t.add_row(std::move(row));
  }
  return t;
}

StealMatrix steal_matrix(const std::vector<Event>& events, int nranks) {
  SCIOTO_REQUIRE(nranks >= 1, "steal_matrix: nranks must be >= 1");
  StealMatrix m;
  m.nranks = nranks;
  std::size_t n2 =
      static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks);
  m.steals.assign(n2, 0);
  m.tasks.assign(n2, 0);
  m.recovered.assign(n2, 0);
  for (const Event& e : events) {
    if (!rank_ok(e, nranks) || e.a < 0 || e.a >= nranks) {
      continue;
    }
    std::size_t idx = static_cast<std::size_t>(e.rank) *
                          static_cast<std::size_t>(nranks) +
                      static_cast<std::size_t>(e.a);
    if (e.kind == Ev::StealOk) {
      m.steals[idx] += 1;
      m.tasks[idx] += static_cast<std::uint64_t>(e.b);
    } else if (e.kind == Ev::TaskRecovered) {
      m.recovered[idx] += static_cast<std::uint64_t>(e.b);
    }
  }
  return m;
}

std::vector<RankBreakdown> time_breakdown(const std::vector<Event>& events,
                                          int nranks) {
  SCIOTO_REQUIRE(nranks >= 1, "time_breakdown: nranks must be >= 1");
  std::vector<RankBreakdown> out(static_cast<std::size_t>(nranks));
  for (const Event& e : events) {
    if (!rank_ok(e, nranks)) {
      continue;
    }
    RankBreakdown& rb = out[static_cast<std::size_t>(e.rank)];
    switch (e.kind) {
      case Ev::PhaseEnd:
        rb.total += e.c;
        break;
      case Ev::TaskEnd:
        rb.working += e.c;
        break;
      case Ev::Search:
        rb.searching += e.c;
        break;
      case Ev::TaskRecovered:
        rb.recovering += e.c;
        break;
      default:
        break;
    }
  }
  return out;
}

Table breakdown_table(const std::vector<RankBreakdown>& rows) {
  bool with_recovery = false;
  for (const RankBreakdown& rb : rows) {
    with_recovery = with_recovery || rb.recovering > 0;
  }
  std::vector<std::string> headers = {"rank", "total_ms", "working_ms",
                                      "searching_ms"};
  if (with_recovery) {
    headers.push_back("recovering_ms");
  }
  headers.insert(headers.end(),
                 {"other_ms", "working_pct", "searching_pct"});
  Table t(std::move(headers));
  RankBreakdown sum;
  auto emit = [&](const std::string& name, const RankBreakdown& rb) {
    std::vector<std::string> row = {name, ns_to_ms(rb.total),
                                    ns_to_ms(rb.working),
                                    ns_to_ms(rb.searching)};
    if (with_recovery) {
      row.push_back(ns_to_ms(rb.recovering));
    }
    row.insert(row.end(),
               {ns_to_ms(rb.other()), pct(rb.working, rb.total),
                pct(rb.searching, rb.total)});
    t.add_row(std::move(row));
  };
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const RankBreakdown& rb = rows[r];
    sum.total += rb.total;
    sum.working += rb.working;
    sum.searching += rb.searching;
    sum.recovering += rb.recovering;
    emit(rank_label(static_cast<Rank>(r)), rb);
  }
  emit("TOTAL", sum);
  return t;
}

std::vector<DetectionRecord> detection_latency(const std::vector<Event>& events,
                                               int nranks) {
  SCIOTO_REQUIRE(nranks >= 1, "detection_latency: nranks must be >= 1");
  // FaultType::Kill encodes as 0 in FaultInjected.a; trace sits below
  // fault in the layering, so we match the raw value rather than include
  // the enum (locked in by tests/test_detect.cpp).
  constexpr std::int32_t kKillType = 0;
  std::size_t n = static_cast<std::size_t>(nranks);
  std::vector<TimeNs> killed(n, -1);
  std::vector<std::int64_t> suspects(n, 0);
  std::vector<std::int64_t> refutes(n, 0);
  std::vector<int> record_of(n, -1);
  std::vector<DetectionRecord> out;
  for (const Event& e : events) {
    if (e.a < 0 || (e.kind != Ev::FaultInjected && e.a >= nranks)) {
      continue;
    }
    switch (e.kind) {
      case Ev::FaultInjected:
        if (e.a == kKillType && e.b >= 0 && e.b < nranks &&
            killed[static_cast<std::size_t>(e.b)] < 0) {
          killed[static_cast<std::size_t>(e.b)] = e.t;
        }
        break;
      case Ev::Suspect:
        suspects[static_cast<std::size_t>(e.a)] += 1;
        break;
      case Ev::Refute:
        refutes[static_cast<std::size_t>(e.a)] += 1;
        break;
      case Ev::ConfirmDead:
        if (record_of[static_cast<std::size_t>(e.a)] < 0) {
          record_of[static_cast<std::size_t>(e.a)] =
              static_cast<int>(out.size());
          DetectionRecord r;
          r.dead = e.a;
          r.confirmed_by = e.rank;
          r.confirmed_at = e.t;
          out.push_back(r);
        }
        break;
      default:
        break;
    }
  }
  for (DetectionRecord& r : out) {
    std::size_t d = static_cast<std::size_t>(r.dead);
    r.was_killed = killed[d] >= 0;
    r.killed_at = r.was_killed ? killed[d] : 0;
    r.suspects = suspects[d];
    r.refutes = refutes[d];
  }
  return out;
}

Table detection_table(const std::vector<DetectionRecord>& rows) {
  Table t({"rank", "kind", "killed_ms", "confirmed_ms", "latency_ms",
           "confirmed_by", "suspects", "refutes"});
  for (const DetectionRecord& r : rows) {
    t.add_row({rank_label(r.dead),
               r.was_killed ? "kill" : "false",
               r.was_killed ? ns_to_ms(r.killed_at) : "-",
               ns_to_ms(r.confirmed_at),
               r.was_killed ? ns_to_ms(r.latency()) : "-",
               rank_label(r.confirmed_by),
               Table::fmt(r.suspects),
               Table::fmt(r.refutes)});
  }
  return t;
}

std::vector<std::vector<OccupancySample>> occupancy_timeline(
    const std::vector<Event>& events, int nranks) {
  SCIOTO_REQUIRE(nranks >= 1, "occupancy_timeline: nranks must be >= 1");
  std::vector<std::vector<OccupancySample>> out(
      static_cast<std::size_t>(nranks));
  for (const Event& e : events) {
    if (!rank_ok(e, nranks)) {
      continue;
    }
    switch (e.kind) {
      case Ev::Push:
      case Ev::Pop:
      case Ev::Release:
      case Ev::Reacquire:
        out[static_cast<std::size_t>(e.rank)].push_back(
            OccupancySample{e.t, e.c});
        break;
      default:
        break;
    }
  }
  for (auto& series : out) {
    std::stable_sort(series.begin(), series.end(),
                     [](const OccupancySample& x, const OccupancySample& y) {
                       return x.t < y.t;
                     });
  }
  return out;
}

void DurationDist::add(std::uint64_t v) {
  ++count;
  sum += v;
  if (v > max) {
    max = v;
  }
  ++buckets[stats::log2_bucket(v, stats::kLog2Buckets)];
}

std::vector<DurationDist> duration_percentiles(
    const std::vector<Event>& events) {
  DurationDist exec, search, recover;
  exec.name = ev_name(Ev::TaskEnd);
  search.name = ev_name(Ev::Search);
  recover.name = ev_name(Ev::TaskRecovered);
  for (const Event& e : events) {
    if (e.c < 0) {
      continue;  // defensively skip malformed durations
    }
    std::uint64_t v = static_cast<std::uint64_t>(e.c);
    switch (e.kind) {
      case Ev::TaskEnd:
        exec.add(v);
        break;
      case Ev::Search:
        search.add(v);
        break;
      case Ev::TaskRecovered:
        recover.add(v);
        break;
      default:
        break;
    }
  }
  std::vector<DurationDist> out;
  for (DurationDist* d : {&exec, &search, &recover}) {
    if (d->count > 0) {
      out.push_back(*d);
    }
  }
  return out;
}

Table duration_table(const std::vector<DurationDist>& rows) {
  Table t({"event", "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns",
           "max_ns"});
  for (const DurationDist& d : rows) {
    t.add_row({d.name, Table::fmt(static_cast<std::int64_t>(d.count)),
               Table::fmt(d.mean(), 1),
               Table::fmt(static_cast<std::int64_t>(d.percentile(50))),
               Table::fmt(static_cast<std::int64_t>(d.percentile(95))),
               Table::fmt(static_cast<std::int64_t>(d.percentile(99))),
               Table::fmt(static_cast<std::int64_t>(d.max))});
  }
  return t;
}

// ---- Causal lineage analytics ----

const LineageSpan* LineageReport::find(std::uint64_t id) const {
  auto it = std::lower_bound(
      spans.begin(), spans.end(), id,
      [](const LineageSpan& s, std::uint64_t v) { return s.id < v; });
  if (it == spans.end() || it->id != id) {
    return nullptr;
  }
  return &*it;
}

namespace {

void note_violation(LineageReport& rep, const std::string& msg) {
  // Cap the list: a corrupted stream should fail loudly, not allocate a
  // report the size of the trace.
  if (rep.violations.size() < 64) {
    rep.violations.push_back(msg);
  }
}

}  // namespace

LineageReport lineage_report(const std::vector<Event>& events, int nranks,
                             std::uint64_t dropped_events) {
  (void)nranks;
  LineageReport rep;
  rep.dropped = dropped_events;
  rep.spawn_to_exec.name = "spawn_to_exec";

  // Pass 1: gather per-id records. The map is scratch only -- the report
  // is emitted sorted by id, so its iteration order never shows.
  std::unordered_map<std::uint64_t, std::size_t> index;
  auto span_of = [&](std::uint64_t id) -> LineageSpan& {
    auto [it, fresh] = index.try_emplace(id, rep.spans.size());
    if (fresh) {
      rep.spans.emplace_back();
      rep.spans.back().id = id;
    }
    return rep.spans[it->second];
  };
  // ExecSpan announces a task right before its TaskBegin; the next
  // TaskEnd on the same rank closes it and carries the duration. Tasks
  // never nest within execute(), so one pending id per rank suffices --
  // and the input stream preserves each rank's recording order.
  std::unordered_map<int, std::uint64_t> pending_exec;
  for (const Event& e : events) {
    switch (e.kind) {
      case Ev::SpawnEdge: {
        const std::uint64_t id = static_cast<std::uint64_t>(e.c);
        LineageSpan& s = span_of(id);
        if (s.spawned()) {
          note_violation(rep, "task " + std::to_string(id) +
                                  " has two spawn edges");
        } else {
          s.spawn_rank = e.rank;
          s.spawn_t = e.t;
          s.parent =
              static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.a))
                  << 32 |
              static_cast<std::uint32_t>(e.b);
        }
        ++rep.spawns;
        break;
      }
      case Ev::MigrateEdge: {
        LineageSpan& s = span_of(static_cast<std::uint64_t>(e.c));
        s.migrations.push_back(LineageMigration{e.t, e.a, e.rank});
        ++rep.migrations;
        break;
      }
      case Ev::ExecSpan: {
        const std::uint64_t id = static_cast<std::uint64_t>(e.c);
        LineageSpan& s = span_of(id);
        if (s.executed()) {
          // Exactly-once execution is the task collection's core
          // guarantee (fault replay included); a second span is always a
          // defect.
          note_violation(rep, "task " + std::to_string(id) +
                                  " executed twice (ranks " +
                                  std::to_string(s.exec_rank) + " and " +
                                  std::to_string(e.rank) + ")");
        } else {
          s.exec_rank = e.rank;
          s.exec_t = e.t;
          s.hops = static_cast<std::uint32_t>(e.a);
          s.callback = e.b;
          pending_exec[e.rank] = id;
        }
        ++rep.execs;
        break;
      }
      case Ev::TaskEnd: {
        auto it = pending_exec.find(e.rank);
        if (it != pending_exec.end()) {
          LineageSpan& s = span_of(it->second);
          s.exec_dur = std::max<TimeNs>(e.c, 0);
          pending_exec.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  std::sort(rep.spans.begin(), rep.spans.end(),
            [](const LineageSpan& x, const LineageSpan& y) {
              return x.id < y.id;
            });

  // Pass 2: happens-before and conservation. With ring drops the
  // completeness checks are vacuous (the missing edge may simply have
  // been overwritten), so only per-event ordering is validated then.
  const bool complete = dropped_events == 0;
  for (const LineageSpan& s : rep.spans) {
    if (s.spawned() && s.executed()) {
      if (s.exec_t < s.spawn_t) {
        note_violation(rep, "task " + std::to_string(s.id) +
                                " executed before its spawn edge");
      }
      rep.spawn_to_exec.add(static_cast<std::uint64_t>(
          std::max<TimeNs>(s.queue_latency(), 0)));
    } else if (complete) {
      note_violation(rep, "task " + std::to_string(s.id) +
                              (s.executed()
                                   ? " executed without a spawn edge"
                                   : " spawned but never executed"));
    }
    for (const LineageMigration& m : s.migrations) {
      if ((s.spawned() && m.t < s.spawn_t) ||
          (s.executed() && m.t > s.exec_t)) {
        note_violation(rep, "task " + std::to_string(s.id) +
                                " migrated outside its spawn->exec window");
      }
    }
    if (s.executed()) {
      if (complete && s.hops != s.migrations.size()) {
        ++rep.hop_mismatches;
      }
      rep.max_hops = std::max<std::uint64_t>(rep.max_hops, s.hops);
      if (rep.hop_hist.size() <= s.hops) {
        rep.hop_hist.resize(static_cast<std::size_t>(s.hops) + 1, 0);
      }
      ++rep.hop_hist[s.hops];
    }
  }
  return rep;
}

CriticalPath critical_path(const LineageReport& rep,
                           const std::vector<Event>& events, int nranks) {
  CriticalPath cp;
  cp.rank_blame.assign(static_cast<std::size_t>(std::max(nranks, 1)), 0);

  // Terminal: the last-finishing executed task; ties break toward the
  // smaller id so the walk is deterministic whenever the stream is.
  const LineageSpan* terminal = nullptr;
  for (const LineageSpan& s : rep.spans) {
    if (!s.executed()) {
      continue;
    }
    if (terminal == nullptr || s.finish() > terminal->finish() ||
        (s.finish() == terminal->finish() && s.id < terminal->id)) {
      terminal = &s;
    }
  }
  if (terminal == nullptr) {
    return cp;
  }
  cp.terminal_id = terminal->id;

  // Walk back: each task contributes its execution (clipped at the child
  // spawn that continued the chain) preceded by its queue/migration wait,
  // attributed to the rank whose queue actually held it -- the victim of
  // the next migration, or the executor after the last landing.
  std::vector<CritSegment> rev;
  const LineageSpan* s = terminal;
  TimeNs exec_end = terminal->finish();
  std::size_t guard = rep.spans.size() + 1;
  while (guard-- > 0) {
    ++cp.tasks;
    if (exec_end > s->exec_t) {
      rev.push_back(CritSegment{s->id, s->exec_rank, true, s->exec_t,
                                exec_end});
    }
    if (!s->spawned()) {
      break;  // chain truncated by ring wrap; blame what we can see
    }
    std::vector<TimeNs> bounds;
    std::vector<Rank> owners;
    bounds.push_back(s->spawn_t);
    for (const LineageMigration& m : s->migrations) {
      owners.push_back(m.victim);
      bounds.push_back(m.t);
    }
    owners.push_back(s->exec_rank);
    bounds.push_back(s->exec_t);
    for (std::size_t i = owners.size(); i-- > 0;) {
      if (bounds[i + 1] > bounds[i]) {
        rev.push_back(CritSegment{s->id, owners[i], false, bounds[i],
                                  bounds[i + 1]});
      }
    }
    if (s->parent == 0) {
      break;  // root spawn: the chain starts here
    }
    const LineageSpan* p = rep.find(s->parent);
    if (p == nullptr || !p->executed()) {
      break;  // parent lost to ring wrap
    }
    if (s->spawn_t > p->finish()) {
      // A DAG node re-fired after its parking dispatch (the parent)
      // returned: it waited parked on that dispatch's rank.
      rev.push_back(CritSegment{s->id, p->exec_rank, false, p->finish(),
                                s->spawn_t});
    }
    exec_end = std::min(std::max(s->spawn_t, p->exec_t), p->finish());
    s = p;
  }
  std::reverse(rev.begin(), rev.end());
  cp.segments = std::move(rev);
  if (!cp.segments.empty()) {
    cp.length = terminal->finish() - cp.segments.front().t0;
  }

  // Blame: by kind, by rank, and by tc_process phase (segments are
  // assigned to the phase whose collective begin most recently preceded
  // them; rank 0's PhaseBegin events are the boundary markers).
  std::vector<TimeNs> phase_begins;
  for (const Event& e : events) {
    if (e.kind == Ev::PhaseBegin && e.rank == 0) {
      phase_begins.push_back(e.t);
    }
  }
  std::sort(phase_begins.begin(), phase_begins.end());
  cp.phase_blame.assign(std::max<std::size_t>(phase_begins.size(), 1), 0);
  for (const CritSegment& seg : cp.segments) {
    (seg.exec ? cp.exec_ns : cp.queue_ns) += seg.dur();
    if (seg.rank >= 0 && seg.rank < nranks) {
      cp.rank_blame[static_cast<std::size_t>(seg.rank)] += seg.dur();
    }
    std::size_t phase = 0;
    if (!phase_begins.empty()) {
      auto it = std::upper_bound(phase_begins.begin(), phase_begins.end(),
                                 seg.t0);
      phase = it == phase_begins.begin()
                  ? 0
                  : static_cast<std::size_t>(it - phase_begins.begin() - 1);
    }
    cp.phase_blame[phase] += seg.dur();
  }
  return cp;
}

Table lineage_table(const LineageReport& rep) {
  Table t({"metric", "value"});
  auto u64 = [](std::uint64_t v) {
    return Table::fmt(static_cast<std::int64_t>(v));
  };
  t.add_row({"tasks_spawned", u64(rep.spawns)});
  t.add_row({"tasks_executed", u64(rep.execs)});
  t.add_row({"migrate_edges", u64(rep.migrations)});
  t.add_row({"hb_violations", u64(rep.violations.size())});
  t.add_row({"hop_mismatches", u64(rep.hop_mismatches)});
  t.add_row({"ring_dropped", u64(rep.dropped)});
  t.add_row({"max_hops", u64(rep.max_hops)});
  t.add_row({"spawn_exec_p50_ns", u64(rep.spawn_to_exec.percentile(50))});
  t.add_row({"spawn_exec_p90_ns", u64(rep.spawn_to_exec.percentile(90))});
  t.add_row({"spawn_exec_p99_ns", u64(rep.spawn_to_exec.percentile(99))});
  t.add_row({"spawn_exec_max_ns", u64(rep.spawn_to_exec.max)});
  for (std::size_t h = 0; h < rep.hop_hist.size(); ++h) {
    if (rep.hop_hist[h] > 0) {
      t.add_row({"tasks_with_" + std::to_string(h) + "_hops",
                 u64(rep.hop_hist[h])});
    }
  }
  return t;
}

Table critical_path_table(const CriticalPath& cp) {
  Table t({"task", "origin", "rank", "state", "t0_us", "dur_us"});
  for (const CritSegment& seg : cp.segments) {
    t.add_row({std::to_string(lineage::id_seq(seg.id)),
               Table::fmt(static_cast<std::int64_t>(
                   lineage::id_origin(seg.id))),
               Table::fmt(static_cast<std::int64_t>(seg.rank)),
               seg.exec ? "exec" : "wait",
               Table::fmt(static_cast<double>(seg.t0) / 1e3, 3),
               Table::fmt(static_cast<double>(seg.dur()) / 1e3, 3)});
  }
  t.add_row({"TOTAL",
             Table::fmt(static_cast<std::int64_t>(cp.tasks)),
             "-", "-", "-",
             Table::fmt(static_cast<double>(cp.length) / 1e3, 3)});
  return t;
}

}  // namespace scioto::trace
