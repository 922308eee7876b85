#include "trace/export.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "base/error.hpp"
#include "base/log.hpp"
#include "control/knobs.hpp"
#include "trace/trace.hpp"

namespace scioto::trace {

namespace {

/// Streams a JSON string body with the characters the format reserves
/// escaped (quote, backslash, control bytes). Event names are compile-time
/// constants today, but the exporter must not rely on that: a name with a
/// quote in it would otherwise silently corrupt the whole trace file.
void write_json_escaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char ch = static_cast<unsigned char>(*s);
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (ch < 0x20) {
          static const char* kHex = "0123456789abcdef";
          os << "\\u00" << kHex[ch >> 4] << kHex[ch & 0xf];
        } else {
          os << static_cast<char>(ch);
        }
    }
  }
}

/// Nanoseconds -> the format's microsecond unit, printed as a fixed-point
/// decimal (no floating-point formatting, so output is bit-deterministic).
std::string fmt_us(TimeNs t_ns) {
  bool neg = t_ns < 0;
  if (neg) t_ns = -t_ns;
  std::ostringstream os;
  if (neg) os << '-';
  os << (t_ns / 1000) << '.';
  std::int64_t frac = t_ns % 1000;
  os << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + (frac / 10) % 10)
     << static_cast<char>('0' + frac % 10);
  return os.str();
}

/// Common prefix: {"name":"...","cat":"...","ph":"X","ts":...,"pid":R,"tid":0
void emit_head(std::ostream& os, const Event& e, const char* name,
               const char* ph, TimeNs ts_ns) {
  os << "{\"name\":\"";
  write_json_escaped(os, name);
  os << "\",\"cat\":\"" << ev_category(e.kind) << "\",\"ph\":\"" << ph
     << "\",\"ts\":" << fmt_us(ts_ns) << ",\"pid\":" << e.rank
     << ",\"tid\":0";
}

void emit_event(std::ostream& os, const Event& e) {
  switch (e.kind) {
    case Ev::TaskBegin:
      emit_head(os, e, ev_name(e.kind), "B", e.t);
      os << ",\"args\":{\"callback\":" << e.a << ",\"affinity\":" << e.b
         << "}}";
      return;
    case Ev::TaskEnd:
      emit_head(os, e, ev_name(e.kind), "E", e.t);
      os << ",\"args\":{\"callback\":" << e.a << "}}";
      return;
    case Ev::PhaseBegin:
      emit_head(os, e, ev_name(e.kind), "B", e.t);
      os << ",\"args\":{}}";
      return;
    case Ev::PhaseEnd:
      emit_head(os, e, ev_name(e.kind), "E", e.t);
      os << ",\"args\":{\"dur_ns\":" << e.c << "}}";
      return;
    case Ev::Search:
      // One coalesced idle/steal/TD-poll spell, drawn over its duration.
      emit_head(os, e, ev_name(e.kind), "X", e.t - e.c);
      os << ",\"dur\":" << fmt_us(e.c) << ",\"args\":{}}";
      return;
    case Ev::Push:
    case Ev::Pop:
    case Ev::Release:
    case Ev::Reacquire:
      // Queue ops double as occupancy counter samples; the op itself and
      // its magnitude ride along in args.
      emit_head(os, e, "queue", "C", e.t);
      os << ",\"args\":{\"tasks\":" << e.c << "}}";
      return;
    case Ev::StealAttempt:
    case Ev::StealFail:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"victim\":" << e.a << "}}";
      return;
    case Ev::StealOk:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"victim\":" << e.a
         << ",\"tasks\":" << e.b << "}}";
      return;
    case Ev::RemoteAdd:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"target\":" << e.a << "}}";
      return;
    case Ev::TokenSend: {
      static const char* kFields[] = {"down", "up", "term", "dirty"};
      const char* field =
          (e.b >= 0 && e.b < 4) ? kFields[e.b] : "?";
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"target\":" << e.a << ",\"field\":\""
         << field << "\"}}";
      return;
    }
    case Ev::Vote:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"wave\":" << e.a
         << ",\"black\":" << e.b << "}}";
      return;
    case Ev::WaveStart:
    case Ev::Terminate:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"wave\":" << e.a << "}}";
      return;
    case Ev::PgasPut:
    case Ev::PgasGet:
    case Ev::PgasAcc:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"target\":" << e.a
         << ",\"bytes\":" << e.c << "}}";
      return;
    case Ev::PgasRmw:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"target\":" << e.a << "}}";
      return;
    case Ev::Barrier:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{}}";
      return;
    case Ev::FaultInjected:
      // Process-scope instant: a fault is a machine event, not a rank op.
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"p\",\"args\":{\"fault\":" << e.a
         << ",\"target\":" << e.b << ",\"param\":" << e.c << "}}";
      return;
    case Ev::StealAborted:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"victim\":" << e.a
         << ",\"reason\":" << e.b << "}}";
      return;
    case Ev::TaskRecovered:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"source\":" << e.a
         << ",\"tasks\":" << e.b << ",\"dur_ns\":" << e.c << "}}";
      return;
    case Ev::TreeRespliced:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"epoch\":" << e.a
         << ",\"alive\":" << e.b << "}}";
      return;
    case Ev::ReacquireFast:
      emit_head(os, e, "queue", "C", e.t);
      os << ",\"args\":{\"tasks\":" << e.c << "}}";
      return;
    case Ev::Suspect:
    case Ev::ConfirmDead:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"rank\":" << e.a
         << ",\"silence_ns\":" << e.c << "}}";
      return;
    case Ev::Refute:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"rank\":" << e.a << "}}";
      return;
    case Ev::FenceAbort:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"adopter\":" << e.a
         << ",\"epoch\":" << e.b << "}}";
      return;
    case Ev::NodeReady:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"node\":" << e.a
         << ",\"home\":" << e.b << ",\"depth\":" << e.c << "}}";
      return;
    case Ev::NodeRun:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"node\":" << e.a
         << ",\"group\":" << e.b << ",\"depth\":" << e.c << "}}";
      return;
    case Ev::ConflictRetry:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"node\":" << e.a
         << ",\"group\":" << e.b << "}}";
      return;
    case Ev::KnobChange:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"knob\":\""
         << control::knob_name(static_cast<control::Knob>(e.a))
         << "\",\"value\":" << e.b << ",\"reason\":\""
         << control::reason_name(static_cast<int>(e.c)) << "\"}}";
      return;
    case Ev::JoinRequest:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"rank\":" << e.a << "}}";
      return;
    case Ev::JoinAdmit:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"joiner\":" << e.a
         << ",\"admitter\":" << e.b << ",\"epoch\":" << e.c << "}}";
      return;
    case Ev::Quiesce:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"gen\":" << e.a
         << ",\"participants\":" << e.b << ",\"dur_ns\":" << e.c << "}}";
      return;
    case Ev::Checkpoint:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"gen\":" << e.a
         << ",\"tasks\":" << e.b << ",\"bytes\":" << e.c << "}}";
      return;
    case Ev::Restore:
      emit_head(os, e, ev_name(e.kind), "i", e.t);
      os << ",\"s\":\"t\",\"args\":{\"parts\":" << e.a
         << ",\"tasks\":" << e.b << ",\"bytes\":" << e.c << "}}";
      return;
    // Causal lineage maps onto the format's *flow events*: one flow per
    // task id, started ("s") on the spawning rank, stepped ("t") at each
    // migration landing, finished ("f") on the executing rank, bound to
    // the enclosing task slice (bp:"e") -- Perfetto then draws the
    // spawn -> steal -> exec arrows across rank tracks. All three phases
    // must share the same name and id: the id is the join key.
    case Ev::SpawnEdge: {
      const std::uint64_t parent =
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.a))
              << 32 |
          static_cast<std::uint32_t>(e.b);
      emit_head(os, e, "task_flow", "s", e.t);
      os << ",\"id\":" << e.c << ",\"args\":{\"parent\":" << parent
         << "}}";
      return;
    }
    case Ev::MigrateEdge:
      emit_head(os, e, "task_flow", "t", e.t);
      os << ",\"id\":" << e.c << ",\"args\":{\"victim\":" << e.a
         << ",\"hops\":" << e.b << "}}";
      return;
    case Ev::ExecSpan:
      emit_head(os, e, "task_flow", "f", e.t);
      os << ",\"id\":" << e.c << ",\"bp\":\"e\",\"args\":{\"hops\":" << e.a
         << ",\"callback\":" << e.b << "}}";
      return;
  }
  // A kind the switch does not know would otherwise emit *nothing*,
  // leaving the caller's separator dangling and the whole file invalid
  // JSON -- the silent failure mode each appended-event PR had to patch
  // reactively. Fail by name instead.
  SCIOTO_REQUIRE(false, "chrome trace exporter: unknown event kind "
                            << static_cast<int>(e.kind)
                            << " (trace::Ev grew without an exporter case)");
}

}  // namespace

void write_chrome_trace(std::ostream& os) {
  const int nranks = session_nranks();
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
     << total_dropped() << ",\"ranks\":" << nranks << "},\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (Rank r = 0; r < nranks; ++r) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << r
       << ",\"args\":{\"name\":\"rank " << r << "\"}}";
  }
  for (Rank r = 0; r < nranks; ++r) {
    for (const Event& e : events(r)) {
      sep();
      emit_event(os, e);
    }
  }
  os << "]}\n";
}

std::string chrome_trace_json() {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    SCIOTO_WARN("cannot open trace output file " << path);
    return false;
  }
  write_chrome_trace(f);
  return f.good();
}

}  // namespace scioto::trace
