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
void emit_head(std::ostream& os, const Event& e, const EvInfo& info,
               const char* name, TimeNs ts_ns) {
  os << "{\"name\":\"";
  write_json_escaped(os, name);
  os << "\",\"cat\":\"" << info.category << "\",\"ph\":\"" << info.phase
     << "\",\"ts\":" << fmt_us(ts_ns) << ",\"pid\":" << e.rank
     << ",\"tid\":0";
}

/// The name a payload is exported as, where the trace stores an index
/// into a name list; nullptr for a plain number.
const char* payload_name(const Event& e, char which) {
  switch (e.kind) {
    case Ev::TokenSend: {
      static const char* kFields[] = {"down", "up", "term", "dirty"};
      if (which != 'b') break;
      return (e.b >= 0 && e.b < 4) ? kFields[e.b] : "?";
    }
    case Ev::KnobChange:
      if (which == 'a') {
        return control::knob_name(static_cast<control::Knob>(e.a));
      }
      if (which == 'c') return control::reason_name(static_cast<int>(e.c));
      break;
    default:
      break;
  }
  return nullptr;
}

void emit_event(std::ostream& os, const Event& e) {
  const EvInfo* info = ev_info(e.kind);
  // A kind past the table would otherwise emit *nothing*, leaving the
  // caller's separator dangling and the whole file invalid JSON. Fail by
  // name instead.
  SCIOTO_REQUIRE(info != nullptr, "chrome trace exporter: unknown event kind "
                                      << static_cast<int>(e.kind));
  const char ph = info->phase[0];
  if (ph == 's' || ph == 't' || ph == 'f') {
    // Causal lineage maps onto the format's *flow events*: one flow per
    // task id, started ("s") on the spawning rank, stepped ("t") at each
    // migration landing, finished ("f") on the executing rank, bound to
    // the enclosing task slice (bp:"e") -- Perfetto then draws the
    // spawn -> steal -> exec arrows across rank tracks. All three phases
    // must share the same name and id: the id is the join key.
    emit_head(os, e, *info, "task_flow", e.t);
    os << ",\"id\":" << e.c;
    if (ph == 'f') os << ",\"bp\":\"e\"";
  } else if (ph == 'X') {
    emit_head(os, e, *info, info->name, e.t - e.c);
    os << ",\"dur\":" << fmt_us(e.c);
  } else {
    emit_head(os, e, *info, ph == 'C' ? info->category : info->name, e.t);
    if (info->scope[0] != '\0') os << ",\"s\":\"" << info->scope << '"';
  }
  os << ",\"args\":{";
  if (e.kind == Ev::SpawnEdge) {
    const std::uint64_t parent =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.a)) << 32 |
        static_cast<std::uint32_t>(e.b);
    os << "\"parent\":" << parent;
  } else {
    const char* sep = "";
    auto arg = [&](const char* label, char which, std::int64_t v) {
      if (label[0] == '\0') return;
      os << sep << '"' << label << "\":";
      sep = ",";
      if (const char* name = payload_name(e, which)) {
        os << '"' << name << '"';
      } else {
        os << v;
      }
    };
    arg(info->a, 'a', e.a);
    arg(info->b, 'b', e.b);
    arg(info->c, 'c', e.c);
  }
  os << "}}";
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
