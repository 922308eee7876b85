// Minimal leveled logging to stderr.
//
// Benchmarks keep stdout clean for tables; diagnostics go through here.
// The level is read once from SCIOTO_LOG (error|warn|info|debug) or set
// programmatically; default is warn so tests stay quiet.
#pragma once

#include <sstream>
#include <string>

namespace scioto {

enum class LogLevel { Error = 0, Warn = 1, Info = 2, Debug = 3 };

LogLevel log_level();
void set_log_level(LogLevel level);

/// Parses a SCIOTO_LOG level name (error|warn|info|debug) into *out;
/// false (and *out untouched) for any other name.
bool log_level_from_name(const char* name, LogLevel* out);

/// Ambient execution context for log prefixes. When a runtime backend is
/// active, messages are prefixed with the emitting rank and its current
/// (virtual or wall) time so interleaved sim-backend logs are orderable:
///
///   [scioto DEBUG r3 @1234567ns] ...
///
/// Providers are registered by the execution backends (the sim Engine and
/// the pgas ThreadBackend); base/ itself has no upward dependency. A
/// provider fills rank/time_ns and returns true when it knows the calling
/// context; log_emit asks each registered provider in turn.
using LogContextFn = bool (*)(int& rank, long long& time_ns);

/// Registers a context provider (idempotent; at most 4 distinct providers).
void log_register_context(LogContextFn fn);

namespace detail {
void log_emit(LogLevel level, const std::string& msg);
}

}  // namespace scioto

#define SCIOTO_LOG(level, ...)                                         \
  do {                                                                 \
    if (static_cast<int>(level) <=                                     \
        static_cast<int>(::scioto::log_level())) {                     \
      std::ostringstream oss_;                                         \
      oss_ << __VA_ARGS__;                                             \
      ::scioto::detail::log_emit(level, oss_.str());                   \
    }                                                                  \
  } while (0)

#define SCIOTO_ERROR(...) SCIOTO_LOG(::scioto::LogLevel::Error, __VA_ARGS__)
#define SCIOTO_WARN(...) SCIOTO_LOG(::scioto::LogLevel::Warn, __VA_ARGS__)
#define SCIOTO_INFO(...) SCIOTO_LOG(::scioto::LogLevel::Info, __VA_ARGS__)
#define SCIOTO_DEBUG(...) SCIOTO_LOG(::scioto::LogLevel::Debug, __VA_ARGS__)
