#include "base/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scioto {

bool log_level_from_name(const char* name, LogLevel* out) {
  static constexpr const char* kNames[] = {"error", "warn", "info", "debug"};
  for (int i = 0; i < 4; ++i) {
    if (std::strcmp(name, kNames[i]) == 0) {
      *out = static_cast<LogLevel>(i);  // kNames follows the enum order
      return true;
    }
  }
  return false;
}

namespace {

// Must not throw: the first log call may run inside a catch handler. An
// unknown name falls back to warn here and is rejected by name at
// pgas::run_spmd entry instead.
LogLevel initial_level() {
  LogLevel level = LogLevel::Warn;
  if (const char* env = std::getenv("SCIOTO_LOG")) {
    log_level_from_name(env, &level);
  }
  return level;
}

std::atomic<int>& level_ref() {
  static std::atomic<int> level{static_cast<int>(initial_level())};
  return level;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Error:
      return "ERROR";
    case LogLevel::Warn:
      return "WARN";
    case LogLevel::Info:
      return "INFO";
    case LogLevel::Debug:
      return "DEBUG";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return static_cast<LogLevel>(level_ref().load()); }

void set_log_level(LogLevel level) {
  level_ref().store(static_cast<int>(level));
}

namespace {

// Small fixed provider table: registration is rare (backend construction),
// lookup happens on every emitted line. Slots fill once and are never
// removed; providers themselves report "not my context" when inactive.
constexpr int kMaxProviders = 4;
std::atomic<LogContextFn> g_providers[kMaxProviders] = {};

bool current_context(int& rank, long long& time_ns) {
  for (const auto& slot : g_providers) {
    LogContextFn fn = slot.load(std::memory_order_acquire);
    if (fn != nullptr && fn(rank, time_ns)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void log_register_context(LogContextFn fn) {
  if (fn == nullptr) return;
  for (auto& slot : g_providers) {
    LogContextFn cur = slot.load(std::memory_order_acquire);
    if (cur == fn) {
      return;  // already registered
    }
    if (cur == nullptr) {
      LogContextFn expected = nullptr;
      if (slot.compare_exchange_strong(expected, fn)) {
        return;
      }
      if (expected == fn) {
        return;  // lost the race to ourselves
      }
    }
  }
}

namespace detail {

void log_emit(LogLevel level, const std::string& msg) {
  int rank = -1;
  long long time_ns = -1;
  if (current_context(rank, time_ns)) {
    std::fprintf(stderr, "[scioto %s r%d @%lldns] %s\n", level_name(level),
                 rank, time_ns, msg.c_str());
  } else {
    std::fprintf(stderr, "[scioto %s] %s\n", level_name(level), msg.c_str());
  }
}

}  // namespace detail

}  // namespace scioto
