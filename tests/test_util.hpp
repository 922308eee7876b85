// Shared helpers for Scioto tests: SPMD launchers over both backends.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <string>

#include "pgas/runtime.hpp"
#include "sim/machine.hpp"

namespace scioto::testing {

inline pgas::Config make_cfg(int nranks, pgas::BackendKind kind,
                             std::uint64_t seed = 42) {
  pgas::Config cfg;
  cfg.nranks = nranks;
  cfg.backend = kind;
  cfg.machine = sim::test_machine();
  cfg.seed = seed;
  return cfg;
}

/// Runs `body` SPMD on the requested backend; returns elapsed
/// (virtual for sim, wall for threads) nanoseconds.
inline TimeNs run(int nranks, pgas::BackendKind kind,
                  const std::function<void(pgas::Runtime&)>& body,
                  std::uint64_t seed = 42) {
  return pgas::run_spmd(make_cfg(nranks, kind, seed), body).elapsed;
}

inline TimeNs run_sim(int nranks,
                      const std::function<void(pgas::Runtime&)>& body,
                      std::uint64_t seed = 42) {
  return run(nranks, pgas::BackendKind::Sim, body, seed);
}

inline TimeNs run_threads(int nranks,
                          const std::function<void(pgas::Runtime&)>& body,
                          std::uint64_t seed = 42) {
  return run(nranks, pgas::BackendKind::Threads, body, seed);
}

/// Resident bytes of this process from /proc/self/statm, or 0 where that
/// file is absent.
inline std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages = 0;
  unsigned long resident = 0;
  const bool ok = std::fscanf(f, "%lu %lu", &pages, &resident) == 2;
  std::fclose(f);
  return ok ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

/// Readable parameter names for INSTANTIATE_TEST_SUITE_P over backends.
inline std::string backend_name(pgas::BackendKind k) {
  return k == pgas::BackendKind::Sim ? "Sim" : "Threads";
}

}  // namespace scioto::testing
