// Adaptive control plane: closes the metrics -> knobs loop online.
//
// The telemetry plane (per-rank counters, fleet CoV/Gini imbalance) and
// the live knobs (chunk size, release threshold, victim set) meet here.
// Every rank runs its own controller inside the scheduling loop: at each
// virtual-time epoch it reads a cheap fleet digest the monitor publishes
// (CoV of queue depths and the deepest ranks) and retunes its own KnobSet
// (knobs.hpp) through a hysteresis/epoch rule engine.
//
// The knobs themselves are only ever written from the owning rank's
// context, so the queue/steal hot paths read plain (non-atomic) values;
// all cross-rank traffic goes through this session's atomic rows
// (published knobs, fleet digest) -- the single-address-space analog of a
// one-sided knob segment.
//
// Rule engine: one rule. On sustained fleet imbalance (CoV at or above
// cov_hi for `dwell` epochs) it opens the chunk cap -- with steal-half
// (TcConfig's default) the chunk only caps min(ceil(depth/2), cap), so a
// wide cap moves the burst without overshooting shallow victims --
// releases earlier on the deep rank only, and restricts the victim set
// to the deepest ranks in the monitor digest (random victim choice finds
// a single deep rank with probability 1/n, and every miss inflates the
// thief's steal backoff). Per-knob dwell epochs let one decision suppress
// further changes to the same knob -- hysteresis against oscillation.
// Nothing reverts a decision.
//
// Determinism: under the sim backend, epochs fire at virtual-time
// deadlines inside the scheduling loop, the digest is produced by the
// monitor's deterministic virtual-time sampler, and the engine is a pure
// integer/double state machine -- so the full decision sequence is
// bit-deterministic across reruns. Under the threads backend every
// cross-thread word is an atomic and decisions are wall-clock-paced
// (TSan-clean, not deterministic).
//
// Composition with faults: a controller never retunes a fenced or dead
// rank (it checks its own liveness before deciding), and a ward that
// adopts a dead rank's queue inherits the victim's last *published*
// knobs -- published rows outlive the owner precisely so adoption can
// read them.
//
// Gating (same discipline as trace/ and metrics/): nothing happens until
// start(); armed by SCIOTO_CONTROLLER=off|local (+ SCIOTO_CTL_PERIOD,
// SCIOTO_CTL_RULES) or the scioto_ctl_* C API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hpp"
#include "control/knobs.hpp"

namespace scioto::control {

enum class Mode : int { Off, Local };

const char* mode_name(Mode m);
bool mode_from_name(const std::string& s, Mode* out);

// ---- Rule engine parameters (SCIOTO_CTL_RULES / scioto_ctl_rules_set) ----

struct Rules {
  double cov_hi = 1.00;    // fleet CoV at or above this = imbalanced
  int dwell = 3;           // epochs a condition must hold, and epochs a
                           // changed knob stays frozen afterwards
  std::int64_t release_min = 8;    // floor for the release threshold
                                   // (lower makes shallow queues churn
                                   // publish/reacquire)
  std::int64_t chunk_burst = 64;   // cap opened on sustained imbalance
                                   // (owner's KnobSet clamps at chunk_max)
  int hot_set = 1;         // imbalanced fleet: steer thieves at the
                           // hot_set deepest ranks (digest); 0 disables

  /// Parses "key=value;key=value" (keys are the field names above).
  /// On failure returns false and explains in *err.
  static bool parse(const std::string& spec, Rules* out, std::string* err);
  std::string to_string() const;
};

struct Config {
  Mode mode = Mode::Off;
  TimeNs period = 100'000;  // controller epoch length (ns)
  Rules rules;
};

/// Staged configuration consumed by pgas::run_spmd (C API knob; env vars
/// override) -- same discipline as metrics::config().
Config config();
void set_config(const Config& cfg);

// ---- Rule engine (pure, deterministic, unit-testable) ----

struct Signals {
  std::uint64_t shared_depth = 0;  // rank's stealable depth right now
  double cov = 0.0;                // fleet queue-depth CoV
  bool have_cov = false;           // digest available yet?
};

struct Decision {
  Knob knob;
  std::int64_t value;  // desired value (owner clamps through its KnobSet)
  int reason;
};

class RuleEngine {
 public:
  explicit RuleEngine(const Rules& rules) : rules_(rules) {}
  RuleEngine() = default;

  /// One controller epoch: folds the signals into the streak/dwell state
  /// and appends the decisions (if any) to *out. `cur` holds the knob
  /// values the decisions are relative to.
  void step(const Signals& s, const std::int64_t cur[kNumKnobs],
            std::vector<Decision>* out);

 private:
  void propose(Knob k, std::int64_t v, int reason,
               const std::int64_t cur[kNumKnobs],
               std::vector<Decision>* out);

  Rules rules_;
  int dwell_left_[kNumKnobs] = {};
  int hi_cov_streak_ = 0;
};

// ---- Session ----

/// True between start() and stop(); one relaxed atomic load.
bool active();
Mode mode();
TimeNs period();

/// Allocates the per-rank rows (published knobs, engine state), installs
/// the digest hook into the fleet monitor (metrics/monitor.hpp), and
/// begins controlling.
void start(int nranks, const Config& cfg);
void stop();

// ---- Owner-side hooks (called from TaskCollection on the owning rank) ----

/// Registers rank r's KnobSet and publishes its initial values.
void attach(Rank r, KnobSet* knobs);
void detach(Rank r);

/// Cheap per-iteration check: is a controller epoch due for rank r?
bool poll_due(Rank r, TimeNs now);

/// Runs the epoch found by poll_due: evaluates the rule engine over this
/// epoch's signals and applies the decisions. Never retunes a rank the
/// detector considers fenced/dead.
void poll_epoch(Rank r, TimeNs now, std::uint64_t shared_depth);

/// The first virtual time at which poll_due(r, ...) can turn true: r's
/// next epoch, or kTimeNever when r has no controller.
TimeNs next_due(Rank r);

/// Ward-side adoption: rank `me` inherits dead rank `dead`'s last
/// published knobs into its own KnobSet.
void inherit(Rank me, Rank dead);

/// Re-copies rank r's attached KnobSet into its published row. Called by
/// TaskCollection::set_knob after a direct (C API) knob write so the
/// dashboard and future wards see the new values.
void republish(Rank r);

// ---- Cross-rank reads ----

/// Copies rank r's published knob row; false if r never published.
bool published(Rank r, std::int64_t out[kNumKnobs]);

/// The monitor digest's deepest alive ranks (descending depth), at most
/// kMaxHotVictims of them; returns the count (0 before the first sample
/// or when every queue is empty). One relaxed atomic load -- cheap
/// enough for the steal path's victim selection.
inline constexpr int kMaxHotVictims = 4;
int hot_victims(Rank out[kMaxHotVictims]);

/// One-line "ck=10 rel=20 vs=0" rendering for the live dashboard;
/// empty when r never published or no session is active.
std::string knobs_text(Rank r);

// ---- Decision log (tests / JSONL export) ----

struct DecisionRecord {
  TimeNs t = 0;
  Rank rank = 0;        // rank whose knob changed
  Knob knob = Knob::StealChunk;
  std::int64_t value = 0;
  int reason = 0;
};

std::vector<DecisionRecord> decisions();
std::string decisions_jsonl();

struct Stats {
  std::uint64_t epochs = 0;     // epochs evaluated
  std::uint64_t decisions = 0;  // knob changes applied by owners
  std::uint64_t inherits = 0;   // adoption-time knob inheritances
};
Stats stats();

}  // namespace scioto::control
