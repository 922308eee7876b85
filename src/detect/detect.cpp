#include "detect/detect.hpp"

#include <algorithm>
#include <atomic>

#include "base/error.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace scioto::detect {

namespace {

// Per-rank heartbeat patch layout: word 0 = heartbeat counter, word 1 =
// last observed membership epoch. Written only by the owner (atomic
// release stores), read by probers through probe_pair_checked.
constexpr std::size_t kHbWord = 0;
constexpr std::size_t kPatchBytes = 2 * sizeof(std::uint64_t);

}  // namespace

HeartbeatProbe::HeartbeatProbe(pgas::Runtime& rt)
    : rt_(rt), cfg_(config()), me_(rt.me()), nranks_(rt.nprocs()) {
  SCIOTO_REQUIRE(active(), "HeartbeatProbe needs an armed detect session");
  seg_ = rt_.seg_alloc(kPatchBytes);
  TimeNs now = rt_.now();
  last_pub_ = now - cfg_.hb_period;  // publish immediately on first poll
  last_probe_ = now;
  last_poll_ = now;
  peers_.assign(static_cast<std::size_t>(nranks_), Peer{});
  for (Peer& p : peers_) p.last_change = now;
  epoch_seen_ = epoch();
  recompute_neighbors();
}

HeartbeatProbe::~HeartbeatProbe() {
  // destroy() is the collective teardown; the destructor only flushes
  // stats if the owner never got there (e.g. its rank was killed).
  if (!destroyed_) {
    flush_stats();
  }
}

void HeartbeatProbe::destroy() {
  if (destroyed_) return;
  destroyed_ = true;
  flush_stats();
  rt_.seg_free(seg_);
}

void HeartbeatProbe::flush_stats() {
  add_heartbeats(n_heartbeats_);
  add_probes(n_probes_);
  add_suspects(n_suspects_);
  add_refutes(n_refutes_);
  n_heartbeats_ = n_probes_ = n_suspects_ = n_refutes_ = 0;
}

void HeartbeatProbe::reset_observations() {
  TimeNs now = rt_.now();
  for (Peer& p : peers_) {
    p.last_change = now;
    p.suspected = false;
  }
  last_poll_ = now;
  last_probe_ = now;
}

void HeartbeatProbe::poll() {
  TimeNs now = rt_.now();
  // A gap in our own polling (whole-rank stall, long task body) means we
  // slept through everyone's heartbeats: restart the peer timers rather
  // than suspecting the world.
  if (now - last_poll_ > cfg_.suspect_after) {
    reset_observations();
  }
  last_poll_ = now;
  if (now - last_pub_ >= cfg_.hb_period) {
    publish(now);
  }
  std::uint64_t e = epoch();
  if (e != epoch_seen_) {
    epoch_seen_ = e;
    recompute_neighbors();
  }
  if (!neighbors_.empty() && now - last_probe_ >= cfg_.probe_period) {
    probe_one(now);
  }
}

void HeartbeatProbe::publish(TimeNs now) {
  last_pub_ = now;
  ++hb_count_;
  ++n_heartbeats_;
  SCIOTO_METRIC_CTR(me_, metrics::Ctr::Heartbeats, 1);
  auto* w = reinterpret_cast<std::uint64_t*>(rt_.seg_ptr(seg_, me_));
  std::atomic_ref<std::uint64_t>(w[kHbWord + 1])
      .store(epoch_seen_, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(w[kHbWord])
      .store(hb_count_, std::memory_order_release);
  rt_.atomic_publish_charge();
}

void HeartbeatProbe::recompute_neighbors() {
  // The next `fanout` alive ranks cyclically after me. Deterministic, so
  // the probe pattern (and with it the sim trace) replays bit-for-bit.
  neighbors_.clear();
  for (int i = 1; i < nranks_ && static_cast<int>(neighbors_.size()) <
                                     cfg_.fanout; ++i) {
    Rank c = static_cast<Rank>((me_ + i) % nranks_);
    if (alive(c)) neighbors_.push_back(c);
  }
  next_neighbor_ = 0;
  publish_view_gauges();  // membership view changed (epoch bump)
}

void HeartbeatProbe::probe_one(TimeNs now) {
  last_probe_ = now;
  Rank peer = neighbors_[next_neighbor_ % neighbors_.size()];
  ++next_neighbor_;
  ++n_probes_;
  SCIOTO_METRIC_CTR(me_, metrics::Ctr::Probes, 1);
  std::uint64_t hb = 0, ep = 0;
  pgas::OpStatus st = rt_.probe_pair_checked(seg_, peer, 0, &hb, &ep);
  if (SCIOTO_METRICS_ON()) {
    // The probe's charged round trip: wire + remote-read cost under sim,
    // actual elapsed time under threads.
    metrics::hist_record(me_, metrics::Hist::ProbeRttNs,
                         static_cast<std::uint64_t>(
                             std::max<TimeNs>(rt_.now() - now, 0)));
  }
  if (st == pgas::OpStatus::Dropped) {
    return;  // a dropped probe is just a missed heartbeat
  }
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (hb != p.hb) {
    p.hb = hb;
    p.last_change = now;
    if (p.suspected) {
      p.suspected = false;
      ++n_refutes_;
      note_suspect(peer, false);
      SCIOTO_METRIC_CTR(me_, metrics::Ctr::Refutes, 1);
      publish_view_gauges();
      SCIOTO_TRACE_EVENT(me_, trace::Ev::Refute, peer, 0, 0);
    }
    return;
  }
  TimeNs silence = now - p.last_change;
  if (!p.suspected && silence > cfg_.suspect_after) {
    p.suspected = true;
    ++n_suspects_;
    note_suspect(peer, true);
    SCIOTO_METRIC_CTR(me_, metrics::Ctr::Suspects, 1);
    publish_view_gauges();
    SCIOTO_TRACE_EVENT(me_, trace::Ev::Suspect, peer, 0, silence);
  }
  if (p.suspected && silence > cfg_.confirm_after) {
    if (confirm_dead(peer, me_)) {
      note_detect_latency(silence);
      SCIOTO_METRIC_CTR(me_, metrics::Ctr::Confirms, 1);
      SCIOTO_TRACE_EVENT(me_, trace::Ev::ConfirmDead, peer, 0, silence);
    }
    // The suspicion resolved into a death; either way the dashboard
    // should now show the peer dead, not suspect.
    note_suspect(peer, false);
    publish_view_gauges();
    // The epoch bump (ours or a concurrent winner's) retires this peer
    // from the neighbor set on the next poll.
  }
}

void HeartbeatProbe::publish_view_gauges() {
  if (!SCIOTO_METRICS_ON()) return;
  metrics::gauge_set(me_, metrics::Gauge::AliveView,
                     static_cast<std::uint64_t>(alive_count()));
  std::uint64_t suspects = 0;
  for (const Peer& p : peers_) suspects += p.suspected ? 1 : 0;
  metrics::gauge_set(me_, metrics::Gauge::SuspectsView, suspects);
}

}  // namespace scioto::detect
