#include "sim/engine.hpp"

#include <cmath>
#include <cstdio>

#include "base/error.hpp"
#include "base/log.hpp"

namespace scioto::sim {

namespace {
thread_local Engine* g_current_engine = nullptr;

/// Log-context provider: when a fiber is executing, logs carry its rank
/// and virtual clock so interleaved sim output is orderable.
bool sim_log_context(int& rank, long long& time_ns) {
  Engine* e = g_current_engine;
  if (e == nullptr || e->current_rank() == kNoRank) {
    return false;
  }
  rank = e->current_rank();
  time_ns = e->now();
  return true;
}

}  // namespace

Engine* current_engine() { return g_current_engine; }

TimeNs current_virtual_time() {
  Engine* e = g_current_engine;
  if (e == nullptr || e->current_rank() == kNoRank) {
    return -1;
  }
  return e->now();
}

Engine::Engine(Config cfg, std::function<void(Rank)> rank_main)
    : cfg_(std::move(cfg)), rank_main_(std::move(rank_main)) {
  log_register_context(&sim_log_context);
  SCIOTO_REQUIRE(cfg_.nranks >= 1, "nranks must be >= 1, got " << cfg_.nranks);
  ranks_.resize(static_cast<std::size_t>(cfg_.nranks));
  cpu_scale_.resize(static_cast<std::size_t>(cfg_.nranks));
  rma_busy_until_.assign(static_cast<std::size_t>(cfg_.nranks), 0);
  heap_.assign(static_cast<std::size_t>(cfg_.nranks) + 3, kNoKey);
  pos_.assign(static_cast<std::size_t>(cfg_.nranks), -1);
  for (Rank r = 0; r < cfg_.nranks; ++r) {
    cpu_scale_[static_cast<std::size_t>(r)] =
        cfg_.machine.cpu_scale(r, cfg_.nranks);
    ranks_[static_cast<std::size_t>(r)].fiber = std::make_unique<Fiber>(
        [this, r] { rank_main_(r); }, cfg_.stack_bytes);
  }
  unfinished_ = cfg_.nranks;
}

Engine::~Engine() = default;

Engine::RankState& Engine::cur() {
  SCIOTO_CHECK(current_ != kNoRank);
  return ranks_[static_cast<std::size_t>(current_)];
}

const Engine::RankState& Engine::cur() const {
  SCIOTO_CHECK(current_ != kNoRank);
  return ranks_[static_cast<std::size_t>(current_)];
}

TimeNs Engine::now() const { return cur().clock; }

TimeNs Engine::now(Rank r) const {
  return ranks_[static_cast<std::size_t>(r)].clock;
}

TimeNs Engine::max_clock() const {
  TimeNs m = 0;
  for (const auto& st : ranks_) {
    m = std::max(m, st.clock);
  }
  return m;
}

void Engine::advance_unsynced(TimeNs dt) {
  SCIOTO_CHECK(dt >= 0);
  cur().clock += dt;
}

TimeNs Engine::scaled(TimeNs dt) const {
  return static_cast<TimeNs>(
      std::llround(static_cast<double>(dt) *
                   cpu_scale_[static_cast<std::size_t>(current_)]));
}

void Engine::charge(TimeNs dt) {
  SCIOTO_CHECK(dt >= 0);
  RankState& st = cur();
  st.clock += scaled(dt);
  if (st.clock - st.last_sync_clock > cfg_.machine.sync_quantum) {
    sync();
  }
}

void Engine::advance_to(TimeNs t) {
  RankState& st = cur();
  if (t > st.clock) {
    st.clock = t;
  }
}

void Engine::sift_up(std::size_t i, Key k) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    const Key p = heap_[parent];
    if (!(k < p)) break;
    heap_[i] = p;
    pos_[static_cast<std::size_t>(rank_of(p))] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = k;
  pos_[static_cast<std::size_t>(rank_of(k))] = static_cast<std::int32_t>(i);
}

void Engine::sift_down(std::size_t i, Key k) {
  for (;;) {
    const std::size_t c = 4 * i + 1;
    if (c >= size_) break;
    // Least of the 4 children, selected by value without branches; slots
    // past the end hold kNoKey.
    const Key* h = &heap_[c];
    const Key a = h[1] < h[0] ? h[1] : h[0];
    const Key b = h[3] < h[2] ? h[3] : h[2];
    const Key least = b < a ? b : a;
    if (!(least < k)) break;
    // A child below k is a real entry, so pos_ has its slot.
    std::int32_t& at = pos_[static_cast<std::size_t>(rank_of(least))];
    heap_[i] = least;
    const auto next = static_cast<std::size_t>(at);
    at = static_cast<std::int32_t>(i);
    i = next;
  }
  heap_[i] = k;
  pos_[static_cast<std::size_t>(rank_of(k))] = static_cast<std::int32_t>(i);
}

void Engine::enqueue(Rank r, TimeNs clock) {
  const Key k = key(clock, r);
  const std::int32_t at = pos_[static_cast<std::size_t>(r)];
  if (at < 0) {
    sift_up(size_++, k);
  } else if (k < heap_[static_cast<std::size_t>(at)]) {
    sift_up(static_cast<std::size_t>(at), k);
  } else {
    sift_down(static_cast<std::size_t>(at), k);
  }
}

void Engine::dequeue(Rank r) {
  const std::int32_t at = pos_[static_cast<std::size_t>(r)];
  SCIOTO_CHECK(at >= 0);
  pos_[static_cast<std::size_t>(r)] = -1;
  const Key last = heap_[--size_];
  heap_[size_] = kNoKey;
  const auto i = static_cast<std::size_t>(at);
  if (i == size_) return;
  if (last < heap_[i]) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void Engine::sync() {
  RankState& st = cur();
  enqueue(current_, st.clock);
  st.fiber->yield();
  st.last_sync_clock = st.clock;
}

Engine::Slept Engine::sleep(TimeNs delta, std::int64_t max_polls) {
  RankState& st = cur();
  // The first skipped poll, at c0, must sort after this segment's own key
  // (the clock of top_): that holds only if the clock moved since resume.
  if (max_polls < 1 || delta < 1 || delta > cfg_.machine.sync_quantum ||
      st.clock <= clock_of(top_)) {
    sync();
    return {};
  }
  st.asleep = true;
  st.woken = false;
  st.sleep_c0 = st.clock;
  st.sleep_delta = delta;
  st.sleep_polls =
      max_polls > (INT64_MAX - st.clock) / delta ? kForever : max_polls;
  if (st.sleep_polls != kForever) {
    enqueue(current_, st.clock + st.sleep_polls * delta);
  } else {
    dequeue(current_);
  }
  st.fiber->yield();
  // run() or wake() moved the clock to the poll the rank resumes at.
  st.last_sync_clock = st.clock;
  return {(st.clock - st.sleep_c0) / delta, !st.woken};
}

void Engine::wake(Rank r) {
  RankState& st = ranks_[static_cast<std::size_t>(r)];
  if (!st.asleep) {
    return;
  }
  st.asleep = false;
  st.woken = true;
  // Smallest k with (c0 + k * delta, r) above every key resumed so far.
  const TimeNs c0 = st.sleep_c0;
  const TimeNs d = st.sleep_delta;
  std::int64_t k = 0;
  if (key(c0, r) < top_) {
    k = (clock_of(top_) - c0) / d;
    if (key(c0 + k * d, r) < top_) {
      ++k;
    }
  }
  // The deadline entry is always above every resumed key, so k can reach
  // the deadline but never pass it; at the deadline that entry serves.
  SCIOTO_CHECK(k <= st.sleep_polls);
  st.clock = c0 + k * d;
  if (k < st.sleep_polls) {
    enqueue(r, st.clock);  // decrease-key, or insert with no deadline
  }
}

void Engine::block() {
  RankState& st = cur();
  st.blocked = true;
  dequeue(current_);
  st.fiber->yield();
  // unblock() cleared `blocked` and advanced the clock before rescheduling.
  st.last_sync_clock = st.clock;
}

void Engine::unblock(Rank r, TimeNs at) {
  RankState& st = ranks_[static_cast<std::size_t>(r)];
  SCIOTO_CHECK_MSG(st.blocked && !st.finished,
                   "unblock of rank " << r << " that is not blocked");
  st.blocked = false;
  if (at > st.clock) {
    st.clock = at;
  }
  enqueue(r, st.clock);
}

void Engine::run() {
  SCIOTO_CHECK(!running_);
  running_ = true;
  Engine* prev = g_current_engine;
  g_current_engine = this;

  // Keys (0, r) in rank order already form a heap.
  for (Rank r = 0; r < cfg_.nranks; ++r) {
    heap_[static_cast<std::size_t>(r)] = key(0, r);
    pos_[static_cast<std::size_t>(r)] = r;
  }
  size_ = static_cast<std::size_t>(cfg_.nranks);

  while (size_ > 0) {
    // The root stays in place: the fiber re-keys or removes it.
    const Key k = heap_[0];
    const Rank r = rank_of(k);
    RankState& st = ranks_[static_cast<std::size_t>(r)];
    SCIOTO_CHECK(!st.finished && !st.blocked);
    if (st.asleep) {
      // Deadline: nobody woke the sleeper, so it skipped every poll.
      st.asleep = false;
      st.clock = clock_of(k);
    }
    if (k > top_) {
      top_ = k;
    }
    current_ = r;
    ++resumes_;
    st.fiber->resume();
    current_ = kNoRank;
    if (st.fiber->finished()) {
      dequeue(r);
      st.finished = true;
      --unfinished_;
      // A rank that exits (e.g. killed by fault injection) may have been
      // the last participant a pending barrier was waiting for: the
      // barrier counts `unfinished_` ranks, so recheck it now or the
      // survivors blocked inside it would never be released.
      maybe_release_barrier();
    }
  }

  g_current_engine = prev;
  running_ = false;
  if (unfinished_ > 0) {
    report_deadlock();
  }
}

void Engine::report_deadlock() {
  std::fprintf(stderr,
               "scioto sim deadlock: %d unfinished rank(s), none runnable\n",
               unfinished_);
  for (Rank r = 0; r < cfg_.nranks; ++r) {
    const RankState& st = ranks_[static_cast<std::size_t>(r)];
    std::fprintf(stderr,
                 "  rank %d: clock=%lld ns blocked=%d finished=%d "
                 "ev_waiting=%d\n",
                 r, static_cast<long long>(st.clock), st.blocked, st.finished,
                 st.ev_waiting);
    if (st.asleep) {
      std::fprintf(stderr, "    asleep: c0=%lld ns delta=%lld ns deadline=",
                   static_cast<long long>(st.sleep_c0),
                   static_cast<long long>(st.sleep_delta));
      if (st.sleep_polls == kForever) {
        std::fprintf(stderr, "none\n");
      } else {
        std::fprintf(stderr, "%lld polls\n",
                     static_cast<long long>(st.sleep_polls));
      }
    }
  }
  for (std::size_t i = 0; i < locks_.size(); ++i) {
    if (locks_[i].held || !locks_[i].waiters.empty()) {
      std::fprintf(stderr, "  lock %zu: holder=%d waiters=%zu\n", i,
                   locks_[i].holder, locks_[i].waiters.size());
    }
  }
  std::fflush(stderr);
  SCIOTO_CHECK_MSG(false, "simulation deadlock");
  std::abort();  // unreachable; fail() aborts
}

int Engine::lock_create() {
  locks_.emplace_back();
  return static_cast<int>(locks_.size() - 1);
}

void Engine::lock_acquire(int id) {
  sync();
  LockState& l = locks_[static_cast<std::size_t>(id)];
  if (!l.held) {
    l.held = true;
    l.holder = current_;
    return;
  }
  SCIOTO_CHECK_MSG(l.holder != current_,
                   "rank " << current_ << " re-acquiring lock " << id);
  l.waiters.push_back(current_);
  block();
  // Direct handoff: the releaser transferred ownership before waking us.
  SCIOTO_CHECK(l.holder == current_);
}

void Engine::lock_release(int id) {
  LockState& l = locks_[static_cast<std::size_t>(id)];
  SCIOTO_CHECK_MSG(l.held && l.holder == current_,
                   "rank " << current_ << " releasing lock " << id
                           << " it does not hold");
  if (l.waiters.empty()) {
    l.held = false;
    l.holder = kNoRank;
    return;
  }
  Rank next = l.waiters.front();
  l.waiters.pop_front();
  l.holder = next;
  // The waiter inherits the releaser's clock: this is the queueing delay
  // that models contention on a shared queue's lock.
  unblock(next, cur().clock);
}

bool Engine::lock_held(int id) const {
  return locks_[static_cast<std::size_t>(id)].held;
}

void Engine::idle_wait() {
  sync();
  RankState& st = cur();
  if (st.ev_pending) {
    st.ev_pending = false;
    return;
  }
  st.ev_waiting = true;
  block();
  st.ev_waiting = false;
  st.ev_pending = false;
}

void Engine::notify(Rank r, TimeNs deliver_at) {
  RankState& st = ranks_[static_cast<std::size_t>(r)];
  if (st.finished) {
    return;
  }
  st.ev_pending = true;
  if (st.ev_waiting) {
    // Clear the flag here, not on resume: a second notify arriving before
    // the woken fiber runs again must not wake it twice.
    st.ev_waiting = false;
    unblock(r, deliver_at);
  }
}

TimeNs Engine::rma_occupy(Rank target, TimeNs arrival_offset, TimeNs service) {
  TimeNs arrival = cur().clock + arrival_offset;
  TimeNs& busy = rma_busy_until_[static_cast<std::size_t>(target)];
  TimeNs start = std::max(arrival, busy);
  busy = start + service;
  return busy;
}

void Engine::barrier(TimeNs total_cost) {
  sync();
  BarrierState& b = barrier_;
  b.max_arrival = std::max(b.max_arrival, cur().clock);
  b.max_cost = std::max(b.max_cost, total_cost);
  ++b.arrived;
  if (b.arrived < unfinished_) {
    b.waiting.push_back(current_);
    block();
    return;
  }
  // Last arriver releases everyone at max(arrival) + cost.
  TimeNs release = release_barrier();
  advance_to(release);
}

TimeNs Engine::release_barrier() {
  BarrierState& b = barrier_;
  TimeNs release = b.max_arrival + b.max_cost;
  for (Rank r : b.waiting) {
    unblock(r, release);
  }
  b.waiting.clear();
  b.arrived = 0;
  b.max_arrival = 0;
  b.max_cost = 0;
  return release;
}

void Engine::maybe_release_barrier() {
  if (barrier_.arrived > 0 && barrier_.arrived >= unfinished_) {
    release_barrier();
  }
}

}  // namespace scioto::sim
