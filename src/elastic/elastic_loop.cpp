#include "elastic/elastic_loop.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "base/sha1.hpp"
#include "elastic/elastic.hpp"
#include "fault/fault.hpp"
#include "metrics/monitor.hpp"
#include "sim/engine.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

namespace scioto {

namespace {

// The elastic control patch: one cache line per rank carrying the join
// and checkpoint protocol words. Cross-rank access goes through the
// runtime's failure-aware word ops; local access through atomic_ref, like
// the termination mailboxes.
struct alignas(64) ElasticCtl {
  std::uint64_t join_req = 0;     // parked rank requests admission
  std::uint64_t join_knock = 0;   // doorbell bitmask: joiners OR their rank
                                  // bit in; bit 63 = "rank >= 63, sweep"
  std::uint64_t quiesce_gen = 0;  // arrived-at ckpt generation (kPhaseOver
                                  // once this rank left the phase)
  std::uint64_t ckpt_done = 0;    // completed ckpt generation (the leader's
                                  // word doubles as the manifest gate)
  std::uint64_t ckpt_ndesc = 0;   // descriptors in this rank's last part
};

/// Doorbell bit for rank r: ranks that fit the word carry their identity
/// in the knock itself; every higher rank shares the overflow bit and is
/// found by a remote sweep of the parked tail.
constexpr std::uint64_t knock_bit(Rank r) {
  return r < 63 ? std::uint64_t{1} << r : std::uint64_t{1} << 63;
}

/// Sentinel arrival value: "this rank left the phase and will never have
/// work again" -- quiesce waits and parked ranks both key off it.
constexpr std::uint64_t kPhaseOver = ~std::uint64_t{0};

template <class T>
std::atomic_ref<T> aref(T& word) {
  return std::atomic_ref<T>(word);
}

ElasticCtl* ectl(pgas::Runtime& rt, pgas::SegId seg, Rank r) {
  return reinterpret_cast<ElasticCtl*>(rt.seg_ptr(seg, r));
}

std::string ckpt_part_path(const std::string& base, Rank r) {
  return base + ".r" + std::to_string(r);
}

constexpr char kCkptMagic[8] = {'S', 'C', 'K', 'P', 'T', '1', '\n', '\0'};

}  // namespace

ElasticLoop::ElasticLoop(TaskCollection& tc)
    : tc_(tc), rt_(tc.rt_), seg_(rt_.seg_alloc(sizeof(ElasticCtl))) {
  // Rank 0's placement-init is ordered before first use by the collection
  // constructor's trailing barrier.
  if (rt_.me() == 0) {
    for (Rank r = 0; r < rt_.nprocs(); ++r) {
      new (rt_.seg_ptr(seg_, r)) ElasticCtl();
    }
  }
}

void ElasticLoop::destroy() { rt_.seg_free(seg_); }

bool ElasticLoop::enter() {
  pump_iter_ = 0;
  if (!restore_done_) {
    restore_done_ = true;
    const std::string rpath = elastic::restore_path();
    if (!rpath.empty()) {
      // Collective: both branches are uniform (session config + a
      // per-instance flag that starts false on every rank).
      restore_from(rpath);
      rt_.barrier();  // everyone's share is queued before stealing starts
    }
  }
  if (detect::joined(rt_.me())) {
    return true;
  }
  if (!parked_wait()) {
    return false;
  }
  tc_.td_->arm_join_white();  // first vote white; see termination.hpp
  return true;
}

void ElasticLoop::leave() {
  // Phase-over sentinel: quiesce waits and parked ranks read this as
  // "this rank will never arrive at a rendezvous, and there is no work
  // left to save". Cleared only in reset(), behind the collection's
  // collective barriers, so nobody is still polling it when it goes back
  // to zero.
  aref(ectl(rt_, seg_, rt_.me())->quiesce_gen)
      .store(kPhaseOver, std::memory_order_release);
}

void ElasticLoop::reset() {
  ElasticCtl* ec = ectl(rt_, seg_, rt_.me());
  aref(ec->join_req).store(0, std::memory_order_relaxed);
  aref(ec->join_knock).store(0, std::memory_order_relaxed);
  aref(ec->quiesce_gen).store(0, std::memory_order_relaxed);
  aref(ec->ckpt_done).store(0, std::memory_order_relaxed);
  aref(ec->ckpt_ndesc).store(0, std::memory_order_relaxed);
}

LoopHook::Top ElasticLoop::top(bool idled) {
  // Admitter scan + checkpoint trigger, cadence-gated so the common path
  // costs one branch, and run while busy too -- a fleet cannot quiesce if
  // only its idle ranks look for the rendezvous. An iteration after an
  // idle one forces the pump (`idled`): idle iterations end in relax(),
  // and on a wall-clock backend that yield stretches under thread
  // starvation, so the 64-iteration gate could sit on a rung doorbell
  // longer than the rest of the phase lasts. pump_iter_ stays monotonic
  // either way -- it doubles as the poll count threads-backend ckpt
  // after= rules count.
  if ((pump_iter_++ & 63u) != 0 && !idled) {
    return Top::Go;
  }
  admit_scan();
  const std::uint64_t target = elastic::ckpt_target_gen(
      sim::current_virtual_time(),
      static_cast<int>(std::min<std::uint64_t>(pump_iter_, 1u << 30)));
  if (target > ckpt_gen_done_ && quiesce_and_checkpoint(target) &&
      elastic::halt_after_ckpt()) {
    return Top::Leave;  // restart story: snapshot durable, leave the phase
  }
  return Top::Go;
}

void ElasticLoop::spin() {
  if (tc_.hb_) {
    tc_.hb_->poll();
  }
  rt_.charge(rt_.machine().poll);
  rt_.relax();
}

bool ElasticLoop::parked_wait() {
  // Parked (NotJoined) ranks sit out the phase: no tree seat, never a
  // steal victim, never adopted. They spin here publishing heartbeats,
  // waiting for either their join rule to fire (publish the request, then
  // wait for the admitter's epoch bump) or the phase to end without them.
  const Rank me = rt_.me();
  ElasticCtl* my = ectl(rt_, seg_, me);
  const TimeNs t0 = rt_.now();
  bool requested = false;
  int polls = 0;
  bool admitted = false;
  for (;;) {
    if (SCIOTO_METRICS_ON()) {
      metrics::monitor_poll(me, rt_.now());
    }
    if (tc_.hb_) {
      tc_.hb_->poll();
    }
    ++polls;
    bool knock = false;
    if (!requested &&
        elastic::join_due(me, sim::current_virtual_time(), polls)) {
      aref(my->join_req).store(1, std::memory_order_release);
      requested = true;
      knock = true;
      SCIOTO_TRACE_EVENT(me, trace::Ev::JoinRequest, me, 0, 0);
    }
    if (requested && (knock || (polls & 7) == 0)) {
      // Ring the admitter's doorbell: OR our rank bit into its knock word
      // (and keep ringing -- the admitter can change across deaths, and a
      // bit ORed after the admitter's exchange lands in its next scan).
      // Pushing the signal keeps the admitter's scan one local exchange;
      // the remote RMWs charge only this parked rank, whose virtual time
      // is worthless anyway. The cadence is tight because parked polls
      // can be very slow under thread starvation -- a rare ring risks
      // outliving a short phase.
      std::vector<Rank> alive = detect::alive_ranks();
      if (!alive.empty()) {
        const Rank adm = alive.front();
        const std::uint64_t bit = knock_bit(me);
        for (int tries = 0; tries < 4; ++tries) {
          std::uint64_t w = 0;
          if (rt_.get_u64_with_retry(seg_, adm,
                                     offsetof(ElasticCtl, join_knock),
                                     &w) == pgas::OpStatus::Dropped) {
            break;  // next ring retries
          }
          if ((w & bit) != 0 ||
              rt_.compare_swap(seg_, adm, offsetof(ElasticCtl, join_knock),
                               static_cast<std::int64_t>(w),
                               static_cast<std::int64_t>(w | bit)) ==
                  static_cast<std::int64_t>(w)) {
            break;
          }
        }
      }
    }
    if (detect::joined(me)) {
      admitted = true;
      break;
    }
    if ((polls & 7) == 0) {
      // The phase can end while we are parked: adopt the termination
      // decision from the current tree root, or observe the phase-over
      // sentinel in its elastic word (which also covers halt_after_ckpt,
      // where no termination is ever decided).
      if (tc_.td_->poll_term_remote()) {
        break;
      }
      std::vector<Rank> alive = detect::alive_ranks();
      if (!alive.empty()) {
        std::uint64_t w = 0;
        if (rt_.get_u64_with_retry(seg_, alive.front(),
                                   offsetof(ElasticCtl, quiesce_gen),
                                   &w) != pgas::OpStatus::Dropped &&
            w == kPhaseOver) {
          break;
        }
      }
    }
    rt_.charge(rt_.machine().poll);
    rt_.relax();
  }
  tc_.stats_.time_searching += rt_.now() - t0;
  return admitted;
}

void ElasticLoop::admit_scan() {
  const Rank me = rt_.me();
  const int n = rt_.nprocs();
  bool any_parked = false;
  for (Rank r = 0; r < n; ++r) {
    if (!detect::joined(r)) {
      any_parked = true;
      break;
    }
  }
  if (!any_parked) {
    return;
  }
  // Joiners ring the doorbell of the rank they currently believe is the
  // admitter (the lowest joined-alive rank -- the same deterministic
  // choice detect::successor rests on), pushing their rank bit into its
  // knock word: they are parked, so the remote RMWs charge time nobody is
  // using. Any joined rank that finds its own word rung handles the
  // admission -- join_ranks is atomic, so this stays correct even when a
  // wall-clock view briefly disagrees about who the admitter is (a false
  // suspicion on the threads backend): wherever the knock landed, it is
  // honored. The steady-state cost for workers is one local load; the
  // knock itself names the batch, so there is nothing to sweep remotely
  // and nothing to race -- a bit ORed after the exchange below is simply
  // picked up by the next scan.
  ElasticCtl* my = ectl(rt_, seg_, me);
  if (aref(my->join_knock).load(std::memory_order_acquire) == 0) {
    return;
  }
  const std::uint64_t mask =
      aref(my->join_knock).exchange(0, std::memory_order_acq_rel);
  std::vector<Rank> batch;
  for (Rank r = 0; r < n && r < 63; ++r) {
    if ((mask & knock_bit(r)) != 0 && !detect::joined(r)) {
      batch.push_back(r);
    }
  }
  if ((mask & (std::uint64_t{1} << 63)) != 0) {
    // Overflow bit: some rank past the word's reach knocked; find it the
    // slow way (remote sweep of the high parked tail).
    for (Rank r = 63; r < n; ++r) {
      if (detect::joined(r)) {
        continue;
      }
      std::uint64_t req = 0;
      if (rt_.get_u64_with_retry(seg_, r, offsetof(ElasticCtl, join_req),
                                 &req) != pgas::OpStatus::Dropped &&
          req != 0) {
        batch.push_back(r);
      }
    }
  }
  if (batch.empty()) {
    return;
  }
  // One epoch bump admits the whole batch; every rank (joiners included)
  // resplices its termination tree and ward table on its next TD step,
  // and the joiners leave parked_wait the moment joined() flips.
  std::uint64_t e = detect::join_ranks(batch);
  for (Rank r : batch) {
    SCIOTO_TRACE_EVENT(me, trace::Ev::JoinAdmit, r, me,
                       static_cast<long long>(e));
  }
}

bool ElasticLoop::quiesce_and_checkpoint(std::uint64_t gen) {
  const Rank me = rt_.me();
  const int n = rt_.nprocs();
  const TimeNs t0 = rt_.now();
  // 1. Drain the recovery paths so everything this rank is responsible
  // for sits in its own queue before serialization: replayed steal
  // transactions, adopted dead queues, overflow-stashed tasks. Unlike the
  // idle path, adopted work here does not inherit the dead rank's knobs.
  if (fault::active() && tc_.recover(/*inherit_knobs=*/false) > 0) {
    tc_.td_->mark_self_black();
  }
  ElasticCtl* my = ectl(rt_, seg_, me);
  // 2. Publish arrival. In-flight steals need no explicit draining: a
  // steal's copy -> publish -> commit runs inside one work-loop iteration
  // with no interior safepoint or pump, so a rank standing at this
  // rendezvous has no open thief-side transaction -- and by the time ALL
  // participants stand here, every stolen chunk is committed exactly once
  // (the TSan leg of test_elastic exercises this argument).
  aref(my->quiesce_gen).store(gen, std::memory_order_release);
  // 3. Wait for every joined-alive rank to arrive. The participant set is
  // recomputed each spin: a death mid-quiesce drops that rank from the
  // set (its stranded queue is adopted on the next idle pass, so a
  // snapshot racing a death may omit that work -- restore from the next
  // generation). A phase-over sentinel or a termination decision in our
  // own mailbox aborts the snapshot: an all-white wave certifies there is
  // globally no work left to save.
  bool aborted = false;
  int participants = 1;
  for (;;) {
    participants = 1;
    bool all_in = true;
    for (Rank r = 0; r < n; ++r) {
      if (r == me || !detect::joined(r) || !detect::alive(r)) {
        continue;
      }
      std::uint64_t w = 0;
      if (rt_.get_u64_with_retry(seg_, r, offsetof(ElasticCtl, quiesce_gen),
                                 &w) == pgas::OpStatus::Dropped) {
        all_in = false;
        continue;
      }
      if (w == kPhaseOver) {
        aborted = true;
        break;
      }
      if (w < gen) {
        all_in = false;
      } else {
        ++participants;
      }
    }
    if (aborted || all_in) {
      break;
    }
    if (tc_.td_->term_seen_local()) {
      aborted = true;
      break;
    }
    spin();
  }
  ckpt_gen_done_ = gen;
  if (aborted) {
    tc_.stats_.time_searching += rt_.now() - t0;
    return false;
  }
  SCIOTO_TRACE_EVENT(me, trace::Ev::Quiesce, static_cast<long long>(gen),
                     participants, rt_.now() - t0);
  // 4. Serialize: the queue's descriptor span plus the application blob,
  // SHA1-framed so restore rejects torn or truncated part files.
  const std::string base = elastic::ckpt_path();
  SCIOTO_REQUIRE(!base.empty(),
                 "elastic: checkpoint due but no ckpt_path configured");
  std::vector<std::byte> descs;
  std::uint64_t ndesc = tc_.queue_->snapshot_local(descs);
  std::vector<std::byte> blob;
  if (tc_.ckpt_writer_) {
    blob = tc_.ckpt_writer_();
  }
  const std::string pp = ckpt_part_path(base, me);
  {
    std::ofstream f(pp, std::ios::binary | std::ios::trunc);
    SCIOTO_REQUIRE(f.good(), "elastic: cannot write part file " << pp);
    Sha1 sha;
    auto put = [&](const void* p, std::size_t nb) {
      f.write(reinterpret_cast<const char*>(p),
              static_cast<std::streamsize>(nb));
      sha.update(p, nb);
    };
    put(kCkptMagic, sizeof(kCkptMagic));
    const std::uint64_t hdr[6] = {static_cast<std::uint64_t>(me),
                                  static_cast<std::uint64_t>(n),
                                  gen,
                                  ndesc,
                                  static_cast<std::uint64_t>(tc_.slot_bytes()),
                                  static_cast<std::uint64_t>(blob.size())};
    put(hdr, sizeof(hdr));
    if (!descs.empty()) {
      put(descs.data(), descs.size());
    }
    if (!blob.empty()) {
      put(blob.data(), blob.size());
    }
    Sha1::Digest d = sha.finish();
    f.write(reinterpret_cast<const char*>(d.data()),
            static_cast<std::streamsize>(d.size()));
    f.close();
    SCIOTO_REQUIRE(f.good(), "elastic: short write on part file " << pp);
  }
  aref(my->ckpt_ndesc).store(ndesc, std::memory_order_release);
  // 5. The leader (lowest joined-alive rank) writes the manifest once
  // every part is durable, and publishes its own done word only after --
  // everyone else resumes on the leader's word, so generation g+1 can
  // never overlap generation g's files.
  std::vector<Rank> alive = detect::alive_ranks();
  const Rank leader = alive.empty() ? me : alive.front();
  if (leader != me) {
    aref(my->ckpt_done).store(gen, std::memory_order_release);
    for (;;) {
      if (!detect::alive(leader)) {
        break;  // leader died mid-manifest: this generation stays
                // incomplete on disk; the next one retries cleanly
      }
      std::uint64_t w = 0;
      if (rt_.get_u64_with_retry(seg_, leader,
                                 offsetof(ElasticCtl, ckpt_done),
                                 &w) != pgas::OpStatus::Dropped &&
          w >= gen) {
        break;
      }
      spin();
    }
  } else {
    std::vector<std::pair<Rank, std::uint64_t>> parts;
    for (;;) {
      bool all_done = true;
      parts.clear();
      parts.emplace_back(me, ndesc);
      for (Rank r = 0; r < n; ++r) {
        if (r == me || !detect::joined(r) || !detect::alive(r)) {
          continue;
        }
        std::uint64_t w = 0;
        if (rt_.get_u64_with_retry(seg_, r, offsetof(ElasticCtl, ckpt_done),
                                   &w) == pgas::OpStatus::Dropped ||
            w < gen) {
          all_done = false;
          break;
        }
        std::uint64_t nd = 0;
        rt_.get_u64_with_retry(seg_, r, offsetof(ElasticCtl, ckpt_ndesc),
                               &nd);
        parts.emplace_back(r, nd);
      }
      if (all_done) {
        break;
      }
      spin();
    }
    std::sort(parts.begin(), parts.end());
    std::ofstream mf(base, std::ios::trunc);
    SCIOTO_REQUIRE(mf.good(), "elastic: cannot write manifest " << base);
    mf << "scioto-ckpt v1\n";
    mf << "gen " << gen << "\n";
    mf << "nranks " << n << "\n";
    mf << "slot_bytes " << tc_.slot_bytes() << "\n";
    for (const auto& pr : parts) {
      mf << "part " << pr.first << " " << pr.second << "\n";
    }
    mf.close();
    SCIOTO_REQUIRE(mf.good(), "elastic: short write on manifest " << base);
    aref(my->ckpt_done).store(gen, std::memory_order_release);
    elastic::note_checkpoint();
  }
  SCIOTO_TRACE_EVENT(me, trace::Ev::Checkpoint, static_cast<long long>(gen),
                     static_cast<long long>(ndesc),
                     static_cast<long long>(descs.size() + blob.size()));
  tc_.stats_.time_searching += rt_.now() - t0;
  return true;
}

void ElasticLoop::restore_from(const std::string& path) {
  const Rank me = rt_.me();
  const int n = rt_.nprocs();
  std::ifstream mf(path);
  SCIOTO_REQUIRE(mf.good(), "elastic: cannot open ckpt manifest " << path);
  std::string word;
  std::string version;
  mf >> word >> version;
  SCIOTO_REQUIRE(word == "scioto-ckpt" && version == "v1",
                 "elastic: bad manifest header in " << path);
  // Every field is checked: a malformed value must fail here by name,
  // not end the parse early and silently drop the remaining parts.
  auto field = [&](const std::string& key) {
    std::uint64_t v = 0;
    SCIOTO_REQUIRE(mf >> v, "elastic: manifest " << path << ": '" << key
                                                 << "' needs a numeric value");
    return v;
  };
  std::uint64_t gen = 0;
  std::uint64_t src_n = 0;
  std::uint64_t src_slot = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> parts;  // rank, nd
  while (mf >> word) {
    if (word == "gen") {
      gen = field(word);
    } else if (word == "nranks") {
      src_n = field(word);
    } else if (word == "slot_bytes") {
      src_slot = field(word);
    } else if (word == "part") {
      const std::uint64_t r = field("part rank");
      parts.emplace_back(r, field("part count"));
    } else {
      SCIOTO_REQUIRE(false,
                     "elastic: unknown manifest key '" << word << "' in "
                                                       << path);
    }
  }
  SCIOTO_REQUIRE(src_n > 0, "elastic: manifest " << path << " has no nranks");
  {
    auto sorted = parts;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      SCIOTO_REQUIRE(sorted[i].first < src_n,
                     "elastic: manifest " << path << ": part rank "
                                          << sorted[i].first
                                          << " outside nranks " << src_n);
      SCIOTO_REQUIRE(i == 0 || sorted[i].first != sorted[i - 1].first,
                     "elastic: manifest " << path << ": duplicate part rank "
                                          << sorted[i].first);
    }
  }
  SCIOTO_REQUIRE(src_slot == tc_.slot_bytes(),
                 "elastic: ckpt slot_bytes "
                     << src_slot << " does not match this collection's "
                     << tc_.slot_bytes()
                     << " (task_sz must agree across save/restore)");
  // Deal descriptors round-robin over the *joined* ranks of this fleet:
  // a snapshot taken on one fleet size restores onto another, and parked
  // ranks receive nothing.
  std::vector<Rank> targets;
  for (Rank r = 0; r < n; ++r) {
    if (detect::joined(r)) {
      targets.push_back(r);
    }
  }
  SCIOTO_REQUIRE(!targets.empty(), "elastic: no joined ranks to restore onto");
  std::uint64_t g = 0;  // global descriptor index across parts
  std::uint64_t restored = 0;
  std::uint64_t bytes = 0;
  std::vector<char> buf;
  for (std::size_t pi = 0; pi < parts.size(); ++pi) {
    const Rank src = static_cast<Rank>(parts[pi].first);
    const std::uint64_t nd = parts[pi].second;
    const std::string pp = ckpt_part_path(path, src);
    std::ifstream pf(pp, std::ios::binary);
    SCIOTO_REQUIRE(pf.good(), "elastic: cannot open part file " << pp);
    pf.seekg(0, std::ios::end);
    const std::streamoff sz = pf.tellg();
    pf.seekg(0);
    SCIOTO_REQUIRE(
        sz >= static_cast<std::streamoff>(sizeof(kCkptMagic) +
                                          6 * sizeof(std::uint64_t) +
                                          Sha1::kDigestBytes),
        "elastic: truncated part file " << pp);
    buf.resize(static_cast<std::size_t>(sz));
    pf.read(buf.data(), sz);
    SCIOTO_REQUIRE(pf.good(), "elastic: short read on part file " << pp);
    const std::size_t body = buf.size() - Sha1::kDigestBytes;
    Sha1::Digest d = Sha1::hash(buf.data(), body);
    SCIOTO_REQUIRE(
        std::memcmp(d.data(), buf.data() + body, Sha1::kDigestBytes) == 0,
        "elastic: SHA1 mismatch on part file " << pp);
    SCIOTO_REQUIRE(
        std::memcmp(buf.data(), kCkptMagic, sizeof(kCkptMagic)) == 0,
        "elastic: bad magic in part file " << pp);
    std::uint64_t hdr[6];
    std::memcpy(hdr, buf.data() + sizeof(kCkptMagic), sizeof(hdr));
    SCIOTO_REQUIRE(hdr[0] == parts[pi].first && hdr[1] == src_n &&
                       hdr[2] == gen && hdr[3] == nd && hdr[4] == src_slot,
                   "elastic: part file " << pp
                                         << " does not match the manifest");
    const std::size_t desc_off = sizeof(kCkptMagic) + sizeof(hdr);
    const std::uint64_t blob_bytes = hdr[5];
    // Division, not nd * src_slot: a forged count must not wrap the sum
    // into a plausible size and send the reads below past the buffer.
    const std::uint64_t payload = buf.size() - desc_off - Sha1::kDigestBytes;
    SCIOTO_REQUIRE(nd <= payload / src_slot &&
                       blob_bytes == payload - nd * src_slot,
                   "elastic: part file " << pp << " has inconsistent sizes ("
                                         << nd << " descriptors of "
                                         << src_slot << " B + " << blob_bytes
                                         << " B blob in " << payload
                                         << " B)");
    for (std::uint64_t j = 0; j < nd; ++j, ++g) {
      if (targets[g % targets.size()] != me) {
        continue;
      }
      const std::byte* desc = reinterpret_cast<const std::byte*>(
          buf.data() + desc_off + j * src_slot);
      if (tc_.lineage_off_ != 0 && src != me) {
        // The redeal moved this descriptor off the rank that saved it: a
        // migration like any steal, stamped the same way so the analyzer
        // can follow the chain across the checkpoint boundary. (The
        // manifest's slot_bytes check above already rejects mixing
        // lineage-on and lineage-off fleets across a save/restore.)
        std::memcpy(tc_.scratch_.data(), desc, tc_.slot_bytes());
        trace::lineage::LineageRec rec;
        std::memcpy(&rec, tc_.scratch_.data() + tc_.lineage_off_, sizeof(rec));
        rec.hops += 1;
        std::memcpy(tc_.scratch_.data() + tc_.lineage_off_, &rec, sizeof(rec));
        SCIOTO_TRACE_EVENT(me, trace::Ev::MigrateEdge, src, rec.hops,
                           rec.id);
        desc = tc_.scratch_.data();
      }
      bool ok = tc_.queue_->push_local(desc, kAffinityHigh);
      SCIOTO_REQUIRE(ok, "elastic: local queue overflow during restore");
      ++restored;
      bytes += src_slot;
    }
    if (blob_bytes > 0 &&
        targets[static_cast<std::uint64_t>(pi) % targets.size()] == me &&
        tc_.ckpt_reader_) {
      const auto* bp = reinterpret_cast<const std::byte*>(
          buf.data() + desc_off + nd * src_slot);
      tc_.ckpt_reader_(src, std::vector<std::byte>(bp, bp + blob_bytes));
      bytes += blob_bytes;
    }
  }
  if (restored > 0) {
    // Restored work re-materialized without a steal: the first vote must
    // be black, or a wave could conclude all-white over it.
    tc_.td_->mark_self_black();
    tc_.queue_->release_maybe();
  }
  SCIOTO_TRACE_EVENT(me, trace::Ev::Restore,
                     static_cast<long long>(parts.size()),
                     static_cast<long long>(restored),
                     static_cast<long long>(bytes));
  if (me == 0) {
    elastic::note_restore();
  }
}

}  // namespace scioto
