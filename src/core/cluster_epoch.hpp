// hcsim — per-cluster epoch engine: the fused cluster resource model.
//
// The pipeline used to probe three separate structures per dynamic µop and
// cluster — a SlotSchedule for issue slots, a QueueTracker for issue-queue
// occupancy, and a second SlotSchedule for copy ports — each behind its own
// heap allocation, each re-deriving the tick→cycle conversion, and each
// paying its own drain/GC bookkeeping per probe. ClusterEpoch fuses all
// three into one cluster-local engine that processes time as a sequence of
// cycle *epochs*:
//
//   * Issue slots keep the ring-of-per-cycle-counts representation, but the
//     steady-state window slide (one cycle of GC per frontier advance) is
//     open-coded in the reserve fast path instead of a call.
//   * Queue occupancy is ledgered per *cycle bucket* (every departure tick
//     is cycle-aligned — it comes from an issue-slot reservation), not per
//     tick: half the ring traffic at the wide clock. Two epoch cursors —
//     `qdrained_` (buckets below are retired) and `qnext_` (earliest
//     occupied bucket) — make the per-µop drain a pair of compares; bucket
//     scans happen once per epoch advance, not once per probe.
//   * dispatch() fuses the earliest_dispatch → reserve → add triple into a
//     single call so the whole per-µop resource interaction touches one
//     object whose hot header shares a cache line.
//
// Semantics are tick-exact with the separate structures by construction —
// the same window length, the same GC-horizon truncation, the same
// queue-full walk with the same (answer, slack) amortization, the same
// "already departed" add guard — and enforced by the differential fuzz in
// tests/test_cluster_epoch.cpp, whose oracle is SlotSchedule plus the
// test-side QueueTracker (tests/queue_tracker.hpp), and by the golden
// sweeps captured before the fusion.
#pragma once

#include <bit>
#include <vector>

#include "util/log.hpp"
#include "util/slot_schedule.hpp"
#include "util/types.hpp"

namespace hcsim {

class ClusterEpoch {
 public:
  /// An engine with no storage; init() before use. (Pipeline embeds one per
  /// backend by value.)
  ClusterEpoch() = default;

  /// `copy_ports` == 0 means the cluster schedules no copies (FP).
  void init(unsigned issue_width, unsigned queue_size, unsigned copy_ports,
            Tick cycle_ticks);

  /// Fused per-µop resource interaction, equivalent to the separate-structure
  /// sequence
  ///   qdisp = queue.earliest_dispatch(from);
  ///   ready = max(src_ready, qdisp);
  ///   issue = slots.reserve(ready);
  ///   queue.add(issue);
  struct Dispatched {
    Tick qdisp;  // earliest tick the queue admits an entry (>= from)
    Tick ready;  // max(src_ready, qdisp)
    Tick issue;  // start of the cycle the µop issues in
  };
  Dispatched dispatch(Tick from, Tick src_ready) {
    const Tick qdisp = earliest_dispatch(from);
    const Tick ready = src_ready > qdisp ? src_ready : qdisp;
    const Tick issue = reserve_ring(issue_, ready);
    queue_add(issue);
    return {qdisp, ready, issue};
  }

  /// Earliest tick >= `t` at which the issue queue has a free entry. Pure
  /// query apart from the lazy drain (exactly QueueTracker semantics).
  ///
  /// The drain is deferred past laziness: `live_` is allowed to go stale
  /// *high* (departed entries still counted), because the answer is `t`
  /// whenever even the stale count is below capacity — the true occupancy
  /// can only be lower. Only when the stale count reaches capacity does the
  /// bucket walk run (catch_up), so the non-saturated common case is one
  /// compare. head_tick_ still advances eagerly: it gates queue_add's
  /// already-departed drop, which must match the reference model exactly.
  Tick earliest_dispatch(Tick t) {
    if (t + 1 > head_tick_) head_tick_ = t + 1;
    if (live_ < size_) [[likely]] return t;
    catch_up();
    if (live_ < size_) return t;
    return earliest_dispatch_full();
  }

  /// Record a dispatched µop departing the queue at `issue` (cycle-aligned
  /// — it comes from an issue-slot reservation).
  void queue_add(Tick issue) {
    // Same guard as QueueTracker::add — an entry departing at or below the
    // drain head already "left" the queue.
    if (issue < head_tick_) [[unlikely]] return;
    const u64 c = to_cycle(issue);
    if (c - qdrained_ > qmask_) [[unlikely]] grow_queue(c);
    const u64 pos = c & qmask_;
    if (qring_[pos]++ == 0) qocc_[pos >> 6] |= u64{1} << (pos & 63);
    ++live_;
    qtail_ = c >= qtail_ ? c + 1 : qtail_;
    qnext_ = c < qnext_ ? c : qnext_;
    full_slack_ -= c > full_at_cycle_;
  }

  /// Queue occupancy as seen at tick `t` (after the lazy drain). Unlike
  /// earliest_dispatch this needs the exact count, so it always catches up.
  unsigned occupancy(Tick t) {
    if (t + 1 > head_tick_) head_tick_ = t + 1;
    catch_up();
    return static_cast<unsigned>(live_);
  }

  /// Reserve a copy port: identical to SlotSchedule::reserve on the copy
  /// ring. Only valid when constructed with copy_ports > 0.
  Tick reserve_copy(Tick ready) { return reserve_ring(copy_, ready); }

  /// NREADY range probe over the *issue* slots: identical semantics
  /// (including the GC-horizon truncation) to SlotSchedule::free_slot_in.
  SlotRangeProbe free_issue_slot_in(Tick from, Tick until) const;

  unsigned queue_size() const { return size_; }
  u64 issue_reservations() const { return issue_.reservations; }

 private:
  /// Sliding-window length of a slot ring in cycles; must match
  /// SlotSchedule::kWindowCycles so GC-horizon truncation is identical.
  static constexpr u64 kWindowCycles = kSlotWindowCycles;
  static constexpr u64 kMask = kWindowCycles - 1;
  /// Initial queue-ledger span in cycle buckets (power of two, multiple of
  /// 64); grows by doubling. Departures spread over at most a main-memory
  /// round trip, so 16k cycles is generous.
  static constexpr u64 kInitialQueueCycles = u64{1} << 14;
  /// "No occupied bucket" sentinel; compares greater than any real cycle.
  static constexpr u64 kNoCycle = ~u64{0};

  /// Issue-slot / copy-port ledger: ring of per-cycle reservation counts
  /// with a full-cycle bitmap, exactly SlotSchedule's representation.
  struct SlotRing {
    std::vector<u8> used;   // per-cycle reservation counts (ring)
    std::vector<u64> full;  // bitmap: cycle saturated (used == width)
    u64 base = 0;           // GC horizon: lowest cycle still tracked
    u64 frontier = 0;       // highest cycle ever reserved
    u64 reservations = 0;
    unsigned width = 0;
  };

  u64 to_cycle(Tick t) const { return pow2_ ? (t >> shift_) : (t / cycle_ticks_); }
  Tick from_cycle(u64 c) const { return pow2_ ? (c << shift_) : (c * cycle_ticks_); }

  /// SlotSchedule::reserve, open-coded: next-cycle fast path, bitmap scan
  /// fallback, and the steady-state single-cycle window slide inline.
  Tick reserve_ring(SlotRing& r, Tick earliest) {
    u64 cycle = to_cycle(earliest);
    if (cycle < r.base) cycle = r.base;
    if (cycle <= r.frontier && r.used[cycle & kMask] >= r.width) {
      const u64 nxt = cycle + 1;
      if (nxt > r.frontier || r.used[nxt & kMask] < r.width)
        cycle = nxt;
      else
        cycle = first_nonfull(r, nxt);
    }
    if (cycle >= r.base + kWindowCycles) [[unlikely]] {
      // In steady state the frontier advances one cycle at a time, so the
      // window slides by one: open-code that step, fall back for jumps.
      if (cycle == r.base + kWindowCycles) {
        r.used[r.base & kMask] = 0;
        r.full[(r.base & kMask) >> 6] &= ~(u64{1} << (r.base & 63));
        ++r.base;
      } else {
        gc_ring(r, cycle - kWindowCycles + 1);
      }
    }
    u8& used = r.used[cycle & kMask];
    ++used;
    if (used == r.width) r.full[(cycle & kMask) >> 6] |= u64{1} << (cycle & 63);
    if (cycle > r.frontier) r.frontier = cycle;
    ++r.reservations;
    return from_cycle(cycle);
  }

  /// Retire every queue entry departing below head_tick_ (the deferred
  /// drain). Requires head_tick_ > 0 — both callers bump it first. Buckets
  /// are only walked when the drain cursor actually crosses occupied cycles.
  void catch_up() {
    const u64 tc = to_cycle(head_tick_ - 1) + 1;  // retire cycles < tc
    if (tc <= qdrained_) return;
    if (tc <= qnext_) {  // nothing occupied below the target epoch
      qdrained_ = tc;
      return;
    }
    drain_cycles(tc);
  }

  void drain_cycles(u64 target_cycle);
  Tick earliest_dispatch_full() const;  // the queue-full walk
  void grow_queue(u64 cycle);
  /// First occupied bucket cycle >= `from`; kNoCycle if none below qtail_.
  u64 next_occupied(u64 from) const;
  u64 first_nonfull(const SlotRing& r, u64 cycle) const;
  void gc_ring(SlotRing& r, u64 new_base);

  // --- hot header (shared by every per-µop probe) -------------------------
  Tick cycle_ticks_ = 1;
  bool pow2_ = true;
  unsigned shift_ = 0;
  unsigned size_ = 0;      // queue capacity
  u64 live_ = 0;           // entries currently in the queue
  u64 qdrained_ = 0;       // buckets with cycle < qdrained_ are retired
  u64 qnext_ = kNoCycle;   // earliest occupied bucket cycle
  Tick head_tick_ = 0;     // every departure tick < head_tick_ is drained
  u64 qtail_ = 0;          // one past the largest occupied bucket cycle
  u64 qmask_ = 0;

  // Queue-full answer cache, exactly QueueTracker's (full_at_, full_slack_)
  // amortization in the cycle domain. Mutable: invisible to query results.
  mutable u64 full_at_cycle_ = 0;
  mutable i64 full_slack_ = -1;

  std::vector<u32> qring_;  // per-cycle-bucket departure counts
  std::vector<u64> qocc_;   // bitmap: bucket non-empty

  SlotRing issue_;
  SlotRing copy_;
};

}  // namespace hcsim
