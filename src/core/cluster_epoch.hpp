// hcsim — per-cluster epoch engine: one backend's scheduling resources.
//
// Every backend has the same three resources (Section 4: the copy scheme
// "requires its own scheduling resources"): issue slots, an issue queue and
// copy ports. The two slot ledgers are plain SlotSchedules
// (util/slot_schedule.hpp), the same class that backs the cache ports.
// What ClusterEpoch adds is its own:
//
//   * The issue-queue ledger, kept per *cycle bucket* (every departure tick
//     is cycle-aligned — it comes from an issue-slot reservation), not per
//     tick: half the ring traffic at the wide clock. Two epoch cursors —
//     `qdrained_` (buckets below are retired) and `qnext_` (earliest
//     occupied bucket) — make the per-µop drain a pair of compares; bucket
//     scans happen once per epoch advance, not once per probe.
//   * dispatch(), which fuses the earliest_dispatch → reserve → add triple
//     into a single call so the whole per-µop resource interaction touches
//     one object.
//
// The queue ledger is tick-exact with the per-tick QueueTracker by
// construction — the same queue-full walk with the same (answer, slack)
// amortization and the same "already departed" add guard — and enforced by
// the differential fuzz in tests/test_cluster_epoch.cpp, whose oracle is the
// test-side QueueTracker (tests/queue_tracker.hpp), and by the golden
// sweeps captured before the fusion.
#pragma once

#include <vector>

#include "util/log.hpp"
#include "util/slot_schedule.hpp"
#include "util/types.hpp"

namespace hcsim {

class ClusterEpoch {
 public:
  ClusterEpoch(unsigned issue_width, unsigned queue_size, unsigned copy_ports,
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
    const Tick issue = issue_.reserve(ready);
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
    const u64 c = clock_.to_cycle(issue);
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

  /// Reserve a copy port (SlotSchedule::reserve on the copy ledger).
  Tick reserve_copy(Tick ready) { return copy_.reserve(ready); }

  /// NREADY range probe over the issue slots (SlotSchedule::free_slot_in).
  SlotRangeProbe free_issue_slot_in(Tick from, Tick until) const {
    return issue_.free_slot_in(from, until);
  }

  unsigned queue_size() const { return size_; }
  u64 issue_reservations() const { return issue_.reservations(); }

 private:
  /// Initial queue-ledger span in cycle buckets (power of two, multiple of
  /// 64); grows by doubling. Departures spread over at most a main-memory
  /// round trip, so 16k cycles is generous.
  static constexpr u64 kInitialQueueCycles = u64{1} << 14;
  /// "No occupied bucket" sentinel; compares greater than any real cycle.
  static constexpr u64 kNoCycle = ~u64{0};

  /// Retire every queue entry departing below head_tick_ (the deferred
  /// drain). Requires head_tick_ > 0 — both callers bump it first. Buckets
  /// are only walked when the drain cursor actually crosses occupied cycles.
  void catch_up() {
    const u64 tc = clock_.to_cycle(head_tick_ - 1) + 1;  // retire cycles < tc
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
  u64 next_occupied(u64 from) const {
    const u64 c = ring_scan(qocc_, qmask_, from, qtail_, /*find_set=*/true);
    return c < qtail_ ? c : kNoCycle;
  }

  // --- hot header (shared by every per-µop probe) -------------------------
  CycleClock clock_;
  unsigned size_;          // queue capacity
  u64 live_ = 0;           // entries currently in the queue
  u64 qdrained_ = 0;       // buckets with cycle < qdrained_ are retired
  u64 qnext_ = kNoCycle;   // earliest occupied bucket cycle
  Tick head_tick_ = 0;     // every departure tick < head_tick_ is drained
  u64 qtail_ = 0;          // one past the largest occupied bucket cycle
  u64 qmask_ = kInitialQueueCycles - 1;

  // Queue-full answer cache, exactly QueueTracker's (full_at_, full_slack_)
  // amortization in the cycle domain. Mutable: invisible to query results.
  mutable u64 full_at_cycle_ = 0;
  mutable i64 full_slack_ = -1;

  std::vector<u32> qring_;  // per-cycle-bucket departure counts
  std::vector<u64> qocc_;   // bitmap: bucket non-empty

  SlotSchedule issue_;
  SlotSchedule copy_;
};

}  // namespace hcsim
