// hcsim — slot ledgers: how many slots each cycle of a resource has used.
//
// The pipeline processes µops in program order but µops use resources out
// of order; a slot ledger tracks how many slots each cycle has consumed, so
// contention is modeled without a tick-by-tick wakeup/select loop.
//
// SlotSchedule is the one out-of-order slot ledger. Every backend's issue
// slots and copy ports (held by its ClusterEpoch, core/cluster_epoch.hpp)
// and the dl0/ul1 cache ports (mem/memory_system.hpp) are SlotSchedules.
// MonotonicSlots is its two-word special case for the in-order fetch,
// rename and commit stages. Both, and ClusterEpoch's queue ledger, convert
// ticks to cycles through one CycleClock, and both ring ledgers scan their
// bitmaps through one ring_scan.
//
// SlotSchedule is a garbage-collected ring buffer, so every operation is
// allocation-free and O(1) amortized. reserve() is defined inline with its
// common case open-coded, while the cold paths (GC) stay in
// slot_schedule.cpp.
#pragma once

#include <bit>
#include <vector>

#include "util/log.hpp"
#include "util/types.hpp"

namespace hcsim {

/// Tick↔cycle conversion for one clock domain of `cycle_ticks` ticks per
/// cycle. A shift whenever cycle_ticks is a power of two (1 and 2 in every
/// stock configuration); the clock-ratio ablation's 3 falls back to a real
/// divide.
class CycleClock {
 public:
  explicit CycleClock(Tick cycle_ticks)
      : ticks_(cycle_ticks),
        pow2_(std::has_single_bit(static_cast<u64>(cycle_ticks))),
        shift_(static_cast<unsigned>(std::countr_zero(static_cast<u64>(cycle_ticks)))) {
    HCSIM_CHECK(cycle_ticks > 0, "cycle_ticks must be positive");
  }

  /// The cycle containing tick `t`.
  u64 to_cycle(Tick t) const { return pow2_ ? (t >> shift_) : (t / ticks_); }
  /// The first tick of cycle `c`.
  Tick from_cycle(u64 c) const { return pow2_ ? (c << shift_) : (c * ticks_); }

 private:
  Tick ticks_;
  bool pow2_;
  unsigned shift_;
};

/// First cycle in [from, end) whose bit in the ring bitmap `bits` is set
/// (`find_set`) or clear (!`find_set`); `end` if there is none. The ring
/// position of cycle c is c & mask, and mask + 1 is a multiple of 64, so
/// consecutive cycles within one bitmap word are consecutive ring positions:
/// the scan goes a word at a time.
inline u64 ring_scan(const std::vector<u64>& bits, u64 mask, u64 from, u64 end,
                     bool find_set) {
  const u64 flip = find_set ? 0 : ~u64{0};
  u64 c = from;
  while (c < end) {
    const u64 pos = c & mask;
    const u64 hits = (bits[pos >> 6] ^ flip) >> (pos & 63);
    if (hits != 0) {
      const u64 cand = c + static_cast<u64>(std::countr_zero(hits));
      return cand < end ? cand : end;
    }
    c += 64 - (pos & 63);
  }
  return end;
}

/// Result of a free-slot range probe (the NREADY imbalance metric).
struct SlotRangeProbe {
  bool free = false;
  bool truncated = false;
};

/// Slot ledger: at most `width` reservations per cycle of a `cycle_ticks`
/// clock.
///
/// Storage is a ring of per-cycle occupancy counts over a sliding window of
/// kWindowCycles cycles ending at the highest cycle ever reserved (the
/// frontier). Cycles above the frontier are implicitly empty; cycles that
/// slid out of the window are garbage-collected and report "no free slot".
/// A parallel full-cycle bitmap lets reserve() and range probes skip
/// saturated regions 64 cycles at a time.
class SlotSchedule {
 public:
  SlotSchedule(unsigned width, Tick cycle_ticks)
      : width_(width),
        clock_(cycle_ticks),
        used_(kWindowCycles, 0),
        full_(kWindowCycles / 64, 0) {
    HCSIM_CHECK(width_ > 0 && width_ < 256, "SlotSchedule width out of range");
  }

  /// Reserve the first free slot at a cycle whose start is >= `earliest`
  /// tick. Returns the tick at which the µop issues (start of that cycle).
  Tick reserve(Tick earliest) {
    u64 cycle = clock_.to_cycle(earliest);
    if (cycle < base_) cycle = base_;
    if (cycle <= frontier_ && used_[cycle & kMask] >= width_) {
      // Saturated start cycle. In steady state the very next cycle has
      // room (reservations trail the frontier closely); fall back to the
      // bitmap scan only when it is saturated too.
      const u64 nxt = cycle + 1;
      if (nxt > frontier_ || used_[nxt & kMask] < width_)
        cycle = nxt;
      else
        cycle = first_nonfull(nxt);
    }
    if (cycle >= base_ + kWindowCycles) [[unlikely]] {
      // In steady state the frontier advances one cycle at a time, so the
      // window slides by one: open-code that step, call out for jumps.
      if (cycle == base_ + kWindowCycles) {
        used_[base_ & kMask] = 0;
        full_[(base_ & kMask) >> 6] &= ~(u64{1} << (base_ & 63));
        ++base_;
      } else {
        gc_to(cycle - kWindowCycles + 1);
      }
    }
    u8& used = used_[cycle & kMask];
    ++used;
    if (used == width_) full_[(cycle & kMask) >> 6] |= u64{1} << (cycle & 63);
    if (cycle > frontier_) frontier_ = cycle;
    ++reservations_;
    return clock_.from_cycle(cycle);
  }

  /// True if cycle containing `tick` still has a free slot (no reservation).
  bool has_free_slot(Tick tick) const;

  /// Range probe for the NREADY imbalance metric: does any cycle overlapping
  /// the tick interval [from, until) have a free slot? `truncated` reports
  /// that part of the interval predates the GC horizon and was not probed.
  SlotRangeProbe free_slot_in(Tick from, Tick until) const;

  u64 reservations() const { return reservations_; }
  /// Oldest cycle still tracked (cycles below were garbage-collected).
  u64 gc_horizon_cycle() const { return base_; }

 private:
  /// Sliding-window length in cycles. Must be a power of two and a multiple
  /// of 64; 64k cycles is far beyond any lookback the pipeline performs.
  static constexpr u64 kWindowCycles = u64{1} << 16;
  static constexpr u64 kMask = kWindowCycles - 1;

  void gc_to(u64 new_base);
  /// First cycle >= `cycle` with a free slot; `frontier_ + 1` if every
  /// tracked cycle through the frontier is saturated. Requires
  /// base_ <= cycle <= frontier_.
  u64 first_nonfull(u64 cycle) const {
    return ring_scan(full_, kMask, cycle, frontier_ + 1, /*find_set=*/false);
  }

  unsigned width_;
  CycleClock clock_;
  std::vector<u8> used_;   // per-cycle reservation counts (ring)
  std::vector<u64> full_;  // bitmap: cycle saturated (used == width)
  u64 base_ = 0;           // GC horizon: lowest cycle still tracked
  u64 frontier_ = 0;       // highest cycle ever reserved
  u64 reservations_ = 0;
};

/// In-order slot counter: behaviourally identical to SlotSchedule for
/// callers whose `reserve(earliest)` argument never precedes the previously
/// returned tick — the fetch and commit stages, which clamp each request to
/// their last result, and rename (core/pipeline.hpp has the proof).
/// Monotonicity collapses the ring + bitmap + GC to two words of state: the
/// current cycle and its occupancy.
class MonotonicSlots {
 public:
  MonotonicSlots(unsigned width, Tick cycle_ticks)
      : width_(width), clock_(cycle_ticks) {
    HCSIM_CHECK(width_ > 0, "MonotonicSlots width must be positive");
  }

  /// First free slot at a cycle whose start is >= `earliest`. Precondition:
  /// `earliest` is >= the tick returned by the previous reserve() (which is
  /// what makes "the current cycle or a later one" exhaustive).
  Tick reserve(Tick earliest) {
    const u64 cycle = clock_.to_cycle(earliest);
    if (cycle > cycle_) {
      cycle_ = cycle;
      used_ = 1;
    } else if (used_ < width_) {
      ++used_;
    } else {
      ++cycle_;
      used_ = 1;
    }
    return clock_.from_cycle(cycle_);
  }

 private:
  unsigned width_;
  CycleClock clock_;
  u64 cycle_ = 0;
  unsigned used_ = 0;
};

}  // namespace hcsim
