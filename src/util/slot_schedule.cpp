#include "util/slot_schedule.hpp"

namespace hcsim {

// --- SlotSchedule -----------------------------------------------------------

void SlotSchedule::gc_to(u64 new_base) {
  if (new_base <= base_) return;
  if (new_base - base_ >= kWindowCycles) {
    std::fill(used_.begin(), used_.end(), u8{0});
    std::fill(full_.begin(), full_.end(), u64{0});
  } else {
    for (u64 c = base_; c < new_base; ++c) {
      used_[c & kMask] = 0;
      full_[(c & kMask) >> 6] &= ~(u64{1} << (c & 63));
    }
  }
  base_ = new_base;
}

u64 SlotSchedule::first_nonfull(u64 cycle) const {
  // kWindowCycles is a multiple of 64, so consecutive cycles within one
  // bitmap word are consecutive ring positions: scan a word at a time.
  const u64 end = frontier_ + 1;
  u64 c = cycle;
  while (c < end) {
    const u64 pos = c & kMask;
    const u64 free_bits = ~full_[pos >> 6] >> (pos & 63);
    if (free_bits != 0) {
      const u64 cand = c + static_cast<u64>(std::countr_zero(free_bits));
      return cand < end ? cand : end;
    }
    c += 64 - (pos & 63);
  }
  return end;
}

bool SlotSchedule::has_free_slot(Tick tick) const {
  const u64 cycle = to_cycle(tick);
  if (cycle < base_) return false;
  if (cycle > frontier_) return true;
  return slot(cycle) < width_;
}

SlotSchedule::RangeProbe SlotSchedule::free_slot_in(Tick from, Tick until) const {
  RangeProbe p;
  if (until <= from) return p;
  u64 c0 = to_cycle(from);
  const u64 c1 = to_cycle(until - 1);  // last cycle overlapping the range
  if (c0 < base_) {
    p.truncated = true;
    c0 = base_;
    if (c0 > c1) return p;
  }
  if (c1 > frontier_) {
    p.free = true;  // cycles past the frontier are empty
    return p;
  }
  p.free = first_nonfull(c0) <= c1;
  return p;
}

}  // namespace hcsim
