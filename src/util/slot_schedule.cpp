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

bool SlotSchedule::has_free_slot(Tick tick) const {
  const u64 cycle = clock_.to_cycle(tick);
  if (cycle < base_) return false;
  if (cycle > frontier_) return true;
  return used_[cycle & kMask] < width_;
}

SlotRangeProbe SlotSchedule::free_slot_in(Tick from, Tick until) const {
  SlotRangeProbe p;
  if (until <= from) return p;
  u64 c0 = clock_.to_cycle(from);
  const u64 c1 = clock_.to_cycle(until - 1);  // last cycle overlapping the range
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
