// hcsim — results of one simulation run; every figure/table in the paper is
// derived from these fields.
//
// NOTE: SimResult::for_each_field is the one list of the fields after
// workload/config. The sampling splice (src/sample/windowed.cpp) and the svc
// wire codec (src/svc/protocol.cpp) walk it, so a new field is listed there
// once; its position in the list is its wire position.
#pragma once

#include <string>

#include "core/counters.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace hcsim {

struct SimResult {
  std::string workload;
  std::string config;

  // --- time ------------------------------------------------------------
  u64 uops = 0;          // committed trace µops (excludes copies/chunks)
  Tick final_tick = 0;   // commit tick of the last µop
  double wide_cycles = 0.0;
  double ipc = 0.0;      // committed µops per wide cycle

  // --- steering (Figures 6/7/8/9/12, Section 3.7) -----------------------
  u64 to_wide = 0;
  u64 to_helper = 0;        // µops executed in the helper (incl. CR + BR)
  u64 br_steered = 0;       // branches steered by the BR rule
  u64 cr_steered = 0;       // µops steered via the carry-confined path
  u64 split_uops = 0;       // original µops split by IR
  u64 chunk_uops = 0;       // 8-bit chunks created by IR
  u64 replicated_loads = 0; // LR wide-RF replicas

  // --- copies ------------------------------------------------------------
  u64 copies = 0;           // total copy µops (demand + prefetch + IR backs)
  u64 copies_w2n = 0;
  u64 copies_n2w = 0;
  u64 copy_prefetches = 0;  // CP-generated
  u64 cp_useful = 0;        // prefetched and later consumed
  u64 cp_wasted = 0;        // prefetched, never consumed
  Histogram copy_wait{64};  // consumer stall ticks on demand copies

  // --- width prediction (Figure 5) ---------------------------------------
  u64 wp_correct = 0;
  u64 wp_nonfatal = 0;  // mispredicted, but the µop went wide: no recovery
  u64 wp_fatal = 0;     // mispredicted in the helper: flush + resteer
  u64 cr_violations = 0;

  // --- branches -----------------------------------------------------------
  u64 branches = 0;
  u64 branch_mispredicts = 0;

  // --- imbalance (Section 3.7) --------------------------------------------
  /// NREADY events: cycles a ready µop could not issue in its own cluster
  /// while the other cluster had a free slot it could have used.
  u64 nready_w2n = 0;
  u64 nready_n2w = 0;

  // --- memory ---------------------------------------------------------------
  double dl0_hit_rate = 0.0;
  double ul1_hit_rate = 0.0;

  // --- misc event counts (power model input) --------------------------------
  CounterArray counters;

  /// Calls f(r.field...) for every field after workload/config, in wire
  /// order, passing that field of each of `rs` (all SimResults).
  template <typename F, typename... R>
  static void for_each_field(F&& f, R&&... rs) {
    f(rs.uops...);
    f(rs.final_tick...);
    f(rs.wide_cycles...);
    f(rs.ipc...);
    f(rs.to_wide...);
    f(rs.to_helper...);
    f(rs.br_steered...);
    f(rs.cr_steered...);
    f(rs.split_uops...);
    f(rs.chunk_uops...);
    f(rs.replicated_loads...);
    f(rs.copies...);
    f(rs.copies_w2n...);
    f(rs.copies_n2w...);
    f(rs.copy_prefetches...);
    f(rs.cp_useful...);
    f(rs.cp_wasted...);
    f(rs.copy_wait...);
    f(rs.wp_correct...);
    f(rs.wp_nonfatal...);
    f(rs.wp_fatal...);
    f(rs.cr_violations...);
    f(rs.branches...);
    f(rs.branch_mispredicts...);
    f(rs.nready_w2n...);
    f(rs.nready_n2w...);
    f(rs.dl0_hit_rate...);
    f(rs.ul1_hit_rate...);
    f(rs.counters...);
  }

  bool operator==(const SimResult&) const = default;

  /// Derive cp_wasted, wide_cycles, ipc, the cache hit rates and the cache
  /// access counters from the integer totals plus the cache hit ratios over
  /// the same span. Full runs, sampled windows and the splice all use this.
  void finalize(Tick wide_ticks, const Ratio& dl0, const Ratio& ul1) {
    // A prefetch issued during a sampled warm-up can be consumed during
    // measure, so the two are not ordered: saturate.
    cp_wasted = copy_prefetches >= cp_useful ? copy_prefetches - cp_useful : 0;
    wide_cycles = static_cast<double>(final_tick) / static_cast<double>(wide_ticks);
    ipc = wide_cycles > 0 ? static_cast<double>(uops) / wide_cycles : 0.0;
    dl0_hit_rate = dl0.value();
    ul1_hit_rate = ul1.value();
    counters[Counter::kDl0Accesses] = dl0.den;
    counters[Counter::kUl1Accesses] = ul1.den;
  }

  // --- derived -----------------------------------------------------------
  double helper_frac() const {
    return uops ? static_cast<double>(to_helper) / static_cast<double>(uops) : 0.0;
  }
  double copy_frac() const {
    return uops ? static_cast<double>(copies) / static_cast<double>(uops) : 0.0;
  }
  double wp_accuracy() const {
    const u64 tot = wp_correct + wp_nonfatal + wp_fatal;
    return tot ? static_cast<double>(wp_correct) / static_cast<double>(tot) : 0.0;
  }
  double fatal_rate() const {
    const u64 tot = wp_correct + wp_nonfatal + wp_fatal;
    return tot ? static_cast<double>(wp_fatal) / static_cast<double>(tot) : 0.0;
  }
  double nready_w2n_pct() const {
    return uops ? 100.0 * static_cast<double>(nready_w2n) / static_cast<double>(uops) : 0.0;
  }
  double nready_n2w_pct() const {
    return uops ? 100.0 * static_cast<double>(nready_n2w) / static_cast<double>(uops) : 0.0;
  }
  /// Speedup of this run relative to a baseline run of the same trace.
  double speedup_vs(const SimResult& baseline) const {
    return final_tick ? static_cast<double>(baseline.final_tick) / static_cast<double>(final_tick)
                      : 0.0;
  }
};

}  // namespace hcsim
