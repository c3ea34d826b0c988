// hcsim — per-PC decode-and-steer cache (the cavatools find_bb idea applied
// to the trace-driven pipeline).
//
// Every dynamic instance of a static µop used to re-derive the same facts on
// the hot path: opcode_info lookups, operand-list scans over kRegNone holes,
// immediate width classification, CR-shape eligibility, and — for ops the
// steering ladder can never move — the steering verdict itself. All of that
// depends only on (StaticUop, SteeringConfig, helper width), so it is
// cracked ONCE into a UopTemplate on first encounter of the PC and replayed
// for every later instance with only the dynamic values/flags/addresses
// rebound by the pipeline.
//
// The cache is keyed by (program identity, steering config, helper width):
// rebinding with a different key — a new program, a different rung of the
// steering ladder, a different datapath width mid-sweep — invalidates every
// cached template (counted, so hit-rate regressions are observable as
// bb_cache_* counters). Templates are a pure function of the key, so a
// shared cache is bit-identical to a private one and to no cache at all;
// DecodeCache(false) disables replay, forcing a fresh crack per record
// through the same code path.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "isa/uop.hpp"
#include "steer/steering.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace hcsim {

/// Everything Pipeline::feed derives from the static µop alone, pre-packed
/// for branch-free replay: operand lists with the kRegNone holes squeezed
/// out, opcode_info fields flattened, width/CR/steering eligibility decided.
struct UopTemplate {
  const StaticUop* uop = nullptr;  // backing static µop (SteerContext.uop)

  // Packed operand lists. `srcs` is every real source (flags included) in
  // operand order — the acquire/copy loops. `width_srcs` is the subset the
  // width rules look at (real, non-flags), with `width_lane[j]` giving the
  // original operand slot so dynamic values/lanes can be rebound.
  std::array<RegId, kMaxSrcs> srcs{};
  std::array<RegId, kMaxSrcs> width_srcs{};
  std::array<u8, kMaxSrcs> width_lane{};
  u8 n_srcs = 0;
  u8 n_width_srcs = 0;
  /// Bit k set when operand slot k participates in the actual-source-width
  /// fold — fold a WidthLaneBlock src mask against this.
  u8 width_lane_mask = 0;

  RegId dst = kRegNone;
  bool has_dst = false;
  bool has_imm = false;
  bool imm_narrow = true;  // vs the bound helper width
  u32 imm = 0;

  // Flattened opcode facts (one opcode_info call at build time).
  Opcode opcode = Opcode::kNop;
  u8 latency_wide = 1;
  bool writes_flags = false;
  bool reads_flags = false;
  bool helper_capable = false;
  bool tracked = false;  // width_tracked && has_dst
  bool is_mem = false;
  bool is_store_op = false;
  bool is_load_op = false;
  bool is_load_byte = false;
  bool is_fp_op = false;
  bool is_branch_op = false;
  bool is_branch_cond = false;

  // Steering eligibility decided at crack time.
  bool cr_op = false;       // additive op the CR scheme may confine
  bool splittable = false;  // IR block mode may pull it into a helper block
  /// The steering ladder returns kWide for every dynamic instance of this
  /// µop (helper disabled, or op class absent from the helper cluster) —
  /// the memoized steering verdict: replay skips context collection and
  /// the policy call entirely.
  bool static_wide = false;
  /// The config has CR enabled and this is a CR-eligible opcode: the carry
  /// predictor must be consulted/trained even when the verdict is static.
  bool wants_cr = false;
};

/// Crack one static µop against a steering config + helper width. Pure: two
/// builds from the same inputs yield identical templates, which is what
/// makes cache-on and cache-off runs bit-identical.
UopTemplate build_uop_template(const StaticUop& su, const SteeringConfig& steer,
                               unsigned helper_width_bits);

/// Direct-mapped template store parallel to Program::uops, filled lazily on
/// first encounter. May be shared across Pipeline instances (and programs):
/// bind() detects key changes and invalidates.
class DecodeCache {
 public:
  DecodeCache() = default;
  /// A disabled cache re-cracks every record (the cache-off A/B timings and
  /// the output-invisibility test).
  explicit DecodeCache(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// (Re)bind to a program + config. Returns the number of cached templates
  /// invalidated (0 on first bind or when the key is unchanged — templates
  /// built under an identical key replay as-is).
  u64 bind(const Program& program, const SteeringConfig& steer,
           unsigned helper_width_bits);

  /// Hot-path probe: the cached template for `pc`, or nullptr on a miss
  /// (call fill). No bounds check beyond the valid map — `pc` must index the
  /// bound program, same contract as Program::uops access.
  const UopTemplate* try_get(u32 pc) const {
    return valid_[pc] ? &slots_[pc] : nullptr;
  }

  /// Build, store and return the template for `pc` (the miss path).
  const UopTemplate& fill(u32 pc);

  u64 filled() const { return filled_; }

 private:
  bool enabled_ = true;
  const Program* program_ = nullptr;
  std::size_t program_size_ = 0;
  std::string program_name_;
  SteeringConfig steer_{};
  unsigned helper_width_bits_ = 0;
  bool bound_ = false;

  std::vector<UopTemplate> slots_;
  std::vector<u8> valid_;
  u64 filled_ = 0;  // currently valid templates
};

}  // namespace hcsim
