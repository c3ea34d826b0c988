#include "bbcache/bb_cache.hpp"

#include "isa/reg.hpp"
#include "util/log.hpp"
#include "util/narrow.hpp"

namespace hcsim {

namespace {

constexpr bool cr_eligible_opcode(Opcode op) {
  // The CR scheme relies on the carry signal, so only additive address/value
  // arithmetic and memory address generation qualify; mul/div are explicitly
  // ineligible (Section 3.5).
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kLea:
    case Opcode::kLoad:
    case Opcode::kLoadByte:
    case Opcode::kStore:
    case Opcode::kStoreByte:
      return true;
    default:
      return false;
  }
}

}  // namespace

UopTemplate build_uop_template(const StaticUop& su, const SteeringConfig& steer,
                               unsigned helper_width_bits) {
  UopTemplate t;
  t.uop = &su;

  for (unsigned k = 0; k < kMaxSrcs; ++k) {
    const RegId r = su.srcs[k];
    if (r == kRegNone) continue;
    t.srcs[t.n_srcs++] = r;
    if (!is_flags(r)) {
      t.width_srcs[t.n_width_srcs] = r;
      t.width_lane[t.n_width_srcs] = static_cast<u8>(k);
      ++t.n_width_srcs;
      t.width_lane_mask |= static_cast<u8>(u8{1} << k);
    }
  }

  t.dst = su.dst;
  t.has_dst = su.has_dst();
  t.has_imm = su.has_imm;
  t.imm = su.imm;
  t.imm_narrow = !su.has_imm || is_narrow(su.imm, helper_width_bits);

  const OpcodeInfo& info = opcode_info(su.opcode);
  t.opcode = su.opcode;
  t.latency_wide = info.latency_wide;
  t.writes_flags = info.writes_flags;
  t.reads_flags = info.reads_flags;
  t.helper_capable = info.helper_capable;
  t.tracked = info.width_tracked && t.has_dst;
  t.is_mem = is_memory(su.opcode);
  t.is_store_op = is_store(su.opcode);
  t.is_load_op = is_load(su.opcode);
  t.is_load_byte = su.opcode == Opcode::kLoadByte;
  t.is_fp_op = is_fp(su.opcode);
  t.is_branch_op = is_branch(su.opcode);
  t.is_branch_cond = su.opcode == Opcode::kBranchCond;

  t.cr_op = cr_eligible_opcode(su.opcode);
  t.splittable = info.helper_capable && info.op_class == OpClass::kIntAlu &&
                 !t.is_branch_op;
  t.static_wide = !steer.helper_enabled || !info.helper_capable;
  t.wants_cr = steer.cr && t.cr_op;
  return t;
}

u64 DecodeCache::bind(const Program& program, const SteeringConfig& steer,
                      unsigned helper_width_bits) {
  const bool same_key = bound_ && program_ == &program &&
                        program_size_ == program.uops.size() &&
                        program_name_ == program.name && steer_ == steer &&
                        helper_width_bits_ == helper_width_bits;
  u64 invalidated = 0;
  if (!same_key) {
    invalidated = filled_;
    filled_ = 0;
    slots_.assign(program.uops.size(), UopTemplate{});
    valid_.assign(program.uops.size(), 0);
    program_ = &program;
    program_size_ = program.uops.size();
    program_name_ = program.name;
    steer_ = steer;
    helper_width_bits_ = helper_width_bits;
    bound_ = true;
  }
  return invalidated;
}

const UopTemplate& DecodeCache::fill(u32 pc) {
  HCSIM_CHECK(bound_ && pc < slots_.size(), "DecodeCache: pc outside bound program");
  slots_[pc] = build_uop_template(program_->uops[pc], steer_, helper_width_bits_);
  valid_[pc] = 1;
  ++filled_;
  return slots_[pc];
}

}  // namespace hcsim
