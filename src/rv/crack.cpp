#include "rv/crack.hpp"

#include "util/log.hpp"

namespace hcsim::rv {
namespace {

RegId map_src(u8 r) { return static_cast<RegId>(kRegX0 + r); }
RegId map_dst(u8 r) { return r == 0 ? kRegNone : static_cast<RegId>(kRegX0 + r); }

/// hcsim condition code for an RV branch. Unsigned compares reuse the
/// signed sign-bit conditions; the recorded `taken` bit is always the
/// architecturally exact outcome from the executor.
u32 cond_of(RvOp op) {
  switch (op) {
    case RvOp::kBeq: return kCondEq;
    case RvOp::kBne: return kCondNe;
    case RvOp::kBlt:
    case RvOp::kBltu: return kCondLt;
    default: return kCondGe;
  }
}

Opcode alu_opcode(RvOp op) {
  switch (op) {
    case RvOp::kAddi:
    case RvOp::kAdd: return Opcode::kAdd;
    case RvOp::kSub: return Opcode::kSub;
    case RvOp::kXori:
    case RvOp::kXor: return Opcode::kXor;
    case RvOp::kOri:
    case RvOp::kOr: return Opcode::kOr;
    case RvOp::kAndi:
    case RvOp::kAnd: return Opcode::kAnd;
    case RvOp::kSlli:
    case RvOp::kSll: return Opcode::kShl;
    case RvOp::kSrli:
    case RvOp::kSrai:  // arithmetic shifts share the shifter µop shape
    case RvOp::kSrl:
    case RvOp::kSra: return Opcode::kShr;
    default: HCSIM_CHECK(false, "not an ALU instruction");
  }
  return Opcode::kNop;
}

constexpr bool has_imm_form(RvOp op) {
  return op >= RvOp::kAddi && op <= RvOp::kSrai;
}

/// Append the static µops of one instruction. `pc` is the RV byte address;
/// branch targets are filled in by the caller once first_uop is known.
void crack_one(const RvInst& in, u32 pc, std::vector<StaticUop>& uops) {
  auto push = [&](Opcode op, RegId dst, RegId s0, RegId s1, RegId s2, bool has_imm,
                  u32 imm) {
    StaticUop u;
    u.pc = static_cast<u32>(uops.size());
    u.opcode = op;
    u.dst = dst;
    u.srcs = {s0, s1, s2};
    u.has_imm = has_imm;
    u.imm = imm;
    uops.push_back(u);
  };
  const u32 imm = static_cast<u32>(in.imm);

  switch (in.op) {
    case RvOp::kLui:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      push(Opcode::kMovImm, map_dst(in.rd), kRegNone, kRegNone, kRegNone, true, imm);
      break;
    case RvOp::kAuipc:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      push(Opcode::kMovImm, map_dst(in.rd), kRegNone, kRegNone, kRegNone, true, pc + imm);
      break;
    case RvOp::kJal:
      if (in.rd != 0)
        push(Opcode::kMovImm, map_dst(in.rd), kRegNone, kRegNone, kRegNone, true, pc + 4);
      push(Opcode::kJump, kRegNone, kRegNone, kRegNone, kRegNone, false, 0);
      break;
    case RvOp::kJalr:
      if (in.rd != 0)
        push(Opcode::kMovImm, map_dst(in.rd), kRegNone, kRegNone, kRegNone, true, pc + 4);
      // Register-indirect: the jump reads rs1; its dynamic successor in the
      // record stream is the real target, so the static target stays 0.
      push(Opcode::kJump, kRegNone, map_src(in.rs1), kRegNone, kRegNone, true, imm);
      break;
    case RvOp::kBeq:
    case RvOp::kBne:
    case RvOp::kBlt:
    case RvOp::kBge:
    case RvOp::kBltu:
    case RvOp::kBgeu:
      push(Opcode::kCmp, kRegNone, map_src(in.rs1), map_src(in.rs2), kRegNone, false, 0);
      push(Opcode::kBranchCond, kRegNone, kRegFlags, kRegNone, kRegNone, true,
           cond_of(in.op));
      break;
    case RvOp::kLb:
    case RvOp::kLbu:
      push(Opcode::kLoadByte, map_dst(in.rd), map_src(in.rs1), kRegNone, kRegNone,
           true, imm);
      break;
    case RvOp::kLh:
    case RvOp::kLhu:
    case RvOp::kLw:
      push(Opcode::kLoad, map_dst(in.rd), map_src(in.rs1), kRegNone, kRegNone, true,
           imm);
      break;
    case RvOp::kSb:
      push(Opcode::kStoreByte, kRegNone, map_src(in.rs1), kRegNone, map_src(in.rs2),
           true, imm);
      break;
    case RvOp::kSh:
    case RvOp::kSw:
      push(Opcode::kStore, kRegNone, map_src(in.rs1), kRegNone, map_src(in.rs2), true,
           imm);
      break;
    case RvOp::kSlti:
    case RvOp::kSltiu:
    case RvOp::kSlt:
    case RvOp::kSltu:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      if (has_imm_form(in.op)) {
        push(Opcode::kSub, kRegT0, map_src(in.rs1), kRegNone, kRegNone, true, imm);
      } else {
        push(Opcode::kSub, kRegT0, map_src(in.rs1), map_src(in.rs2), kRegNone, false, 0);
      }
      push(Opcode::kShr, map_dst(in.rd), kRegT0, kRegNone, kRegNone, true, 31);
      break;
    case RvOp::kAddi:
    case RvOp::kXori:
    case RvOp::kOri:
    case RvOp::kAndi:
    case RvOp::kSlli:
    case RvOp::kSrli:
    case RvOp::kSrai:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      push(alu_opcode(in.op), map_dst(in.rd), map_src(in.rs1), kRegNone, kRegNone,
           true, imm);
      break;
    case RvOp::kAdd:
    case RvOp::kSub:
    case RvOp::kSll:
    case RvOp::kXor:
    case RvOp::kSrl:
    case RvOp::kSra:
    case RvOp::kOr:
    case RvOp::kAnd:
      if (in.rd == 0) { push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0); break; }
      push(alu_opcode(in.op), map_dst(in.rd), map_src(in.rs1), map_src(in.rs2),
           kRegNone, false, 0);
      break;
    case RvOp::kFence:
    case RvOp::kEcall:
    case RvOp::kEbreak:
      push(Opcode::kNop, kRegNone, kRegNone, kRegNone, kRegNone, false, 0);
      break;
    default:
      HCSIM_CHECK(false, "cannot crack an illegal instruction");
  }
}

}  // namespace

CrackedProgram crack_program(const RvProgram& prog) {
  const u32 n = prog.num_insts();
  HCSIM_CHECK(n > 0, "cannot crack an empty program");
  CrackedProgram out;
  out.program.name = prog.name;
  out.first_uop.reserve(n + 1);

  std::vector<RvInst> insts(n);
  for (u32 i = 0; i < n; ++i) {
    insts[i] = decode(prog.inst_word(i * 4));
    HCSIM_CHECK(insts[i].op != RvOp::kIllegal, "illegal instruction in text");
    out.first_uop.push_back(static_cast<u32>(out.program.uops.size()));
    crack_one(insts[i], i * 4, out.program.uops);
  }
  out.first_uop.push_back(static_cast<u32>(out.program.uops.size()));

  // Resolve static branch targets now that every µop address is known.
  out.program.branch_targets.assign(out.program.uops.size(), 0);
  for (u32 i = 0; i < n; ++i) {
    const RvInst& in = insts[i];
    if (!is_rv_branch(in.op) && in.op != RvOp::kJal) continue;
    const u32 target_pc = i * 4 + static_cast<u32>(in.imm);
    HCSIM_CHECK(target_pc % 4 == 0 && target_pc / 4 < n,
                "branch target outside text");
    // The branch/jump is the last µop of the crack.
    const u32 branch_uop = out.first_uop[i + 1] - 1;
    out.program.branch_targets[branch_uop] = out.first_uop[target_pc / 4];
  }
  return out;
}

namespace {

/// Append the value-accurate TraceRecords of one retired instruction to
/// `out` (no budget logic: the caller decides whether the step fits).
void emit_step_records(const CrackedProgram& cracked, const RvStep& step,
                       std::vector<TraceRecord>& out) {
  const u32 base = cracked.first_uop[step.pc / 4];
  const RvInst& in = step.inst;
  const u32 a = step.rs1_val, b = step.rs2_val;
  const u32 imm = static_cast<u32>(in.imm);

  auto rec_at = [&](u32 offset) {
    TraceRecord r;
    r.pc = base + offset;
    return r;
  };

  switch (in.op) {
    case RvOp::kLui:
    case RvOp::kAuipc: {
      TraceRecord r = rec_at(0);
      r.result = step.result;  // 0 for the rd==0 nop crack
      out.push_back(r);
      break;
    }
    case RvOp::kJal:
    case RvOp::kJalr: {
      u32 off = 0;
      if (in.rd != 0) {
        TraceRecord link = rec_at(off++);
        link.result = step.pc + 4;
        out.push_back(link);
      }
      TraceRecord jmp = rec_at(off);
      if (in.op == RvOp::kJalr) jmp.src_vals[0] = a;
      jmp.taken = true;
      out.push_back(jmp);
      break;
    }
    case RvOp::kBeq:
    case RvOp::kBne:
    case RvOp::kBlt:
    case RvOp::kBge:
    case RvOp::kBltu:
    case RvOp::kBgeu: {
      const u32 flags = a - b;  // kCmp convention: flags = rs1 - rs2
      TraceRecord cmp = rec_at(0);
      cmp.src_vals = {a, b, 0};
      cmp.flags_val = flags;
      out.push_back(cmp);
      TraceRecord br = rec_at(1);
      br.src_vals[0] = flags;
      br.taken = step.taken;
      out.push_back(br);
      break;
    }
    case RvOp::kLb:
    case RvOp::kLbu:
    case RvOp::kLh:
    case RvOp::kLhu:
    case RvOp::kLw: {
      TraceRecord r = rec_at(0);
      r.src_vals[0] = a;
      r.mem_addr = step.mem_addr;
      r.result = step.result;
      out.push_back(r);
      break;
    }
    case RvOp::kSb:
    case RvOp::kSh:
    case RvOp::kSw: {
      TraceRecord r = rec_at(0);
      r.src_vals = {a, 0, b};
      r.mem_addr = step.mem_addr;
      out.push_back(r);
      break;
    }
    case RvOp::kSlti:
    case RvOp::kSltiu:
    case RvOp::kSlt:
    case RvOp::kSltu: {
      if (in.rd == 0) {
        out.push_back(rec_at(0));
        break;
      }
      const u32 rhs = has_imm_form(in.op) ? imm : b;
      const u32 diff = a - rhs;
      TraceRecord sub = rec_at(0);
      sub.src_vals = {a, has_imm_form(in.op) ? 0 : b, 0};
      sub.result = diff;
      sub.flags_val = diff;
      out.push_back(sub);
      TraceRecord shr = rec_at(1);
      shr.src_vals[0] = diff;
      shr.result = step.result;  // architecturally exact 0/1
      shr.flags_val = step.result;
      out.push_back(shr);
      break;
    }
    case RvOp::kAddi:
    case RvOp::kXori:
    case RvOp::kOri:
    case RvOp::kAndi:
    case RvOp::kSlli:
    case RvOp::kSrli:
    case RvOp::kSrai:
    case RvOp::kAdd:
    case RvOp::kSub:
    case RvOp::kSll:
    case RvOp::kXor:
    case RvOp::kSrl:
    case RvOp::kSra:
    case RvOp::kOr:
    case RvOp::kAnd: {
      TraceRecord r = rec_at(0);
      if (in.rd == 0) {  // cracked to kNop
        out.push_back(r);
        break;
      }
      r.src_vals[0] = a;
      if (!has_imm_form(in.op)) r.src_vals[1] = b;
      r.result = step.result;
      r.flags_val = step.result;  // ALU µops write flags = result
      out.push_back(r);
      break;
    }
    case RvOp::kFence:
    case RvOp::kEcall:
    case RvOp::kEbreak:
      out.push_back(rec_at(0));
      break;
    default:
      HCSIM_CHECK(false, "unreachable: illegal instruction executed");
  }
}

}  // namespace

// --- RvTraceCursor -----------------------------------------------------------

RvTraceCursor::RvTraceCursor(RvProgram binary, CrackedProgram cracked, u64 max_uops,
                             const ExecLimits& limits, bool fatal_trap)
    : binary_(std::move(binary)),
      cracked_(std::move(cracked)),
      machine_(binary_, limits),
      remaining_(max_uops),
      fatal_trap_(fatal_trap) {}

std::span<const TraceRecord> RvTraceCursor::next_chunk() {
  buf_.clear();
  RvStep step;
  // A budget-cut step leaves machine_.steps() one past instret_: the stream
  // has ended for good.
  while (buf_.size() < kTraceChunkRecords && machine_.steps() == instret_ &&
         machine_.step(step) == RvMachine::Outcome::kRetired) {
    const u32 idx = step.pc / 4;
    const u64 n_uops = cracked_.first_uop[idx + 1] - cracked_.first_uop[idx];
    if (n_uops > remaining_) break;  // budget cut before this instruction
    remaining_ -= n_uops;
    ++instret_;
    emit_step_records(cracked_, step, buf_);
  }
  HCSIM_CHECK(!fatal_trap_ || machine_.error().empty(),
              "rv executor trapped: " + cracked_.program.name + ": " + machine_.error());
  return buf_;
}

RvTraceInfo RvTraceCursor::info() const {
  RvTraceInfo out;
  out.instret = instret_;
  out.completed = machine_.completed() && machine_.steps() == instret_;
  out.error = machine_.error();
  return out;
}

Trace trace_from_program(const RvProgram& prog, u64 max_uops, RvTraceInfo* info,
                         const ExecLimits& limits) {
  RvTraceCursor cursor(prog, crack_program(prog), max_uops, limits,
                       /*fatal_trap=*/info == nullptr);
  Trace trace = drain_cursor(cursor, /*seed=*/1);  // RV traces are seedless
  if (info) *info = cursor.info();
  return trace;
}

}  // namespace hcsim::rv
