// hcsim — µop cracking: RV32I instructions -> hcsim StaticUops + value-
// accurate TraceRecords.
//
// The pipeline (core/pipeline.cpp) is trace driven: it consumes a static
// µop program plus a dynamic record stream carrying real values. This layer
// makes an assembled RISC-V program indistinguishable from a generated one:
//
//  * compare-and-branch (beq/bne/blt/...) cracks into kCmp + kBranchCond,
//    mapping RISC-V's fused compare onto the flags model the BR steering
//    scheme keys on (the cmp writes flags = rs1 - rs2; the branch reads
//    them with the matching condition code);
//  * set-less-than (slt/sltu/slti/sltiu and their pseudo forms) cracks into
//    kSub (into the T0 µop temporary) + kShr #31 — the sign-bit extraction
//    idiom — with the *architecturally exact* 0/1 result recorded;
//  * loads/stores map onto the base+offset AGU form (kLoad/kLoadByte/
//    kStore/kStoreByte), so byte kernels exercise the LR scheme and
//    base+small-offset addressing exercises CR carry confinement;
//  * jal/jalr with a link register crack into kMovImm (static return
//    address) + kJump.
//
// Records are produced in one place, RvTraceCursor: an RvMachine stepped
// chunk by chunk, each retired instruction expanded into its µop records.
// trace_from_program, rv::kernel_trace and KernelStream::pump all drain it,
// and the sampler and streamed runs read it directly, so every path
// applies the same instruction-boundary µop budget.
//
// Recorded source/result/flags values always come from the functional
// executor, so downstream width predictors and steering observe real data
// widths. Unsigned branches and arithmetic right shifts reuse the closest
// µop shape (kCmp / kShr); their recorded outcomes remain architecturally
// exact, which is what every consumer reads.
#pragma once

#include "rv/exec.hpp"
#include "trace/trace.hpp"

namespace hcsim::rv {

/// A statically cracked program: the hcsim µop program plus the mapping
/// from RV instruction index to its µop range.
struct CrackedProgram {
  Program program;
  /// first_uop[i] = index of instruction i's first µop; size num_insts()+1,
  /// so instruction i owns µops [first_uop[i], first_uop[i+1]).
  std::vector<u32> first_uop;
};

CrackedProgram crack_program(const RvProgram& prog);

/// Provenance of a cracked trace run.
struct RvTraceInfo {
  u64 instret = 0;     // RV instructions retired
  bool completed = false;  // program halted cleanly (vs. µop budget cut)
  std::string error;   // executor trap, if any
};

/// Assemble-free entry point: functionally execute `prog` and emit the
/// value-accurate µop trace, bounded by `max_uops` dynamic µops (an
/// RvTraceCursor drained into a vector). A trap aborts unless `info` is
/// given, in which case the caller owns trap handling.
Trace trace_from_program(const RvProgram& prog, u64 max_uops,
                         RvTraceInfo* info = nullptr, const ExecLimits& limits = {});

/// Pull cursor over a cracked program's dynamic µop stream: an RvMachine
/// retiring instructions into a reusable chunk buffer. Chunks hold whole
/// instructions. The stream ends when the program halts or traps, when
/// limits.max_steps instructions have retired, or before the first
/// instruction whose crack would run past `max_uops` (that step is not
/// delivered and does not count toward instret).
class RvTraceCursor final : public TraceCursor {
 public:
  /// Owns the binary and its crack (`cracked` must be crack_program(binary)).
  /// With `fatal_trap`, a trap aborts the process instead of ending the
  /// stream short (bundled kernels and budget-only callers never expect one).
  RvTraceCursor(RvProgram binary, CrackedProgram cracked, u64 max_uops,
                const ExecLimits& limits = {}, bool fatal_trap = true);

  // RvMachine keeps a pointer to binary_: not movable.
  RvTraceCursor(const RvTraceCursor&) = delete;
  RvTraceCursor& operator=(const RvTraceCursor&) = delete;

  const Program& program() const override { return cracked_.program; }
  std::span<const TraceRecord> next_chunk() override;

  /// Provenance so far: instructions delivered, clean halt, trap message.
  RvTraceInfo info() const;

 private:
  RvProgram binary_;
  CrackedProgram cracked_;
  RvMachine machine_;  // borrows binary_: declared after it
  std::vector<TraceRecord> buf_;
  u64 remaining_;    // µop budget left
  u64 instret_ = 0;  // instructions delivered
  bool fatal_trap_;
};

}  // namespace hcsim::rv
