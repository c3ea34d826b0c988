// Tests for the RV32I functional executor (src/rv/exec.*): arithmetic
// semantics (including overflow wrap and signed/unsigned compares), memory
// access width and extension, control flow, halting and trapping.
#include <gtest/gtest.h>

#include "rv/assembler.hpp"
#include "rv/exec.hpp"

namespace hcsim::rv {
namespace {

struct RvExecResult {
  std::array<u32, 32> regs{};
  u64 steps = 0;
  bool completed = false;  // reached ecall/ebreak/halt-sentinel
  std::string error;       // nonempty on trap (bad pc/address/instruction)
};

/// Step a machine until it stops retiring: halt, trap or step budget.
RvExecResult execute(const RvProgram& prog, const ExecLimits& limits) {
  RvMachine m(prog, limits);
  RvStep step;
  while (m.step(step) == RvMachine::Outcome::kRetired) {
  }
  return {m.regs(), m.steps(), m.completed(), m.error()};
}

RvExecResult run(const std::string& src, const ExecLimits& limits = {}) {
  AsmResult r = assemble("t", src);
  EXPECT_TRUE(r.ok()) << r.error;
  return execute(r.program, limits);
}

// --- arithmetic --------------------------------------------------------------

TEST(RvExec, OverflowWrapsModulo32) {
  const RvExecResult r = run(
      "li a0, 0x7FFFFFFF\n"
      "addi a1, a0, 1\n"      // INT_MAX + 1 wraps to INT_MIN
      "li a2, -1\n"
      "addi a3, a2, 2\n"      // 0xFFFFFFFF + 2 wraps to 1
      "li a4, 0\n"
      "addi a5, a4, -1\n"     // 0 - 1 wraps to 0xFFFFFFFF
      "slli a6, a0, 1\n"      // shifts discard carried-out bits
      "ret\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[11], 0x80000000u);
  EXPECT_EQ(r.regs[13], 1u);
  EXPECT_EQ(r.regs[15], 0xFFFFFFFFu);
  EXPECT_EQ(r.regs[16], 0xFFFFFFFEu);
}

TEST(RvExec, SignedVsUnsignedCompares) {
  const RvExecResult r = run(
      "li a0, -1\n"
      "li a1, 1\n"
      "slt a2, a0, a1\n"    // -1 < 1 signed -> 1
      "sltu a3, a0, a1\n"   // 0xFFFFFFFF < 1 unsigned -> 0
      "slti a4, a1, -5\n"   // 1 < -5 -> 0
      "sltiu a5, a1, -5\n"  // 1 < 0xFFFFFFFB unsigned -> 1
      "ret\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[12], 1u);
  EXPECT_EQ(r.regs[13], 0u);
  EXPECT_EQ(r.regs[14], 0u);
  EXPECT_EQ(r.regs[15], 1u);
}

TEST(RvExec, ShiftSemantics) {
  const RvExecResult r = run(
      "li a0, 0x80000000\n"
      "srli a1, a0, 4\n"   // logical: zero fill
      "srai a2, a0, 4\n"   // arithmetic: sign fill
      "li a3, 33\n"
      "sll a4, a0, a3\n"   // shift amount is mod 32 -> shift by 1
      "ret\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[11], 0x08000000u);
  EXPECT_EQ(r.regs[12], 0xF8000000u);
  EXPECT_EQ(r.regs[14], 0u);  // 0x80000000 << 1
}

TEST(RvExec, X0IsAlwaysZero) {
  const RvExecResult r = run(
      "li a0, 7\n"
      "add x0, a0, a0\n"  // write to x0 is discarded
      "add a1, x0, x0\n"
      "ret\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[0], 0u);
  EXPECT_EQ(r.regs[11], 0u);
}

// --- memory ------------------------------------------------------------------

TEST(RvExec, LoadStoreWidthsAndExtension) {
  const RvExecResult r = run(
      "la a0, buf\n"
      "li a1, 0x818283F4\n"
      "sw a1, 0(a0)\n"
      "lb a2, 3(a0)\n"    // 0x81 sign-extends
      "lbu a3, 3(a0)\n"   // 0x81 zero-extends
      "lh a4, 0(a0)\n"    // 0x83F4 sign-extends
      "lhu a5, 0(a0)\n"
      "sb x0, 0(a0)\n"    // byte store leaves the rest of the word
      "lw a6, 0(a0)\n"
      "ret\n"
      ".data\n"
      "buf: .zero 16\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[12], 0xFFFFFF81u);
  EXPECT_EQ(r.regs[13], 0x81u);
  EXPECT_EQ(r.regs[14], 0xFFFF83F4u);
  EXPECT_EQ(r.regs[15], 0x83F4u);
  EXPECT_EQ(r.regs[16], 0x81828300u);
}

TEST(RvExec, StackWorks) {
  const RvExecResult r = run(
      "li a0, 123\n"
      "addi sp, sp, -8\n"
      "sw a0, 4(sp)\n"
      "li a0, 0\n"
      "lw a1, 4(sp)\n"
      "addi sp, sp, 8\n"
      "ret\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[11], 123u);
}

TEST(RvExec, TrapsOnBadAccess) {
  // Out of bounds.
  RvExecResult r = run("li a0, 0x7FFFFFF0\nlw a1, 0(a0)\nret\n");
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("out of bounds"), std::string::npos);
  // Unaligned word access.
  r = run("la a0, b\nlw a1, 1(a0)\nret\n.data\nb: .zero 8\n");
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("unaligned"), std::string::npos);
  // Store into text.
  r = run("sw a0, 0(x0)\nret\n");
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("store into text"), std::string::npos);
}

// --- control flow ------------------------------------------------------------

TEST(RvExec, BranchesAndLoops) {
  const RvExecResult r = run(
      "li a0, 0\n"
      "li a1, 10\n"
      "loop:\n"
      "  add a0, a0, a1\n"
      "  addi a1, a1, -1\n"
      "  bnez a1, loop\n"
      "ret\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[10], 55u);  // 10+9+...+1
}

TEST(RvExec, CallAndReturn) {
  const RvExecResult r = run(
      "main:\n"
      "  li a0, 5\n"
      "  call double_it\n"
      "  call double_it\n"
      "  ecall\n"            // call clobbered ra: halt explicitly
      "double_it:\n"
      "  add a0, a0, a0\n"
      "  ret\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[10], 20u);
}

TEST(RvExec, EcallHalts) {
  const RvExecResult r = run("li a0, 9\necall\nli a0, 1\nret\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[10], 9u);  // the instruction after ecall never runs
}

TEST(RvExec, BudgetExhaustionStopsCleanly) {
  ExecLimits lim;
  lim.max_steps = 100;
  const RvExecResult r = run("spin: j spin\n", lim);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.error.empty());  // not a trap: just out of budget
  EXPECT_EQ(r.steps, 100u);
}

TEST(RvExec, RecursiveFibonacci) {
  // fib(17) == 1597 through a real call stack (bundled kernel logic).
  const RvExecResult r = run(
      "main:\n"
      "  li a0, 17\n"
      "  call fib\n"
      "  ecall\n"            // call clobbered ra: halt explicitly
      "fib:\n"
      "  li t0, 2\n"
      "  blt a0, t0, base\n"
      "  addi sp, sp, -16\n"
      "  sw ra, 12(sp)\n"
      "  sw s0, 8(sp)\n"
      "  mv s0, a0\n"
      "  addi a0, a0, -1\n"
      "  call fib\n"
      "  sw a0, 4(sp)\n"
      "  addi a0, s0, -2\n"
      "  call fib\n"
      "  lw t1, 4(sp)\n"
      "  add a0, a0, t1\n"
      "  lw s0, 8(sp)\n"
      "  lw ra, 12(sp)\n"
      "  addi sp, sp, 16\n"
      "  ret\n"
      "base:\n"
      "  ret\n");
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.regs[10], 1597u);
}

TEST(RvExec, DeterministicAcrossRuns) {
  const std::string src =
      "li a0, 0\nli a1, 200\nloop:\nadd a0, a0, a1\naddi a1, a1, -3\n"
      "bgtz a1, loop\nret\n";
  const RvExecResult a = run(src);
  const RvExecResult b = run(src);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.steps, b.steps);
}

}  // namespace
}  // namespace hcsim::rv
