// hcsim — functional executor: turns a static program into a value-accurate
// dynamic trace.
//
// The executor interprets the generated program with a concrete register
// file and a synthetic memory image, recording every executed µop with its
// real source values, result, flags and effective address. Widths, carry
// behaviour and branch outcomes downstream are therefore *computed*, never
// sampled from a distribution.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>

#include "isa/reg.hpp"
#include "trace/trace.hpp"
#include "wload/profile.hpp"

namespace hcsim {

/// Synthetic memory image. Addresses fall into the regions of
/// mem_layout (byte arrays, word arrays, pointer/CR structures); a load
/// from a never-written address synthesizes a deterministic value shaped by
/// the region and the profile's value_stability, while stores persist.
class SyntheticMemory {
 public:
  explicit SyntheticMemory(const WorkloadProfile& profile) : prof_(profile) {}

  u32 load(u32 addr, bool byte) const;
  void store(u32 addr, u32 value, bool byte);

 private:
  u32 synthesize(u32 addr) const;

  const WorkloadProfile& prof_;
  std::unordered_map<u32, u32> written_;  // word-granular backing store
};

/// Functionally execute `program` until `n_records` dynamic µops have been
/// emitted (the program restarts from the top when it falls off the end).
Trace execute_program(const Program& program, const WorkloadProfile& profile,
                      u64 n_records);

/// The one choice between the two generating backends: `profile`'s
/// n_records-µop trace as a fresh pull cursor — the RISC-V kernel through
/// the executor and cracker when profile.rv_kernel is set (n_records is then
/// a µop budget: kernels run to completion, generated programs loop), the
/// synthetic generator otherwise.
std::unique_ptr<TraceCursor> open_workload_cursor(const WorkloadProfile& profile,
                                                  u64 n_records);

/// open_workload_cursor drained into a materialized trace.
Trace generate_trace(const WorkloadProfile& profile, u64 n_records);

/// Streaming counterpart of execute_program: a pull cursor that interprets
/// the program on demand, one bounded chunk at a time, into an internal
/// reusable buffer. Long runs therefore cost O(chunk) memory instead of a
/// materialized record vector — execute_program drains one. Owns the
/// program.
class ProgramTraceCursor final : public TraceCursor {
 public:
  static constexpr std::size_t kDefaultChunkRecords = kTraceChunkRecords;

  ProgramTraceCursor(Program program, const WorkloadProfile& profile,
                     u64 n_records, std::size_t chunk_records = kDefaultChunkRecords);

  // Self-referential (mem_ keeps a reference into profile_): not movable.
  ProgramTraceCursor(const ProgramTraceCursor&) = delete;
  ProgramTraceCursor& operator=(const ProgramTraceCursor&) = delete;

  const Program& program() const override { return program_; }
  std::span<const TraceRecord> next_chunk() override;
  u64 size_hint() const override { return remaining_; }

 private:
  Program program_;
  WorkloadProfile profile_;  // mem_ keeps a reference into this copy
  SyntheticMemory mem_;
  std::array<u32, kNumRegs> regs_{};
  std::vector<TraceRecord> buf_;
  std::size_t chunk_;
  u64 remaining_;
  u32 pc_ = 0;
};

}  // namespace hcsim
