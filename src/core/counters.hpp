// hcsim — enum-indexed simulator event counters.
//
// The per-µop hot path (core/pipeline.cpp) bumps event counters constantly;
// a string-keyed map there costs a hash/tree lookup per event. Counters are
// therefore a fixed enum indexing a flat array — O(1) increments with no
// allocation. One table (HCSIM_COUNTERS) generates both the enum and the
// stable external names, so the two cannot drift.
#pragma once

#include <array>
#include <string_view>

#include "util/log.hpp"
#include "util/types.hpp"

namespace hcsim {

/// Every raw event the pipeline counts: X(enum suffix, external name). The
/// table order is the enum order and the svc wire order, so any edit here is
/// a protocol change. Comments are block comments: a `//` would swallow the
/// line continuation.
#define HCSIM_COUNTERS(X)                                                              \
  X(BbCacheHits, bb_cache_hits)                   /* decode cache: template replayed */ \
  X(BbCacheInvalidations, bb_cache_invalidations) /* decode cache: dropped by rebind */ \
  X(BbCacheMisses, bb_cache_misses)               /* decode cache: template built */    \
  X(BlockSplits, block_splits)          /* IR block mode: splits joined, no trigger */  \
  X(ChunkRenameSlots, chunk_rename_slots) /* extra rename slots for IR chunks */        \
  X(Committed, committed)                 /* µops committed */                          \
  X(CopyRenameSlots, copy_rename_slots)   /* rename slots consumed by copy µops */      \
  X(Dl0Accesses, dl0_accesses)                                                          \
  X(Fetched, fetched)                                                                   \
  X(FlushRefills, flush_refills) /* width-misprediction flush + resteer events */       \
  X(IssueFp, issue_fp)                                                                  \
  X(IssueHelper, issue_helper)                                                          \
  X(IssueWide, issue_wide)                                                              \
  X(LoadAccesses, load_accesses)                                                        \
  X(MobForwards, mob_forwards)                                                          \
  X(NreadyTruncations, nready_truncations) /* NREADY probes clipped by the GC */        \
  X(RfWriteHelper, rf_write_helper)                                                     \
  X(RfWriteWide, rf_write_wide)                                                         \
  /* Per-stage stall attribution: which constraint bound each µop's dispatch  */        \
  /* (ties credit the earlier stage). StallIssue is separate — it counts      */        \
  /* executions that sat ready in the queue waiting for an issue slot.        */        \
  X(StallCommit, stall_commit) /* dispatch bound by ROB recycling */                    \
  X(StallFetch, stall_fetch)   /* dispatch bound by fetch + frontend depth */           \
  X(StallIssue, stall_issue)   /* issued later than ready */                            \
  X(StallQueue, stall_queue)   /* dispatch bound by issue-queue backpressure */         \
  X(StallRename, stall_rename) /* dispatch bound by rename-width serialization */       \
  X(StoreAccesses, store_accesses)                                                      \
  X(Ul1Accesses, ul1_accesses)                                                          \
  X(WpredLookups, wpred_lookups)

enum class Counter : u8 {
#define HCSIM_COUNTER_ENUM(id, name) k##id,
  HCSIM_COUNTERS(HCSIM_COUNTER_ENUM)
#undef HCSIM_COUNTER_ENUM
  kCount,
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);

inline constexpr std::string_view kCounterNames[kNumCounters] = {
#define HCSIM_COUNTER_NAME(id, name) #name,
    HCSIM_COUNTERS(HCSIM_COUNTER_NAME)
#undef HCSIM_COUNTER_NAME
};

/// Stable external name of a counter (e.g. "issue_wide").
inline std::string_view counter_name(Counter c) {
  HCSIM_CHECK(c < Counter::kCount, "counter_name: out of range");
  return kCounterNames[static_cast<std::size_t>(c)];
}

/// Flat array of all counters, indexed by the enum.
class CounterArray {
 public:
  u64& operator[](Counter c) { return v_[static_cast<std::size_t>(c)]; }
  u64 operator[](Counter c) const { return v_[static_cast<std::size_t>(c)]; }
  u64 get(Counter c) const { return v_[static_cast<std::size_t>(c)]; }

  CounterArray& operator+=(const CounterArray& o) {
    for (std::size_t i = 0; i < kNumCounters; ++i) v_[i] += o.v_[i];
    return *this;
  }
  CounterArray& operator-=(const CounterArray& o) {
    for (std::size_t i = 0; i < kNumCounters; ++i) v_[i] -= o.v_[i];
    return *this;
  }
  bool operator==(const CounterArray&) const = default;

 private:
  std::array<u64, kNumCounters> v_{};
};

}  // namespace hcsim
