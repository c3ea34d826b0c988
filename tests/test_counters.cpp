// Tests for the enum-indexed counter array and its name table.
#include <gtest/gtest.h>

#include <set>

#include "core/counters.hpp"

namespace hcsim {
namespace {

TEST(Counters, NamesAreNonEmptyAndUnique) {
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const std::string_view name = counter_name(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate counter name " << name;
  }
  EXPECT_EQ(counter_name(Counter::kIssueWide), "issue_wide");
  EXPECT_EQ(counter_name(Counter::kWpredLookups), "wpred_lookups");
}

TEST(Counters, ArrayArithmeticIsElementwise) {
  CounterArray a, b;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    a[static_cast<Counter>(i)] = 100 + i;
    b[static_cast<Counter>(i)] = i;
  }
  CounterArray sum = a;
  sum += b;
  EXPECT_EQ(sum[Counter::kCommitted], a[Counter::kCommitted] + b[Counter::kCommitted]);
  EXPECT_FALSE(sum == a);
  sum -= b;
  EXPECT_EQ(sum, a);
  sum -= a;
  EXPECT_EQ(sum, CounterArray{});
}

}  // namespace
}  // namespace hcsim
