// Tests for the trace cache and machine descriptions of src/sim.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace hcsim {
namespace {

TEST(Simulator, CachedTraceReturnsSameObject) {
  const WorkloadProfile& p = spec_profile("gcc");
  const Trace& a = cached_trace(p, 5000);
  const Trace& b = cached_trace(p, 5000);
  EXPECT_EQ(&a, &b);
  const Trace& c = cached_trace(p, 6000);
  EXPECT_NE(&a, &c);
}

TEST(Simulator, DescribeMachineMentionsTable1Parameters) {
  const std::string s = describe_machine(helper_machine(steering_ir()));
  EXPECT_NE(s.find("32 entry scheduler, 3 issue"), std::string::npos);
  EXPECT_NE(s.find("32KB"), std::string::npos);
  EXPECT_NE(s.find("4MB"), std::string::npos);
  EXPECT_NE(s.find("450 cycles"), std::string::npos);
  EXPECT_NE(s.find("8-bit"), std::string::npos);
  EXPECT_NE(s.find("2x clock"), std::string::npos);
}

TEST(Simulator, BaselineDescriptionOmitsHelper) {
  const std::string s = describe_machine(monolithic_baseline());
  EXPECT_EQ(s.find("Helper cluster"), std::string::npos);
}

TEST(Simulator, DefaultTraceLenPositive) {
  EXPECT_GT(default_trace_len(), 0u);
}

TEST(Simulator, MachineConfigFactories) {
  EXPECT_FALSE(monolithic_baseline().steer.helper_enabled);
  EXPECT_TRUE(helper_machine(steering_888()).steer.helper_enabled);
  EXPECT_TRUE(helper_machine(steering_ir()).steer.ir);
}

}  // namespace
}  // namespace hcsim
