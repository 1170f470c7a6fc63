#include "baseline/traits.h"

#include <gtest/gtest.h>

namespace gpunion::baseline {
namespace {

TEST(TraitsTest, FivePlatformsInPaperOrder) {
  const auto& platforms = table1_platforms();
  ASSERT_EQ(platforms.size(), 5u);
  EXPECT_EQ(platforms[0].platform, "OpenStack");
  EXPECT_EQ(platforms[1].platform, "CloudStack");
  EXPECT_EQ(platforms[2].platform, "OpenNebula");
  EXPECT_EQ(platforms[3].platform, "Kubernetes");
  EXPECT_EQ(platforms[4].platform, "GPUnion");
}

TEST(TraitsTest, OnlyGpunionIsVoluntaryAndAutonomous) {
  for (const auto& platform : table1_platforms()) {
    if (platform.platform == "GPUnion") {
      EXPECT_EQ(platform.voluntary_participation, "Yes");
      EXPECT_EQ(platform.provider_autonomy, "Full");
      EXPECT_EQ(platform.fault_tolerance_model, "Workload");
      EXPECT_EQ(platform.dynamic_node_joining, "Native");
    } else {
      EXPECT_EQ(platform.voluntary_participation, "No");
      EXPECT_NE(platform.provider_autonomy, "Full");
      EXPECT_EQ(platform.fault_tolerance_model, "Infrastructure");
    }
  }
}

}  // namespace
}  // namespace gpunion::baseline
