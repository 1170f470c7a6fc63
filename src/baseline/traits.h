// Table 1 platform-comparison matrix.
//
// The qualitative rows of the paper's Table 1, held as data so tests can
// assert on invariants (only GPUnion offers full provider autonomy +
// voluntary participation).
#pragma once

#include <string>
#include <vector>

namespace gpunion::baseline {

struct PlatformTraits {
  std::string platform;
  std::string community_support;
  std::string deployment_complexity;
  std::string resource_footprint;
  std::string learning_curve;
  std::string provider_autonomy;
  std::string workload_focus;
  std::string voluntary_participation;
  std::string dynamic_node_joining;
  std::string gpu_specialization;
  std::string campus_network_optimization;
  std::string target_environment;
  std::string fault_tolerance_model;
};

/// The five columns of Table 1, paper order: OpenStack, CloudStack,
/// OpenNebula, Kubernetes, GPUnion.
const std::vector<PlatformTraits>& table1_platforms();

}  // namespace gpunion::baseline
