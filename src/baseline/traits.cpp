#include "baseline/traits.h"

namespace gpunion::baseline {

const std::vector<PlatformTraits>& table1_platforms() {
  static const std::vector<PlatformTraits> platforms = {
      {"OpenStack", "Extensive", "Very High", "Very Heavy", "Steep", "None",
       "VMs/Mixed", "No", "Limited", "Add-on", "No", "Data Center",
       "Infrastructure"},
      {"CloudStack", "Limited", "Medium", "Medium", "Moderate", "None", "VMs",
       "No", "Limited", "Limited", "No", "SME Clouds", "Infrastructure"},
      {"OpenNebula", "Limited", "Medium", "Light", "Gentle", "Limited",
       "VMs/Mixed", "No", "Limited", "Add-on", "No", "Private Clouds",
       "Infrastructure"},
      {"Kubernetes", "Extensive", "High", "Heavy", "Steep", "None",
       "Containers", "No", "Limited", "Plugin", "No", "Large Clusters",
       "Infrastructure"},
      {"GPUnion", "Academic", "Low", "Minimal", "Gentle", "Full",
       "GPU Containers", "Yes", "Native", "Core Feature", "Yes",
       "Campus LANs", "Workload"},
  };
  return platforms;
}

}  // namespace gpunion::baseline
