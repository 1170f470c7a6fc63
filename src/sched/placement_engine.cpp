#include "sched/placement_engine.h"

#include <algorithm>

#include "util/logging.h"

namespace gpunion::sched {

namespace {

/// Degradation rule (§3.2): long training jobs stay off low-score nodes.
bool degradation_ok(const NodeInfo& node, const workload::JobSpec& job,
                    const ReliabilityPredictor& reliability,
                    util::SimTime now) {
  if (job.type != workload::JobType::kTraining) return true;
  const double score = reliability.score(node.machine_id, now);
  return job.reference_duration / 3600.0 <=
         ReliabilityPredictor::max_job_hours(score);
}

}  // namespace

bool node_eligible(const NodeInfo& node, const workload::JobSpec& job,
                   bool cross_group_sharing,
                   const ReliabilityPredictor& reliability, util::SimTime now,
                   bool enforce_degradation) {
  if (!node.schedulable()) return false;
  if (!cross_group_sharing && node.owner_group != job.owner_group) {
    return false;
  }
  const auto& req = job.requirements;
  if (node.free_gpus < req.gpu_count) return false;
  if (node.gpu_memory_gb < req.gpu_memory_gb) return false;
  if (node.compute_capability < req.min_compute_capability) return false;
  if (enforce_degradation && !degradation_ok(node, job, reliability, now)) {
    return false;
  }
  return true;
}

bool slot_eligible(const NodeInfo& node, const workload::JobSpec& job,
                   bool cross_group_sharing) {
  if (!node.schedulable()) return false;
  if (!cross_group_sharing && node.owner_group != job.owner_group) {
    return false;
  }
  if (node.slots_per_gpu <= 1) return false;
  const auto& req = job.requirements;
  if (!req.shareable || req.gpu_count != 1) return false;
  if (req.gpu_memory_gb > node.share_memory_cap_gb) return false;
  if (node.compute_capability < req.min_compute_capability) return false;
  return node.free_shared_slots > 0 || node.free_gpus > 0;
}

bool timeslice_eligible(const NodeInfo& node, const workload::JobSpec& job,
                        bool cross_group_sharing) {
  if (!node.schedulable()) return false;
  if (!cross_group_sharing && node.owner_group != job.owner_group) {
    return false;
  }
  if (node.timeslice_tenants_per_gpu <= 1) return false;
  const auto& req = job.requirements;
  if (!req.shareable || req.gpu_count != 1) return false;
  // Full memory per tenant: only the working set must fit in VRAM (the
  // per-device oversubscription ceiling is the agent's to enforce).
  if (workload::resolved_working_set_gb(job) > node.gpu_memory_gb) {
    return false;
  }
  if (node.compute_capability < req.min_compute_capability) return false;
  return node.free_timeslice_slots > 0 || node.free_gpus > 0;
}

PlacementEngine::PlacementEngine(Directory& directory,
                                 const ReliabilityPredictor& reliability,
                                 const PlatformPolicy& policy,
                                 const std::string& strategy_name)
    : directory_(directory),
      reliability_(reliability),
      policy_(policy),
      strategy_(PlacementStrategyFactory::instance().create(strategy_name)) {
  if (strategy_ == nullptr) {
    GPUNION_WLOG("placement") << "unknown placement strategy '"
                              << strategy_name
                              << "'; falling back to round_robin";
    strategy_ = PlacementStrategyFactory::instance().create(
        std::string(kRoundRobin));
  }
}

bool PlacementEngine::tries(const workload::JobSpec& job,
                            PlaceMode mode) const {
  if (mode == PlaceMode::kTimeslice) {
    return policy_.timeslice_sharing && strategy_->wants_timeslice(job);
  }
  if (mode == PlaceMode::kFractional) {
    return policy_.fractional_sharing && strategy_->wants_fractional(job);
  }
  return true;
}

CandidateSet PlacementEngine::candidates(const workload::JobSpec& job,
                                         PlaceMode mode) {
  const std::string* group =
      policy_.cross_group_sharing ? nullptr : &job.owner_group;
  const auto& req = job.requirements;
  ClusterView& view = directory_.view();
  if (mode == PlaceMode::kTimeslice) {
    return view.timeslice(workload::resolved_working_set_gb(job),
                          req.min_compute_capability, group);
  }
  if (mode == PlaceMode::kFractional) {
    return view.fractional(req.gpu_memory_gb, req.min_compute_capability,
                           group);
  }
  return view.whole_gpu(req.gpu_count, req.gpu_memory_gb,
                        req.min_compute_capability, group);
}

bool PlacementEngine::eligible(const NodeInfo& node,
                               const workload::JobSpec& job, util::SimTime now,
                               PlaceMode mode) const {
  const bool degrade = strategy_->enforce_degradation();
  if (mode == PlaceMode::kWhole) {
    return node_eligible(node, job, policy_.cross_group_sharing, reliability_,
                         now, degrade);
  }
  const bool fits =
      mode == PlaceMode::kTimeslice
          ? timeslice_eligible(node, job, policy_.cross_group_sharing)
          : slot_eligible(node, job, policy_.cross_group_sharing);
  return fits && (!degrade || degradation_ok(node, job, reliability_, now));
}

bool PlacementEngine::any_eligible(const workload::JobSpec& job,
                                   util::SimTime now) {
  for (const PlaceMode mode : kModes) {
    if (!tries(job, mode)) continue;
    for (const NodeInfo* node : candidates(job, mode)) {
      if (eligible(*node, job, now, mode)) return true;
    }
  }
  return false;
}

std::optional<PlacementDecision> PlacementEngine::place(
    const workload::JobSpec& job, const std::string& preferred_node,
    util::SimTime now) {
  PlacementContext context{&reliability_, now};
  auto select = [&](const CandidateSet& set, PlaceMode mode) {
    return mode == PlaceMode::kTimeslice
               ? strategy_->select_timeslice(set, job, context)
               : strategy_->select(set, job, context,
                                   mode == PlaceMode::kFractional);
  };
  for (const PlaceMode mode : kModes) {
    if (!tries(job, mode)) continue;
    auto passes = [&](const NodeInfo& node) {
      return eligible(node, job, now, mode);
    };
    CandidateSet set = candidates(job, mode);
    // The index covers capacity, compatibility and group; only the
    // degradation rule still needs a node-by-node pass.
    if (strategy_->enforce_degradation()) set = set.filtered(passes);
    if (set.empty()) continue;
    const bool fractional = mode == PlaceMode::kFractional;
    const bool timeslice = mode == PlaceMode::kTimeslice;
    // Migrate-back affinity: the preferred node wins whenever it passes
    // the full predicate (which is what membership in `set` means).
    if (const NodeInfo* preferred = directory_.find(preferred_node);
        preferred != nullptr && passes(*preferred)) {
      return PlacementDecision{preferred, fractional, timeslice};
    }
    const NodeInfo* pick = select(set, mode);
    // The full predicate is re-checked on the pick, so an index defect can
    // never dispatch a job somewhere invalid: on a mismatch the strategy
    // chooses again among the nodes that pass it.
    if (pick != nullptr && !passes(*pick)) {
      GPUNION_ELOG("placement") << "cluster view offered ineligible node "
                                << pick->machine_id << " for " << job.id;
      pick = select(set.filtered(passes), mode);
    }
    if (pick != nullptr) {
      return PlacementDecision{pick, fractional, timeslice};
    }
  }
  return std::nullopt;
}

}  // namespace gpunion::sched
