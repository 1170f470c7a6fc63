// Placement engine: eligibility + strategy-driven node selection.
//
// Carved out of the coordinator so that the scheduling pass is a pure
// function of the indexed ClusterView, the platform policy and the
// configured PlacementStrategy.  The coordinator keeps only queue/dispatch
// mechanics; everything about *where* a job lands lives here.
//
// Shared placement: when the policy enables GPU sharing and the strategy
// wants it for a shareable job, the engine tries a time-slice seat
// (nvshare-style rotating residency, full memory per tenant) first, then a
// spatial fractional slot, and only then falls back to a whole-device
// allocation — three points on the isolation/utilization trade-off.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "sched/directory.h"
#include "sched/policy.h"
#include "sched/reliability.h"
#include "sched/strategies.h"
#include "workload/job.h"

namespace gpunion::sched {

/// Where (and how) one job should run.
struct PlacementDecision {
  const NodeInfo* node = nullptr;
  /// Placed into a spatial fractional slot instead of whole GPUs.
  bool fractional = false;
  /// Placed into an nvshare-style time-slice seat (full memory, rotating
  /// residency per quantum).  Mutually exclusive with `fractional`.
  bool timeslice = false;
};

/// Hard eligibility for a whole-GPU placement: status/accepting/capacity/
/// compatibility plus the reliability degradation rule.
bool node_eligible(const NodeInfo& node, const workload::JobSpec& job,
                   bool cross_group_sharing,
                   const ReliabilityPredictor& reliability, util::SimTime now,
                   bool enforce_degradation);

/// Hard eligibility for a fractional-slot placement: sharing enabled on the
/// node, single-GPU shareable job within the per-tenant memory cap, and a
/// slot (or a free GPU to open in shared mode) available.
bool slot_eligible(const NodeInfo& node, const workload::JobSpec& job,
                   bool cross_group_sharing);

/// Hard eligibility for a time-slice seat: time-slicing enabled on the
/// node, single-GPU shareable job whose working set fits in device VRAM,
/// and a seat (or a free GPU to open in time-slice mode) available.
bool timeslice_eligible(const NodeInfo& node, const workload::JobSpec& job,
                        bool cross_group_sharing);

class PlacementEngine {
 public:
  /// Unknown strategy names fall back to round_robin (§3.5 default).
  PlacementEngine(Directory& directory,
                  const ReliabilityPredictor& reliability,
                  const PlatformPolicy& policy,
                  const std::string& strategy_name);

  /// One placement decision for `job`.  Does not reserve capacity — that is
  /// the caller's (so a rejected dispatch can be retried elsewhere).
  /// `preferred_node` wins whenever it is eligible (migrate-back affinity).
  std::optional<PlacementDecision> place(const workload::JobSpec& job,
                                         const std::string& preferred_node,
                                         util::SimTime now);

  /// Existence check under EXACTLY the gating place() applies (policy,
  /// strategy sharing preference, reliability degradation): could this
  /// campus place the job right now?  The federation gateway uses it to
  /// decide what to forward out and what to admit in — re-deriving the
  /// predicates there would drift from real placement.  Walks the same
  /// candidate sets as place() and stops at the first node passing the full
  /// predicate: O(1) nodes on a fleet with free capacity.
  bool any_eligible(const workload::JobSpec& job, util::SimTime now);

  /// Nodes the engine's candidate sets have reached (delegates to the
  /// view's counter; the work-bound regression hook).
  std::uint64_t candidates_examined() const {
    return directory_.view().candidates_examined();
  }

  PlacementStrategy& strategy() { return *strategy_; }
  const PlacementStrategy& strategy() const { return *strategy_; }
  std::string_view strategy_name() const { return strategy_->name(); }

 private:
  /// Which allocation shape a candidate pass is generating for.
  enum class PlaceMode { kWhole, kFractional, kTimeslice };
  static constexpr PlaceMode kModes[] = {
      PlaceMode::kTimeslice, PlaceMode::kFractional, PlaceMode::kWhole};

  /// Whether policy and strategy let `job` take this allocation shape.
  bool tries(const workload::JobSpec& job, PlaceMode mode) const;
  /// The view's candidate set for `mode` (capacity, compatibility, group).
  CandidateSet candidates(const workload::JobSpec& job, PlaceMode mode);
  /// The full placement predicate for `mode`, degradation rule included
  /// when the strategy enforces it.
  bool eligible(const NodeInfo& node, const workload::JobSpec& job,
                util::SimTime now, PlaceMode mode) const;

  Directory& directory_;
  const ReliabilityPredictor& reliability_;
  const PlatformPolicy& policy_;
  std::unique_ptr<PlacementStrategy> strategy_;
};

}  // namespace gpunion::sched
