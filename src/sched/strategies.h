// Pluggable placement strategies.
//
// §3.2: "The scheduler implements multiple allocation strategies, including
// distribution for fairness and assignment based on priority"; §3.5 names
// the round-robin scheduler over the pending-request priority queue.  Each
// strategy is a PlacementStrategy subclass registered in the factory by
// name, so new policies land without touching the coordinator.
// bench/ablation_strategies compares them head-to-head.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sched/directory.h"
#include "sched/reliability.h"
#include "workload/job.h"

namespace gpunion::sched {

/// Read-only inputs a strategy may consult when ranking candidates.
struct PlacementContext {
  const ReliabilityPredictor* reliability = nullptr;
  util::SimTime now = 0;
};

/// One allocation policy.  Instances may be stateful (round-robin keeps a
/// rotating cursor), so the coordinator owns one instance for its lifetime.
class PlacementStrategy {
 public:
  virtual ~PlacementStrategy() = default;

  virtual std::string_view name() const = 0;

  /// Strategies built on reliability predictions also enforce the
  /// degradation rule (long jobs kept off flaky nodes) during eligibility.
  virtual bool enforce_degradation() const { return false; }

  /// True when the strategy places this job into a fractional GPU slot
  /// (spatially-partitioned sharing) in preference to a whole device.
  virtual bool wants_fractional(const workload::JobSpec& job) const {
    (void)job;
    return false;
  }

  /// True when the strategy places this job into an nvshare-style
  /// time-slice seat (full memory, rotating residency) in preference to a
  /// fractional slot or a whole device.
  virtual bool wants_timeslice(const workload::JobSpec& job) const {
    (void)job;
    return false;
  }

  /// Picks a node among `candidates` (the index's capacity/compatibility
  /// match; the engine re-checks the full predicate on the pick).
  /// `fractional` marks a slot-placement pass.  Returns nullptr when the
  /// set is empty.
  virtual const NodeInfo* select(const CandidateSet& candidates,
                                 const workload::JobSpec& job,
                                 const PlacementContext& context,
                                 bool fractional) = 0;

  /// Picks a node for a time-slice seat.  The default packs: fewest free
  /// seats on an already-sliced device first, then the tightest VRAM fit
  /// to open a fresh device.  Returns nullptr when the list is empty.
  virtual const NodeInfo* select_timeslice(const CandidateSet& candidates,
                                           const workload::JobSpec& job,
                                           const PlacementContext& context);
};

/// Name-indexed registry.  Strategies self-register at static-init time;
/// the coordinator resolves its configured strategy here and never switches
/// on a policy enum.
class PlacementStrategyFactory {
 public:
  using Builder = std::function<std::unique_ptr<PlacementStrategy>()>;

  static PlacementStrategyFactory& instance();

  void register_strategy(std::string name, Builder builder);
  /// nullptr for unknown names.
  std::unique_ptr<PlacementStrategy> create(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, Builder> builders_;
};

/// Registers `S` (default-constructible) under `name` at static-init time:
///   const PlacementStrategyRegistrar<MyStrategy> reg("my_strategy");
template <typename S>
struct PlacementStrategyRegistrar {
  explicit PlacementStrategyRegistrar(const char* name) {
    PlacementStrategyFactory::instance().register_strategy(
        name, [] { return std::make_unique<S>(); });
  }
};

/// Built-in strategy names.
inline constexpr std::string_view kRoundRobin = "round_robin";
inline constexpr std::string_view kLeastLoaded = "least_loaded";
inline constexpr std::string_view kBestFit = "best_fit";
inline constexpr std::string_view kReliabilityAware = "reliability_aware";
/// Fractional-slot packing: shareable jobs are packed onto already-shared
/// GPUs; whole-GPU jobs fall back to best-fit.
inline constexpr std::string_view kPackedSharing = "packed_sharing";
/// Duty-cycle-adaptive sharing: bursty shareable jobs (interactive
/// sessions) go to nvshare-style time-slice seats, steady shareable jobs
/// to fractional slots, everything else to whole devices (best-fit).
inline constexpr std::string_view kAdaptiveSharing = "adaptive_sharing";

}  // namespace gpunion::sched
