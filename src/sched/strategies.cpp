#include "sched/strategies.h"

#include <algorithm>

namespace gpunion::sched {

PlacementStrategyFactory& PlacementStrategyFactory::instance() {
  static PlacementStrategyFactory factory;
  return factory;
}

void PlacementStrategyFactory::register_strategy(std::string name,
                                                 Builder builder) {
  builders_[std::move(name)] = std::move(builder);
}

std::unique_ptr<PlacementStrategy> PlacementStrategyFactory::create(
    const std::string& name) const {
  auto it = builders_.find(name);
  return it == builders_.end() ? nullptr : it->second();
}

std::vector<std::string> PlacementStrategyFactory::names() const {
  std::vector<std::string> out;
  out.reserve(builders_.size());
  for (const auto& [name, builder] : builders_) out.push_back(name);
  return out;  // std::map iteration is sorted
}

namespace {

/// Pack: tightest VRAM fit keeps 80 GB A100s free for jobs that need them.
const NodeInfo* best_vram_fit(const CandidateSet& candidates,
                              const workload::JobSpec& job);

/// The node with the fewest (but some) free shared units — slots or seats
/// per `free_units` — ties by machine id; nullptr when none has any.
const NodeInfo* tightest_shared(const CandidateSet& candidates,
                                int NodeInfo::*free_units) {
  const NodeInfo* tightest = nullptr;
  for (const NodeInfo* node : candidates) {
    if (node->*free_units <= 0) continue;
    if (tightest == nullptr || node->*free_units < tightest->*free_units ||
        (node->*free_units == tightest->*free_units &&
         node->machine_id < tightest->machine_id)) {
      tightest = node;
    }
  }
  return tightest;
}

}  // namespace

const NodeInfo* PlacementStrategy::select_timeslice(
    const CandidateSet& candidates,
    const workload::JobSpec& job, const PlacementContext& context) {
  (void)context;
  // Pack onto already-sliced devices first (fewest free seats = tightest),
  // so whole GPUs stay free for training; open a fresh device only when no
  // seat is free anywhere, on the node whose VRAM the tenant wastes least.
  const NodeInfo* tightest =
      tightest_shared(candidates, &NodeInfo::free_timeslice_slots);
  return tightest != nullptr ? tightest : best_vram_fit(candidates, job);
}

namespace {

/// Fairness: rotate across eligible providers.
class RoundRobinStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kRoundRobin; }

  const NodeInfo* select(const CandidateSet& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         bool fractional) override {
    (void)job;
    (void)context;
    (void)fractional;
    if (candidates.empty()) return nullptr;
    return candidates.nth(cursor_++ % candidates.size());
  }

 private:
  std::size_t cursor_ = 0;
};

/// Spread: most available capacity first (absolute free GPUs), so big idle
/// servers absorb work before single-GPU workstations.
class LeastLoadedStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kLeastLoaded; }

  const NodeInfo* select(const CandidateSet& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         bool fractional) override {
    (void)job;
    (void)context;
    (void)fractional;
    if (candidates.empty()) return nullptr;
    return *std::max_element(candidates.begin(), candidates.end(),
                             [](const NodeInfo* a, const NodeInfo* b) {
                               if (a->free_gpus != b->free_gpus) {
                                 return a->free_gpus < b->free_gpus;
                               }
                               return a->machine_id > b->machine_id;
                             });
  }
};

/// Pack: tightest VRAM fit keeps 80 GB A100s free for jobs that need them.
const NodeInfo* best_vram_fit(const CandidateSet& candidates,
                              const workload::JobSpec& job) {
  if (candidates.empty()) return nullptr;
  return *std::min_element(
      candidates.begin(), candidates.end(),
      [&job](const NodeInfo* a, const NodeInfo* b) {
        const double slack_a = a->gpu_memory_gb - job.requirements.gpu_memory_gb;
        const double slack_b = b->gpu_memory_gb - job.requirements.gpu_memory_gb;
        if (slack_a != slack_b) return slack_a < slack_b;
        return a->machine_id < b->machine_id;
      });
}

class BestFitStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kBestFit; }

  const NodeInfo* select(const CandidateSet& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         bool fractional) override {
    (void)context;
    (void)fractional;
    return best_vram_fit(candidates, job);
  }
};

/// Prefer steady providers (volatility prediction, §3.2) and enforce the
/// degradation rule during eligibility.
class ReliabilityAwareStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kReliabilityAware; }
  bool enforce_degradation() const override { return true; }

  const NodeInfo* select(const CandidateSet& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         bool fractional) override {
    (void)job;
    (void)fractional;
    if (candidates.empty()) return nullptr;
    const ReliabilityPredictor* reliability = context.reliability;
    const util::SimTime now = context.now;
    return *std::max_element(
        candidates.begin(), candidates.end(),
        [reliability, now](const NodeInfo* a, const NodeInfo* b) {
          if (reliability != nullptr) {
            const double score_a = reliability->score(a->machine_id, now);
            const double score_b = reliability->score(b->machine_id, now);
            if (score_a != score_b) return score_a < score_b;
          }
          if (a->free_gpus != b->free_gpus) {
            return a->free_gpus < b->free_gpus;
          }
          return a->machine_id > b->machine_id;
        });
  }
};

/// Fractional packing: shareable jobs go to fractional slots, tightest
/// first — prefer the node whose shared GPUs have the fewest free slots
/// left (keep shared devices hot, keep whole devices free for training);
/// open a fresh shared GPU only when no partially-filled one fits, picking
/// the tightest VRAM fit for it.  Whole-GPU jobs fall back to best-fit.
class PackedSharingStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kPackedSharing; }

  bool wants_fractional(const workload::JobSpec& job) const override {
    return job.requirements.shareable && job.requirements.gpu_count == 1;
  }

  const NodeInfo* select(const CandidateSet& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         bool fractional) override {
    (void)context;
    if (!fractional) return best_vram_fit(candidates, job);
    const NodeInfo* tightest =
        tightest_shared(candidates, &NodeInfo::free_shared_slots);
    // No partially-filled shared GPU anywhere: open one on the node whose
    // VRAM the tenant wastes least.
    return tightest != nullptr ? tightest : best_vram_fit(candidates, job);
  }
};

const PlacementStrategyRegistrar<RoundRobinStrategy> round_robin_registrar(
    "round_robin");
const PlacementStrategyRegistrar<LeastLoadedStrategy> least_loaded_registrar(
    "least_loaded");
const PlacementStrategyRegistrar<BestFitStrategy> best_fit_registrar(
    "best_fit");
const PlacementStrategyRegistrar<ReliabilityAwareStrategy>
    reliability_aware_registrar("reliability_aware");
/// Duty-cycle-adaptive sharing: a shareable single-GPU job whose duty
/// cycle is bursty (interactive sessions idle ~65% of the time) wastes a
/// dedicated slice — time-slice seats let several such tenants share one
/// device at full memory each, rotating residency per quantum.  Steady
/// shareable jobs keep the spatial fractional path (a time quantum would
/// serialize them), and whole-GPU jobs fall back to best-fit.
/// Fractional selection is packed_sharing's.
class AdaptiveSharingStrategy : public PackedSharingStrategy {
 public:
  std::string_view name() const override { return kAdaptiveSharing; }

  bool wants_timeslice(const workload::JobSpec& job) const override {
    return job.requirements.shareable && job.requirements.gpu_count == 1 &&
           workload::resolved_duty_cycle(job) < 0.6;
  }
};

const PlacementStrategyRegistrar<PackedSharingStrategy>
    packed_sharing_registrar("packed_sharing");
const PlacementStrategyRegistrar<AdaptiveSharingStrategy>
    adaptive_sharing_registrar("adaptive_sharing");

}  // namespace

}  // namespace gpunion::sched
