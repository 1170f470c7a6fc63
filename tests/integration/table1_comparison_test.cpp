// Table 1 shape: churn tolerance of GPUnion against the baseline platform
// semantics (sched/policy.h presets) under one workload and churn trace.
//
// For ten days, two research groups submit bursty training work and
// notebook sessions to the paper campus while every node suffers 1.5
// interruptions/day; queued jobs are abandoned after two days.  The same trace replays under
// GPUnion, a Kubernetes-like orchestrator (restart from scratch), a
// Slurm-like reservation system (restart at the queue tail) and manual
// per-group silos.  Three fixed seeds; the first is the one the retired
// table1_comparison bench used.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/integration/paper_scenario.h"
#include "util/logging.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace gpunion::paper {
namespace {

constexpr std::array<std::uint64_t, 3> kSeeds = {31337, 31338, 31339};
const util::SimTime kHorizon = util::days(10);

struct ChurnOutcome {
  int completed = 0;
  double wasted_gpu_hours = 0;  // recomputation from lost work
  /// Mean interruption-to-resume time; +inf when nothing ever resumed.
  double mean_downtime_s = 0;
};

struct PresetRuns {
  ChurnOutcome gpunion, kubernetes, slurm, manual;
};

workload::Trace campus_trace(std::uint64_t seed) {
  std::vector<workload::GroupDemand> groups(2);
  groups[0].name = "vision";
  for (int i = 0; i < 5; ++i) {
    groups[0].owned_nodes.push_back(
        Platform::machine_id_for("ws-vision-" + std::to_string(i)));
  }
  groups[0].burst_jobs_per_day = 10.0;
  groups[0].idle_jobs_per_day = 2.0;
  groups[0].burst_days = 4.0;
  groups[0].gap_days = 5.0;
  groups[0].sessions_per_day = 5.0;
  groups[0].duration_scale = 0.5;
  groups[1].name = "nlp";
  groups[1].owned_nodes = {Platform::machine_id_for("ws-nlp-0"),
                           Platform::machine_id_for("ws-nlp-1"),
                           Platform::machine_id_for("ws-nlp-2"),
                           Platform::machine_id_for("srv-nlp-big")};
  groups[1].burst_jobs_per_day = 8.0;
  groups[1].idle_jobs_per_day = 2.0;
  groups[1].burst_days = 4.0;
  groups[1].gap_days = 5.0;
  groups[1].phase_days = 4.0;
  groups[1].sessions_per_day = 4.0;
  groups[1].duration_scale = 0.5;
  return workload::generate_campus_trace(groups, kHorizon, util::Rng(seed));
}

std::vector<workload::Interruption> campus_churn(std::uint64_t seed) {
  std::vector<std::string> machines;
  for (const auto& node : paper_campus().nodes) {
    machines.push_back(Platform::machine_id_for(node.spec.hostname));
  }
  workload::InterruptionModel model;
  model.events_per_day = 1.5;
  return workload::generate_interruptions(machines, kHorizon, model,
                                          util::Rng(seed + 1));
}

/// Schedules a submission trace, adapted to the preset.
void replay_trace(Scenario& scenario, const workload::Trace& trace) {
  for (const auto& event : trace) {
    auto job = baseline::adapt_job(event.job, scenario.preset);
    scenario.env->schedule_at(
        std::max(event.at, scenario.env->now()), [&scenario, job]() mutable {
          (void)scenario.coordinator().submit(std::move(job));
        });
  }
}

/// In an hour, cancels the training jobs that have queued undispatched
/// longer than `patience`, then checks again an hour later: users abandon
/// work they cannot run.
void schedule_give_up(sim::Environment* env, Platform* platform,
                      util::Duration patience) {
  env->schedule_after(3600.0, [env, platform, patience] {
    auto& coordinator = platform->coordinator();
    std::vector<std::string> to_cancel;
    for (const auto& [job_id, record] : coordinator.jobs()) {
      if (record.phase == sched::JobPhase::kPending &&
          record.first_dispatched_at < 0 &&
          env->now() - record.submitted_at > patience) {
        to_cancel.push_back(job_id);
      }
    }
    for (const auto& job_id : to_cancel) (void)coordinator.cancel(job_id);
    schedule_give_up(env, platform, patience);
  });
}

ChurnOutcome run(baseline::Preset preset, const workload::Trace& trace,
                 const std::vector<workload::Interruption>& churn,
                 std::uint64_t seed) {
  Scenario scenario = make_scenario(preset, seed, [](CampusConfig& config) {
    config.coordinator.heartbeat_interval = 10.0;
    config.agent_defaults.telemetry_interval = 600.0;
    config.scrape_interval = 600.0;
  });
  replay_trace(scenario, trace);
  inject_churn(scenario, churn);
  schedule_give_up(scenario.env.get(), scenario.platform.get(),
                   util::days(2));
  scenario.env->run_until(kHorizon);

  ChurnOutcome outcome;
  outcome.completed = scenario.coordinator().stats().training_completed;
  const sched::Coordinator& coordinator = scenario.coordinator();
  for (const auto* records : {&coordinator.jobs(), &coordinator.archive()}) {
    for (const auto& [job_id, record] : *records) {
      outcome.wasted_gpu_hours += record.lost_work_seconds / 3600.0;
    }
  }
  util::SampleSet downtimes;
  for (const auto& record : scenario.coordinator().migrations().records()) {
    if (record.resumed() && !record.was_migrate_back) {
      downtimes.add(record.downtime());
    }
  }
  outcome.mean_downtime_s = downtimes.count() == 0
                                ? std::numeric_limits<double>::infinity()
                                : downtimes.mean();
  return outcome;
}

/// The four presets under each seed's trace, shared by the properties.
/// Each replay owns its environment and platform and shares no state, so
/// a seed's four presets run on their own threads.
const std::vector<PresetRuns>& runs() {
  static const std::vector<PresetRuns> all = [] {
    util::Logger::instance().set_level(util::LogLevel::kError);
    std::vector<PresetRuns> out;
    for (const std::uint64_t seed : kSeeds) {
      const auto trace = campus_trace(seed);
      const auto churn = campus_churn(seed);
      auto replay = [&](baseline::Preset preset) {
        return std::async(std::launch::async, [&, preset] {
          return run(preset, trace, churn, seed);
        });
      };
      auto gpunion = replay(baseline::Preset::kGpunion);
      auto kubernetes = replay(baseline::Preset::kKubernetes);
      auto slurm = replay(baseline::Preset::kSlurm);
      auto manual = replay(baseline::Preset::kManual);
      out.push_back(
          {gpunion.get(), kubernetes.get(), slurm.get(), manual.get()});
    }
    return out;
  }();
  return all;
}

TEST(Table1ComparisonTest, GpunionCompletesAtLeastAsManyJobs) {
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(kSeeds[i]));
    const PresetRuns& r = runs()[i];
    EXPECT_GT(r.gpunion.completed, 0);
    EXPECT_GE(r.gpunion.completed, r.kubernetes.completed);
    EXPECT_GE(r.gpunion.completed, r.slurm.completed);
    EXPECT_GE(r.gpunion.completed, r.manual.completed);
  }
}

TEST(Table1ComparisonTest, GpunionWastesFewerGpuHoursThanRestartFromScratch) {
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(kSeeds[i]));
    const PresetRuns& r = runs()[i];
    EXPECT_LT(r.gpunion.wasted_gpu_hours, r.kubernetes.wasted_gpu_hours);
    EXPECT_LT(r.gpunion.wasted_gpu_hours, r.slurm.wasted_gpu_hours);
  }
}

TEST(Table1ComparisonTest, GpunionHasTheLowestMeanDowntime) {
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(kSeeds[i]));
    const PresetRuns& r = runs()[i];
    ASSERT_TRUE(std::isfinite(r.gpunion.mean_downtime_s));
    EXPECT_LT(r.gpunion.mean_downtime_s, r.kubernetes.mean_downtime_s);
    EXPECT_LT(r.gpunion.mean_downtime_s, r.slurm.mean_downtime_s);
    EXPECT_LT(r.gpunion.mean_downtime_s, r.manual.mean_downtime_s);
  }
}

}  // namespace
}  // namespace gpunion::paper
