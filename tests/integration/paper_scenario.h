// Scenario wiring shared by the paper-shape properties (fig3_migration,
// table1_comparison, training_impact, network_traffic): a started campus
// under one baseline preset, and churn injection.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/presets.h"
#include "gpunion/platform.h"
#include "workload/provider_behavior.h"

namespace gpunion::paper {

/// A running platform with its environment and the preset applied.
struct Scenario {
  std::unique_ptr<sim::Environment> env;
  std::unique_ptr<Platform> platform;
  baseline::Preset preset = baseline::Preset::kGpunion;

  sched::Coordinator& coordinator() { return platform->coordinator(); }
};

/// Builds and starts the paper campus under `preset`; `mutate` may adjust
/// the config (fleet, intervals) before construction.
inline Scenario make_scenario(
    baseline::Preset preset, std::uint64_t seed,
    const std::function<void(CampusConfig&)>& mutate = {}) {
  Scenario scenario;
  scenario.preset = preset;
  scenario.env = std::make_unique<sim::Environment>(seed);
  CampusConfig config = paper_campus();
  baseline::apply_preset(config, preset);
  if (mutate) mutate(config);
  scenario.platform = std::make_unique<Platform>(*scenario.env, config);
  scenario.platform->start();
  scenario.env->run_until(5.0);
  return scenario;
}

/// Schedules churn events.
inline void inject_churn(Scenario& scenario,
                         const std::vector<workload::Interruption>& events) {
  for (const auto& event : events) {
    scenario.env->schedule_at(
        std::max(event.at, scenario.env->now()),
        [&scenario, event] { scenario.platform->inject_interruption(event); });
  }
}

}  // namespace gpunion::paper
