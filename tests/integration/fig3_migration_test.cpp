// Figure 3 shape: migration under interruption scenarios (§4).
//
// The paper ran 20 DL training jobs on two volunteer providers for a week
// at 0.5-3.2 interruptions/day/node and reports: scheduled departures
// migrate within the window 94% of the time with minimal loss, and an
// emergency departure loses about one checkpoint interval of work.  Here
// 14 multi-day CNN/transformer jobs run on two volunteer servers (8x4090 +
// 4xA6000) with ten refuge workstations, under 2 interruptions/day/node
// for a week, checkpointing every 10 min.  Three fixed seeds; the first
// is the one the retired fig3 bench used for this rate.
#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpunion/client.h"
#include "tests/integration/paper_scenario.h"
#include "util/logging.h"
#include "workload/profiles.h"

namespace gpunion::paper {
namespace {

constexpr std::array<std::uint64_t, 3> kSeeds = {9020, 9021, 9022};
constexpr double kEventsPerDay = 2.0;
const util::Duration kCheckpointInterval = util::minutes(10);
constexpr double kPaperScheduledSuccess = 0.94;

struct CauseOutcome {
  int interruptions = 0;
  int resumed_in_window = 0;
  double lost_work_max_min = 0;
  double lost_work_mean_min = 0;
};

struct Fig3Run {
  std::uint64_t seed = 0;
  CauseOutcome scheduled;
  CauseOutcome emergency;
};

/// Two volunteer multi-GPU providers plus ten workstations as refuge
/// capacity; least-loaded placement concentrates jobs on the volunteers.
void volunteer_fleet(CampusConfig& config) {
  config.nodes.clear();
  config.nodes.push_back({hw::server_8x4090("srv-mlsys-0"), "mlsys"});
  config.nodes.push_back({hw::server_4xa6000("srv-nlp-big"), "nlp"});
  for (int i = 0; i < 10; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090("ws-refuge-" + std::to_string(i)), "campus"});
  }
  config.coordinator.strategy = std::string(sched::kLeastLoaded);
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 600.0;
  config.scrape_interval = 600.0;
}

/// Interruptions of one cause, migrate-back evictions excluded (the
/// tracker's own success_rate convention).
CauseOutcome outcome(const sched::MigrationTracker& tracker,
                     agent::DepartureKind cause, util::Duration window) {
  CauseOutcome out;
  double lost_sum = 0;
  for (const sched::MigrationRecord& record : tracker.records()) {
    if (record.cause != cause || record.migrate_back_eviction) continue;
    ++out.interruptions;
    if (record.resumed() && record.downtime() <= window) {
      ++out.resumed_in_window;
    }
    const double lost_min = record.lost_work_seconds / 60.0;
    out.lost_work_max_min = std::max(out.lost_work_max_min, lost_min);
    lost_sum += lost_min;
  }
  if (out.interruptions > 0) {
    out.lost_work_mean_min = lost_sum / out.interruptions;
  }
  return out;
}

Fig3Run run_week(std::uint64_t seed) {
  util::Logger::instance().set_level(util::LogLevel::kError);
  Scenario scenario =
      make_scenario(baseline::Preset::kGpunion, seed, volunteer_fleet);
  auto& env = *scenario.env;
  const util::SimTime horizon = util::days(7);

  Client client(*scenario.platform, "mlsys");
  util::Rng job_rng(seed ^ 0xabcd);
  for (int i = 0; i < 14; ++i) {
    const auto& profile = i % 2 == 0 ? workload::cnn_large()
                                     : workload::transformer_small();
    const double hours = job_rng.uniform(60.0, 130.0);
    const double at = job_rng.uniform(0.0, util::days(1));
    env.schedule_at(at, [&client, &profile, hours] {
      SubmitOptions options;
      options.checkpoint_interval = kCheckpointInterval;
      (void)client.submit_training(profile, hours, options);
    });
  }

  workload::InterruptionModel model;
  model.events_per_day = kEventsPerDay;
  model.min_downtime = util::minutes(30);
  model.max_downtime = util::hours(4);
  model.temporary_downtime = util::minutes(25);
  const std::vector<std::string> volunteers = {
      Platform::machine_id_for("srv-mlsys-0"),
      Platform::machine_id_for("srv-nlp-big")};
  inject_churn(scenario,
               workload::generate_interruptions(volunteers, horizon, model,
                                                util::Rng(seed + 7)));
  env.run_until(horizon);

  const auto& tracker = scenario.coordinator().migrations();
  const util::Duration window =
      scenario.coordinator().config().migration_success_window;
  Fig3Run run;
  run.seed = seed;
  run.scheduled = outcome(tracker, agent::DepartureKind::kScheduled, window);
  run.emergency = outcome(tracker, agent::DepartureKind::kEmergency, window);
  return run;
}

/// One simulated week per seed, shared by every property below.
const std::vector<Fig3Run>& runs() {
  static const std::vector<Fig3Run> all = [] {
    std::vector<Fig3Run> out;
    for (const std::uint64_t seed : kSeeds) out.push_back(run_week(seed));
    return out;
  }();
  return all;
}

TEST(Fig3MigrationTest, ScheduledDeparturesLoseNoWork) {
  for (const Fig3Run& run : runs()) {
    SCOPED_TRACE("seed " + std::to_string(run.seed));
    ASSERT_GT(run.scheduled.interruptions, 0);
    EXPECT_LE(run.scheduled.lost_work_max_min, 1e-6);
  }
}

TEST(Fig3MigrationTest, EmergencyLossIsAtMostOneCheckpointInterval) {
  for (const Fig3Run& run : runs()) {
    SCOPED_TRACE("seed " + std::to_string(run.seed));
    ASSERT_GT(run.emergency.interruptions, 0);
    EXPECT_LE(run.emergency.lost_work_mean_min,
              kCheckpointInterval / 60.0);
  }
}

TEST(Fig3MigrationTest, ScheduledSuccessIsNearThePapers94Percent) {
  // Pooled over the three weeks (the paper's figure is one aggregate):
  // within six points of 94%.
  int interruptions = 0;
  int resumed = 0;
  for (const Fig3Run& run : runs()) {
    interruptions += run.scheduled.interruptions;
    resumed += run.scheduled.resumed_in_window;
  }
  ASSERT_GT(interruptions, 0);
  const double success =
      static_cast<double>(resumed) / static_cast<double>(interruptions);
  EXPECT_GE(success, kPaperScheduledSuccess - 0.06)
      << resumed << "/" << interruptions << " scheduled interruptions";
}

}  // namespace
}  // namespace gpunion::paper
