// §4 network traffic shape: checkpoint backup traffic stays under 2% of
// the campus backbone, and incremental checkpoints are what keep it there.
//
// Every GPU of the paper campus runs a checkpointing training job for a
// day (three profiles, staggered over the first hour, checkpoints to the
// campus NAS every 15 min, backups paced to 1.8% of the 10 Gbps
// backbone).  The same day runs twice: incremental chains (a full
// snapshot every 8th checkpoint) and full snapshots every time.  Three
// fixed seeds; the first is the one the retired network_traffic bench
// used.
#include <array>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "gpunion/client.h"
#include "tests/integration/paper_scenario.h"
#include "util/logging.h"
#include "workload/profiles.h"

namespace gpunion::paper {
namespace {

constexpr std::array<std::uint64_t, 3> kSeeds = {777, 778, 779};
constexpr double kPaperBackupShare = 0.02;

struct TrafficRun {
  double peak_backup_share = 0;  // of backbone capacity, 60 s buckets
  std::uint64_t checkpoint_bytes = 0;
};

TrafficRun run_day(bool incremental, std::uint64_t seed) {
  util::Logger::instance().set_level(util::LogLevel::kError);
  Scenario scenario = make_scenario(
      baseline::Preset::kGpunion, seed, [incremental](CampusConfig& config) {
        config.coordinator.heartbeat_interval = 2.0;
        config.agent_defaults.telemetry_interval = 30.0;
        config.network.backup_pace_gbps = 0.18;
        // full_every = 1 writes a full snapshot at every checkpoint.
        config.checkpoint_store.full_every = incremental ? 8 : 1;
      });
  auto& env = *scenario.env;
  const util::SimTime horizon = util::days(1);

  Client client(*scenario.platform, "campus");
  util::Rng rng(seed);
  const auto& profiles = workload::all_profiles();
  for (int i = 0; i < 22; ++i) {
    const auto& profile = profiles[static_cast<std::size_t>(i) % 3];
    env.schedule_at(rng.uniform(0.0, 3600.0), [&client, &profile] {
      SubmitOptions options;
      options.checkpoint_interval = util::minutes(15);
      options.preferred_storage = {"nas-campus"};
      (void)client.submit_training(profile, 60.0, options);
    });
  }
  env.run_until(horizon);

  const net::SimNetwork& network = scenario.platform->network();
  TrafficRun run;
  // Backup traffic is the checkpoint and migration classes; the first hour
  // is skipped because image pulls dominate it by design.
  run.peak_backup_share = network.peak_class_utilization(
      {net::TrafficClass::kCheckpoint, net::TrafficClass::kMigration},
      3600.0, horizon);
  run.checkpoint_bytes = network.bytes_sent(net::TrafficClass::kCheckpoint);
  return run;
}

TEST(NetworkTrafficTest, IncrementalBackupsStayUnderTwoPercentAndBeatFull) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TrafficRun incremental = run_day(/*incremental=*/true, seed);
    const TrafficRun full = run_day(/*incremental=*/false, seed);
    EXPECT_GT(incremental.peak_backup_share, 0.0);
    EXPECT_LT(incremental.peak_backup_share, kPaperBackupShare);
    EXPECT_GT(incremental.checkpoint_bytes, 0u);
    EXPECT_LT(incremental.checkpoint_bytes, full.checkpoint_bytes);
  }
}

}  // namespace
}  // namespace gpunion::paper
