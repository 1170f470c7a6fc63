// The request plane settles a dispatched job when the coordinator reports
// it finished, not by re-reading every live job on each drain.
//
// ApiStats::settle_checks counts the coordinator records a drain examines
// while settling.  Drains over live, non-terminal jobs examine none; each
// retirement (completion, cancel, withdraw) costs exactly one; a
// control-plane crash/recovery costs one rescan of the live set.
#include <gtest/gtest.h>

#include <string>

#include "api/api_server.h"
#include "gpunion/platform.h"
#include "workload/profiles.h"

namespace gpunion {
namespace {

constexpr int kNodes = 4;

CampusConfig settle_campus() {
  CampusConfig config;
  for (int i = 0; i < kNodes; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090("settle-" + std::to_string(i)), "lab"});
  }
  config.storage.push_back({"nas-settle", 64ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  config.api.enabled = true;
  config.api.default_quota.max_in_flight = 2 * kNodes;
  return config;
}

workload::JobSpec training(const std::string& id, double hours,
                           util::SimTime at) {
  return workload::make_training_job(id, workload::cnn_small(), hours, "lab",
                                     at);
}

std::string job_id(int index) { return "settle-job-" + std::to_string(index); }

/// Submits `count` six-hour jobs through the plane and lets them reach
/// the core: kNodes run, the rest wait there as kPending.
void dispatch_long_jobs(Platform& platform, sim::Environment& env,
                        int count) {
  api::ApiServer& api = platform.api();
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(api.submit("lab", training(job_id(i), 6.0, env.now()))
                    .accepted());
  }
  api.drain_to_quiescence();
  env.run_until(env.now() + 60.0);
  ASSERT_EQ(api.in_flight("lab"), count);
  for (int i = 0; i < count; ++i) {
    const sched::JobRecord* record = platform.coordinator().job(job_id(i));
    ASSERT_NE(record, nullptr);
    ASSERT_FALSE(sched::job_phase_terminal(record->phase)) << job_id(i);
  }
}

TEST(ApiSettleTest, DrainsOverLiveJobsExamineNoRecords) {
  sim::Environment env(3);
  Platform platform(env, settle_campus());
  platform.start();
  env.run_until(5.0);
  constexpr int kJobs = kNodes + 2;
  ASSERT_NO_FATAL_FAILURE(dispatch_long_jobs(platform, env, kJobs));
  api::ApiServer& api = platform.api();

  const std::uint64_t before = api.stats().settle_checks;
  const std::uint64_t drains = api.stats().drains;
  for (int k = 0; k < 40; ++k) api.drain();
  env.run_until(env.now() + 30.0);  // the drain timer keeps running too
  EXPECT_GE(api.stats().drains, drains + 40);
  EXPECT_EQ(api.stats().settle_checks, before)
      << "drains re-read records of jobs that did not settle";
  EXPECT_EQ(api.in_flight("lab"), kJobs);
}

TEST(ApiSettleTest, EachRetirementCostsOneCheck) {
  sim::Environment env(4);
  Platform platform(env, settle_campus());
  platform.start();
  env.run_until(5.0);
  constexpr int kJobs = kNodes + 2;
  ASSERT_NO_FATAL_FAILURE(dispatch_long_jobs(platform, env, kJobs));
  api::ApiServer& api = platform.api();
  sched::Coordinator& coordinator = platform.coordinator();

  auto first_in = [&](sched::JobPhase phase) {
    for (int i = 0; i < kJobs; ++i) {
      if (coordinator.job(job_id(i))->phase == phase) return job_id(i);
    }
    return std::string();
  };
  // A running job cancelled through the plane: the coordinator reports it
  // twice (the kCancelled persist, then its retirement), one check.
  const std::string running = first_in(sched::JobPhase::kRunning);
  const std::string pending = first_in(sched::JobPhase::kPending);
  ASSERT_FALSE(running.empty());
  ASSERT_FALSE(pending.empty());

  std::uint64_t checks = api.stats().settle_checks;
  ASSERT_TRUE(api.cancel("lab", running).is_ok());
  api.drain();
  api.drain();
  EXPECT_EQ(api.stats().settle_checks, checks + 1);
  EXPECT_EQ(api.in_flight("lab"), kJobs - 1);

  // A pending job withdrawn for a federation forward: departed, one check.
  checks = api.stats().settle_checks;
  ASSERT_TRUE(coordinator.withdraw(pending).ok());
  api.drain();
  api.drain();
  EXPECT_EQ(api.stats().settle_checks, checks + 1);
  EXPECT_EQ(api.tenant_counters("lab").departed, 1u);
  EXPECT_EQ(api.status("lab", pending).phase, "departed");
  EXPECT_EQ(api.in_flight("lab"), kJobs - 2);

  // Short jobs that run to completion: one check each, all completed.
  checks = api.stats().settle_checks;
  const std::uint64_t completed = api.stats().totals.completed;
  constexpr int kShort = 3;
  for (int i = 0; i < kShort; ++i) {
    ASSERT_TRUE(api.submit("lab", training("short-" + std::to_string(i),
                                           0.01, env.now()))
                    .accepted());
  }
  env.run_until(env.now() + 60.0);  // the last pending job takes a GPU
  ASSERT_TRUE(api.cancel("lab", first_in(sched::JobPhase::kRunning))
                  .is_ok());  // frees a GPU for the short jobs
  env.run_until(env.now() + 3600.0);
  EXPECT_EQ(api.stats().totals.completed, completed + kShort);
  EXPECT_EQ(api.stats().settle_checks, checks + kShort + 1);
  EXPECT_EQ(api.in_flight("lab"), kJobs - 3);
}

TEST(ApiSettleTest, RecoveryRescansTheLiveSetOnce) {
  sim::Environment env(5);
  Platform platform(env, settle_campus());
  platform.start();
  env.run_until(5.0);
  constexpr int kJobs = kNodes + 2;
  ASSERT_NO_FATAL_FAILURE(dispatch_long_jobs(platform, env, kJobs));
  api::ApiServer& api = platform.api();

  const std::uint64_t checks = api.stats().settle_checks;
  platform.crash_control_plane(2.0);
  env.run_until(env.now() + 1.0);
  ASSERT_TRUE(platform.control_plane_crashed());
  api.drain();  // suspended while the core is down
  EXPECT_EQ(api.stats().settle_rescans, 0u);
  env.run_until(env.now() + 10.0);
  ASSERT_FALSE(platform.control_plane_crashed());

  // Every job survived the crash as a live record: one rescan looked at
  // each once and released none.
  EXPECT_EQ(api.stats().settle_rescans, 1u);
  EXPECT_EQ(api.stats().settle_checks, checks + kJobs);
  EXPECT_EQ(api.in_flight("lab"), kJobs);
  for (int k = 0; k < 10; ++k) api.drain();
  EXPECT_EQ(api.stats().settle_checks, checks + kJobs);
}

}  // namespace
}  // namespace gpunion
