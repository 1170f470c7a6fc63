// Determinism regression: kDeterministic must yield bit-identical event
// fire traces across repeated runs and across worker-count settings, and
// must reproduce the legacy single-heap order on a golden scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gpunion/client.h"
#include "gpunion/config.h"
#include "gpunion/platform.h"
#include "hw/node.h"
#include "sched/strategies.h"
#include "sim/environment.h"
#include "workload/profiles.h"

namespace gpunion::sim {
namespace {

struct FireRecord {
  double time;
  EventId id;
  bool operator==(const FireRecord& other) const {
    return time == other.time && id == other.id;
  }
};

/// Runs the golden scenario — a paper campus with training + interactive
/// load and one churn event — and returns the full event fire trace.
std::vector<FireRecord> golden_trace(const EnvConfig& config) {
  Environment env(42, config);
  std::vector<FireRecord> trace;
  env.set_fire_observer([&trace](util::SimTime t, EventId id) {
    trace.push_back({t, id});
  });
  CampusConfig campus = paper_campus();
  Platform platform(env, campus);
  platform.start();
  env.run_until(10.0);

  Client vision(platform, "vision");
  Client nlp(platform, "nlp");
  auto training = vision.submit_training(workload::cnn_small(), 2.0);
  auto notebook = nlp.request_session(0.5);
  EXPECT_TRUE(training.ok());
  EXPECT_TRUE(notebook.ok());

  workload::Interruption event;
  event.machine_id = Platform::machine_id_for("ws-vision-1");
  event.kind = agent::DepartureKind::kTemporary;
  event.downtime = util::minutes(10);
  event.at = util::minutes(5);
  platform.schedule_interruption(event.at, event);

  env.run_until(util::minutes(45));
  return trace;
}

EnvConfig deterministic_with_workers(std::size_t workers) {
  EnvConfig config;
  config.mode = ExecutionMode::kDeterministic;
  config.worker_threads = workers;
  return config;
}

TEST(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const auto a = golden_trace(deterministic_with_workers(1));
  const auto b = golden_trace(deterministic_with_workers(1));
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "trace diverged at event " << i;
  }
}

TEST(DeterminismTest, WorkerCountDoesNotAffectDeterministicMode) {
  // kDeterministic ignores worker_threads entirely — the trace is the
  // single-thread legacy order no matter what the knob says.
  const auto one = golden_trace(deterministic_with_workers(1));
  const auto four = golden_trace(deterministic_with_workers(4));
  const auto eight = golden_trace(deterministic_with_workers(8));
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one.size(), four.size());
  EXPECT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i], four[i]) << "trace diverged at event " << i;
    ASSERT_EQ(one[i], eight[i]) << "trace diverged at event " << i;
  }
}

TEST(DeterminismTest, SimulationResultsMatchAcrossModes) {
  // The parallel schedule may interleave differently, but conserved
  // quantities — jobs completed, allocations opened, nodes registered —
  // must agree with the deterministic run on a churn-free scenario whose
  // outcome does not depend on event interleaving.
  auto run_summary = [](const EnvConfig& config) {
    Environment env(42, config);
    CampusConfig campus = paper_campus();
    Platform platform(env, campus);
    platform.start();
    env.run_until(10.0);
    Client vision(platform, "vision");
    auto job = vision.submit_training(workload::cnn_small(), 1.0);
    EXPECT_TRUE(job.ok());
    env.run_until(util::hours(3));
    const sched::JobRecord* record = platform.coordinator().job(*job);
    EXPECT_NE(record, nullptr);
    return std::pair<std::size_t, sched::JobPhase>(
        platform.database().allocation_ledger().size(),
        record == nullptr ? sched::JobPhase::kPending : record->phase);
  };
  EnvConfig det;
  EnvConfig par;
  par.mode = ExecutionMode::kParallel;
  par.worker_threads = 4;
  const auto det_summary = run_summary(det);
  const auto par_summary = run_summary(par);
  EXPECT_EQ(det_summary.second, sched::JobPhase::kCompleted);
  EXPECT_EQ(par_summary.second, sched::JobPhase::kCompleted);
  EXPECT_EQ(det_summary.first, par_summary.first);
}

/// API-fronted golden scenario: a multi-tenant burst through the request
/// plane (token bucket, DRF drain, threshold drains, group commits), plus
/// churn.  Returns the event fire trace AND the API dispatch order as
/// "tenant/job@sim-time" (%.17g, exact) — the request plane must not
/// introduce any nondeterminism of its own.
std::pair<std::vector<FireRecord>, std::vector<std::string>>
api_golden_trace(const EnvConfig& config) {
  Environment env(42, config);
  std::vector<FireRecord> trace;
  env.set_fire_observer([&trace](util::SimTime t, EventId id) {
    trace.push_back({t, id});
  });
  CampusConfig campus = paper_campus();
  campus.api.enabled = true;
  campus.api.admission_rate = 50.0;
  campus.api.admission_burst = 20.0;
  campus.api.drain_interval = 0.5;
  campus.api.drain_batch = 4;
  campus.api.default_quota.max_in_flight = 3;
  campus.api.default_quota.max_queued = 8;
  campus.api.tenant_quotas["vision"].weight = 2.0;
  campus.api.tenant_quotas["vision"].max_in_flight = 3;
  campus.api.tenant_quotas["vision"].max_queued = 8;
  Platform platform(env, campus);
  std::vector<std::string> dispatch_order;
  platform.start();
  platform.api().set_dispatch_observer(
      [&dispatch_order, &env](const std::string& tenant,
                              const std::string& id) {
        char at[32];
        std::snprintf(at, sizeof(at), "%.17g", env.now());
        dispatch_order.push_back(tenant + "/" + id + "@" + at);
      });
  env.run_until(10.0);

  // Three tenants race a burst into the plane at one instant: drain order
  // is decided purely by DRF shares and the name tie-break.
  const char* tenants[] = {"vision", "nlp", "speech"};
  int next = 0;
  for (int round = 0; round < 4; ++round) {
    for (const char* tenant : tenants) {
      std::vector<workload::JobSpec> burst;
      for (int j = 0; j < 3; ++j) {
        burst.push_back(workload::make_training_job(
            std::string(tenant) + "-job-" + std::to_string(next++),
            workload::cnn_small(), 0.05, "group-vision", env.now()));
      }
      platform.api().submit_batch(tenant, std::move(burst));
    }
    env.run_until(env.now() + 30.0);
  }

  workload::Interruption event;
  event.machine_id = Platform::machine_id_for("ws-vision-1");
  event.kind = agent::DepartureKind::kTemporary;
  event.downtime = util::minutes(10);
  event.at = env.now() + 60.0;
  platform.schedule_interruption(event.at, event);

  env.run_until(util::minutes(45));
  platform.api().drain_to_quiescence();
  return {std::move(trace), std::move(dispatch_order)};
}

TEST(DeterminismTest, ApiFrontedCampusIsBitIdentical) {
  const auto a = api_golden_trace(deterministic_with_workers(1));
  const auto b = api_golden_trace(deterministic_with_workers(1));
  ASSERT_FALSE(a.first.empty());
  ASSERT_FALSE(a.second.empty()) << "request plane never dispatched";
  ASSERT_EQ(a.second, b.second) << "API drain order diverged";
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    ASSERT_EQ(a.first[i], b.first[i]) << "trace diverged at event " << i;
  }
}

TEST(DeterminismTest, ApiDrainOrderMatchesGolden) {
  // Committed bytes: when each job is dispatched depends on when its
  // tenant's earlier jobs settle (max_in_flight = 3), so this pins the
  // settle path as well as the DRF order.
  const std::vector<std::string> golden = {
    "nlp/nlp-job-3@10",
    "speech/speech-job-6@10",
    "vision/vision-job-0@10",
    "vision/vision-job-1@10",
    "nlp/nlp-job-4@10.5",
    "speech/speech-job-7@10.5",
    "vision/vision-job-2@10.5",
    "nlp/nlp-job-5@10.5",
    "speech/speech-job-8@11",
    "vision/vision-job-9@126",
    "vision/vision-job-10@206",
    "speech/speech-job-15@210",
    "nlp/nlp-job-12@245",
    "speech/speech-job-16@250.5",
    "vision/vision-job-11@255.5",
    "vision/vision-job-18@260.5",
    "nlp/nlp-job-13@281",
    "speech/speech-job-17@286.5",
    "speech/speech-job-24@290",
    "nlp/nlp-job-14@369.5",
    "vision/vision-job-19@375",
    "speech/speech-job-25@419.5",
    "vision/vision-job-20@444",
    "nlp/nlp-job-21@450",
    "speech/speech-job-26@470",
    "speech/speech-job-33@473.5",
    "nlp/nlp-job-22@480",
    "nlp/nlp-job-23@530",
    "speech/speech-job-34@550",
    "nlp/nlp-job-30@553",
    "vision/vision-job-27@558.5",
    "vision/vision-job-28@589",
    "nlp/nlp-job-31@663.5",
  };
  const auto one = api_golden_trace(deterministic_with_workers(1));
  EXPECT_EQ(one.second, golden);
}

TEST(DeterminismTest, ApiDrainOrderIgnoresWorkerCount) {
  // kDeterministic ignores worker_threads: the DRF drain order and the
  // full event trace must match across the knob.
  const auto one = api_golden_trace(deterministic_with_workers(1));
  const auto four = api_golden_trace(deterministic_with_workers(4));
  const auto eight = api_golden_trace(deterministic_with_workers(8));
  ASSERT_FALSE(one.first.empty());
  EXPECT_EQ(one.second, four.second);
  EXPECT_EQ(one.second, eight.second);
  ASSERT_EQ(one.first.size(), four.first.size());
  ASSERT_EQ(one.first.size(), eight.first.size());
  for (std::size_t i = 0; i < one.first.size(); ++i) {
    ASSERT_EQ(one.first[i], four.first[i]) << "diverged at event " << i;
    ASSERT_EQ(one.first[i], eight.first[i]) << "diverged at event " << i;
  }
}

/// Time-slicing golden scenario: workstations run nvshare-mode seats under
/// the adaptive_sharing strategy, so the trace includes quantum ticks,
/// rotation swap pauses and completion re-arming — all of which must stay
/// bit-replayable.
std::vector<FireRecord> timeslice_golden_trace(const EnvConfig& config) {
  Environment env(42, config);
  std::vector<FireRecord> trace;
  env.set_fire_observer([&trace](util::SimTime t, EventId id) {
    trace.push_back({t, id});
  });
  CampusConfig campus = paper_campus();
  campus.coordinator.strategy = std::string(sched::kAdaptiveSharing);
  for (auto& node : campus.nodes) {
    if (node.spec.gpus.size() == 1) {
      node.spec = hw::with_timeslicing(std::move(node.spec), 4);
    }
  }
  Platform platform(env, campus);
  platform.start();
  env.run_until(10.0);

  Client vision(platform, "vision");
  Client nlp(platform, "nlp");
  Client theory(platform, "theory");
  // Several sessions pack into time-slice seats and rotate; one training
  // job takes a whole device alongside.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(theory.request_session(0.5).ok());
  }
  EXPECT_TRUE(nlp.request_session(0.25).ok());
  EXPECT_TRUE(vision.submit_training(workload::cnn_small(), 1.0).ok());

  workload::Interruption event;
  event.machine_id = Platform::machine_id_for("ws-vision-1");
  event.kind = agent::DepartureKind::kTemporary;
  event.downtime = util::minutes(10);
  event.at = util::minutes(8);
  platform.schedule_interruption(event.at, event);

  env.run_until(util::minutes(45));
  return trace;
}

TEST(DeterminismTest, TimesliceCampusIsBitIdentical) {
  const auto a = timeslice_golden_trace(deterministic_with_workers(1));
  const auto b = timeslice_golden_trace(deterministic_with_workers(1));
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "trace diverged at event " << i;
  }
}

TEST(DeterminismTest, TimesliceTraceIgnoresWorkerCount) {
  const auto one = timeslice_golden_trace(deterministic_with_workers(1));
  const auto four = timeslice_golden_trace(deterministic_with_workers(4));
  const auto eight = timeslice_golden_trace(deterministic_with_workers(8));
  ASSERT_FALSE(one.empty());
  ASSERT_EQ(one.size(), four.size());
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i], four[i]) << "trace diverged at event " << i;
    ASSERT_EQ(one[i], eight[i]) << "trace diverged at event " << i;
  }
}

TEST(DeterminismTest, InvariantSeedReplayability) {
  // The contract GPUNION_INVARIANT_SEED harnesses rely on: same seed, same
  // config => same derived RNG streams AND same event schedule.
  Environment env1(1234, deterministic_with_workers(1));
  Environment env2(1234, deterministic_with_workers(1));
  auto rng1 = env1.fork_rng("chaos");
  auto rng2 = env2.fork_rng("chaos");
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(rng1.next_u64(), rng2.next_u64());
  }
}

}  // namespace
}  // namespace gpunion::sim
