// Coordinator crash/restart lifecycle against real agents.
//
// The contract under test: a coordinator process crash loses NOTHING a
// caller was acked — on recover() the live jobs, archive, per-node
// indexes, reliability-relevant counters and in-flight dispatch decisions
// are rebuilt from the durable database, granted-but-undelivered
// dispatches are re-dispatched, and the stale-ack kill path makes a
// duplicate run impossible.  Messages sent while crashed are dropped
// (the coordinator answers nothing), which is exactly the outage the
// heartbeat reconciliation path must absorb afterwards.
#include "sched/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "agent/provider_agent.h"
#include "net/sim_network.h"
#include "workload/profiles.h"

namespace gpunion::sched {
namespace {

class CoordinatorRecoveryTest : public ::testing::Test {
 protected:
  CoordinatorRecoveryTest() : env_(7), net_(env_, {}) {
    registry_.allow_base("nvidia/cuda:12.1-runtime");
    EXPECT_TRUE(registry_
                    .push(container::make_image("pytorch", "2.3-cuda12.1",
                                                "nvidia/cuda:12.1-runtime",
                                                6ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(store_.add_node("nas", 1ULL << 40).is_ok());
    net_.register_endpoint("nas", [this](net::Message&& msg) {
      if (msg.kind != agent::kRestoreRequest) return;
      const auto& request =
          std::any_cast<const agent::RestoreRequest&>(msg.payload);
      net::Message data;
      data.from = "nas";
      data.to = request.requester;
      data.kind = agent::kRestoreData;
      data.traffic_class = net::TrafficClass::kMigration;
      data.size_bytes = std::max<std::uint64_t>(1, request.bytes);
      data.payload = agent::RestoreData{request.job_id};
      ASSERT_TRUE(net_.send(std::move(data)).is_ok());
    });
  }

  void make_coordinator(CoordinatorConfig config = {}) {
    config.heartbeat_interval = 2.0;
    coordinator_ =
        std::make_unique<Coordinator>(env_, net_, database_, store_, config);
    coordinator_->start();
  }

  void add_agent(const std::string& hostname) {
    nodes_.push_back(
        std::make_unique<hw::NodeModel>(hw::workstation_3090(hostname)));
    agent::AgentConfig config;
    config.owner_group = "nlp";
    config.enable_telemetry = false;
    config.heartbeat_interval = 2.0;
    agents_.push_back(std::make_unique<agent::ProviderAgent>(
        env_, net_, *nodes_.back(), registry_, store_, config));
    agents_.back()->join();
    env_.run_until(env_.now() + 1.0);
  }

  workload::JobSpec training_job(const std::string& id, double hours = 0.2) {
    return workload::make_training_job(id, workload::cnn_small(), hours,
                                       "nlp", env_.now());
  }

  sim::Environment env_;
  net::SimNetwork net_;
  db::ShardedDatabase database_;
  storage::CheckpointStore store_;
  container::ImageRegistry registry_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<hw::NodeModel>> nodes_;
  std::vector<std::unique_ptr<agent::ProviderAgent>> agents_;
};

TEST_F(CoordinatorRecoveryTest, RunningJobSurvivesCrashAndCompletesOnce) {
  make_coordinator();
  add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1")).is_ok());
  env_.run_until(env_.now() + 30.0);
  ASSERT_EQ(coordinator_->job("job-1")->phase, JobPhase::kRunning);
  const std::string node = coordinator_->job("job-1")->node;

  coordinator_->crash();
  EXPECT_TRUE(coordinator_->crashed());
  env_.run_until(env_.now() + 1.0);  // heartbeats land on a dead socket
  coordinator_->recover();
  EXPECT_FALSE(coordinator_->crashed());
  EXPECT_EQ(coordinator_->recovery_stats().recoveries, 1);
  EXPECT_GE(coordinator_->recovery_stats().nodes_rebuilt, 1);
  EXPECT_GE(coordinator_->recovery_stats().jobs_rebuilt, 1);

  // The rebuilt record is bound to the same node with its allocation open,
  // and the job finishes exactly once — the agent never noticed a thing.
  const JobRecord* record = coordinator_->job("job-1");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_EQ(record->node, node);
  EXPECT_NE(record->open_allocation, 0u);
  env_.run_until(env_.now() + util::hours(0.3));
  EXPECT_EQ(coordinator_->stats().jobs_completed, 1);
  const auto allocations = database_.allocations_for_job("job-1");
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].outcome, db::AllocationOutcome::kCompleted);
}

TEST_F(CoordinatorRecoveryTest, CrashMidDispatchRunsTheJobExactlyOnce) {
  make_coordinator();
  add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1")).is_ok());
  // Walk the clock in tiny steps until the grant is in flight: the record
  // says kDispatching, the agent has not confirmed.  The ack round trip is
  // sub-millisecond on the campus LAN, so the step must be finer still.
  for (int i = 0; i < 100000; ++i) {
    if (coordinator_->job("job-1")->phase != JobPhase::kPending) break;
    env_.run_until(env_.now() + 1e-5);
  }
  ASSERT_EQ(coordinator_->job("job-1")->phase, JobPhase::kDispatching);

  // Crash across the ack window: the agent's DispatchResult hits a dead
  // coordinator and vanishes.
  coordinator_->crash();
  env_.run_until(env_.now() + 2.0);
  coordinator_->recover();
  // The durable row said granted-but-unconfirmed: requeued at the front
  // and re-dispatched immediately.
  EXPECT_EQ(coordinator_->recovery_stats().redispatched, 1);

  // Exactly one completion, one allocation — the stale-ack kill path and
  // the agent-side duplicate-dispatch handling must collapse the re-grant
  // and the original run into one.
  env_.run_until(env_.now() + util::hours(0.3));
  EXPECT_EQ(coordinator_->stats().jobs_completed, 1);
  const JobRecord* record = coordinator_->job("job-1");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, JobPhase::kCompleted);
  int open = 0;
  for (const auto& allocation : database_.allocations_for_job("job-1")) {
    if (allocation.outcome == db::AllocationOutcome::kRunning) ++open;
  }
  EXPECT_EQ(open, 0) << "a duplicate run left an allocation open";
}

TEST_F(CoordinatorRecoveryTest, CountersAndArchiveSurviveRecovery) {
  make_coordinator();
  add_agent("ws-0");
  add_agent("ws-1");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 0.05)).is_ok());
  ASSERT_TRUE(coordinator_->submit(training_job("job-2", 0.05)).is_ok());
  env_.run_until(env_.now() + util::hours(0.15));
  ASSERT_EQ(coordinator_->stats().jobs_completed, 2);
  const auto before = coordinator_->stats();
  const std::size_t archived_before = coordinator_->archive().size();

  coordinator_->crash();
  env_.run_until(env_.now() + 1.0);
  coordinator_->recover();

  // Journal-restored counters: conservation math still closes after the
  // restart (live + archived + withdrawn == submitted).
  const auto& after = coordinator_->stats();
  EXPECT_EQ(after.jobs_submitted, before.jobs_submitted);
  EXPECT_EQ(after.jobs_completed, before.jobs_completed);
  EXPECT_EQ(after.jobs_withdrawn, before.jobs_withdrawn);
  EXPECT_EQ(coordinator_->archive().size(), archived_before);
  EXPECT_EQ(after.jobs_submitted,
            static_cast<int>(coordinator_->jobs().size() +
                             coordinator_->archive().size()) +
                after.jobs_withdrawn);
}

TEST_F(CoordinatorRecoveryTest, PendingJobsKeepTheirQueuePositionAcrossCrash) {
  make_coordinator();
  // No agents yet: everything stays pending.
  ASSERT_TRUE(coordinator_->submit(training_job("job-1")).is_ok());
  ASSERT_TRUE(coordinator_->submit(training_job("job-2")).is_ok());
  env_.run_until(env_.now() + 5.0);
  ASSERT_EQ(database_.queue_depth(), 2u);

  coordinator_->crash();
  env_.run_until(env_.now() + 1.0);
  coordinator_->recover();
  EXPECT_EQ(coordinator_->recovery_stats().jobs_rebuilt, 2);
  EXPECT_EQ(database_.queue_depth(), 2u);

  // Capacity arrives after the restart; both queued jobs drain and finish.
  add_agent("ws-0");
  add_agent("ws-1");
  env_.run_until(env_.now() + util::hours(0.3));
  EXPECT_EQ(coordinator_->stats().jobs_completed, 2);
}

TEST_F(CoordinatorRecoveryTest, HeartbeatsFollowTheirOwnRowsWhenHandlesChange) {
  make_coordinator();
  // Register in DESCENDING machine-id order.  Directory handles follow
  // registration order, and recovery reassigns them in machine-id order,
  // so every handle changes across the crash; the database row handles
  // (a durable column) must not.
  for (int i = 0; i < 6; ++i) {
    nodes_.push_back(std::make_unique<hw::NodeModel>(
        hw::workstation_3090("ws-" + std::to_string(i))));
    agent::AgentConfig config;
    config.owner_group = "nlp";
    config.enable_telemetry = false;
    config.heartbeat_interval = 2.0;
    agents_.push_back(std::make_unique<agent::ProviderAgent>(
        env_, net_, *nodes_.back(), registry_, store_, config));
  }
  std::vector<agent::ProviderAgent*> order;
  for (const auto& agent : agents_) order.push_back(agent.get());
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->machine_id() > b->machine_id();
  });
  for (agent::ProviderAgent* agent : order) {
    agent->join();
    env_.run_until(env_.now() + 1.0);
  }
  env_.run_until(env_.now() + 10.0);
  std::map<std::string, NodeHandle> handle_before;
  std::map<std::string, db::NodeRow> row_before;
  for (const auto& agent : agents_) {
    const std::string& id = agent->machine_id();
    ASSERT_EQ(agent->state(), agent::AgentState::kActive) << id;
    handle_before[id] = coordinator_->directory().handle_of(id);
    row_before[id] = database_.node_row(id);
  }

  // Platform restart order: the database recovers first, the coordinator
  // rebuilds from it.
  coordinator_->crash();
  env_.run_until(env_.now() + 1.0);
  (void)database_.crash_and_recover();
  coordinator_->recover();
  int handles_changed = 0;
  for (const auto& agent : agents_) {
    const std::string& id = agent->machine_id();
    if (coordinator_->directory().handle_of(id) != handle_before[id]) {
      ++handles_changed;
    }
    EXPECT_EQ(database_.node_row(id), row_before[id]) << id;
    EXPECT_EQ(coordinator_->directory().find(id)->db_row, row_before[id])
        << id;
  }
  ASSERT_EQ(handles_changed, 6);

  // One node goes silent; the rest keep beating.  Each beat must advance
  // its OWN row, live and durable: the silent node's row stays put, every
  // other row keeps up with the clock.
  agent::ProviderAgent* silent = agents_.front().get();
  env_.run_until(env_.now() + 5.0);
  silent->depart_emergency();
  const util::SimTime silent_at = env_.now();
  env_.run_until(env_.now() + 30.0);
  const db::TableImage& image = database_.durable_image();
  for (const auto& agent : agents_) {
    const std::string& id = agent->machine_id();
    SCOPED_TRACE(id);
    const util::SimTime live = database_.node(id)->last_heartbeat;
    const util::SimTime durable =
        image.node_rows[image.node_index.at(id)].last_heartbeat;
    EXPECT_DOUBLE_EQ(durable, live);
    if (agent.get() == silent) {
      EXPECT_LE(live, silent_at);
      EXPECT_GT(live, silent_at - 5.0);
    } else {
      // A beat every 2 s, flushed to the database every 2 s.
      EXPECT_GE(live, env_.now() - 4.5);
    }
  }
}

}  // namespace
}  // namespace gpunion::sched
