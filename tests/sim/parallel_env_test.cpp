// Parallel-mode Environment: conservative windows, exclusive events,
// cross-lane causality, and a threaded campus smoke test.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "gpunion/config.h"
#include "gpunion/federated_platform.h"
#include "gpunion/platform.h"
#include "sim/environment.h"

namespace gpunion::sim {
namespace {

EnvConfig parallel_config(std::size_t workers, double lookahead = 0.0002) {
  EnvConfig config;
  config.mode = ExecutionMode::kParallel;
  config.worker_threads = workers;
  config.lookahead = lookahead;
  return config;
}

TEST(ParallelEnvTest, FiresEventsInTimeOrderPerLane) {
  Environment env(1, parallel_config(4));
  const LaneId lane = env.register_lane("a");
  std::vector<double> times;
  // One lane = one actor: its events run serially in time order even with
  // four workers, so the plain vector is safe.
  for (double t : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    env.schedule_at_on(lane, t, [&times, &env] { times.push_back(env.now()); });
  }
  EXPECT_EQ(env.run(), 5u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
  EXPECT_DOUBLE_EQ(env.now(), 5.0);
  EXPECT_GE(env.parallel_stats().windows, 1u);
}

TEST(ParallelEnvTest, LanesRunOnWorkerThreads) {
  Environment env(1, parallel_config(4));
  std::mutex mu;
  std::set<std::thread::id> thread_ids;
  const std::thread::id main_id = std::this_thread::get_id();
  for (int lane_index = 0; lane_index < 8; ++lane_index) {
    const LaneId lane = env.register_lane("lane");
    env.schedule_at_on(lane, 1.0, [&] {
      std::lock_guard<std::mutex> lock(mu);
      thread_ids.insert(std::this_thread::get_id());
    });
  }
  env.run();
  EXPECT_FALSE(thread_ids.empty());
  EXPECT_EQ(thread_ids.count(main_id), 0u)
      << "lane events must fire on worker threads";
}

TEST(ParallelEnvTest, ExclusiveEventRunsAlone) {
  Environment env(1, parallel_config(4));
  std::atomic<int> concurrent{0};
  std::atomic<bool> overlap_with_exclusive{false};
  std::atomic<bool> exclusive_ran{false};
  for (int lane_index = 0; lane_index < 6; ++lane_index) {
    const LaneId lane = env.register_lane("lane");
    for (int i = 0; i < 50; ++i) {
      env.schedule_at_on(lane, 1.0 + i * 0.001, [&] {
        ++concurrent;
        --concurrent;
      });
    }
  }
  env.schedule_exclusive_at(1.025, [&] {
    exclusive_ran = true;
    if (concurrent.load() != 0) overlap_with_exclusive = true;
  });
  env.run();
  EXPECT_TRUE(exclusive_ran.load());
  EXPECT_FALSE(overlap_with_exclusive.load());
  EXPECT_GE(env.parallel_stats().exclusive_events, 1u);
}

TEST(ParallelEnvTest, RunUntilAdvancesClockExactly) {
  Environment env(1, parallel_config(2));
  const LaneId lane = env.register_lane("a");
  std::atomic<int> fired{0};
  env.schedule_at_on(lane, 1.0, [&] { ++fired; });
  env.schedule_at_on(lane, 10.0, [&] { ++fired; });  // boundary included
  env.schedule_at_on(lane, 100.0, [&] { ++fired; });
  env.run_until(10.0);
  EXPECT_EQ(fired.load(), 2);
  EXPECT_DOUBLE_EQ(env.now(), 10.0);
  EXPECT_EQ(env.pending_events(), 1u);
  env.run();
  EXPECT_EQ(fired.load(), 3);
}

TEST(ParallelEnvTest, CrossLaneSendsAreCausal) {
  // A lane that pushes work onto another lane below the window bound gets
  // clamped, never lost: every message must eventually fire, at a time >=
  // its send time.
  Environment env(1, parallel_config(4, /*lookahead=*/0.01));
  const LaneId a = env.register_lane("a");
  const LaneId b = env.register_lane("b");
  std::atomic<int> received{0};
  std::atomic<bool> causality_violated{false};
  for (int i = 0; i < 100; ++i) {
    const double t = 1.0 + i * 0.001;
    env.schedule_at_on(a, t, [&env, &received, &causality_violated, b, t] {
      // Zero-delay send to the other lane: inside the lookahead window, so
      // it exercises the clamp path.
      env.schedule_at_on(b, env.now(), [&received, &causality_violated,
                                        &env, t] {
        if (env.now() < t) causality_violated = true;
        ++received;
      });
    });
  }
  env.run();
  EXPECT_EQ(received.load(), 100);
  EXPECT_FALSE(causality_violated.load());
}

TEST(ParallelEnvTest, CancelPendingEventFromMainThread) {
  Environment env(1, parallel_config(2));
  const LaneId lane = env.register_lane("a");
  std::atomic<bool> fired{false};
  const EventId id = env.schedule_at_on(lane, 5.0, [&] { fired = true; });
  EXPECT_TRUE(env.cancel(id));
  env.run();
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(env.queue_stats().tombstones, 0u)
      << "run() should have compacted or popped the tombstone";
}

TEST(ParallelEnvTest, WorkerStatsAccount) {
  Environment env(1, parallel_config(3));
  for (int lane_index = 0; lane_index < 6; ++lane_index) {
    const LaneId lane = env.register_lane("lane");
    for (int i = 0; i < 10; ++i) {
      env.schedule_at_on(lane, 1.0 + i, [] {});
    }
  }
  const std::size_t fired = env.run();
  EXPECT_EQ(fired, 60u);
  EXPECT_EQ(env.processed_events(), 60u);
  std::uint64_t total = 0;
  for (const std::uint64_t n : env.parallel_stats().worker_events) total += n;
  EXPECT_EQ(total, 60u);
  EXPECT_GE(env.parallel_stats().ideal_wall_s, 0.0);
  EXPECT_GE(env.parallel_stats().total_busy_s,
            env.parallel_stats().ideal_wall_s);
}

TEST(ParallelEnvTest, CampusSmoke) {
  // A small campus driven end-to-end in kParallel: agents heartbeat on
  // their own lanes, and the control plane (coordinator, database and its
  // write-behind commits) runs on the platform lane.
  Environment env(7, parallel_config(4));
  CampusConfig config = paper_campus();
  Platform platform(env, config);
  platform.start();
  env.run_until(120.0);
  int active = 0;
  for (const sched::NodeInfo* node :
       platform.coordinator().directory().all()) {
    if (node->status == db::NodeStatus::kActive) ++active;
  }
  EXPECT_EQ(active, static_cast<int>(config.nodes.size()));
  EXPECT_GT(env.processed_events(), 100u);
  EXPECT_GT(platform.database().op_count(), 0u);
}

TEST(ParallelEnvTest, FederatedCampusSmoke) {
  // Two federated regions in kParallel: each region's control plane is its
  // own actor lane, gossip and forwards cross regions over the WAN, and
  // everything runs under real worker threads (this is the configuration
  // the TSan CI job certifies for the federation tier).
  Environment env(11, parallel_config(4));
  FederationConfig config;
  for (const std::string name : {"east", "west"}) {
    RegionConfig region;
    region.name = name;
    region.campus = paper_campus();
    for (auto& node : region.campus.nodes) {
      node.spec.hostname = name + "-" + node.spec.hostname;
    }
    config.regions.push_back(std::move(region));
  }
  config.metrics_interval = 1e9;
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(60.0);
  for (std::size_t g = 0; g < fed.region_count(); ++g) {
    EXPECT_GT(fed.region(g).coordinator().stats().heartbeats_processed, 0u)
        << "region " << g;
  }
  EXPECT_GT(fed.stats().digests_published, 0u);
}

}  // namespace
}  // namespace gpunion::sim
