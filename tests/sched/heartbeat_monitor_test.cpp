#include "sched/heartbeat_monitor.h"

#include <gtest/gtest.h>

namespace gpunion::sched {
namespace {

NodeInfo active_node(const std::string& id, util::SimTime last_beat) {
  NodeInfo info;
  info.machine_id = id;
  info.status = db::NodeStatus::kActive;
  info.last_heartbeat = last_beat;
  return info;
}

class HeartbeatMonitorTest : public ::testing::Test {
 protected:
  /// Registers the node in the directory and the monitor's expiry order
  /// (what the coordinator does on registration).
  void track(HeartbeatMonitor& monitor, const std::string& id,
             util::SimTime at) {
    directory_.upsert(active_node(id, at));
    monitor.observe(directory_.handle_of(id), at);
  }

  void set_status(const std::string& id, db::NodeStatus status) {
    directory_.update(id, [status](NodeInfo& node) { node.status = status; });
  }

  sim::Environment env_;
  Directory directory_;
};

TEST_F(HeartbeatMonitorTest, DetectsSilentNodeAfterThreeMisses) {
  std::vector<std::string> lost;
  HeartbeatMonitor monitor(env_, directory_, 2.0, 3,
                           [&](const std::string& id) {
                             lost.push_back(id);
                             set_status(id, db::NodeStatus::kUnavailable);
                           });
  track(monitor, "m-1", 0.0);
  monitor.start();
  // 3 x 2 s = 6 s deadline; the sweep at t=8 is the first beyond it.
  env_.run_until(5.9);
  EXPECT_TRUE(lost.empty());
  env_.run_until(8.1);
  EXPECT_EQ(lost, std::vector<std::string>{"m-1"});
}

TEST_F(HeartbeatMonitorTest, FreshHeartbeatsPreventDetection) {
  int lost = 0;
  HeartbeatMonitor monitor(env_, directory_, 2.0, 3,
                           [&](const std::string&) { ++lost; });
  track(monitor, "m-1", 0.0);
  monitor.start();
  // Keep the node fresh.
  sim::PeriodicTimer beats(env_, 2.0, [&] {
    directory_.update("m-1", [&](NodeInfo& node) {
      node.last_heartbeat = env_.now();
    });
    monitor.observe(directory_.handle_of("m-1"), env_.now());
  });
  beats.start();
  env_.run_until(60.0);
  EXPECT_EQ(lost, 0);
  EXPECT_EQ(monitor.tracked(), 1u);
}

TEST_F(HeartbeatMonitorTest, NonActiveNodesDroppedSilently) {
  int lost = 0;
  HeartbeatMonitor monitor(env_, directory_, 2.0, 3,
                           [&](const std::string&) { ++lost; });
  // Observed while active, but the node announced its departure before the
  // deadline: the entry expires without a loss report.
  track(monitor, "m-1", 0.0);
  set_status("m-1", db::NodeStatus::kDeparted);
  monitor.start();
  env_.run_until(30.0);
  EXPECT_EQ(lost, 0);
  EXPECT_EQ(monitor.tracked(), 0u);  // expired entry was discarded
}

TEST_F(HeartbeatMonitorTest, ForgetStopsTracking) {
  int lost = 0;
  HeartbeatMonitor monitor(env_, directory_, 2.0, 3,
                           [&](const std::string&) { ++lost; });
  track(monitor, "m-1", 0.0);
  EXPECT_EQ(monitor.tracked(), 1u);
  monitor.forget(directory_.handle_of("m-1"));
  EXPECT_EQ(monitor.tracked(), 0u);
  monitor.start();
  env_.run_until(30.0);
  EXPECT_EQ(lost, 0);
}

TEST_F(HeartbeatMonitorTest, DetectionDeadlineIsMissesTimesInterval) {
  HeartbeatMonitor monitor(env_, directory_, 5.0, 3, nullptr);
  EXPECT_DOUBLE_EQ(monitor.detection_deadline(), 15.0);
}

TEST_F(HeartbeatMonitorTest, ManualSweepReturnsLost) {
  HeartbeatMonitor monitor(env_, directory_, 2.0, 3,
                           [&](const std::string& id) {
                             set_status(id, db::NodeStatus::kUnavailable);
                           });
  track(monitor, "m-1", 0.0);
  track(monitor, "m-2", 0.0);
  env_.schedule_at(10.0, [] {});
  env_.run();
  auto lost = monitor.sweep();
  EXPECT_EQ(lost.size(), 2u);
  EXPECT_EQ(monitor.last_sweep_examined(), 2u);
  // Expired entries were popped from the order: a second sweep does no
  // work at all instead of rescanning the fleet.
  EXPECT_TRUE(monitor.sweep().empty());
  EXPECT_EQ(monitor.last_sweep_examined(), 0u);
}

TEST_F(HeartbeatMonitorTest, SweepPopsOnlyExpiredEntries) {
  HeartbeatMonitor monitor(env_, directory_, 2.0, 3, nullptr);
  // 100 fresh nodes, 3 stale ones.
  env_.schedule_at(100.0, [] {});
  env_.run();
  for (int i = 0; i < 100; ++i) {
    track(monitor, "fresh-" + std::to_string(i), env_.now());
  }
  for (int i = 0; i < 3; ++i) {
    track(monitor, "stale-" + std::to_string(i), env_.now() - 50.0);
  }
  auto lost = monitor.sweep();
  EXPECT_EQ(lost.size(), 3u);
  // The sweep's work is bounded by the expirations, not the fleet size.
  EXPECT_EQ(monitor.last_sweep_examined(), 3u);
  EXPECT_EQ(monitor.tracked(), 100u);
}

TEST_F(HeartbeatMonitorTest, OutOfOrderObservationsKeepNewest) {
  HeartbeatMonitor monitor(env_, directory_, 2.0, 3, nullptr);
  env_.schedule_at(20.0, [] {});
  env_.run();
  track(monitor, "m-1", 20.0);
  // A delayed beat carrying an older timestamp must not roll the node's
  // expiry backwards.
  monitor.observe(directory_.handle_of("m-1"), 12.0);
  EXPECT_EQ(monitor.tracked(), 1u);
  env_.schedule_at(24.0, [] {});
  env_.run();
  EXPECT_TRUE(monitor.sweep().empty());  // newest observation (20) holds
  // And a genuinely newer observation replaces the old entry rather than
  // duplicating it.
  monitor.observe(directory_.handle_of("m-1"), 24.0);
  EXPECT_EQ(monitor.tracked(), 1u);
}

TEST_F(HeartbeatMonitorTest, ExpiryOrderUnderInterleavedBeats) {
  std::vector<std::string> lost;
  HeartbeatMonitor monitor(env_, directory_, 2.0, 3,
                           [&](const std::string& id) {
                             lost.push_back(id);
                             set_status(id, db::NodeStatus::kUnavailable);
                           });
  track(monitor, "a", 0.0);
  track(monitor, "b", 0.0);
  track(monitor, "c", 0.0);
  // b and c keep beating out of registration order; a goes silent.
  monitor.observe(directory_.handle_of("c"), 3.0);
  monitor.observe(directory_.handle_of("b"), 4.0);
  monitor.observe(directory_.handle_of("c"), 5.0);
  env_.schedule_at(7.0, [] {});
  env_.run();
  EXPECT_EQ(monitor.sweep(), std::vector<std::string>{"a"});
  // b (last beat 4.0) expires next, at t > 10.
  env_.schedule_at(10.5, [] {});
  env_.run();
  EXPECT_EQ(monitor.sweep(), std::vector<std::string>{"b"});
  env_.schedule_at(11.5, [] {});
  env_.run();
  EXPECT_EQ(monitor.sweep(), std::vector<std::string>{"c"});
  EXPECT_EQ(lost, (std::vector<std::string>{"a", "b", "c"}));
}

}  // namespace
}  // namespace gpunion::sched
