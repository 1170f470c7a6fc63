// System-database table semantics through the one store, ShardedDatabase,
// at its default shard count: registry lookups and validation, status
// transitions, heartbeat touches, the allocation ledger, pending-queue
// order, the monitoring ring buffer and op counting.
#include "db/sharded_database.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace gpunion::db {
namespace {

NodeRecord node(const std::string& id) {
  NodeRecord record;
  record.machine_id = id;
  record.hostname = "host-" + id;
  record.gpu_count = 1;
  return record;
}

TEST(DatabaseTest, NodeUpsertAndLookup) {
  ShardedDatabase database;
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  auto found = database.node("m-1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->hostname, "host-m-1");
  EXPECT_EQ(database.node("ghost").status().code(),
            util::StatusCode::kNotFound);
}

TEST(DatabaseTest, EmptyMachineIdRejected) {
  ShardedDatabase database;
  EXPECT_EQ(database.upsert_node(NodeRecord{}).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(database.nodes().empty());
}

TEST(DatabaseTest, StatusTransitions) {
  ShardedDatabase database;
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  ASSERT_TRUE(
      database.set_node_status("m-1", NodeStatus::kUnavailable).is_ok());
  EXPECT_EQ(database.node("m-1")->status, NodeStatus::kUnavailable);
  EXPECT_EQ(database.nodes_with_status(NodeStatus::kUnavailable).size(), 1u);
  EXPECT_EQ(database.nodes_with_status(NodeStatus::kActive).size(), 0u);
  EXPECT_EQ(database.set_node_status("ghost", NodeStatus::kPaused).code(),
            util::StatusCode::kNotFound);
}

TEST(DatabaseTest, BatchedHeartbeatTouch) {
  ShardedDatabase database;
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  ASSERT_TRUE(database.upsert_node(node("m-2")).is_ok());
  ASSERT_TRUE(database.upsert_node(node("m-3")).is_ok());
  // Row handles are dense, in first-upsert order, and stored on the row.
  const NodeRow m1 = database.node_row("m-1");
  const NodeRow m2 = database.node_row("m-2");
  const NodeRow m3 = database.node_row("m-3");
  EXPECT_EQ(m1, 0u);
  EXPECT_EQ(m2, 1u);
  EXPECT_EQ(m3, 2u);
  EXPECT_EQ(database.node("m-2")->row, m2);
  EXPECT_EQ(database.node_row("ghost"), kNoRow);
  const NodeRow ghost = 99;
  // A one-row batch is the single-node touch.
  EXPECT_EQ(database.touch_heartbeats({{m1, 4.0}}), 1u);
  EXPECT_DOUBLE_EQ(database.node("m-1")->last_heartbeat, 4.0);
  // One batched write per shard the batch touches; the unknown row is
  // skipped and charges nothing.
  std::set<std::size_t> shards;
  for (const char* id : {"m-1", "m-2", "m-3"}) {
    shards.insert(database.shard_for_node(id));
  }
  const std::uint64_t before = database.op_count();
  EXPECT_EQ(database.touch_heartbeats(
                {{m1, 10.0}, {m2, 11.0}, {m3, 12.0}, {ghost, 9.0}}),
            3u);
  EXPECT_EQ(database.op_count(), before + shards.size());
  EXPECT_DOUBLE_EQ(database.node("m-1")->last_heartbeat, 10.0);
  EXPECT_DOUBLE_EQ(database.node("m-3")->last_heartbeat, 12.0);
  // A stale batched value never rolls a fresher row backwards.
  EXPECT_EQ(database.touch_heartbeats({{m1, 5.0}}), 1u);
  EXPECT_DOUBLE_EQ(database.node("m-1")->last_heartbeat, 10.0);
  // A batch with no known row is one round trip, like an empty one.
  const std::uint64_t before_ghost = database.op_count();
  EXPECT_EQ(database.touch_heartbeats({{ghost, 1.0}}), 0u);
  EXPECT_EQ(database.touch_heartbeats({}), 0u);
  EXPECT_EQ(database.op_count(), before_ghost + 2);
  EXPECT_EQ(database.node("ghost").status().code(),
            util::StatusCode::kNotFound);
}

TEST(DatabaseTest, AllocationLedgerLifecycle) {
  ShardedDatabase database;
  const auto id = database.open_allocation("job-1", "m-1", {0, 1}, 10.0);
  EXPECT_GT(id, 0u);
  ASSERT_TRUE(
      database.close_allocation(id, AllocationOutcome::kCompleted, 20.0)
          .is_ok());
  const auto rows = database.allocations_for_job("job-1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].machine_id, "m-1");
  EXPECT_EQ(rows[0].gpu_indices.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].ended_at, 20.0);
  EXPECT_EQ(rows[0].outcome, AllocationOutcome::kCompleted);
}

TEST(DatabaseTest, DoubleCloseRejected) {
  ShardedDatabase database;
  const auto id = database.open_allocation("job-1", "m-1", {0}, 10.0);
  ASSERT_TRUE(database.close_allocation(id, AllocationOutcome::kKilled, 20.0)
                  .is_ok());
  EXPECT_EQ(
      database.close_allocation(id, AllocationOutcome::kCompleted, 30.0)
          .code(),
      util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(database.allocation_ledger().front().outcome,
            AllocationOutcome::kKilled);
  EXPECT_EQ(
      database.close_allocation(id + 1, AllocationOutcome::kCompleted, 30.0)
          .code(),
      util::StatusCode::kNotFound);
}

TEST(DatabaseTest, QueuePriorityThenFifo) {
  ShardedDatabase database;
  database.enqueue_request({"low-1", 0, 1.0});
  database.enqueue_request({"high-1", 5, 2.0});
  database.enqueue_request({"low-2", 0, 3.0});
  database.enqueue_request({"high-2", 5, 4.0});
  EXPECT_EQ(database.pop_request()->job_id, "high-1");
  EXPECT_EQ(database.pop_request()->job_id, "high-2");
  EXPECT_EQ(database.pop_request()->job_id, "low-1");
  EXPECT_EQ(database.pop_request()->job_id, "low-2");
  EXPECT_FALSE(database.pop_request().has_value());
}

TEST(DatabaseTest, QueueFrontInsertion) {
  ShardedDatabase database;
  database.enqueue_request({"a", 0, 1.0});
  database.enqueue_request_front({"displaced", 0, 0.5});
  EXPECT_EQ(database.pop_request()->job_id, "displaced");
  EXPECT_EQ(database.pop_request()->job_id, "a");
}

TEST(DatabaseTest, MetricsRingBuffer) {
  DbConfig config;
  config.history_limit = 3;
  ShardedDatabase database(config);
  for (int i = 0; i < 5; ++i) {
    database.record_metric("util", i, i * 10.0);
  }
  const auto& series = database.series("util");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series.front().value, 20.0);  // oldest kept is i=2
  EXPECT_DOUBLE_EQ(series.back().value, 40.0);
  EXPECT_TRUE(database.series("missing").empty());
}

TEST(DatabaseTest, SeriesNamesSorted) {
  ShardedDatabase database;
  database.record_metric("zeta", 0, 1);
  database.record_metric("alpha", 0, 1);
  EXPECT_EQ(database.series_names(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(DatabaseTest, OpCounting) {
  ShardedDatabase database;
  const auto before = database.op_count();
  // One op on the owning shard, then a scatter-gather scan: one per shard.
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  (void)database.nodes();
  EXPECT_EQ(database.op_count(),
            before + 1 + static_cast<std::uint64_t>(database.shard_count()));
}

}  // namespace
}  // namespace gpunion::db
