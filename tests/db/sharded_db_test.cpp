// ShardedDatabase: deterministic shard routing, per-shard op accounting,
// read-your-writes through the write-behind ledger, flush-on-threshold vs
// flush-on-interval triggers, literal table contents after a fixed op
// sequence, the in-place scheduling pass, and a
// randomized differential test of the live sharded tables against the
// durable image the WAL materializes.
#include "db/sharded_database.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/ledger_wal.h"
#include "util/rng.h"

namespace gpunion::db {
namespace {

NodeRecord node(const std::string& id) {
  NodeRecord record;
  record.machine_id = id;
  record.hostname = "host-" + id;
  record.gpu_count = 1;
  return record;
}

DbConfig sharded_config(int shards = 4, std::size_t threshold = 1000) {
  DbConfig config;
  config.shard_count = shards;
  config.flush_threshold = threshold;
  return config;
}

TEST(ShardedDbTest, RoutingIsDeterministicAndInRange) {
  ShardedDatabase a(sharded_config());
  ShardedDatabase b(sharded_config());
  bool spread = false;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "m-" + std::to_string(i);
    const std::size_t shard = a.shard_for_node(key);
    EXPECT_LT(shard, 4u);
    // Same key, same shard — across calls and across instances.
    EXPECT_EQ(shard, a.shard_for_node(key));
    EXPECT_EQ(shard, b.shard_for_node(key));
    // Job- and node-keyed rows share the hash, so a job id routes the same
    // wherever it appears.
    EXPECT_EQ(a.shard_for_job(key), shard);
    if (shard != a.shard_for_node("m-0")) spread = true;
  }
  EXPECT_TRUE(spread) << "64 keys all landed on one shard";
}

TEST(ShardedDbTest, PerShardOpAccounting) {
  // Registry/heartbeat ops charge synchronously; only decision-path
  // mutations ride the ledger.
  ShardedDatabase sharded(sharded_config());

  // Find two machine ids living on different shards.
  std::string first = "m-0";
  std::string second;
  for (int i = 1; i < 64 && second.empty(); ++i) {
    const std::string candidate = "m-" + std::to_string(i);
    if (sharded.shard_for_node(candidate) != sharded.shard_for_node(first)) {
      second = candidate;
    }
  }
  ASSERT_FALSE(second.empty());
  const std::size_t shard_a = sharded.shard_for_node(first);
  const std::size_t shard_b = sharded.shard_for_node(second);

  ASSERT_TRUE(sharded.upsert_node(node(first)).is_ok());
  EXPECT_EQ(sharded.shard_ops(shard_a), 1u);
  EXPECT_EQ(sharded.shard_ops(shard_b), 0u);
  ASSERT_TRUE(sharded.upsert_node(node(second)).is_ok());
  const NodeRow first_row = sharded.node_row(first);
  const NodeRow second_row = sharded.node_row(second);
  EXPECT_EQ(sharded.touch_heartbeats({{second_row, 5.0}}), 1u);
  EXPECT_EQ(sharded.shard_ops(shard_a), 1u);
  EXPECT_EQ(sharded.shard_ops(shard_b), 2u);
  // Rows are owned where the ops landed.
  EXPECT_GE(sharded.shard_rows(shard_a), 1u);
  EXPECT_GE(sharded.shard_rows(shard_b), 1u);
  // op_count() is the sum of the lanes.
  EXPECT_EQ(sharded.op_count(), 3u);

  // A batched heartbeat touch charges ONE op per shard in the batch.
  const std::uint64_t before_a = sharded.shard_ops(shard_a);
  const std::uint64_t before_b = sharded.shard_ops(shard_b);
  EXPECT_EQ(
      sharded.touch_heartbeats({{first_row, 10.0}, {second_row, 10.0}}), 2u);
  EXPECT_EQ(sharded.shard_ops(shard_a), before_a + 1);
  EXPECT_EQ(sharded.shard_ops(shard_b), before_b + 1);
}

TEST(ShardedDbTest, ReadYourWritesThroughUnflushedLedger) {
  ShardedDatabase database(sharded_config(4, /*threshold=*/1000));
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  const std::uint64_t ops_after_registry = database.op_count();

  // Per-decision mutations absorb into the ledger: no shard write yet.
  const auto alloc = database.open_allocation("job-1", "m-1", {0}, 10.0);
  database.enqueue_request({"job-2", 0, 11.0});
  database.record_provenance({"job-1", "alpha", "beta", 12.0});
  EXPECT_EQ(database.op_count(), ops_after_registry)
      << "ledgered writes must not charge shards before the flush";
  EXPECT_EQ(database.ledger().pending(), 3u);

  // ...but every reader sees the ledgered state immediately.
  const auto rows = database.allocations_for_job("job-1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].allocation_id, alloc);
  EXPECT_EQ(rows[0].machine_id, "m-1");
  ASSERT_NE(database.provenance("job-1"), nullptr);
  EXPECT_EQ(database.provenance("job-1")->executing_region, "beta");
  EXPECT_EQ(database.queue_depth(), 1u);
  EXPECT_EQ(database.pop_request()->job_id, "job-2");

  // Closing the still-unflushed allocation works (read-modify-write sees
  // the ledgered open).
  ASSERT_TRUE(
      database.close_allocation(alloc, AllocationOutcome::kCompleted, 20.0)
          .is_ok());

  // The flush group-commits and only then charges the owning shards.
  const std::uint64_t before_flush = database.op_count();
  const std::size_t pending = database.ledger().pending();
  EXPECT_GT(pending, 0u);
  EXPECT_EQ(database.flush_ledger(), pending);
  EXPECT_EQ(database.ledger().pending(), 0u);
  EXPECT_GT(database.op_count(), before_flush);
  // One commit per touched shard, never more than entries or shards.
  EXPECT_LE(database.op_count() - before_flush, pending);
  EXPECT_LE(database.op_count() - before_flush, 4u);
}

TEST(ShardedDbTest, ThresholdFlushVsIntervalFlush) {
  ShardedDatabase database(sharded_config(4, /*threshold=*/3));
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());

  // Two mutations sit below the threshold...
  (void)database.open_allocation("job-1", "m-1", {0}, 1.0);
  database.enqueue_request({"job-2", 0, 2.0});
  EXPECT_EQ(database.ledger().pending(), 2u);
  EXPECT_EQ(database.ledger().stats().threshold_flushes, 0u);
  // ...the third crosses it and flushes without any timer.
  database.record_provenance({"job-1", "alpha", "alpha", 3.0});
  EXPECT_EQ(database.ledger().pending(), 0u);
  EXPECT_EQ(database.ledger().stats().threshold_flushes, 1u);
  EXPECT_EQ(database.ledger().stats().entries_flushed, 3u);

  // The interval trigger is the owner's timer calling flush_ledger.
  database.enqueue_request({"job-3", 0, 4.0});
  EXPECT_EQ(database.flush_ledger(FlushTrigger::kInterval), 1u);
  EXPECT_EQ(database.ledger().stats().interval_flushes, 1u);
  // An empty interval flush is a no-op, not a counted flush.
  EXPECT_EQ(database.flush_ledger(FlushTrigger::kInterval), 0u);
  EXPECT_EQ(database.ledger().stats().interval_flushes, 1u);
  EXPECT_EQ(database.ledger().stats().absorbed, 4u);
}

/// One fixed op sequence touching every ledgered and synchronous table.
void drive(ShardedDatabase& database) {
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  ASSERT_TRUE(database.upsert_node(node("m-2")).is_ok());
  ASSERT_TRUE(database.upsert_node(node("m-3")).is_ok());
  ASSERT_TRUE(
      database.set_node_status("m-3", NodeStatus::kUnavailable).is_ok());
  EXPECT_EQ(database.touch_heartbeats({{database.node_row("m-1"), 5.0},
                                      {database.node_row("m-2"), 6.0}}),
            2u);

  const auto a1 = database.open_allocation("job-1", "m-1", {0}, 10.0);
  const auto a2 = database.open_allocation("job-2", "m-2", {0}, 11.0, 0.25,
                                           /*interactive=*/true);
  ASSERT_TRUE(
      database.close_allocation(a1, AllocationOutcome::kCompleted, 20.0)
          .is_ok());
  ASSERT_TRUE(
      database.close_allocation(a2, AllocationOutcome::kMigrated, 21.0)
          .is_ok());
  (void)database.open_allocation("job-2", "m-1", {0}, 22.0);

  database.enqueue_request({"low", 0, 1.0});
  database.enqueue_request({"high", 5, 2.0});
  database.enqueue_request_front({"displaced", 0, 0.5});
  EXPECT_TRUE(database.remove_request("low"));
  EXPECT_FALSE(database.remove_request("ghost"));

  database.record_provenance({"job-2", "alpha", "beta", 30.0});
  database.record_provenance({"job-2", "alpha", "gamma", 40.0});
  database.record_metric("util", 1.0, 0.5);
  database.record_metric("util", 2.0, 0.75);
}

TEST(ShardedDbTest, ShardedWriteBehindConvergesToSameContents) {
  for (const int shards : {1, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedDatabase database(sharded_config(shards, /*threshold=*/5));
    drive(database);
    if (::testing::Test::HasFatalFailure()) return;
    (void)database.flush_ledger();  // settle the tail of the ledger
    EXPECT_EQ(database.ledger().pending(), 0u);
    EXPECT_EQ(database.wal().depth(), 0u);
    // 3 opens + 2 closes + 3 queue inserts + 2 provenance rows + 2 metric
    // points rode the ledger; only registry, status, heartbeat and the two
    // removals were charged at call time.
    EXPECT_EQ(database.ledger().stats().absorbed, 12u);
    const std::uint64_t heartbeat_shards =
        database.shard_for_node("m-1") == database.shard_for_node("m-2") ? 1
                                                                         : 2;
    EXPECT_EQ(database.sync_op_count(), 6u + heartbeat_shards);

    // Node registry, machine-id order.
    const auto nodes = database.nodes();
    ASSERT_EQ(nodes.size(), 3u);
    EXPECT_EQ(nodes[0].machine_id, "m-1");
    EXPECT_EQ(nodes[0].hostname, "host-m-1");
    EXPECT_EQ(nodes[0].status, NodeStatus::kActive);
    EXPECT_DOUBLE_EQ(nodes[0].last_heartbeat, 5.0);
    EXPECT_EQ(nodes[1].machine_id, "m-2");
    EXPECT_EQ(nodes[1].status, NodeStatus::kActive);
    EXPECT_DOUBLE_EQ(nodes[1].last_heartbeat, 6.0);
    EXPECT_EQ(nodes[2].machine_id, "m-3");
    EXPECT_EQ(nodes[2].status, NodeStatus::kUnavailable);
    EXPECT_DOUBLE_EQ(nodes[2].last_heartbeat, 0.0);

    // Allocation ledger: ids assigned sequentially in op order.
    const auto& ledger = database.allocation_ledger();
    ASSERT_EQ(ledger.size(), 3u);
    EXPECT_EQ(ledger[0].allocation_id, 1u);
    EXPECT_EQ(ledger[0].job_id, "job-1");
    EXPECT_EQ(ledger[0].machine_id, "m-1");
    EXPECT_EQ(ledger[0].outcome, AllocationOutcome::kCompleted);
    EXPECT_DOUBLE_EQ(ledger[0].started_at, 10.0);
    EXPECT_DOUBLE_EQ(ledger[0].ended_at, 20.0);
    EXPECT_DOUBLE_EQ(ledger[0].gpu_fraction, 1.0);
    EXPECT_FALSE(ledger[0].interactive);
    EXPECT_EQ(ledger[1].allocation_id, 2u);
    EXPECT_EQ(ledger[1].job_id, "job-2");
    EXPECT_EQ(ledger[1].machine_id, "m-2");
    EXPECT_EQ(ledger[1].outcome, AllocationOutcome::kMigrated);
    EXPECT_DOUBLE_EQ(ledger[1].started_at, 11.0);
    EXPECT_DOUBLE_EQ(ledger[1].ended_at, 21.0);
    EXPECT_DOUBLE_EQ(ledger[1].gpu_fraction, 0.25);
    EXPECT_TRUE(ledger[1].interactive);
    EXPECT_EQ(ledger[2].allocation_id, 3u);
    EXPECT_EQ(ledger[2].job_id, "job-2");
    EXPECT_EQ(ledger[2].machine_id, "m-1");
    EXPECT_EQ(ledger[2].outcome, AllocationOutcome::kRunning);
    EXPECT_DOUBLE_EQ(ledger[2].started_at, 22.0);
    EXPECT_DOUBLE_EQ(ledger[2].ended_at, 0.0);
    EXPECT_EQ(database.allocations_for_job("job-2").size(), 2u);

    // Provenance: full log in append order, latest row wins the lookup.
    const auto& provenance = database.provenance_log();
    ASSERT_EQ(provenance.size(), 2u);
    EXPECT_EQ(provenance[0].job_id, "job-2");
    EXPECT_EQ(provenance[0].origin_region, "alpha");
    EXPECT_EQ(provenance[0].executing_region, "beta");
    EXPECT_EQ(provenance[1].executing_region, "gamma");
    ASSERT_NE(database.provenance("job-2"), nullptr);
    EXPECT_EQ(database.provenance("job-2")->executing_region, "gamma");
    EXPECT_EQ(database.provenance("job-1"), nullptr);

    // Metric series.
    EXPECT_EQ(database.series_names(), std::vector<std::string>{"util"});
    const auto& util_series = database.series("util");
    ASSERT_EQ(util_series.size(), 2u);
    EXPECT_DOUBLE_EQ(util_series[0].value, 0.5);
    EXPECT_DOUBLE_EQ(util_series[1].value, 0.75);

    // Queue: priority first, then the front push ahead of the tail.
    EXPECT_EQ(database.queue_depth(), 2u);
    std::vector<std::string> drained;
    while (auto request = database.pop_request()) {
      drained.push_back(request->job_id);
    }
    EXPECT_EQ(drained, (std::vector<std::string>{"high", "displaced"}));
  }
}

// ---------------------------------------------------------------------------
// In-place scheduling pass (offer_requests) vs the pop loop it replaced.
// ---------------------------------------------------------------------------

/// A pass's take decision; it may push or remove rows of `database`.
using TakeFn =
    std::function<bool(ShardedDatabase& database, const PendingRequest&)>;

/// The loop offer_requests replaced: pop every request, then re-enqueue
/// each one `take` declined at the tail, in pop order.  Returns the job
/// ids in the order they were offered.
std::vector<std::string> pop_loop_pass(ShardedDatabase& database,
                                       const TakeFn& take) {
  std::vector<std::string> offered;
  std::vector<PendingRequest> retry;
  while (auto request = database.pop_request()) {
    offered.push_back(request->job_id);
    if (!take(database, *request)) retry.push_back(*request);
  }
  for (PendingRequest& request : retry) {
    database.enqueue_request(std::move(request));
  }
  return offered;
}

std::vector<std::string> in_place_pass(ShardedDatabase& database,
                                       const TakeFn& take) {
  std::vector<std::string> offered;
  database.offer_requests([&](const PendingRequest& request) {
    offered.push_back(request.job_id);
    return take(database, request);
  });
  return offered;
}

std::vector<std::string> drain_ids(ShardedDatabase& database) {
  std::vector<std::string> out;
  while (auto request = database.pop_request()) out.push_back(request->job_id);
  return out;
}

/// (priority, stamp) -> job id of every durable queue row.
std::map<std::pair<int, std::int64_t>, std::string> queue_stamps(
    const ShardedDatabase& database) {
  std::map<std::pair<int, std::int64_t>, std::string> out;
  for (const auto& [priority, bucket] : database.durable_image().queue) {
    for (const auto& [seq, request] : bucket) {
      out[{priority, seq}] = request.job_id;
    }
  }
  return out;
}

/// Mixed priorities, tail pushes and displaced (front-pushed) requests.
void fill_queue(ShardedDatabase& database) {
  database.enqueue_request({"a", 1, 1.0});
  database.enqueue_request({"b", 1, 2.0});
  database.enqueue_request({"c", 3, 3.0});
  database.enqueue_request_front({"displaced-1", 1, 4.0});
  database.enqueue_request({"d", 1, 5.0});
  database.enqueue_request_front({"displaced-2", 1, 6.0});
  database.enqueue_request({"e", 0, 7.0});
}

TEST(InPlacePassTest, UnplaceableRequestsCostNoWrite) {
  for (const int shards : {1, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedDatabase database(sharded_config(shards));
    int dirty_hooks = 0;
    database.set_on_ledger_dirty([&] { ++dirty_hooks; });
    fill_queue(database);
    database.flush_ledger();
    const auto stamps = queue_stamps(database);
    ASSERT_EQ(stamps.size(), 7u);
    const std::uint64_t appended = database.wal().stats().appended;
    const std::uint64_t absorbed = database.ledger().stats().absorbed;
    const int hooks = dirty_hooks;

    // Every request offered once, in pop order; none taken.
    ShardedDatabase reference = database;
    const std::vector<std::string> want = drain_ids(reference);
    std::vector<std::string> offered;
    EXPECT_EQ(database.offer_requests([&](const PendingRequest& request) {
      offered.push_back(request.job_id);
      return false;
    }),
              0u);
    EXPECT_EQ(offered, want);

    // No WAL record, no ledger absorb, no flush armed, rows and stamps
    // untouched.
    EXPECT_EQ(database.wal().stats().appended, appended);
    EXPECT_EQ(database.wal().depth(), 0u);
    EXPECT_EQ(database.ledger().stats().absorbed, absorbed);
    EXPECT_TRUE(database.ledger().empty());
    EXPECT_EQ(dirty_hooks, hooks);
    EXPECT_EQ(database.queue_depth(), 7u);
    database.flush_ledger();
    EXPECT_EQ(queue_stamps(database), stamps);
    EXPECT_EQ(drain_ids(database), want);
  }
}

TEST(InPlacePassTest, PlacingTheMiddleRequestKeepsThePopLoopOrder) {
  for (const int shards : {1, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedDatabase in_place(sharded_config(shards));
    fill_queue(in_place);
    ShardedDatabase pop_loop = in_place;
    // Pop order: c, displaced-2, displaced-1, a, b, d, e.  Place "a".
    const TakeFn take_middle = [](ShardedDatabase&,
                                  const PendingRequest& request) {
      return request.job_id == "a";
    };
    const std::uint64_t appended = in_place.wal().stats().appended;
    const std::uint64_t ops = in_place.decision_path_sync_ops();
    const std::vector<std::string> offered =
        in_place_pass(in_place, take_middle);
    EXPECT_EQ(offered, pop_loop_pass(pop_loop, take_middle));
    EXPECT_EQ(offered,
              (std::vector<std::string>{"c", "displaced-2", "displaced-1",
                                        "a", "b", "d", "e"}));
    // One kPop record and one round trip for the take, plus the read.
    EXPECT_EQ(in_place.wal().stats().appended, appended + 1);
    EXPECT_EQ(in_place.decision_path_sync_ops(), ops + 2);
    EXPECT_EQ(in_place.local_pops() + in_place.stolen_pops(), 1u);

    // Later pushes land where they would have after the pop loop: a new
    // displaced request leads its priority, a new submission trails it,
    // and the earlier displaced requests keep their lead over b and d.
    for (ShardedDatabase* database : {&in_place, &pop_loop}) {
      database->enqueue_request({"late", 1, 8.0});
      database->enqueue_request_front({"displaced-3", 1, 9.0});
    }
    const std::vector<std::string> remaining = drain_ids(in_place);
    EXPECT_EQ(remaining, drain_ids(pop_loop));
    EXPECT_EQ(remaining,
              (std::vector<std::string>{"c", "displaced-3", "displaced-2",
                                        "displaced-1", "b", "d", "late",
                                        "e"}));
  }
}

TEST(InPlacePassTest, RowsPushedFromTheCallbackAreOfferedInTheSamePass) {
  for (const int shards : {1, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedDatabase in_place(sharded_config(shards));
    fill_queue(in_place);
    ShardedDatabase pop_loop = in_place;
    // While "displaced-1" is offered (the cursor sits inside priority 1),
    // an owner reclaim displaces a priority-5 job to the front — ahead of
    // the cursor — and a priority-0 job arrives at the tail; "d" is
    // cancelled before its turn.  Everything else is declined.
    const TakeFn take = [](ShardedDatabase& database,
                           const PendingRequest& request) {
      if (request.job_id == "displaced-1") {
        database.enqueue_request_front({"reclaimed", 5, 10.0});
        database.enqueue_request({"arrival", 0, 11.0});
        EXPECT_TRUE(database.remove_request("d"));
      }
      return request.job_id == "reclaimed";
    };
    const std::vector<std::string> offered = in_place_pass(in_place, take);
    EXPECT_EQ(offered, pop_loop_pass(pop_loop, take));
    EXPECT_EQ(offered,
              (std::vector<std::string>{"c", "displaced-2", "displaced-1",
                                        "reclaimed", "a", "b", "e",
                                        "arrival"}));
    const std::vector<std::string> remaining = drain_ids(in_place);
    EXPECT_EQ(remaining, drain_ids(pop_loop));
    EXPECT_EQ(remaining,
              (std::vector<std::string>{"c", "displaced-2", "displaced-1",
                                        "a", "b", "e", "arrival"}));
  }
}

// ---------------------------------------------------------------------------
// Randomized differential test: live tables vs the durable image.
// ---------------------------------------------------------------------------

/// Drives random op sequences and checks the live sharded tables against
/// the durable image.  The image is advanced only by apply_to_image (keyed
/// maps, one global priority queue), which shares no code with the live
/// per-shard partitions, work-stealing pops or insertion-ordered views.
/// After every flush the WAL is empty, so the two must agree row for row.
/// A pop's WAL record carries the job the live pop chose, so the image
/// cannot catch a wrong pick by itself: before each pop the test flushes
/// and checks the pick against the front of the image's queue.
class ImageDifferential {
 public:
  struct Coverage {
    std::uint64_t tables_checked = 0;  // live-vs-image comparisons
    std::uint64_t pops_checked = 0;    // pops that returned a request
    std::uint64_t threshold_flushes = 0;
    std::uint64_t stolen_pops = 0;
    std::uint64_t removals = 0;
    std::uint64_t rejected_closes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t touched_rows = 0;  // handle-keyed touches that applied
    std::uint64_t passes_compared = 0;  // in-place passes matched to a pop loop
    std::uint64_t pass_takes = 0;       // rows an in-place pass removed
    std::uint64_t pass_declines = 0;    // rows an in-place pass left queued
    std::uint64_t pass_pushes = 0;      // rows pushed from inside a pass
  };

  ImageDifferential(std::uint64_t seed, int shards)
      : rng_(seed), db_(config(shards)) {}

  void run(int steps, Coverage* coverage) {
    for (int step = 0; step < steps; ++step) {
      now_ += rng_.uniform(0.0, 1.0);
      const std::uint64_t flushes = db_.ledger().stats().flushes;
      apply_random_op(step);
      if (::testing::Test::HasFatalFailure()) return;
      // A threshold flush inside an absorbing op is a flush too.
      if (db_.ledger().stats().flushes != flushes) {
        expect_live_equals_image("after threshold flush at step " +
                                 std::to_string(step));
      }
      // The scheduler's in-place pass, between ops like a flush.
      if (rng_.bernoulli(0.08)) checked_pass(step);
      if (rng_.bernoulli(0.1)) {
        db_.flush_ledger(FlushTrigger::kInterval, now_);
        expect_live_equals_image("after flush at step " +
                                 std::to_string(step));
      }
      if (rng_.bernoulli(0.02)) {
        // Recovery rebuilds the live tables — row handles included — from
        // the image; later handle-keyed touches must land on the same rows.
        (void)db_.crash_and_recover();
        ++recoveries_;
        expect_live_equals_image("after recovery at step " +
                                 std::to_string(step));
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    db_.flush_ledger();
    expect_live_equals_image("final");
    coverage->tables_checked += tables_checked_;
    coverage->pops_checked += pops_checked_;
    coverage->threshold_flushes += db_.ledger().stats().threshold_flushes;
    coverage->stolen_pops += db_.stolen_pops();
    coverage->removals += removals_;
    coverage->rejected_closes += rejected_closes_;
    coverage->recoveries += recoveries_;
    coverage->touched_rows += touched_rows_;
    coverage->passes_compared += passes_compared_;
    coverage->pass_takes += pass_takes_;
    coverage->pass_declines += pass_declines_;
    coverage->pass_pushes += pass_pushes_;
  }

 private:
  static DbConfig config(int shards) {
    DbConfig config;
    config.shard_count = shards;
    config.flush_threshold = 4;  // threshold flushes fire mid-sequence
    config.history_limit = 4;    // metric ring buffers wrap
    return config;
  }

  std::string machine() {
    // m-12 is never registered.
    return "m-" + std::to_string(rng_.uniform_int(0, 12));
  }
  // A small job-id pool, so queue rows, removals and provenance rows
  // repeat ids.
  std::string job() {
    return "job-" + std::to_string(rng_.uniform_int(0, 15));
  }

  void apply_random_op(int step) {
    switch (rng_.uniform_int(0, 10)) {
      case 0: {
        if (rng_.bernoulli(0.05)) {
          EXPECT_EQ(db_.upsert_node(NodeRecord{}).code(),
                    util::StatusCode::kInvalidArgument);
          break;
        }
        const std::string id =
            "m-" + std::to_string(rng_.uniform_int(0, 11));
        NodeRecord record = node(id);
        record.gpu_count = static_cast<int>(rng_.uniform_int(1, 8));
        record.last_heartbeat = now_;
        ASSERT_TRUE(db_.upsert_node(std::move(record)).is_ok());
        break;
      }
      case 1: {
        const auto status =
            static_cast<NodeStatus>(rng_.uniform_int(0, 3));
        (void)db_.set_node_status(machine(), status);
        break;
      }
      case 2: {
        // Touches are keyed by row handle, resolved once per machine id
        // (kNoRow for an unregistered one); a few are out-of-range
        // handles.  Unknown rows must be skipped on both sides.
        std::vector<std::pair<NodeRow, util::SimTime>> batch;
        const auto rows = rng_.uniform_int(0, 4);
        for (std::int64_t i = 0; i < rows; ++i) {
          const NodeRow row =
              rng_.bernoulli(0.1)
                  ? static_cast<NodeRow>(rng_.uniform_int(12, 40))
                  : db_.node_row(machine());
          // Some touches are stale: they must not roll a row backwards.
          batch.emplace_back(row, now_ - rng_.uniform(0.0, 3.0));
        }
        touched_rows_ += db_.touch_heartbeats(batch);
        break;
      }
      case 3: {
        std::vector<int> gpus{static_cast<int>(rng_.uniform_int(0, 3))};
        if (rng_.bernoulli(0.3)) gpus.push_back(gpus.front() + 1);
        const double fraction = rng_.bernoulli(0.3) ? 0.25 : 1.0;
        opened_.push_back(db_.open_allocation(job(), machine(),
                                              std::move(gpus), now_,
                                              fraction, rng_.bernoulli(0.3)));
        break;
      }
      case 4: {
        if (opened_.empty()) break;
        const auto pick = static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(opened_.size()) - 1));
        const auto outcome =
            static_cast<AllocationOutcome>(rng_.uniform_int(1, 4));
        if (!db_.close_allocation(opened_[pick], outcome, now_).is_ok()) {
          ++rejected_closes_;  // already closed
        }
        break;
      }
      case 5:
        db_.enqueue_request(
            {job(), static_cast<int>(rng_.uniform_int(0, 3)), now_});
        break;
      case 6:
        db_.enqueue_request_front(
            {job(), static_cast<int>(rng_.uniform_int(0, 3)), now_});
        break;
      case 7:
        checked_pop(step);
        break;
      case 8:
        if (db_.remove_request(job())) ++removals_;
        break;
      case 9: {
        static const char* const kRegions[] = {"alpha", "beta", "gamma"};
        const std::string origin = kRegions[rng_.uniform_int(0, 2)];
        const std::string executing = kRegions[rng_.uniform_int(0, 2)];
        db_.record_provenance(
            {job(), origin, executing, now_, origin + ">" + executing});
        break;
      }
      default: {
        static const char* const kSeries[] = {"util", "queue",
                                              "nodes{group=a}"};
        db_.record_metric(kSeries[rng_.uniform_int(0, 2)], now_,
                          rng_.uniform(0.0, 1.0));
        break;
      }
    }
  }

  void checked_pop(int step) {
    db_.flush_ledger(FlushTrigger::kExplicit, now_);
    expect_live_equals_image("before pop at step " + std::to_string(step));
    const TableImage& image = db_.durable_image();
    std::optional<PendingRequest> want;
    if (!image.queue.empty()) {
      want = image.queue.begin()->second.begin()->second;
    }
    const std::optional<PendingRequest> got = db_.pop_request();
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (!got.has_value()) return;
    EXPECT_EQ(got->job_id, want->job_id) << "step " << step;
    EXPECT_EQ(got->priority, want->priority) << "step " << step;
    EXPECT_DOUBLE_EQ(got->submitted_at, want->submitted_at) << "step " << step;
    ++pops_checked_;
  }

  /// One in-place pass with a random take predicate whose callback may
  /// push rows (front or back) and cancel queued jobs, run side by side
  /// with the pop loop it replaced on a copy of the store.  Both make the
  /// same decision at the same offer index, so while their histories agree
  /// the offer order and the remaining queue must agree too.  They part
  /// where the pop loop's popped-then-requeued rows are not in the queue:
  /// a cancel of a job this pass already offered, or a front push into a
  /// priority whose row this pass declined (the in-place row keeps its
  /// stamp behind the new front push; the pop loop requeued it after).
  void checked_pass(int step) {
    db_.flush_ledger(FlushTrigger::kExplicit, now_);
    expect_live_equals_image("before pass at step " + std::to_string(step));
    struct Decision {
      bool take = false;
      int mutation = 0;  // 0 none, 1 front push, 2 back push, 3 cancel
      PendingRequest request;
    };
    // Mutations only at offer indexes the queue held at the start, so
    // pushes from inside the pass cannot cascade.
    const std::size_t depth = db_.durable_image().queue_rows();
    std::vector<Decision> plan(3 * depth + 1);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      plan[i].take = rng_.bernoulli(0.3);
      if (i < depth && rng_.bernoulli(0.25)) {
        plan[i].mutation = static_cast<int>(rng_.uniform_int(1, 3));
        plan[i].request = {job(), static_cast<int>(rng_.uniform_int(0, 3)),
                           now_};
      }
    }
    bool diverged = false;
    auto run = [&](ShardedDatabase& database, bool in_place) {
      std::vector<std::string> offered;
      std::set<std::string> offered_jobs;
      std::set<int> declined_priorities;
      const TakeFn take = [&](ShardedDatabase& db,
                              const PendingRequest& request) {
        const Decision& decision = plan.at(offered.size());
        offered.push_back(request.job_id);
        offered_jobs.insert(request.job_id);
        // The row being offered counts as declined already: the pop loop
        // popped it before the callback's pushes.
        if (!decision.take) declined_priorities.insert(request.priority);
        switch (decision.mutation) {
          case 1:
            if (in_place &&
                declined_priorities.count(decision.request.priority) > 0) {
              diverged = true;
            }
            db.enqueue_request_front(decision.request);
            if (in_place) ++pass_pushes_;
            break;
          case 2:
            db.enqueue_request(decision.request);
            if (in_place) ++pass_pushes_;
            break;
          case 3:
            if (in_place && offered_jobs.count(decision.request.job_id) > 0) {
              diverged = true;
            }
            if (db.remove_request(decision.request.job_id) && in_place) {
              ++removals_;
            }
            break;
          default:
            break;
        }
        if (in_place) ++(decision.take ? pass_takes_ : pass_declines_);
        return decision.take;
      };
      if (in_place) {
        (void)in_place_pass(database, take);
      } else {
        (void)pop_loop_pass(database, take);
      }
      return offered;
    };
    ShardedDatabase pop_loop = db_;
    const std::uint64_t appended = db_.wal().stats().appended;
    const std::size_t takes_before = pass_takes_;
    const std::vector<std::string> offered = run(db_, /*in_place=*/true);
    const std::vector<std::string> want = run(pop_loop, /*in_place=*/false);
    if (!diverged) {
      ++passes_compared_;
      EXPECT_EQ(offered, want) << "step " << step;
      ShardedDatabase remaining = db_;
      EXPECT_EQ(drain_ids(remaining), drain_ids(pop_loop)) << "step " << step;
    }
    // Only takes, callback pushes and cancels write: a declined row never.
    EXPECT_LE(db_.wal().stats().appended - appended,
              (pass_takes_ - takes_before) + depth)
        << "step " << step;
    db_.flush_ledger(FlushTrigger::kExplicit, now_);
    expect_live_equals_image("after pass at step " + std::to_string(step));
    if (rng_.bernoulli(0.3)) {
      (void)db_.crash_and_recover();
      ++recoveries_;
      expect_live_equals_image("after recovery following the pass at step " +
                               std::to_string(step));
    }
  }

  void expect_live_equals_image(const std::string& context) {
    SCOPED_TRACE(context);
    ++tables_checked_;
    ASSERT_EQ(db_.wal().depth(), 0u) << "flush left WAL records behind";
    const TableImage& image = db_.durable_image();

    // Node registry, machine-id order on both sides; row handles agree
    // and index the image's rows.
    const std::vector<NodeRecord> nodes = db_.nodes();
    ASSERT_EQ(nodes.size(), image.node_index.size());
    auto image_node = image.node_index.begin();
    for (const NodeRecord& live : nodes) {
      const auto& [machine_id, row] = *image_node++;
      ASSERT_LT(row, image.node_rows.size());
      const NodeRecord& durable = image.node_rows[row];
      EXPECT_EQ(durable.machine_id, machine_id);
      EXPECT_EQ(durable.row, row);
      EXPECT_EQ(live.row, row);
      EXPECT_EQ(db_.node_row(machine_id), row);
      EXPECT_EQ(live.machine_id, durable.machine_id);
      EXPECT_EQ(live.gpu_count, durable.gpu_count);
      EXPECT_EQ(live.status, durable.status);
      EXPECT_DOUBLE_EQ(live.last_heartbeat, durable.last_heartbeat);
    }

    // Allocation ledger, allocation-id order on both sides.
    const auto& ledger = db_.allocation_ledger();
    ASSERT_EQ(ledger.size(), image.allocations.size());
    auto image_alloc = image.allocations.begin();
    for (const AllocationRecord& live : ledger) {
      const AllocationRecord& durable = (image_alloc++)->second;
      EXPECT_EQ(live.allocation_id, durable.allocation_id);
      EXPECT_EQ(live.job_id, durable.job_id);
      EXPECT_EQ(live.machine_id, durable.machine_id);
      EXPECT_EQ(live.gpu_indices, durable.gpu_indices);
      EXPECT_DOUBLE_EQ(live.gpu_fraction, durable.gpu_fraction);
      EXPECT_EQ(live.interactive, durable.interactive);
      EXPECT_DOUBLE_EQ(live.started_at, durable.started_at);
      EXPECT_DOUBLE_EQ(live.ended_at, durable.ended_at);
      EXPECT_EQ(live.outcome, durable.outcome);
    }

    // Provenance log in append order; each lookup is the job's latest row.
    const auto& log = db_.provenance_log();
    ASSERT_EQ(log.size(), image.provenance.size());
    std::map<std::string, const JobProvenance*> latest;
    auto image_row = image.provenance.begin();
    for (const JobProvenance& live : log) {
      const JobProvenance& durable = (image_row++)->second;
      EXPECT_EQ(live.job_id, durable.job_id);
      EXPECT_EQ(live.executing_region, durable.executing_region);
      EXPECT_EQ(live.route, durable.route);
      EXPECT_DOUBLE_EQ(live.recorded_at, durable.recorded_at);
      latest[durable.job_id] = &durable;
    }
    for (const auto& [job_id, durable] : latest) {
      const JobProvenance* live = db_.provenance(job_id);
      ASSERT_NE(live, nullptr) << job_id;
      EXPECT_EQ(live->executing_region, durable->executing_region);
      EXPECT_DOUBLE_EQ(live->recorded_at, durable->recorded_at);
    }

    // Metric series (ring buffers).
    std::vector<std::string> names;
    for (const auto& [name, points] : image.metrics) {
      names.push_back(name);
      const auto& live = db_.series(name);
      ASSERT_EQ(live.size(), points.size()) << name;
      for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_DOUBLE_EQ(live[i].at, points[i].at);
        EXPECT_DOUBLE_EQ(live[i].value, points[i].value);
      }
    }
    EXPECT_EQ(db_.series_names(), names);

    // Pending queue: draining a copy of the live store must reproduce the
    // image's (priority desc, seq asc) order exactly.
    std::vector<PendingRequest> expected;
    for (const auto& [priority, bucket] : image.queue) {
      for (const auto& [seq, request] : bucket) expected.push_back(request);
    }
    ShardedDatabase copy = db_;
    ASSERT_EQ(copy.queue_depth(), expected.size());
    for (const PendingRequest& want : expected) {
      const std::optional<PendingRequest> got = copy.pop_request();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->job_id, want.job_id);
      EXPECT_EQ(got->priority, want.priority);
    }
    EXPECT_FALSE(copy.pop_request().has_value());
    // The next allocation id continues the image's sequence.
    EXPECT_EQ(copy.open_allocation("probe", "m-0", {0}, now_),
              image.next_allocation_id);
  }

  util::Rng rng_;
  ShardedDatabase db_;
  std::vector<std::uint64_t> opened_;
  double now_ = 0;
  std::uint64_t tables_checked_ = 0;
  std::uint64_t pops_checked_ = 0;
  std::uint64_t removals_ = 0;
  std::uint64_t rejected_closes_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t touched_rows_ = 0;
  std::uint64_t passes_compared_ = 0;
  std::uint64_t pass_takes_ = 0;
  std::uint64_t pass_declines_ = 0;
  std::uint64_t pass_pushes_ = 0;
};

TEST(ShardedDbTest, RandomizedLiveTablesEqualDurableImage) {
  // GPUNION_INVARIANT_SEED pins the sweep to the 20 seeds from that base
  // (as in the coordinator harness); the default sweep covers seeds 1..20.
  // A pinned sweep is as long as the default one: the coverage floors are
  // per-sweep sums, and over 5 seeds their variance missed a floor for
  // about 3 % of bases with no defect behind it.
  const char* pinned = std::getenv("GPUNION_INVARIANT_SEED");
  const std::uint64_t base =
      pinned != nullptr ? std::strtoull(pinned, nullptr, 10) : 1;
  const std::uint64_t count = 20;
  for (const int shards : {1, 4, 8}) {
    ImageDifferential::Coverage coverage;
    for (std::uint64_t seed = base; seed < base + count; ++seed) {
      SCOPED_TRACE("GPUNION_INVARIANT_SEED=" + std::to_string(seed) +
                   " shards=" + std::to_string(shards));
      ImageDifferential(seed, shards).run(/*steps=*/300, &coverage);
      if (::testing::Test::HasFailure()) return;
    }
    // Green only means something if the sweep exercised the paths.
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_GT(coverage.tables_checked, 60 * count);
    EXPECT_GT(coverage.pops_checked, 15 * count);
    EXPECT_GT(coverage.threshold_flushes, 10 * count);
    EXPECT_GT(coverage.removals, 4 * count);
    EXPECT_GT(coverage.rejected_closes, count);
    EXPECT_GT(coverage.recoveries, count);
    EXPECT_GT(coverage.touched_rows, 20 * count);
    EXPECT_GT(coverage.passes_compared, 10 * count);
    EXPECT_GT(coverage.pass_takes, 10 * count);
    EXPECT_GT(coverage.pass_declines, 20 * count);
    EXPECT_GT(coverage.pass_pushes, 2 * count);
    if (shards > 1) {
      EXPECT_GT(coverage.stolen_pops, 10 * count);
    }
  }
}

}  // namespace
}  // namespace gpunion::db
