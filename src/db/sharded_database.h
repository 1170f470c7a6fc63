// Sharded, multi-writer system database with write-behind ledgering.
//
// Batching the heartbeat writes left the next wall: the synchronous DB ops
// the scheduler pays per decision all queue behind one writer.  This store
// spreads and defers them along two axes:
//
//  * Sharding: tables are partitioned by key — queue rows and provenance
//    by JOB id, node registry / heartbeats / allocations by NODE id
//    (deterministic FNV-1a routing) — across N writer shards, each with
//    its own op counter.  Synchronous load that used to queue behind one
//    writer spreads across N lanes; unkeyed ops (queue reads and pops,
//    depth probes) rotate round-robin, and fan-out reads (nodes(),
//    allocations_for_job on a node-partitioned table) pay one
//    scatter-gather op per shard.  The scheduler's pass walks the queue in
//    place (offer_requests): only the rows it removes are written.
//
//  * Write-behind: the coordinator's per-decision mutations (allocation
//    open/close, pending-queue inserts, provenance, metric points) are
//    absorbed by a WriteBehindLedger and group-committed to their shards
//    on a flush interval or size threshold — one modeled write per touched
//    shard per flush instead of one per mutation.
//
// Consistency model: mutations apply to the shared in-memory tables
// immediately and only their durable shard write is deferred, so every
// in-process reader (Coordinator, Directory consumers, RegionGateway) gets
// read-your-writes on ledgered-but-unflushed state; shard op counters
// advance at commit time.  This is the same modeling contract PR 2
// established for touch_heartbeats (apply all rows, count one batched
// write).  After every flush the live tables equal the durable image the
// WAL materializes (tests/db/sharded_db_test.cpp checks this against
// random op sequences at 1, 4 and 8 shards).
//
// This is the only system-database implementation: the Coordinator,
// RegionGateway, Scraper and Platform all use it directly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/ledger_wal.h"
#include "db/write_behind_ledger.h"
#include "util/status.h"
#include "util/time.h"

namespace gpunion::obs {
class Tracer;
}  // namespace gpunion::obs

namespace gpunion::db {

struct DbConfig {
  /// Writer shards the tables are partitioned across.
  int shard_count = 4;
  /// Background ledger-flush delay.  The database is passive (no event
  /// loop of its own); the owner — Platform — arms one flush_ledger() this
  /// long after the ledger goes from empty to non-empty
  /// (set_on_ledger_dirty).
  util::Duration flush_interval = 2.0;
  /// Pending ledger entries that force an immediate threshold flush.
  std::size_t flush_threshold = 256;
  /// Ring-buffer length per monitoring series.
  std::size_t history_limit = 4096;
};

/// What crash_and_recover() reconstructed (observability + bench fodder).
struct RecoveryReport {
  std::size_t wal_depth_at_crash = 0;  // durable log records found
  std::size_t replayed = 0;            // applied ahead of their shard image
  std::size_t skipped_applied = 0;     // idempotently skipped (<= watermark)
  std::size_t nodes = 0;
  std::size_t allocations = 0;
  std::size_t queue_rows = 0;
  std::size_t job_states = 0;
  std::size_t forward_states = 0;
  std::size_t handoffs = 0;
};

class ShardedDatabase {
 public:
  explicit ShardedDatabase(DbConfig config = {});

  // --- Node registry (sharded by machine id; synchronous) --------------------
  /// Rejects an empty machine id (after paying the round trip).
  util::Status upsert_node(NodeRecord record);
  util::StatusOr<NodeRecord> node(const std::string& machine_id) const;
  /// Row handle of a registered machine (kNoRow when unknown): the key
  /// touch_heartbeats takes.  Uncharged — it is the key the upsert's round
  /// trip already returned.
  NodeRow node_row(const std::string& machine_id) const;
  util::Status set_node_status(const std::string& machine_id, NodeStatus s);
  /// Applies many heartbeat touches, keyed by row handle, with one batched
  /// write per shard holding at least one row of the batch.  Coalescing
  /// per-beat writes into periodic flushes is what keeps the §5.2
  /// "database contention" op rate O(flushes) instead of O(heartbeats).
  /// Rows, images and owner shards are found by index: no key hashing per
  /// row.  A touch never moves a row's last_heartbeat backwards; unknown
  /// rows are skipped, and a batch with no known row costs one round trip
  /// like an empty one.  Returns the number of rows updated.
  std::size_t touch_heartbeats(
      const std::vector<std::pair<NodeRow, util::SimTime>>& batch);
  std::vector<NodeRecord> nodes() const;
  std::vector<NodeRecord> nodes_with_status(NodeStatus s) const;

  // --- Allocation ledger (sharded by machine id; write-behind) ---------------
  std::uint64_t open_allocation(const std::string& job_id,
                                const std::string& machine_id,
                                std::vector<int> gpu_indices,
                                util::SimTime at, double gpu_fraction = 1.0,
                                bool interactive = false);
  /// Fails with kNotFound for an unknown id and kFailedPrecondition for an
  /// allocation that is already closed.
  util::Status close_allocation(std::uint64_t allocation_id,
                                AllocationOutcome outcome, util::SimTime at);
  std::vector<AllocationRecord> allocations_for_job(
      const std::string& job_id) const;
  const std::vector<AllocationRecord>& allocation_ledger() const {
    return ledger_;
  }

  // --- Pending request queue (rows sharded by job id) ------------------------
  void enqueue_request(PendingRequest request);
  /// Re-queues at the *head* of its priority class (displaced jobs keep
  /// their place under GPUnion's policy; Slurm-style resubmission uses the
  /// tail via enqueue_request).
  void enqueue_request_front(PendingRequest request);
  /// Pops the highest-priority request, FIFO within a priority (front
  /// pushes first, newest front push leading).
  std::optional<PendingRequest> pop_request();
  /// The scheduler's pass, in place: offers every queued request to `take`
  /// once, in pop_request order (priority desc, then insertion order across
  /// all partitions), and removes only those `take` returns true for — one
  /// kPop WAL record and one decision-path op each, on top of one op for
  /// reading the queue.  A request `take` declines keeps its row and its
  /// insertion stamp: no WAL record, no ledger absorb, no flush armed.
  /// Requests enqueued (front or back) from inside `take` are offered in
  /// the same pass, as a pop loop would have popped them; a row removed
  /// inside `take` is not offered.  Not re-entrant.  Returns the number of
  /// requests removed.
  std::size_t offer_requests(
      const std::function<bool(const PendingRequest&)>& take);
  /// Removes a queued request by job id (job cancelled); false if absent.
  bool remove_request(const std::string& job_id);
  std::size_t queue_depth() const;

  // --- Job provenance (sharded by job id; write-behind) ----------------------
  /// Records where a job came from and where it executes.  The latest row
  /// per job wins for the lookup; the full log is kept for audit (one
  /// appended row per forward hop).
  void record_provenance(JobProvenance provenance);
  /// Latest provenance for a job; nullptr for never-forwarded jobs.
  const JobProvenance* provenance(const std::string& job_id) const;
  const std::vector<JobProvenance>& provenance_log() const {
    return provenance_log_;
  }

  // --- Monitoring history (sharded by series name; write-behind) -------------
  /// Appends one point; each series is a ring buffer of history_limit.
  void record_metric(const std::string& series, util::SimTime at,
                     double value);
  const std::deque<MetricPoint>& series(const std::string& name) const;
  /// Sorted.
  std::vector<std::string> series_names() const;

  // --- Durable control-plane state (crash recovery) --------------------------
  // Written by the Coordinator / RegionGateway so a crashed control plane
  // can rebuild itself from the database.  Each row rides the group commit
  // of the decision that produced it (the decision already paid its round
  // trip), so none of these charge ops.  Reads are served straight from
  // the durable image: these tables are WAL'd and applied synchronously,
  // so image == live for them always.
  void put_job_state(JobStateRecord record);
  bool erase_job_state(const std::string& job_id);
  const JobStateRecord* job_state(const std::string& job_id) const;
  /// All rows, job-id order (deterministic rebuild).
  std::vector<JobStateRecord> job_states() const;
  /// Small durable counter blobs (stats journals), keyed by owner.
  void put_journal(const std::string& key, std::vector<std::int64_t> values);
  const std::vector<std::int64_t>* journal(const std::string& key) const;
  void put_forward_state(ForwardStateRecord record);
  bool erase_forward_state(const std::string& job_id);
  /// All rows, job-id order.
  std::vector<ForwardStateRecord> forward_states() const;
  void put_handoff(HandoffRecord record);
  /// All rows, job-id order.
  std::vector<HandoffRecord> handoffs() const;

  // --- Op accounting ---------------------------------------------------------
  /// Total charged ops summed across shards (sync + flush commits).
  std::uint64_t op_count() const;

  // --- Sharding introspection ------------------------------------------------
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Deterministic owner shard of node-keyed rows (registry, heartbeats,
  /// allocations).
  std::size_t shard_for_node(std::string_view machine_id) const {
    return route(machine_id);
  }
  /// Deterministic owner shard of job-keyed rows (queue, provenance).
  std::size_t shard_for_job(std::string_view job_id) const {
    return route(job_id);
  }
  /// Ops charged to one shard (sync writes/reads + its ledger commits).
  std::uint64_t shard_ops(std::size_t shard) const {
    return shards_.at(shard).ops;
  }
  /// Rows currently owned by one shard (registry + allocations + queue +
  /// provenance inserts; audit of the partitioning, not a cost model).
  std::uint64_t shard_rows(std::size_t shard) const {
    return shards_.at(shard).rows;
  }
  std::vector<std::uint64_t> shard_op_counts() const;

  // --- Write-behind ledger ---------------------------------------------------
  const WriteBehindLedger& ledger() const { return ledger_log_; }
  /// Group-commits pending ledger entries to their shards.  Threshold
  /// flushes happen automatically inside absorbing mutations; the interval
  /// flush is driven by the owner's timer.  Returns entries committed.
  /// `at` is the commit time for trace spans (owner timers pass now();
  /// callers without a clock leave -1 and the newest absorbed entry's
  /// timestamp stands in).
  std::size_t flush_ledger(FlushTrigger trigger = FlushTrigger::kExplicit,
                           util::SimTime at = -1);

  /// Attaches a tracer: each flushed ledger entry (except background metric
  /// points) closes one db_group_commit span on the trace of the job whose
  /// key it carries — ack-to-durable latency becomes visible per job.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Sim clock for the ledger ack stamp of queue inserts, whose request
  /// carries only its original submit time (a requeue is acked now, not at
  /// submit).  Without a clock the submit time stands in.
  void set_clock(std::function<util::SimTime()> clock) {
    clock_ = std::move(clock);
  }
  obs::Tracer* tracer() const { return tracer_; }
  /// Invoked when an absorb takes the write-behind ledger from empty to
  /// non-empty (and did not threshold-flush it): the owner arms its
  /// interval flush from here, so an idle database schedules nothing.
  void set_on_ledger_dirty(std::function<void()> hook) {
    on_ledger_dirty_ = std::move(hook);
  }

  // --- Write-ahead log & crash recovery --------------------------------------
  const LedgerWal& wal() const { return wal_; }
  /// The durable image a restarted process would read back (tests/benches).
  const TableImage& durable_image() const { return image_; }

  /// Models a process crash and restart: discards every live table and
  /// rebuilds them from durable state only — the per-shard images plus a
  /// replay of WAL-ahead-of-shard records in global seq order (idempotent:
  /// records at/below a shard's applied watermark are skipped).  Because
  /// every mutation was WAL'd before its caller saw the ack, the rebuilt
  /// tables equal the pre-crash live tables exactly; op counters and the
  /// WriteBehindLedger's pending (cost) entries survive, so charging stays
  /// continuous across the crash.
  RecoveryReport crash_and_recover();

  /// Report of the most recent crash_and_recover() (all-zero before the
  /// first), plus how many recoveries this store has performed — the dark
  /// data the platform surfaces as metrics.
  const RecoveryReport& last_recovery_report() const {
    return last_recovery_report_;
  }
  std::uint64_t recoveries() const { return recoveries_; }

  /// One-shot fault arming (FaultInjector): the next flush skips SHARD's
  /// image commit (records stay in the WAL; the retry is the next flush)...
  void arm_commit_failure(std::size_t shard);
  /// ...or stops mid-group-commit after K shard images advanced, without
  /// truncating — the torn state a crash_and_recover() must then heal.
  void arm_flush_crash(std::size_t shards_before_crash);
  std::uint64_t commit_failures() const { return commit_failures_; }
  /// True when the last flush stopped early under arm_flush_crash.
  bool flush_interrupted() const { return flush_interrupted_; }

  // --- Pending-queue work stealing -------------------------------------------
  /// Queue removals (pops and pass takes) served by the rotating (charged)
  /// shard's own partition.
  std::uint64_t local_pops() const { return local_pops_; }
  /// Queue removals whose row lived in another shard's partition (the
  /// stealing cross-partition case).
  std::uint64_t stolen_pops() const { return stolen_pops_; }

  // --- Decision-path accounting ----------------------------------------------
  /// Ops charged synchronously at call time (everything except ledger
  /// group commits).
  std::uint64_t sync_op_count() const { return sync_ops_; }
  /// Synchronous ops on the scheduler's decision path: queue reads, pops,
  /// pass takes and removals (allocation open/close, queue inserts and
  /// provenance ride the ledger instead).  This counter over dispatches is
  /// "ops per decision".
  std::uint64_t decision_path_sync_ops() const {
    return decision_path_sync_ops_;
  }

  const DbConfig& config() const { return config_; }

 private:
  struct Shard {
    std::uint64_t ops = 0;   // charged ops (sync + group commits)
    std::uint64_t rows = 0;  // owned rows (audit of the partitioning)
  };

  /// One pending-queue row.  `seq` is a global insertion stamp: back pushes
  /// count up from 1, front pushes count down from -1, so ascending seq
  /// within a priority is the queue order (newest push_front first, then
  /// FIFO push_backs).
  struct QueueItem {
    PendingRequest request;
    std::int64_t seq;
  };
  /// Per-shard slice of the pending queue, keyed by priority (desc); each
  /// deque is sorted by stamp.  A shard's partition holds the jobs it owns
  /// (shard_for_job); pops steal across partitions for the global best.
  struct QueuePartition {
    std::map<int, std::deque<QueueItem>, std::greater<>> by_priority;
  };
  /// A row's place in pop order (stamps are unique, so it names the row).
  struct QueuePos {
    int priority = 0;
    std::int64_t seq = 0;
  };
  /// A row's owner partition and place.
  struct QueueRowRef {
    std::size_t shard = 0;
    QueuePos pos;
  };
  /// The running offer_requests pass.  `cursor` is the last row offered
  /// from the in-order walk; `behind` holds rows pushed ahead of it during
  /// the pass and not offered yet.
  struct QueuePass {
    bool active = false;
    std::optional<QueuePos> cursor;
    std::vector<QueueRowRef> behind;
  };

  /// True when `a` pops before `b`: priority desc, then stamp asc.
  static bool pops_before(QueuePos a, QueuePos b);
  /// The first row after `after` in pop order across all partitions (the
  /// global front when `after` is empty): the one ordering rule behind
  /// pop_request and offer_requests.
  std::optional<QueueRowRef> next_queue_row(
      const std::optional<QueuePos>& after) const;
  /// The row `ref` names, or nullptr once it has left the queue.
  const QueueItem* find_queue_row(const QueueRowRef& ref) const;
  /// Removes the row `ref` names (nullopt if it already left) and logs one
  /// kPop; `server` is the lane whose round trip paid for it, which makes
  /// the removal local or stolen.
  std::optional<PendingRequest> take_queue_row(const QueueRowRef& ref,
                                               std::size_t server);
  /// Inserts a row stamped `seq` (front pushes negative, back positive).
  void push_request(PendingRequest request, std::int64_t seq);

  std::size_t route(std::string_view key) const;
  /// Charges one synchronous op to `shard`.
  void charge(std::size_t shard, bool decision_path) const;
  /// Rotating writer for unkeyed ops (queue pops / depth probes): any lane
  /// can serve them, so the load spreads deterministically.
  std::size_t rotate() const;
  /// Absorbs a decision-path mutation into the ledger (threshold-flushing
  /// when the log fills).
  void absorb(LedgerOpKind kind, std::size_t shard, std::string key,
              std::uint64_t allocation_id, util::SimTime at);
  /// Appends one WAL record.  `deferred` mutations (ledger absorbs) leave
  /// their shard image to the next group commit; everything else is
  /// durable at call time — the synchronous round trip IS the write — so
  /// the shard's image advances (and the applied prefix truncates) here.
  void wal_append(WalRecord&& record, bool deferred);
  /// Applies SHARD's pending WAL records with seq <= upto to the image.
  void advance_image(std::size_t shard, std::uint64_t upto_seq);
  /// Replaces every live table with a materialization of image_.
  void rebuild_live_tables();

  DbConfig config_;
  // Mutable: reads are charged ops too.
  mutable std::vector<Shard> shards_;
  WriteBehindLedger ledger_log_;
  LedgerWal wal_;
  TableImage image_;
  std::vector<bool> armed_commit_failures_;
  /// >= 0: next flush advances this many shard images, then stops.
  int armed_flush_crash_ = -1;
  std::uint64_t commit_failures_ = 0;
  bool flush_interrupted_ = false;

  // Logical tables (merged view; each row owned by exactly one shard).
  // Node registry: rows by NodeRow, their owner shards (derived from the
  // machine id once, at insert or rebuild), and the ordered id index for
  // scans and edge lookups.
  std::vector<NodeRecord> node_rows_;
  std::vector<std::size_t> node_row_shards_;
  std::map<std::string, NodeRow> node_index_;
  std::vector<AllocationRecord> ledger_;
  std::unordered_map<std::uint64_t, std::size_t> ledger_index_;
  std::vector<QueuePartition> queue_parts_;  // one per shard
  std::int64_t queue_back_seq_ = 0;   // next back push stamps ++this
  std::int64_t queue_front_seq_ = 0;  // next front push stamps --this
  std::size_t queued_rows_ = 0;       // cached depth (O(1) probes)
  QueuePass pass_;
  std::unordered_map<std::string, std::deque<MetricPoint>> metrics_;
  std::vector<JobProvenance> provenance_log_;
  std::unordered_map<std::string, std::size_t> provenance_index_;
  std::uint64_t next_allocation_id_ = 1;

  mutable std::uint64_t sync_ops_ = 0;
  mutable std::uint64_t decision_path_sync_ops_ = 0;
  mutable std::size_t rotate_cursor_ = 0;
  std::uint64_t local_pops_ = 0;
  std::uint64_t stolen_pops_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::function<util::SimTime()> clock_;
  std::function<void()> on_ledger_dirty_;
  RecoveryReport last_recovery_report_;
  std::uint64_t recoveries_ = 0;
};

}  // namespace gpunion::db
