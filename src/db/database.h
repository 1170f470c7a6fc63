// Record types of the central system database.
//
// §3.2: "State persistence is handled through a centralized database that
// maintains node registrations, resource allocations, and historical
// monitoring data."  The one store is db::ShardedDatabase
// (db/sharded_database.h); these are the rows it keeps, shared with the
// write-ahead log that makes them durable.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"
#include "workload/job.h"

namespace gpunion::db {

enum class NodeStatus { kActive, kPaused, kUnavailable, kDeparted };

std::string_view node_status_name(NodeStatus s);

/// Dense handle of a node-registry row, assigned by the database at the
/// machine id's first upsert and never reused.  It is a durable column, so
/// it survives crash recovery unchanged; callers resolve a machine id to
/// it once and key their per-heartbeat writes by it.
using NodeRow = std::uint32_t;
inline constexpr NodeRow kNoRow = std::numeric_limits<NodeRow>::max();

struct NodeRecord {
  std::string machine_id;
  /// Assigned by upsert_node (a caller's value is ignored).
  NodeRow row = kNoRow;
  std::string hostname;
  int gpu_count = 0;
  std::string gpu_model;
  NodeStatus status = NodeStatus::kActive;
  util::SimTime registered_at = 0;
  util::SimTime last_heartbeat = 0;
  std::string auth_token_hash;  // sha256 of the issued token
  // Full hardware profile, so a restarted coordinator can rebuild its
  // scheduling directory from the registry alone (crash recovery) instead
  // of waiting for every node to re-register.
  std::string owner_group;
  double gpu_memory_gb = 0;
  double compute_capability = 0;
  double gpu_tflops = 0;
  int slots_per_gpu = 1;
  double share_memory_cap_gb = 0;
  int timeslice_tenants_per_gpu = 0;
  double timeslice_oversub_ratio = 0;
  double host_swap_gbps = 0;
};

enum class AllocationOutcome {
  kRunning,
  kCompleted,
  kMigrated,     // moved to another node (provider departure)
  kKilled,       // provider kill-switch, no recovery requested
  kLost,         // emergency departure with no usable checkpoint
};

struct AllocationRecord {
  std::uint64_t allocation_id = 0;
  std::string job_id;
  std::string machine_id;
  std::vector<int> gpu_indices;
  /// Capacity share per bound GPU: 1.0 for an exclusive allocation,
  /// 1/slots_per_gpu for a fractional time-sliced tenant.
  double gpu_fraction = 1.0;
  /// Interactive session (bursty duty cycle) vs saturating batch/training;
  /// drives delivered-utilization accounting.
  bool interactive = false;
  util::SimTime started_at = 0;
  util::SimTime ended_at = 0;  // 0 while running
  AllocationOutcome outcome = AllocationOutcome::kRunning;
};

/// A pending resource request in the scheduler's priority queue (§3.5:
/// "a round-robin scheduler which processes pending resource requests from
/// a priority queue stored in the central database").
struct PendingRequest {
  std::string job_id;
  int priority = 0;  // higher first
  util::SimTime submitted_at = 0;
};

struct MetricPoint {
  util::SimTime at = 0;
  double value = 0;
};

/// Region-scoped job provenance: which campus a job was first submitted in
/// and which campus ended up executing it.  Written by the federation
/// gateways on both sides of a cross-campus forward, so either region's
/// database can answer "whose job is this?" after the job has left its
/// origin coordinator entirely.
struct JobProvenance {
  std::string job_id;
  std::string origin_region;
  std::string executing_region;
  util::SimTime recorded_at = 0;
  /// Hop chain "origin>hop>...>executing" for chained re-forwards; a
  /// direct forward reads "origin>executing".  Empty on legacy rows.
  std::string route;
};

/// Durable mirror of one coordinator JobRecord — everything a restarted
/// coordinator needs to reconstruct live jobs, per-node indexes and
/// re-dispatch decisions that were granted but never delivered.  Phases and
/// causes are stored as ints so db/ stays independent of sched/.
struct JobStateRecord {
  std::string job_id;
  workload::JobSpec spec;
  int phase = 0;  // sched::JobPhase
  std::string node;
  std::string preferred_node;
  std::string displaced_from;
  bool migrate_back_pending = false;
  std::string migrate_back_target;
  double checkpointed_progress = 0;
  util::SimTime last_checkpoint_at = -1;
  int interruptions = 0;
  int migrations = 0;
  int migrate_backs = 0;
  util::SimTime submitted_at = 0;
  util::SimTime first_dispatched_at = -1;
  util::SimTime completed_at = -1;
  double lost_work_seconds = 0;
  int last_interruption_cause = 0;  // workload::InterruptionKind
  std::uint64_t open_allocation = 0;
  std::uint64_t dispatch_generation = 0;
  bool reclaim_requested = false;
  int dispatch_rejects = 0;
  bool awaiting_dispatch_settle = false;
  bool fractional_slot = false;
  bool timeslice_slot = false;
  util::SimTime running_since = -1;
  double segment_start_progress = 0;
  double node_speed = 1.0;
  /// Causal trace carried by the job (obs::TraceContext, stored as plain
  /// ints so db/ stays independent of obs/).  Survives crash recovery so a
  /// redispatched job continues its trace.
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent_span = 0;
};

/// Durable mirror of one gateway in-flight outbound forward.  Persisted
/// only once the job is WITHDRAWN from the local coordinator — from that
/// moment this row is the only place the job exists, so a gateway crash
/// without it would lose the job outright.
struct ForwardStateRecord {
  std::string job_id;
  workload::JobSpec spec;
  double start_progress = 0;
  std::uint64_t checkpoint_bytes = 0;
  int state = 0;  // federation::OutboundForward::State
  std::uint64_t handoff_id = 0;
  int transfer_attempts = 0;
  int attempts = 0;
  std::string origin_region;
  std::string origin_gateway;
  std::vector<std::string> chain;
  std::string awaiting_gateway;
  util::SimTime recorded_at = 0;
  /// Causal trace of the in-flight forward (plain ints; see JobStateRecord).
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent_span = 0;
};

/// Durable receive-side hand-off dedup row: (sender gateway, handoff id)
/// per admitted job.  Survives a gateway restart so an origin's
/// at-least-once transfer retry is re-acked, never re-admitted.
struct HandoffRecord {
  std::string job_id;
  std::string from_gateway;
  std::uint64_t handoff_id = 0;
  util::SimTime recorded_at = 0;
};

}  // namespace gpunion::db
