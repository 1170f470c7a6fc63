// §5.2 scalability push: full simulated campus runs at 1k/4k/10k nodes.
//
// The paper validates the coordinator to ~50 nodes and concedes that
// "beyond 200 nodes, heartbeat monitoring and database contention could
// become bottlenecks".  This bench drives the REAL platform (coordinator,
// agents, network, database) at 1,000 / 4,000 / 10,000 nodes under churn
// and reports the quantities that bound that claim:
//   - scheduling latency (submit -> first dispatch accept),
//   - heartbeat-sweep cost (expiry-ordered: work per sweep is O(expired)),
//   - database op rate with and without batched heartbeat writes,
//   - event-queue health (tombstone compaction).
//
// It also times the heartbeat-processing hot path head-to-head against a
// faithful replica of the pre-index implementation (full job-map scan with
// a nested membership loop; full-directory sweep) over identical state —
// the before/after that the indexes buy.
//
// PR 6 adds the parallel-execution-core sweep: the same campus under
// kDeterministic (legacy single-thread order) and kParallel with 1/2/4/8
// workers, reporting wall clock, per-worker CPU busy time, the critical-path
// "ideal parallel wall" (sum over conservative windows of the busiest
// worker's CPU time) and the exposed speedup total_busy/ideal — the honest
// concurrency number on a machine with fewer cores than workers — plus a
// 100k-node completion run.
//
// PR 4 adds the sharded-vs-single-writer A/B: the same campus run under
// the legacy DB config (1 writer, every mutation synchronous) and under
// the sharded write-behind config (>= 4 writer shards, per-decision
// mutations absorbed by the ledger), reporting the decision-path op-rate
// cut and the modeled M/M/1 decision-path latency for both.
//
// Emits machine-readable BENCH_scalability.json (override with --out).
// `--smoke` shrinks everything for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/harness.h"
#include "gpunion/federated_platform.h"
#include "sched/heartbeat_monitor.h"
#include "util/logging.h"
#include "workload/profiles.h"
#include "workload/provider_behavior.h"

namespace gpunion::bench {
namespace {

// ---------------------------------------------------------------------------
// Head-to-head: heartbeat-processing path, legacy full scan vs indexed.
// ---------------------------------------------------------------------------

/// The coordinator-side job state both implementations reconcile over.
struct ReconcileFixture {
  struct Rec {
    std::string node;
    bool running = false;  // terminal history records are !running
  };
  // Legacy shape: one map holding every record ever submitted.
  std::map<std::string, Rec> all_jobs;
  // Indexed shape: per-node live ids (terminal records retired away).
  std::unordered_map<std::string, std::vector<std::string>> by_node;
  std::vector<std::string> machines;
  // Each machine's heartbeat job list (what the agent reports hosting).
  std::unordered_map<std::string, std::vector<std::string>> beat_lists;
};

/// `nodes` machines, one running job per machine, plus `history_per_node`
/// terminal records each — the state an overnight campus accumulates.
ReconcileFixture make_reconcile_fixture(int nodes, int history_per_node) {
  ReconcileFixture f;
  f.machines.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    const std::string machine = "m-" + std::to_string(100000 + n);
    f.machines.push_back(machine);
    const std::string live = "job-" + machine;
    f.all_jobs[live] = {machine, true};
    f.by_node[machine].push_back(live);
    f.beat_lists[machine].push_back(live);
    for (int h = 0; h < history_per_node; ++h) {
      f.all_jobs["done-" + machine + "-" + std::to_string(h)] =
          {machine, false};
    }
  }
  return f;
}

/// Pre-PR reconcile: scan EVERY record per heartbeat; membership through
/// the nested O(records_on_node x running_jobs) string-compare loop.
std::size_t legacy_reconcile(const ReconcileFixture& f,
                             const std::string& machine) {
  std::size_t missing = 0;
  const auto& hosted = f.beat_lists.at(machine);
  for (const auto& [job_id, rec] : f.all_jobs) {
    if (!rec.running || rec.node != machine) continue;
    bool found = false;
    for (const auto& running : hosted) {
      if (running == job_id) {
        found = true;
        break;
      }
    }
    if (!found) ++missing;
  }
  return missing;
}

/// Indexed reconcile: per-node id list + hash-set membership.
std::size_t indexed_reconcile(const ReconcileFixture& f,
                              const std::string& machine) {
  std::size_t missing = 0;
  auto node_jobs = f.by_node.find(machine);
  if (node_jobs == f.by_node.end()) return 0;
  const auto& hosted_list = f.beat_lists.at(machine);
  const std::unordered_set<std::string_view> hosted(hosted_list.begin(),
                                                    hosted_list.end());
  for (const auto& job_id : node_jobs->second) {
    if (!hosted.contains(std::string_view(job_id))) ++missing;
  }
  return missing;
}

struct HeartbeatPathResult {
  int nodes = 0;
  int total_records = 0;
  int active_records = 0;
  double legacy_us_per_beat = 0;
  double indexed_us_per_beat = 0;
  double speedup = 0;
};

HeartbeatPathResult time_heartbeat_path(int nodes, int history_per_node) {
  const ReconcileFixture f = make_reconcile_fixture(nodes, history_per_node);
  HeartbeatPathResult r;
  r.nodes = nodes;
  r.total_records = static_cast<int>(f.all_jobs.size());
  r.active_records = nodes;
  // One full heartbeat round (every machine beats once), repeated until
  // the slower side has run for a meaningful interval.
  std::size_t sink = 0;
  const int legacy_rounds = 3;
  const double legacy_s = wall_seconds([&] {
    for (int round = 0; round < legacy_rounds; ++round) {
      for (const auto& machine : f.machines) {
        sink += legacy_reconcile(f, machine);
      }
    }
  });
  const int indexed_rounds = 50;
  const double indexed_s = wall_seconds([&] {
    for (int round = 0; round < indexed_rounds; ++round) {
      for (const auto& machine : f.machines) {
        sink += indexed_reconcile(f, machine);
      }
    }
  });
  if (sink != 0) std::printf("(reconcile sink %zu)\n", sink);
  r.legacy_us_per_beat =
      legacy_s * 1e6 / (static_cast<double>(legacy_rounds) * nodes);
  r.indexed_us_per_beat =
      indexed_s * 1e6 / (static_cast<double>(indexed_rounds) * nodes);
  r.speedup = r.legacy_us_per_beat / std::max(1e-9, r.indexed_us_per_beat);
  return r;
}

struct SweepResult {
  int nodes = 0;
  double legacy_us_per_sweep = 0;
  double indexed_us_per_sweep = 0;
  double speedup = 0;
};

/// Pre-PR sweep (full directory scan) vs the expiry-ordered monitor, both
/// over an N-node directory with zero expirations (the steady state: the
/// sweep fires every 2 s, losses are rare).
SweepResult time_sweep(int nodes) {
  sim::Environment env;
  sched::Directory directory;
  sched::HeartbeatMonitor monitor(env, directory, 2.0, 3, nullptr);
  for (int i = 0; i < nodes; ++i) {
    const std::string machine_id = "m-" + std::to_string(100000 + i);
    sched::NodeInfo info;
    info.machine_id = machine_id;
    info.status = db::NodeStatus::kActive;
    info.accepting = true;
    info.gpu_count = 1;
    info.last_heartbeat = 0.0;
    monitor.observe(directory.upsert(std::move(info)).handle, 0.0);
  }
  SweepResult r;
  r.nodes = nodes;
  std::size_t sink = 0;
  const int rounds = 200;
  const double deadline = monitor.detection_deadline();
  const double legacy_s = wall_seconds([&] {
    for (int round = 0; round < rounds; ++round) {
      // Faithful replica of the old HeartbeatMonitor::sweep.
      std::vector<std::string> lost;
      for (const sched::NodeInfo* node : directory.all()) {
        if (node->status != db::NodeStatus::kActive) continue;
        if (0.0 - node->last_heartbeat > deadline) {
          lost.push_back(node->machine_id);
        }
      }
      sink += lost.size();
    }
  });
  const double indexed_s = wall_seconds([&] {
    for (int round = 0; round < rounds; ++round) {
      sink += monitor.sweep().size();
    }
  });
  if (sink != 0) std::printf("(sweep sink %zu)\n", sink);
  r.legacy_us_per_sweep = legacy_s * 1e6 / rounds;
  r.indexed_us_per_sweep = indexed_s * 1e6 / rounds;
  r.speedup =
      r.legacy_us_per_sweep / std::max(1e-9, r.indexed_us_per_sweep);
  return r;
}

// ---------------------------------------------------------------------------
// Full campus simulation at scale.
// ---------------------------------------------------------------------------

struct CampusRunResult {
  int nodes = 0;
  double sim_horizon_s = 0;
  double wall_s = 0;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  int interruptions = 0;
  std::uint64_t heartbeats = 0;
  double mean_sched_latency_s = 0;
  double p99_sched_latency_s = 0;
  double db_ops_per_sim_s = 0;
  double db_ops_per_sim_s_unbatched_equiv = 0;
  std::uint64_t sweep_entries_examined = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t event_compactions = 0;
  std::size_t live_jobs_at_end = 0;
  std::size_t archived_jobs_at_end = 0;
  double wall_us_per_heartbeat = 0;
  // Sharded-DB / write-behind accounting (PR 4).
  int db_shards = 0;
  bool db_write_behind = false;
  int decisions = 0;  // dispatches sent
  double db_sync_ops_per_sim_s = 0;
  double hottest_shard_ops_per_sim_s = 0;
  double decision_ops_per_decision = 0;  // sync decision-path ops / decision
  std::uint64_t ledger_absorbed = 0;
  std::uint64_t ledger_flushes = 0;
  std::uint64_t ledger_shard_commits = 0;
  // Execution-core accounting (PR 6).
  std::string exec_mode = "deterministic";
  int regions = 1;  // >1: federated run (one control-plane actor per region)
  int workers = 0;
  std::uint64_t windows = 0;
  std::uint64_t exclusive_events = 0;
  std::uint64_t causality_clamps = 0;
  double total_busy_s = 0;       // summed worker CPU time
  double ideal_wall_s = 0;       // critical path across windows
  double exposed_speedup = 0;    // total_busy / ideal (kParallel only)
  std::size_t processed_events = 0;
};

/// Execution-core counters shared by the single-campus and federated runs.
void fill_exec_stats(CampusRunResult& r, const sim::Environment& env) {
  r.exec_mode = env.mode() == sim::ExecutionMode::kParallel ? "parallel"
                                                            : "deterministic";
  r.workers = static_cast<int>(env.worker_count());
  r.processed_events = env.processed_events();
  const sim::ParallelStats& ps = env.parallel_stats();
  r.windows = ps.windows;
  r.exclusive_events = ps.exclusive_events;
  r.causality_clamps = ps.causality_clamps;
  r.total_busy_s = ps.total_busy_s;
  r.ideal_wall_s = ps.ideal_wall_s;
  r.exposed_speedup =
      ps.ideal_wall_s > 0 ? ps.total_busy_s / ps.ideal_wall_s : 0.0;
}

CampusConfig synthetic_campus(int nodes, const db::DbConfig& db) {
  CampusConfig config;
  config.db = db;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090("ws-" + std::to_string(i)),
         "group-" + std::to_string(i % 16)});
  }
  config.storage.push_back({"nas-campus", 512ULL << 40});
  config.coordinator.heartbeat_interval = 2.0;
  config.coordinator.heartbeat_miss_threshold = 3;
  config.coordinator.strategy = std::string(sched::kRoundRobin);
  config.agent_defaults.heartbeat_interval = 2.0;
  // Telemetry and scrapes off the hot path: this bench isolates the
  // heartbeat + scheduling + churn control plane.
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

CampusRunResult run_campus(int nodes, double horizon, double churn_per_day,
                           std::uint64_t seed,
                           const db::DbConfig& db = db::DbConfig{},
                           const sim::EnvConfig& exec = sim::EnvConfig{}) {
  CampusRunResult r;
  r.nodes = nodes;
  r.sim_horizon_s = horizon;

  sim::Environment env(seed, exec);
  Platform platform(env, synthetic_campus(nodes, db));
  r.wall_s = wall_seconds([&] {
    platform.start();
    env.run_until(5.0);

    // Load: one short training job per four nodes, one interactive
    // session per sixteen — enough to keep placement and completion
    // traffic flowing throughout the horizon.
    auto& coordinator = platform.coordinator();
    const int training = nodes / 4;
    for (int i = 0; i < training; ++i) {
      auto job = workload::make_training_job(
          "train-" + std::to_string(i), workload::cnn_small(),
          /*hours=*/0.02 + 0.02 * (i % 4), "group-" + std::to_string(i % 16),
          env.now());
      job.checkpoint_interval = 120.0;
      (void)coordinator.submit(std::move(job));
    }
    for (int i = 0; i < nodes / 16; ++i) {
      (void)coordinator.submit(workload::make_interactive_session(
          "sess-" + std::to_string(i), 0.05,
          "group-" + std::to_string(i % 16), env.now()));
    }

    // Churn across the whole fleet.
    workload::InterruptionModel model;
    model.events_per_day = churn_per_day;
    model.min_downtime = 60.0;
    model.max_downtime = 600.0;
    model.temporary_downtime = 120.0;
    auto interruptions = workload::generate_interruptions(
        platform.machine_ids(), horizon, model, util::Rng(seed + 1));
    for (const auto& event : interruptions) {
      // Exclusive in kParallel (interruptions touch the coordinator AND an
      // agent); an ordinary event in kDeterministic — same legacy order.
      platform.schedule_interruption(std::max(event.at, env.now()), event);
    }
    env.run_until(horizon);
  });

  const auto& stats = platform.coordinator().stats();
  const auto& monitor = platform.coordinator().heartbeat_monitor();
  r.jobs_submitted = stats.jobs_submitted;
  r.jobs_completed = stats.jobs_completed;
  r.interruptions = stats.interruptions;
  r.heartbeats = stats.heartbeats_processed;
  r.mean_sched_latency_s = stats.queue_wait.mean();
  r.p99_sched_latency_s = stats.queue_wait.percentile(99);
  r.db_ops_per_sim_s =
      static_cast<double>(platform.database().op_count()) / horizon;
  // Exact counterfactual: every coalesced touch would have been one op.
  r.db_ops_per_sim_s_unbatched_equiv =
      (static_cast<double>(platform.database().op_count()) +
       static_cast<double>(stats.heartbeat_db_touches_coalesced) -
       static_cast<double>(stats.heartbeat_db_flushes)) /
      horizon;
  r.sweep_entries_examined = monitor.total_examined();
  r.sweeps = monitor.sweeps();
  r.event_compactions = env.queue_stats().compactions;
  const db::ShardedDatabase& database = platform.database();
  r.db_shards = database.shard_count();
  r.db_write_behind = database.config().write_behind;
  r.decisions = stats.dispatches_sent;
  r.db_sync_ops_per_sim_s =
      static_cast<double>(database.sync_op_count()) / horizon;
  std::uint64_t hottest = 0;
  for (const std::uint64_t ops : database.shard_op_counts()) {
    hottest = std::max(hottest, ops);
  }
  r.hottest_shard_ops_per_sim_s = static_cast<double>(hottest) / horizon;
  r.decision_ops_per_decision =
      r.decisions == 0 ? 0.0
                       : static_cast<double>(database.decision_path_sync_ops()) /
                             static_cast<double>(r.decisions);
  r.ledger_absorbed = database.ledger().stats().absorbed;
  r.ledger_flushes = database.ledger().stats().flushes;
  r.ledger_shard_commits = database.ledger().stats().shard_commits;
  const auto operational = platform.coordinator().operational_stats();
  r.live_jobs_at_end = static_cast<std::size_t>(operational.live_jobs);
  r.archived_jobs_at_end =
      static_cast<std::size_t>(operational.archived_jobs);
  r.wall_us_per_heartbeat =
      r.heartbeats == 0
          ? 0
          : r.wall_s * 1e6 / static_cast<double>(r.heartbeats);
  fill_exec_stats(r, env);
  return r;
}

/// The same control-plane workload split across `region_count` federated
/// campuses (one coordinator/database/gateway actor set per region, joined
/// by the WAN).  A single campus has exactly ONE control-plane actor, so
/// its heartbeat fan-in IS the critical path no matter how many workers
/// run — this is the configuration where the runtime has genuinely
/// concurrent control planes to spread across workers.
CampusRunResult run_federated_exec(int total_nodes, int region_count,
                                   double horizon, double churn_per_day,
                                   std::uint64_t seed,
                                   const sim::EnvConfig& exec) {
  CampusRunResult r;
  r.nodes = total_nodes;
  r.regions = region_count;
  r.sim_horizon_s = horizon;

  sim::Environment env(seed, exec);
  FederationConfig config;
  const int per_region = total_nodes / region_count;
  for (int g = 0; g < region_count; ++g) {
    const std::string name = "campus-" + std::to_string(g);
    CampusConfig campus = synthetic_campus(per_region, db::DbConfig{});
    for (auto& node : campus.nodes) {
      node.spec.hostname = name + "-" + node.spec.hostname;
    }
    campus.storage.front().id = "nas-" + name;
    federation::RegionPolicy policy;
    policy.digest_interval = 10.0;
    config.regions.push_back({name, std::move(campus), policy});
  }
  config.wan.base_latency = 0.010;
  config.metrics_interval = 1e9;
  FederatedPlatform fed(env, config);

  r.wall_s = wall_seconds([&] {
    fed.start();
    env.run_until(5.0);
    for (std::size_t g = 0; g < fed.region_count(); ++g) {
      Platform& platform = fed.region(g);
      auto& coordinator = platform.coordinator();
      for (int i = 0; i < per_region / 4; ++i) {
        auto job = workload::make_training_job(
            "train-" + std::to_string(g) + "-" + std::to_string(i),
            workload::cnn_small(), /*hours=*/0.02 + 0.02 * (i % 4),
            "group-" + std::to_string(i % 16), env.now());
        job.checkpoint_interval = 120.0;
        (void)coordinator.submit(std::move(job));
      }
      workload::InterruptionModel model;
      model.events_per_day = churn_per_day;
      model.min_downtime = 60.0;
      model.max_downtime = 600.0;
      model.temporary_downtime = 120.0;
      auto interruptions = workload::generate_interruptions(
          platform.machine_ids(), horizon, model, util::Rng(seed + 1 + g));
      for (const auto& event : interruptions) {
        platform.schedule_interruption(std::max(event.at, env.now()), event);
      }
    }
    env.run_until(horizon);
  });

  for (std::size_t g = 0; g < fed.region_count(); ++g) {
    const auto& stats = fed.region(g).coordinator().stats();
    r.jobs_submitted += stats.jobs_submitted;
    r.jobs_completed += stats.jobs_completed;
    r.interruptions += stats.interruptions;
    r.heartbeats += stats.heartbeats_processed;
  }
  fill_exec_stats(r, env);
  return r;
}

// ---------------------------------------------------------------------------
// Sharded-vs-single-writer A/B (the PR 2 "next scalability wall").
// ---------------------------------------------------------------------------

/// M/M/1 sojourn time, saturation-clamped: at/over the service rate the
/// true latency is unbounded, so the model reports the wait at rho = 0.99
/// and flags the run saturated (the honest headline is the flag; the
/// clamped number keeps the reduction factor finite and recordable).
double mm1_wait_clamped(double lambda, double mu, bool* saturated) {
  if (lambda >= mu) {
    *saturated = true;
    lambda = 0.99 * mu;
  }
  return 1.0 / (mu - lambda);
}

struct DbAbResult {
  int nodes = 0;
  CampusRunResult legacy;   // 1 writer, write-behind off
  CampusRunResult sharded;  // >= 4 writers, write-behind on
  double mu = 0;            // per-writer service rate
  double legacy_rho = 0;    // single writer utilization
  double sharded_rho = 0;   // hottest shard utilization
  bool legacy_saturated = false;
  bool sharded_saturated = false;
  /// Modeled decision-path DB latency: (sync decision-path ops per
  /// decision) x (M/M/1 wait at the serving writer's measured op rate).
  double legacy_decision_latency_s = 0;
  double sharded_decision_latency_s = 0;
  double latency_reduction = 0;  // legacy / sharded
  double decision_op_cut = 0;    // decision-path ops per decision, legacy/sharded
  double op_rate_cut = 0;        // total charged op rate, legacy/sharded
};

DbAbResult run_db_ab(int nodes, double horizon, double churn_per_day,
                     std::uint64_t seed, int shards) {
  db::DbConfig legacy;
  legacy.shard_count = 1;
  legacy.write_behind = false;
  db::DbConfig sharded;
  sharded.shard_count = shards;
  sharded.write_behind = true;

  DbAbResult ab;
  ab.nodes = nodes;
  ab.legacy = run_campus(nodes, horizon, churn_per_day, seed, legacy);
  ab.sharded = run_campus(nodes, horizon, churn_per_day, seed, sharded);
  ab.mu = 1.0 / legacy.op_service_time;
  ab.legacy_rho = ab.legacy.hottest_shard_ops_per_sim_s / ab.mu;
  ab.sharded_rho = ab.sharded.hottest_shard_ops_per_sim_s / ab.mu;
  const double legacy_wait = mm1_wait_clamped(
      ab.legacy.hottest_shard_ops_per_sim_s, ab.mu, &ab.legacy_saturated);
  const double sharded_wait = mm1_wait_clamped(
      ab.sharded.hottest_shard_ops_per_sim_s, ab.mu, &ab.sharded_saturated);
  ab.legacy_decision_latency_s =
      ab.legacy.decision_ops_per_decision * legacy_wait;
  ab.sharded_decision_latency_s =
      ab.sharded.decision_ops_per_decision * sharded_wait;
  ab.latency_reduction =
      ab.sharded_decision_latency_s <= 0
          ? 0
          : ab.legacy_decision_latency_s / ab.sharded_decision_latency_s;
  ab.decision_op_cut =
      ab.sharded.decision_ops_per_decision <= 0
          ? 0
          : ab.legacy.decision_ops_per_decision /
                ab.sharded.decision_ops_per_decision;
  ab.op_rate_cut = ab.sharded.db_ops_per_sim_s <= 0
                       ? 0
                       : ab.legacy.db_ops_per_sim_s /
                             ab.sharded.db_ops_per_sim_s;
  return ab;
}

/// What the LEGACY load would cost at N writer lanes (even split): the
/// pure shard-count ablation, holding the workload fixed.
struct ShardModelPoint {
  int shards = 0;
  double per_shard_ops_per_s = 0;
  double rho = 0;
  bool saturated = false;
  double wait_ms = 0;
};

std::vector<ShardModelPoint> shard_model(const DbAbResult& ab) {
  std::vector<ShardModelPoint> out;
  for (const int shards : {1, 2, 4, 8, 16}) {
    ShardModelPoint p;
    p.shards = shards;
    p.per_shard_ops_per_s =
        ab.legacy.db_ops_per_sim_s / static_cast<double>(shards);
    p.rho = p.per_shard_ops_per_s / ab.mu;
    p.wait_ms =
        mm1_wait_clamped(p.per_shard_ops_per_s, ab.mu, &p.saturated) * 1000.0;
    out.push_back(p);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void print_campus(const CampusRunResult& r) {
  std::printf(
      "%7d %9.0f %8.1f %9llu %10.2f %10.2f %11.0f %13.0f %9llu %8zu\n",
      r.nodes, r.sim_horizon_s, r.wall_s,
      static_cast<unsigned long long>(r.heartbeats),
      r.mean_sched_latency_s * 1000.0, r.p99_sched_latency_s * 1000.0,
      r.db_ops_per_sim_s, r.db_ops_per_sim_s_unbatched_equiv,
      static_cast<unsigned long long>(r.sweep_entries_examined),
      r.archived_jobs_at_end);
}

void write_json(const std::string& path, const std::string& mode,
                const std::vector<HeartbeatPathResult>& paths,
                const std::vector<SweepResult>& sweeps,
                const std::vector<CampusRunResult>& runs,
                const std::vector<DbAbResult>& db_abs,
                const std::vector<CampusRunResult>& exec_runs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"scalability\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"heartbeat_path\": [\n";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto& p = paths[i];
    out << "    {\"nodes\": " << p.nodes
        << ", \"total_records\": " << p.total_records
        << ", \"active_records\": " << p.active_records
        << ", \"legacy_us_per_beat\": " << p.legacy_us_per_beat
        << ", \"indexed_us_per_beat\": " << p.indexed_us_per_beat
        << ", \"speedup\": " << p.speedup << "}"
        << (i + 1 < paths.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"heartbeat_sweep\": [\n";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const auto& s = sweeps[i];
    out << "    {\"nodes\": " << s.nodes
        << ", \"legacy_us_per_sweep\": " << s.legacy_us_per_sweep
        << ", \"indexed_us_per_sweep\": " << s.indexed_us_per_sweep
        << ", \"speedup\": " << s.speedup << "}"
        << (i + 1 < sweeps.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"campus_runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    out << "    {\"nodes\": " << r.nodes
        << ", \"sim_horizon_s\": " << r.sim_horizon_s
        << ", \"wall_s\": " << r.wall_s
        << ", \"jobs_submitted\": " << r.jobs_submitted
        << ", \"jobs_completed\": " << r.jobs_completed
        << ", \"interruptions\": " << r.interruptions
        << ", \"heartbeats\": " << r.heartbeats
        << ", \"mean_sched_latency_s\": " << r.mean_sched_latency_s
        << ", \"p99_sched_latency_s\": " << r.p99_sched_latency_s
        << ", \"db_ops_per_sim_s\": " << r.db_ops_per_sim_s
        << ", \"db_ops_per_sim_s_unbatched_equiv\": "
        << r.db_ops_per_sim_s_unbatched_equiv
        << ", \"sweeps\": " << r.sweeps
        << ", \"sweep_entries_examined\": " << r.sweep_entries_examined
        << ", \"event_compactions\": " << r.event_compactions
        << ", \"live_jobs_at_end\": " << r.live_jobs_at_end
        << ", \"archived_jobs_at_end\": " << r.archived_jobs_at_end
        << ", \"db_shards\": " << r.db_shards
        << ", \"db_write_behind\": " << (r.db_write_behind ? "true" : "false")
        << ", \"db_sync_ops_per_sim_s\": " << r.db_sync_ops_per_sim_s
        << ", \"ledger_absorbed\": " << r.ledger_absorbed
        << ", \"ledger_flushes\": " << r.ledger_flushes
        << ", \"wall_us_per_heartbeat\": " << r.wall_us_per_heartbeat << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"execution\": {\n";
  out << "    \"hw_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "    \"note\": \"ideal_parallel_wall_s is the critical path: per "
         "conservative window, the busiest worker's CPU time; "
         "exposed_speedup = total_busy_s / ideal_parallel_wall_s.  Wall "
         "clock only reflects it when hw_concurrency >= workers.\",\n";
  out << "    \"runs\": [\n";
  for (std::size_t i = 0; i < exec_runs.size(); ++i) {
    const auto& r = exec_runs[i];
    out << "      {\"mode\": \"" << r.exec_mode << "\""
        << ", \"regions\": " << r.regions
        << ", \"workers\": " << r.workers
        << ", \"nodes\": " << r.nodes
        << ", \"sim_horizon_s\": " << r.sim_horizon_s
        << ", \"wall_s\": " << r.wall_s
        << ", \"processed_events\": " << r.processed_events
        << ", \"total_busy_s\": " << r.total_busy_s
        << ", \"ideal_parallel_wall_s\": " << r.ideal_wall_s
        << ", \"exposed_speedup\": " << r.exposed_speedup
        << ", \"windows\": " << r.windows
        << ", \"exclusive_events\": " << r.exclusive_events
        << ", \"causality_clamps\": " << r.causality_clamps
        << ", \"heartbeats\": " << r.heartbeats
        << ", \"jobs_completed\": " << r.jobs_completed << "}"
        << (i + 1 < exec_runs.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  },\n";
  out << "  \"db_sharding\": [\n";
  auto emit_side = [&out](const char* name, const CampusRunResult& r) {
    out << "      \"" << name << "\": {\"shards\": " << r.db_shards
        << ", \"write_behind\": " << (r.db_write_behind ? "true" : "false")
        << ", \"decisions\": " << r.decisions
        << ", \"db_ops_per_sim_s\": " << r.db_ops_per_sim_s
        << ", \"db_sync_ops_per_sim_s\": " << r.db_sync_ops_per_sim_s
        << ", \"hottest_shard_ops_per_sim_s\": "
        << r.hottest_shard_ops_per_sim_s
        << ", \"decision_ops_per_decision\": " << r.decision_ops_per_decision
        << ", \"ledger_absorbed\": " << r.ledger_absorbed
        << ", \"ledger_flushes\": " << r.ledger_flushes
        << ", \"ledger_shard_commits\": " << r.ledger_shard_commits << "}";
  };
  for (std::size_t i = 0; i < db_abs.size(); ++i) {
    const auto& ab = db_abs[i];
    out << "    {\"nodes\": " << ab.nodes
        << ", \"sim_horizon_s\": " << ab.legacy.sim_horizon_s
        << ", \"writer_service_rate_ops_per_s\": " << ab.mu << ",\n";
    emit_side("legacy", ab.legacy);
    out << ",\n";
    emit_side("sharded", ab.sharded);
    out << ",\n";
    out << "      \"legacy_rho\": " << ab.legacy_rho
        << ", \"legacy_saturated\": "
        << (ab.legacy_saturated ? "true" : "false")
        << ", \"sharded_rho\": " << ab.sharded_rho
        << ", \"sharded_saturated\": "
        << (ab.sharded_saturated ? "true" : "false")
        << ",\n      \"modeled_decision_path_latency_legacy_s\": "
        << ab.legacy_decision_latency_s
        << ", \"modeled_decision_path_latency_sharded_s\": "
        << ab.sharded_decision_latency_s
        << ",\n      \"decision_latency_reduction\": " << ab.latency_reduction
        << ", \"decision_op_cut\": " << ab.decision_op_cut
        << ", \"op_rate_cut\": " << ab.op_rate_cut << ",\n";
    out << "      \"shard_model\": [";
    const auto model = shard_model(ab);
    for (std::size_t j = 0; j < model.size(); ++j) {
      const auto& p = model[j];
      out << "{\"shards\": " << p.shards << ", \"rho\": " << p.rho
          << ", \"saturated\": " << (p.saturated ? "true" : "false")
          << ", \"wait_ms\": " << p.wait_ms << "}"
          << (j + 1 < model.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < db_abs.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace gpunion::bench

int main(int argc, char** argv) {
  using namespace gpunion;
  using namespace gpunion::bench;
  util::Logger::instance().set_level(util::LogLevel::kError);

  bool smoke = false;
  std::string out_path = "BENCH_scalability.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  banner("Scalability — O(active) control plane at 1k/4k/10k nodes",
         "§5.2 (beyond the paper's 50-node validation)");

  // Heartbeat-processing hot path, before vs after, over identical state.
  std::printf("\nHeartbeat-processing path (reconcile): legacy full job-map "
              "scan + nested\nmembership loop vs per-node index + hash set, "
              "10x terminal history per node.\n\n");
  std::printf("%7s %14s %14s %16s %9s\n", "nodes", "records",
              "legacy us/beat", "indexed us/beat", "speedup");
  row_divider(64);
  std::vector<HeartbeatPathResult> paths;
  for (int nodes : smoke ? std::vector<int>{200, 400}
                         : std::vector<int>{1000, 4000, 10000}) {
    auto r = time_heartbeat_path(nodes, /*history_per_node=*/10);
    paths.push_back(r);
    std::printf("%7d %14d %14.2f %16.3f %8.1fx\n", r.nodes, r.total_records,
                r.legacy_us_per_beat, r.indexed_us_per_beat, r.speedup);
  }

  std::printf("\nHeartbeat sweep: legacy full-directory scan vs "
              "expiry-ordered pop (steady\nstate, zero expirations).\n\n");
  std::printf("%7s %16s %16s %9s\n", "nodes", "legacy us/sweep",
              "indexed us/sweep", "speedup");
  row_divider(52);
  std::vector<SweepResult> sweeps;
  for (int nodes : smoke ? std::vector<int>{200, 400}
                         : std::vector<int>{1000, 4000, 10000}) {
    auto r = time_sweep(nodes);
    sweeps.push_back(r);
    std::printf("%7d %16.2f %16.3f %8.1fx\n", r.nodes, r.legacy_us_per_sweep,
                r.indexed_us_per_sweep, r.speedup);
  }

  // Full campus runs.
  std::printf("\nFull campus simulation under churn (real coordinator, "
              "agents, network, DB):\n\n");
  std::printf("%7s %9s %8s %9s %10s %10s %11s %13s %9s %8s\n", "nodes",
              "sim-s", "wall-s", "beats", "sched-ms", "p99-ms",
              "db-ops/s", "db-unbatched", "swept", "archive");
  row_divider(104);
  std::vector<CampusRunResult> runs;
  const std::vector<std::pair<int, double>> scales =
      smoke ? std::vector<std::pair<int, double>>{{100, 60.0}, {200, 60.0}}
            : std::vector<std::pair<int, double>>{
                  {1000, 300.0}, {4000, 180.0}, {10000, 120.0}};
  for (const auto& [nodes, horizon] : scales) {
    auto r = run_campus(nodes, horizon, /*churn_per_day=*/24.0, 1234);
    runs.push_back(r);
    print_campus(r);
  }

  std::printf("\nsched-ms/p99-ms in sim-milliseconds; db-unbatched = exact op rate "
              "had every heartbeat\nwritten through (batched flushes "
              "coalesce them); swept = total expiry-pops across\nall sweeps "
              "(legacy scanned nodes x sweeps).\n");

  // Parallel execution core: the same campus under kDeterministic and
  // kParallel at 1/2/4/8 workers, plus a large completion run.
  std::printf("\nParallel execution core (threaded actor runtime, sharded "
              "event queue):\nexposed speedup = summed worker CPU busy / "
              "critical path across windows\n(wall clock only tracks it "
              "when the machine has >= workers cores; this host\nhas %u).\n\n",
              std::thread::hardware_concurrency());
  std::printf("%14s %8s %8s %7s %8s %8s %8s %9s %8s %8s\n", "mode",
              "regions", "workers", "nodes", "wall-s", "busy-s", "ideal-s",
              "speedup", "windows", "clamps");
  row_divider(98);
  std::vector<CampusRunResult> exec_runs;
  const int sweep_nodes = smoke ? 200 : 10000;
  const double sweep_horizon = smoke ? 60.0 : 120.0;
  auto print_exec = [](const CampusRunResult& r) {
    std::printf("%14s %8d %8d %7d %8.2f %8.2f %8.2f %8.2fx %8llu %8llu\n",
                r.exec_mode.c_str(), r.regions, r.workers, r.nodes, r.wall_s,
                r.total_busy_s, r.ideal_wall_s, r.exposed_speedup,
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.causality_clamps));
  };
  {
    auto r = run_campus(sweep_nodes, sweep_horizon, /*churn_per_day=*/24.0,
                        1234);
    exec_runs.push_back(r);
    print_exec(r);
  }
  for (const int workers : {1, 2, 4, 8}) {
    sim::EnvConfig exec;
    exec.mode = sim::ExecutionMode::kParallel;
    exec.worker_threads = static_cast<std::size_t>(workers);
    auto r = run_campus(sweep_nodes, sweep_horizon, /*churn_per_day=*/24.0,
                        1234, db::DbConfig{}, exec);
    exec_runs.push_back(r);
    print_exec(r);
  }
  // The same fleet split across 4 federated campuses: one control-plane
  // actor (coordinator + database + gateway) per region instead of one
  // total.  A single campus's coordinator IS the critical path regardless
  // of worker count; this is the shape with genuine control-plane
  // concurrency for the runtime to expose.
  std::printf("\n");
  {
    sim::EnvConfig det;
    auto r = run_federated_exec(sweep_nodes, /*region_count=*/4,
                                sweep_horizon, /*churn_per_day=*/24.0, 1234,
                                det);
    exec_runs.push_back(r);
    print_exec(r);
  }
  for (const int workers : {1, 2, 4, 8}) {
    sim::EnvConfig exec;
    exec.mode = sim::ExecutionMode::kParallel;
    exec.worker_threads = static_cast<std::size_t>(workers);
    auto r = run_federated_exec(sweep_nodes, /*region_count=*/4,
                                sweep_horizon, /*churn_per_day=*/24.0, 1234,
                                exec);
    exec_runs.push_back(r);
    print_exec(r);
  }
  {
    // Completion run at an order of magnitude beyond the sweep: does the
    // runtime hold together at 100k actors?
    const int large_nodes = smoke ? 400 : 100000;
    const double large_horizon = smoke ? 30.0 : 30.0;
    sim::EnvConfig exec;
    exec.mode = sim::ExecutionMode::kParallel;
    exec.worker_threads = 4;
    auto r = run_campus(large_nodes, large_horizon, /*churn_per_day=*/4.0,
                        1234, db::DbConfig{}, exec);
    exec_runs.push_back(r);
    print_exec(r);
  }

  // Sharded-vs-single-writer A/B: identical campus + churn + seed, legacy
  // DB (1 writer, all writes synchronous) vs sharded write-behind.
  std::printf("\nSharded multi-writer DB + write-behind ledger vs legacy "
              "single writer\n(same campus, churn and seed; modeled "
              "decision-path latency = sync decision\nops/decision x M/M/1 "
              "wait at the hottest writer, rho clamped at 0.99):\n\n");
  std::printf("%7s %10s %10s %9s %9s %12s %12s %10s\n", "nodes", "ops/s-1w",
              "ops/s-shd", "rho-1w", "rho-shd", "lat-1w-ms", "lat-shd-ms",
              "reduction");
  row_divider(88);
  std::vector<DbAbResult> db_abs;
  const std::vector<std::pair<int, double>> ab_scales =
      smoke ? std::vector<std::pair<int, double>>{{100, 60.0}, {200, 60.0}}
            : std::vector<std::pair<int, double>>{{1000, 300.0},
                                                  {4000, 180.0}};
  for (const auto& [nodes, horizon] : ab_scales) {
    auto ab = run_db_ab(nodes, horizon, /*churn_per_day=*/24.0, 1234,
                        /*shards=*/4);
    db_abs.push_back(ab);
    std::printf("%7d %10.0f %10.0f %8.2f%s %8.2f%s %12.2f %12.3f %9.1fx\n",
                ab.nodes, ab.legacy.db_ops_per_sim_s,
                ab.sharded.db_ops_per_sim_s, ab.legacy_rho,
                ab.legacy_saturated ? "!" : " ", ab.sharded_rho,
                ab.sharded_saturated ? "!" : " ",
                ab.legacy_decision_latency_s * 1000.0,
                ab.sharded_decision_latency_s * 1000.0,
                ab.latency_reduction);
  }
  std::printf("\n'!' marks a saturated writer (rho >= 1: the M/M/1 wait is "
              "unbounded; the\nlatency shown is the rho=0.99 clamp).  "
              "reduction = legacy/sharded modeled\ndecision-path latency.\n");

  write_json(out_path, smoke ? "smoke" : "full", paths, sweeps, runs, db_abs,
             exec_runs);
  return 0;
}
