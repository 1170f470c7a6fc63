// Observability bench: what end-to-end tracing costs and what it buys.
//
// Three experiments, emitted as machine-readable BENCH_observability.json
// (override with --out; `--smoke` shrinks everything for CI):
//
//   1. Tracing overhead A/B — the scalability suite's churn campus (10k
//      nodes full, 1k smoke) run twice with the same seed: tracer disabled
//      vs. enabled.  The paper-facing claim is that always-on causal
//      tracing costs < 5% wall time on the control plane's worst case.
//
//   2. Per-stage latency breakdown of a cross-region forwarded job — the
//      mesh suite's chained A -> B -> C scenario (bravo dies hosting
//      alpha's displaced job, charlie finishes it).  The job's ONE trace
//      is decomposed into stage totals: where a forwarded job's lifetime
//      actually goes (queue, WAN transfer, remote run...).  The full trace
//      is also written as Chrome/Perfetto JSON next to the report — open
//      it in ui.perfetto.dev.
//
//   3. Actor-lane profile — the same churn campus under the parallel
//      runtime with lane profiling on: per-shard busy/idle split,
//      critical-path attribution and exclusive-event stalls.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "gpunion/federated_platform.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace gpunion::bench {
namespace {

// ---------------------------------------------------------------------------
// 1. Tracing overhead A/B on the churn campus
// ---------------------------------------------------------------------------

/// Process CPU seconds.  The overhead gate compares CPU, not wall: the A/B
/// arms run single-threaded (kDeterministic), so CPU time measures the
/// work tracing adds while staying immune to co-tenant preemption on a
/// shared box — where wall clock alone swings ±10% run to run.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

CampusConfig churn_campus(int nodes) {
  CampusConfig config;
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
  // Telemetry and scrapes off the hot path: the A/B isolates tracing.
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

struct ChurnRun {
  double wall_s = 0;
  double cpu_s = 0;
  int jobs_completed = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  sim::ProfilerReport profile;
};

/// One full churn-campus run: jobs on a quarter of the fleet, churn across
/// all of it.  Identical seed + config in both arms — only `tracing`
/// differs.
ChurnRun run_churn_campus(int nodes, double horizon, double churn_per_day,
                          std::uint64_t seed, bool tracing,
                          const sim::EnvConfig& exec = {}) {
  ChurnRun r;
  sim::Environment env(seed, exec);
  Platform platform(env, churn_campus(nodes));
  platform.tracer().set_enabled(tracing);
  const double cpu_start = process_cpu_seconds();
  r.wall_s = wall_seconds([&] {
    platform.start();
    env.run_until(5.0);
    auto& coordinator = platform.coordinator();
    for (int i = 0; i < nodes / 4; ++i) {
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
    workload::InterruptionModel model;
    model.events_per_day = churn_per_day;
    model.min_downtime = 60.0;
    model.max_downtime = 600.0;
    model.temporary_downtime = 120.0;
    auto interruptions = workload::generate_interruptions(
        platform.machine_ids(), horizon, model, util::Rng(seed + 1));
    for (const auto& event : interruptions) {
      platform.schedule_interruption(std::max(event.at, env.now()), event);
    }
    env.run_until(horizon);
  });
  r.cpu_s = process_cpu_seconds() - cpu_start;
  r.jobs_completed = platform.coordinator().stats().jobs_completed;
  r.heartbeats = platform.coordinator().stats().heartbeats_processed;
  r.spans_recorded = platform.tracer().recorded();
  r.spans_dropped = platform.tracer().dropped();
  r.profile = env.lane_profile();
  return r;
}

struct OverheadResult {
  int nodes = 0;
  double horizon_s = 0;
  int repetitions = 0;
  double baseline_wall_s = 0;  // best-of-N, tracer off
  double traced_wall_s = 0;    // best-of-N, tracer on
  double baseline_cpu_s = 0;   // best-of-N process CPU, tracer off
  double traced_cpu_s = 0;     // best-of-N process CPU, tracer on
  double overhead_wall_pct = 0;
  double overhead_cpu_pct = 0;  // the gated number
  /// Per-repetition paired CPU deltas (%), in run order; even indices ran
  /// the untraced arm first.
  std::vector<double> cpu_deltas_pct;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t heartbeats = 0;
  int jobs_completed_off = 0;
  int jobs_completed_on = 0;
};

OverheadResult measure_overhead(int nodes, double horizon,
                                double churn_per_day, int reps,
                                std::uint64_t seed) {
  OverheadResult r;
  r.nodes = nodes;
  r.horizon_s = horizon;
  r.repetitions = reps;
  r.baseline_wall_s = 1e300;
  r.traced_wall_s = 1e300;
  r.baseline_cpu_s = 1e300;
  r.traced_cpu_s = 1e300;
  // Each repetition runs the two arms back to back, so a paired delta
  // cancels the minute-scale load drift a shared box shows (the drift
  // between whole runs here dwarfs the true tracing cost).  The arm that
  // runs first alternates per repetition: the second run in a process is
  // measurably slower whichever arm it is, and a fixed order would book
  // that penalty to one arm.  With an even repetition count the penalty
  // lands on each arm equally often, so it cancels in the estimate: the
  // MEDIAN of the paired CPU deltas, which is also robust to a single
  // repetition landing on a co-tenant's burst.
  std::vector<double> wall_deltas, cpu_deltas;
  for (int rep = 0; rep < reps; ++rep) {
    ChurnRun off, on;
    if (rep % 2 == 0) {
      off = run_churn_campus(nodes, horizon, churn_per_day, seed, false);
      on = run_churn_campus(nodes, horizon, churn_per_day, seed, true);
    } else {
      on = run_churn_campus(nodes, horizon, churn_per_day, seed, true);
      off = run_churn_campus(nodes, horizon, churn_per_day, seed, false);
    }
    wall_deltas.push_back(100.0 * (on.wall_s - off.wall_s) / off.wall_s);
    cpu_deltas.push_back(100.0 * (on.cpu_s - off.cpu_s) / off.cpu_s);
    r.baseline_wall_s = std::min(r.baseline_wall_s, off.wall_s);
    r.traced_wall_s = std::min(r.traced_wall_s, on.wall_s);
    r.baseline_cpu_s = std::min(r.baseline_cpu_s, off.cpu_s);
    r.traced_cpu_s = std::min(r.traced_cpu_s, on.cpu_s);
    r.jobs_completed_off = off.jobs_completed;
    r.jobs_completed_on = on.jobs_completed;
    r.heartbeats = on.heartbeats;
    r.spans_recorded = on.spans_recorded;
    r.spans_dropped = on.spans_dropped;
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  r.overhead_wall_pct = median(wall_deltas);
  r.overhead_cpu_pct = median(cpu_deltas);
  r.cpu_deltas_pct = cpu_deltas;
  return r;
}

// ---------------------------------------------------------------------------
// 2. Cross-region forwarded job: per-stage latency breakdown
// ---------------------------------------------------------------------------

CampusConfig region_campus(const std::string& prefix, int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090(prefix + "-ws-" + std::to_string(i)),
         "group-" + prefix});
  }
  config.storage.push_back({"nas-" + prefix, 512ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

struct StageStat {
  std::string stage;
  int count = 0;
  double total_s = 0;
  double mean_s = 0;
};

struct ForwardBreakdown {
  bool completed_in_charlie = false;
  std::size_t span_count = 0;
  int regions_in_trace = 0;
  std::vector<StageStat> stages;   // trace order of first appearance
  std::string perfetto_json;       // the whole trace, ready for ui.perfetto.dev
};

ForwardBreakdown forwarded_job_breakdown() {
  sim::Environment env(23);
  FederationConfig config;
  federation::RegionPolicy policy;
  policy.digest_interval = 5.0;
  policy.forward_after = 10.0;
  policy.forward_timeout = 10.0;
  policy.forward_retry_backoff = 30.0;
  config.regions.push_back({"alpha", region_campus("alpha", 1), policy});
  config.regions.push_back({"bravo", region_campus("bravo", 2), policy});
  config.regions.push_back({"charlie", region_campus("charlie", 2), policy});
  config.links.push_back({"alpha", "bravo", 0.002});
  config.links.push_back({"alpha", "charlie", 0.030});
  config.links.push_back({"bravo", "charlie", 0.030});
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  auto training = [&](const std::string& id, double seconds) {
    auto job = workload::make_training_job(id, workload::cnn_small(),
                                           seconds / 3600.0, "group-alpha",
                                           env.now());
    job.checkpoint_interval = 30.0;
    return job;
  };
  // Alpha's only GPU is pinned; "wanderer" overflows to bravo, bravo dies
  // hosting it, charlie finishes it: one trace, three regions, two WAN hops.
  (void)fed.region("alpha").coordinator().submit(training("pin", 2000.0));
  (void)fed.region("alpha").coordinator().submit(training("wanderer", 600.0));
  env.run_until(200.0);
  fed.inject_region_outage("bravo", 5000.0);
  env.run_until(1200.0);

  ForwardBreakdown b;
  const sched::JobRecord* record =
      fed.region("charlie").coordinator().job("wanderer");
  b.completed_in_charlie =
      record != nullptr && record->phase == sched::JobPhase::kCompleted;
  const auto spans =
      fed.tracer().trace(obs::Tracer::trace_for_job("wanderer"));
  b.span_count = spans.size();
  std::map<std::string, std::size_t> by_stage;
  std::map<std::string, int> regions;
  for (const obs::Span& span : spans) {
    auto [it, fresh] = by_stage.try_emplace(span.stage, b.stages.size());
    if (fresh) b.stages.push_back({span.stage, 0, 0, 0});
    StageStat& stat = b.stages[it->second];
    ++stat.count;
    stat.total_s += span.duration();
    const auto dash = span.actor.rfind('-');
    if (dash != std::string::npos) ++regions[span.actor.substr(dash + 1)];
  }
  for (StageStat& stat : b.stages) {
    stat.mean_s = stat.count == 0 ? 0 : stat.total_s / stat.count;
  }
  b.regions_in_trace = static_cast<int>(regions.size());
  b.perfetto_json = obs::perfetto_trace_json(spans);
  return b;
}

// ---------------------------------------------------------------------------
// 3. Actor-lane profile under the parallel runtime
// ---------------------------------------------------------------------------

sim::ProfilerReport profile_lanes(int nodes, double horizon,
                                  double churn_per_day, unsigned workers,
                                  std::uint64_t seed) {
  sim::EnvConfig exec;
  exec.mode = sim::ExecutionMode::kParallel;
  exec.worker_threads = workers;
  exec.profile_lanes = true;
  return run_churn_campus(nodes, horizon, churn_per_day, seed,
                          /*tracing=*/true, exec)
      .profile;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void write_json(const std::string& path, const std::string& trace_path,
                const std::string& mode, const OverheadResult& overhead,
                const ForwardBreakdown& breakdown,
                const sim::ProfilerReport& profile) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"observability\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"tracing_overhead\": {\"nodes\": " << overhead.nodes
      << ", \"horizon_s\": " << overhead.horizon_s
      << ", \"repetitions\": " << overhead.repetitions
      << ", \"baseline_wall_s\": " << overhead.baseline_wall_s
      << ", \"traced_wall_s\": " << overhead.traced_wall_s
      << ", \"baseline_cpu_s\": " << overhead.baseline_cpu_s
      << ", \"traced_cpu_s\": " << overhead.traced_cpu_s
      << ", \"overhead_wall_pct\": " << overhead.overhead_wall_pct
      << ", \"overhead_cpu_pct\": " << overhead.overhead_cpu_pct
      << ", \"cpu_deltas_pct\": [";
  for (std::size_t i = 0; i < overhead.cpu_deltas_pct.size(); ++i) {
    out << (i == 0 ? "" : ", ") << overhead.cpu_deltas_pct[i];
  }
  out << "], \"target_pct\": 5.0"
      << ", \"spans_recorded\": " << overhead.spans_recorded
      << ", \"spans_dropped\": " << overhead.spans_dropped
      << ", \"heartbeats\": " << overhead.heartbeats << "},\n";
  out << "  \"forwarded_job\": {\"completed_in_charlie\": "
      << (breakdown.completed_in_charlie ? "true" : "false")
      << ", \"span_count\": " << breakdown.span_count
      << ", \"regions_in_trace\": " << breakdown.regions_in_trace
      << ", \"trace_artifact\": \"" << trace_path << "\", \"stages\": [\n";
  for (std::size_t i = 0; i < breakdown.stages.size(); ++i) {
    const StageStat& stat = breakdown.stages[i];
    out << "    {\"stage\": \"" << stat.stage
        << "\", \"count\": " << stat.count
        << ", \"total_s\": " << stat.total_s
        << ", \"mean_s\": " << stat.mean_s << "}"
        << (i + 1 < breakdown.stages.size() ? "," : "") << "\n";
  }
  out << "  ]},\n";
  out << "  \"lane_profile\": {\"windows\": " << profile.windows
      << ", \"exclusive_events\": " << profile.exclusive_events
      << ", \"exclusive_stall_s\": " << profile.exclusive_stall_s
      << ", \"shards\": [\n";
  for (std::size_t i = 0; i < profile.shards.size(); ++i) {
    const sim::LaneProfile& shard = profile.shards[i];
    out << "    {\"shard\": " << shard.shard
        << ", \"lanes\": " << shard.lanes.size()
        << ", \"events\": " << shard.events
        << ", \"busy_s\": " << shard.busy_s
        << ", \"idle_s\": " << shard.idle_s
        << ", \"critical_windows\": " << shard.critical_windows
        << ", \"critical_busy_s\": " << shard.critical_busy_s
        << ", \"max_queue_depth\": " << shard.max_queue_depth << "}"
        << (i + 1 < profile.shards.size() ? "," : "") << "\n";
  }
  out << "  ]}\n";
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
  std::string out_path = "BENCH_observability.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  std::string trace_path = out_path;
  const auto dot = trace_path.rfind(".json");
  if (dot != std::string::npos) trace_path.resize(dot);
  trace_path += ".trace.json";

  banner("Observability — tracing overhead, forwarded-job latency anatomy, "
         "lane profile",
         "cost and value of end-to-end causal tracing in GPUnion");

  // 1. Tracing overhead A/B.
  const int nodes = smoke ? 1000 : 10000;
  const double horizon = smoke ? 60.0 : 120.0;
  const double churn_per_day = 8.0;
  const int reps = 6;  // even: each arm runs first equally often
  const OverheadResult overhead =
      measure_overhead(nodes, horizon, churn_per_day, reps, /*seed=*/42);
  std::printf("\nTracing overhead (%d nodes, %.0f sim-s churn campus, "
              "median of %d paired A/B deltas; wall/cpu columns are "
              "best-of-%d):\n\n",
              overhead.nodes, overhead.horizon_s, overhead.repetitions,
              overhead.repetitions);
  std::printf("%16s %12s %12s %12s %10s\n", "arm", "wall-s", "cpu-s",
              "spans", "dropped");
  row_divider(66);
  std::printf("%16s %12.3f %12.3f %12s %10s\n", "tracer off",
              overhead.baseline_wall_s, overhead.baseline_cpu_s, "-", "-");
  std::printf("%16s %12.3f %12.3f %12llu %10llu\n", "tracer on",
              overhead.traced_wall_s, overhead.traced_cpu_s,
              static_cast<unsigned long long>(overhead.spans_recorded),
              static_cast<unsigned long long>(overhead.spans_dropped));
  std::printf("\nOverhead: %+.2f%% CPU (gated, target < 5%%), %+.2f%% "
              "wall\n",
              overhead.overhead_cpu_pct, overhead.overhead_wall_pct);

  // 2. Forwarded-job per-stage breakdown.
  const ForwardBreakdown breakdown = forwarded_job_breakdown();
  std::printf("\nCross-region forwarded job (alpha -> bravo -> charlie), "
              "one trace, %zu spans, %d regions:\n\n",
              breakdown.span_count, breakdown.regions_in_trace);
  std::printf("%22s %7s %12s %12s\n", "stage", "count", "total-s", "mean-s");
  row_divider(58);
  for (const StageStat& stat : breakdown.stages) {
    std::printf("%22s %7d %12.3f %12.3f\n", stat.stage.c_str(), stat.count,
                stat.total_s, stat.mean_s);
  }
  std::ofstream trace_out(trace_path);
  if (trace_out) {
    trace_out << breakdown.perfetto_json;
    std::printf("\nPerfetto trace: %s (open in ui.perfetto.dev)\n",
                trace_path.c_str());
  }

  // 3. Lane profile under the parallel runtime.
  const int profile_nodes = smoke ? 500 : 2000;
  const sim::ProfilerReport profile = profile_lanes(
      profile_nodes, horizon, churn_per_day, /*workers=*/4, /*seed=*/42);
  std::printf("\nActor-lane profile (%d nodes, 4 workers, parallel mode): "
              "%llu windows, %llu exclusive events, %.3f s exclusive "
              "stall:\n\n",
              profile_nodes,
              static_cast<unsigned long long>(profile.windows),
              static_cast<unsigned long long>(profile.exclusive_events),
              profile.exclusive_stall_s);
  std::printf("%6s %6s %10s %10s %10s %9s %10s\n", "shard", "lanes",
              "events", "busy-s", "idle-s", "critical", "max-depth");
  row_divider(68);
  for (const sim::LaneProfile& shard : profile.shards) {
    std::printf("%6zu %6zu %10llu %10.3f %10.3f %9llu %10zu\n", shard.shard,
                shard.lanes.size(),
                static_cast<unsigned long long>(shard.events), shard.busy_s,
                shard.idle_s,
                static_cast<unsigned long long>(shard.critical_windows),
                shard.max_queue_depth);
  }

  write_json(out_path, trace_path, smoke ? "smoke" : "full", overhead,
             breakdown, profile);

  std::uint64_t profiled_events = 0;
  for (const auto& shard : profile.shards) profiled_events += shard.events;
  // The < 5% claim is gated on the full 10k-node run; smoke arms are
  // ~0.2 s of CPU, where allocator warmup alone swings a few percent, so
  // CI only rejects a blowup.
  const double overhead_gate = smoke ? 25.0 : 5.0;
  const bool pass = overhead.overhead_cpu_pct < overhead_gate &&
                    overhead.spans_recorded > 0 &&
                    overhead.jobs_completed_off == overhead.jobs_completed_on &&
                    breakdown.completed_in_charlie &&
                    breakdown.regions_in_trace >= 3 &&
                    breakdown.span_count > 0 && profile.enabled &&
                    profile.windows > 0 && profiled_events > 0;
  std::printf("\n%s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
