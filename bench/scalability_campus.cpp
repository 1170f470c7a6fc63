// §5.2 scalability: the parallel execution core on a 10k-node campus.
//
// The same churning campus runs under kDeterministic (one queue, legacy
// order) and kParallel with 1/2/4/8 workers, first as one campus and then
// split into 4 federated regions, plus a 100k-node completion run.  Each
// run reports wall clock, per-worker CPU busy time, the critical-path
// "ideal parallel wall" (sum over conservative windows of the busiest
// worker's CPU time) and the exposed speedup total_busy/ideal: the honest
// concurrency number on a machine with fewer cores than workers.
//
// perfbench (perfbench/run.py) is the end-to-end benchmark; its campus-10k
// workload reports the per-heartbeat cost end to end.
//
// Emits machine-readable BENCH_scalability.json (override with --out).
// `--smoke` shrinks everything for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "gpunion/federated_platform.h"
#include "util/logging.h"
#include "workload/profiles.h"
#include "workload/provider_behavior.h"

namespace gpunion::bench {
namespace {

struct ExecRunResult {
  std::string exec_mode = "deterministic";
  int regions = 1;  // >1: federated run (one control-plane actor per region)
  int workers = 0;
  int nodes = 0;
  double sim_horizon_s = 0;
  double wall_s = 0;
  int jobs_completed = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t windows = 0;
  std::uint64_t exclusive_events = 0;
  std::uint64_t causality_clamps = 0;
  double total_busy_s = 0;       // summed worker CPU time
  double ideal_wall_s = 0;       // critical path across windows
  double exposed_speedup = 0;    // total_busy / ideal (kParallel only)
  std::size_t processed_events = 0;
};

/// Execution-core counters shared by the single-campus and federated runs.
void fill_exec_stats(ExecRunResult& r, const sim::Environment& env) {
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

CampusConfig synthetic_campus(int nodes) {
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
  // Telemetry and scrapes off the hot path: this bench isolates the
  // heartbeat + scheduling + churn control plane.
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

/// One short training job per four nodes: placement and completion
/// traffic flow throughout the horizon.
void submit_training(sim::Environment& env, Platform& platform, int nodes,
                     const std::string& job_prefix) {
  for (int i = 0; i < nodes / 4; ++i) {
    auto job = workload::make_training_job(
        job_prefix + std::to_string(i), workload::cnn_small(),
        /*hours=*/0.02 + 0.02 * (i % 4), "group-" + std::to_string(i % 16),
        env.now());
    job.checkpoint_interval = 120.0;
    (void)platform.coordinator().submit(std::move(job));
  }
}

/// Churn across the whole fleet.
void schedule_churn(sim::Environment& env, Platform& platform, double horizon,
                    double churn_per_day, std::uint64_t churn_seed) {
  workload::InterruptionModel model;
  model.events_per_day = churn_per_day;
  model.min_downtime = 60.0;
  model.max_downtime = 600.0;
  model.temporary_downtime = 120.0;
  for (const auto& event : workload::generate_interruptions(
           platform.machine_ids(), horizon, model, util::Rng(churn_seed))) {
    // Exclusive in kParallel (interruptions touch the coordinator AND an
    // agent); an ordinary event in kDeterministic: same legacy order.
    platform.schedule_interruption(std::max(event.at, env.now()), event);
  }
}

ExecRunResult run_campus(int nodes, double horizon, double churn_per_day,
                         std::uint64_t seed, const sim::EnvConfig& exec) {
  ExecRunResult r;
  r.nodes = nodes;
  r.sim_horizon_s = horizon;

  sim::Environment env(seed, exec);
  Platform platform(env, synthetic_campus(nodes));
  r.wall_s = wall_seconds([&] {
    platform.start();
    env.run_until(5.0);
    submit_training(env, platform, nodes, "train-");
    // Plus one interactive session per sixteen nodes.
    for (int i = 0; i < nodes / 16; ++i) {
      (void)platform.coordinator().submit(workload::make_interactive_session(
          "sess-" + std::to_string(i), 0.05,
          "group-" + std::to_string(i % 16), env.now()));
    }
    schedule_churn(env, platform, horizon, churn_per_day, seed + 1);
    env.run_until(horizon);
  });

  const auto& stats = platform.coordinator().stats();
  r.jobs_completed = stats.jobs_completed;
  r.heartbeats = stats.heartbeats_processed;
  fill_exec_stats(r, env);
  return r;
}

/// The same control-plane workload split across `region_count` federated
/// campuses (one coordinator/database/gateway actor set per region, joined
/// by the WAN).  A single campus has exactly ONE control-plane actor, so
/// its heartbeat fan-in IS the critical path no matter how many workers
/// run; this is the configuration where the runtime has genuinely
/// concurrent control planes to spread across workers.
ExecRunResult run_federated(int total_nodes, int region_count, double horizon,
                            double churn_per_day, std::uint64_t seed,
                            const sim::EnvConfig& exec) {
  ExecRunResult r;
  r.nodes = total_nodes;
  r.regions = region_count;
  r.sim_horizon_s = horizon;

  sim::Environment env(seed, exec);
  FederationConfig config;
  const int per_region = total_nodes / region_count;
  for (int g = 0; g < region_count; ++g) {
    const std::string name = "campus-" + std::to_string(g);
    CampusConfig campus = synthetic_campus(per_region);
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
      submit_training(env, platform, per_region,
                      "train-" + std::to_string(g) + "-");
      schedule_churn(env, platform, horizon, churn_per_day, seed + 1 + g);
    }
    env.run_until(horizon);
  });

  for (std::size_t g = 0; g < fed.region_count(); ++g) {
    const auto& stats = fed.region(g).coordinator().stats();
    r.jobs_completed += stats.jobs_completed;
    r.heartbeats += stats.heartbeats_processed;
  }
  fill_exec_stats(r, env);
  return r;
}

void print_run(const ExecRunResult& r) {
  std::printf("%14s %8d %8d %7d %8.2f %8.2f %8.2f %8.2fx %8llu %8llu\n",
              r.exec_mode.c_str(), r.regions, r.workers, r.nodes, r.wall_s,
              r.total_busy_s, r.ideal_wall_s, r.exposed_speedup,
              static_cast<unsigned long long>(r.windows),
              static_cast<unsigned long long>(r.causality_clamps));
}

void write_json(const std::string& path, const std::string& mode,
                const std::vector<ExecRunResult>& runs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"scalability\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"execution\": {\n";
  out << "    \"hw_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "    \"note\": \"ideal_parallel_wall_s is the critical path: per "
         "conservative window, the busiest worker's CPU time; "
         "exposed_speedup = total_busy_s / ideal_parallel_wall_s.  Wall "
         "clock only reflects it when hw_concurrency >= workers.\",\n";
  out << "    \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
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
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  }\n";
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

  banner("Scalability — parallel execution core on a 10k-node campus",
         "§5.2 (beyond the paper's 50-node validation)");
  std::printf("\nThreaded actor runtime, sharded event queue: exposed "
              "speedup = summed worker\nCPU busy / critical path across "
              "windows (wall clock only tracks it when the\nmachine has "
              ">= workers cores; this host has %u).\n\n",
              std::thread::hardware_concurrency());
  std::printf("%14s %8s %8s %7s %8s %8s %8s %9s %8s %8s\n", "mode",
              "regions", "workers", "nodes", "wall-s", "busy-s", "ideal-s",
              "speedup", "windows", "clamps");
  row_divider(98);

  const int nodes = smoke ? 200 : 10000;
  const double horizon = smoke ? 60.0 : 120.0;
  const double churn_per_day = 24.0;
  const std::uint64_t seed = 1234;
  auto parallel = [](int workers) {
    sim::EnvConfig exec;
    exec.mode = sim::ExecutionMode::kParallel;
    exec.worker_threads = static_cast<std::size_t>(workers);
    return exec;
  };
  std::vector<ExecRunResult> runs;
  auto record = [&runs](ExecRunResult r) {
    print_run(r);
    runs.push_back(std::move(r));
  };
  record(run_campus(nodes, horizon, churn_per_day, seed, sim::EnvConfig{}));
  for (const int workers : {1, 2, 4, 8}) {
    record(run_campus(nodes, horizon, churn_per_day, seed, parallel(workers)));
  }
  // The same fleet split across 4 federated campuses: one control-plane
  // actor (coordinator + database + gateway) per region instead of one.
  std::printf("\n");
  record(run_federated(nodes, /*region_count=*/4, horizon, churn_per_day,
                       seed, sim::EnvConfig{}));
  for (const int workers : {1, 2, 4, 8}) {
    record(run_federated(nodes, /*region_count=*/4, horizon, churn_per_day,
                         seed, parallel(workers)));
  }
  // Completion run an order of magnitude beyond the sweep: does the
  // runtime hold together at 100k actors?
  record(run_campus(smoke ? 400 : 100000, /*horizon=*/30.0,
                    /*churn_per_day=*/4.0, seed, parallel(4)));

  write_json(out_path, smoke ? "smoke" : "full", runs);
  return 0;
}
