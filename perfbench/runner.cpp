// GPUnion benchmark runner: one repetition of one workload.
//
// Drives the public Platform / FederatedPlatform API only.  Every input the
// platform sees (job stream, churn trace) is generated here from --seed
// before set-up starts.  The runner times the calls it makes into each
// layer's public functions (host spans, traced runs only) and reads each
// layer's public counters after the run; it adds no instrumentation inside
// the library.  It prints one JSON object on stdout; perfbench/run.py
// repeats it, checks it and reduces it to the benchmark's metrics.
//
//   perfbench_runner --workload campus-10k|paper-6wk|fed-api-4x
//                    --seed N [--replica N] [--traced 0|1] [--spans FILE]
//   perfbench_runner --smoke     # fed-api-4x generator at 1 and 2 workers
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/presets.h"
#include "gpunion/federated_platform.h"
#include "gpunion/platform.h"
#include "monitor/metrics.h"
#include "obs/trace.h"
#include "sched/strategies.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/provider_behavior.h"

namespace gpunion::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Host-time spans recorded around calls into the library.  Kept in memory,
// written out once at the end.  Thread-safe: in kParallel, submits run on
// worker threads.
// ---------------------------------------------------------------------------
class HostSpans {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = -1;
    int parent = -1;
  };

  explicit HostSpans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int open(std::string name, int parent) {
    if (!enabled_) return -1;
    const double now = seconds_since(origin_);
    std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), now, -1, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int index) {
    if (index < 0) return;
    const double now = seconds_since(origin_);
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_s = now;
  }

  /// Records an already-timed span (the caller measured it itself).
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           int parent) {
    if (!enabled_) return;
    const double s = std::chrono::duration<double>(start - origin_).count();
    const double e = std::chrono::duration<double>(end - origin_).count();
    std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), s, e, parent});
  }

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0;
  };
  Totals totals(const std::string& name) const {
    std::lock_guard lock(mu_);
    Totals t;
    for (const auto& span : spans_) {
      if (span.name != name || span.end_s < 0) continue;
      ++t.count;
      t.total_s += span.end_s - span.start_s;
    }
    return t;
  }

  /// Chrome trace-event JSON ("X" events plus a parent arg), loadable in
  /// Perfetto.
  void write(const std::string& path) const {
    std::lock_guard lock(mu_);
    std::ofstream out(path);
    if (!out) return;
    out << "{\"traceEvents\":[\n";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.end_s < 0) continue;
      char line[320];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}\n",
                    first ? "" : ",", span.name.c_str(), span.start_s * 1e6,
                    (span.end_s - span.start_s) * 1e6, i, span.parent);
      out << line;
      first = false;
    }
    out << "]}\n";
  }

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(HostSpans& spans, std::string name, int parent = -1)
      : spans_(spans), index_(spans.open(std::move(name), parent)) {}
  ~Scope() { spans_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  HostSpans& spans_;
  int index_;
};

// ---------------------------------------------------------------------------
// Minimal JSON object writer (flat keys, numbers with full precision).
// ---------------------------------------------------------------------------
class JsonObject {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    raw(key, buf);
  }
  void num(const std::string& key, std::uint64_t value) {
    raw(key, std::to_string(value));
  }
  void boolean(const std::string& key, bool value) {
    raw(key, value ? "true" : "false");
  }
  void str(const std::string& key, const std::string& value) {
    raw(key, "\"" + value + "\"");
  }
  void obj(const std::string& key, const JsonObject& value) {
    raw(key, value.text());
  }
  void array(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",",
                    values[i]);
      text += buf;
    }
    text += "]";
    raw(key, text);
  }
  std::string text() const {
    std::string out = "{";
    out += body_.str();
    out += "}";
    return out;
  }

 private:
  void raw(const std::string& key, const std::string& value) {
    if (!first_) body_ << ",";
    first_ = false;
    body_ << "\"" << key << "\":" << value;
  }
  std::ostringstream body_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------
enum class WorkloadKind { kCampus10k, kPaper6wk, kFedApi4x };

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCampus10k:
      return "campus-10k";
    case WorkloadKind::kPaper6wk:
      return "paper-6wk";
    case WorkloadKind::kFedApi4x:
      return "fed-api-4x";
  }
  return "?";
}

/// Size of the fed-api-4x campus; the smoke test shrinks it.
struct FedShape {
  int nodes_per_region = 500;
  double arrival_rate = 16.0;  // jobs/s across the federation
  double arrival_window = 150.0;
  double horizon = 400.0;
  double outage_at = 80.0;
  double outage_downtime = 240.0;
};

/// One job the benchmark hands to the platform.
struct Offer {
  workload::JobSpec spec;
  std::string tenant;   // fed-api-4x only
  std::size_t region = 0;
  util::SimTime at = 0;  // when the benchmark hands it over (sim time)
  bool session = false;
  bool refused = false;  // written by the submitting event
};

// Campus-10k: the BENCH_scalability churn campus with a light job stream.
constexpr int kCampusNodes = 10000;
constexpr double kCampusStart = 5.0;
constexpr double kCampusArrivalWindow = 30.0;
constexpr double kCampusHorizon = 95.0;
constexpr double kCampusTrainingRate = 250.0;  // jobs/s
constexpr double kCampusSessionRate = 20.0;    // sessions/s
constexpr double kChurnPerDay = 24.0;

// Paper-6wk: bench/fig2_utilization.cpp's trace and GPUnion settings.
constexpr double kPaperStart = 5.0;
constexpr double kPaperHorizon = 6.0 * 7.0 * 86400.0;
constexpr double kPaperGiveUp = 3.0 * 86400.0;
constexpr double kPaperChurnPerDay = 0.15;
constexpr std::uint64_t kPaperTraceSeed = 20251117;

constexpr double kFedStart = 5.0;
constexpr double kFedChurnPerDay = 24.0;
const std::vector<double> kFedRegionShare = {0.55, 0.15, 0.15, 0.15};
const std::vector<std::string> kFedRegions = {"alpha", "bravo", "charlie",
                                              "delta"};
constexpr std::uint64_t kFedTenants = 10000;

const std::vector<std::string> kImages = {
    "pytorch:2.3-cuda12.1", "jupyter-dl:latest", "tensorflow:2.16-cuda12.1"};

/// The six-week five-group demand of bench/fig2_utilization.cpp.
std::vector<workload::GroupDemand> paper_demand() {
  auto machine = [](const std::string& hostname) {
    return Platform::machine_id_for(hostname);
  };
  auto group = [](std::string name, std::vector<std::string> owned,
                  double burst, double idle, double phase, double sessions,
                  std::vector<double> mix) {
    workload::GroupDemand g;
    g.name = std::move(name);
    g.owned_nodes = std::move(owned);
    g.burst_jobs_per_day = burst;
    g.idle_jobs_per_day = idle;
    g.burst_days = 7.0;
    g.gap_days = 14.0;
    g.phase_days = phase;
    g.sessions_per_day = sessions;
    g.profile_mix = std::move(mix);
    return g;
  };
  std::vector<workload::GroupDemand> groups;
  groups.push_back(group("vision",
                         {machine("ws-vision-0"), machine("ws-vision-1"),
                          machine("ws-vision-2"), machine("ws-vision-3"),
                          machine("ws-vision-4")},
                         13.5, 0.7, 0.0, 7.0, {0.50, 0.35, 0.12, 0.03}));
  groups.push_back(group("nlp",
                         {machine("ws-nlp-0"), machine("ws-nlp-1"),
                          machine("ws-nlp-2"), machine("srv-nlp-big")},
                         9.8, 0.7, 4.0, 6.0, {0.15, 0.25, 0.45, 0.15}));
  groups.push_back(group("mlsys", {machine("srv-mlsys-0")}, 17.7, 1.1, 9.0,
                         4.0, {0.25, 0.30, 0.30, 0.15}));
  groups.push_back(group("bio", {machine("srv-bio-0")}, 1.85, 0.2, 13.0, 2.0,
                         {0.10, 0.20, 0.45, 0.25}));
  workload::GroupDemand theory =
      group("theory", {}, 32.0, 32.0, 0.0, 5.0, {0.65, 0.30, 0.05, 0.0});
  theory.burst_days = 1.0;
  theory.gap_days = 0.0;
  theory.duration_scale = 0.6;
  groups.push_back(theory);
  return groups;
}

/// Zipf(1) rank over 1..n via the log-uniform approximation.
std::uint64_t zipf_rank(util::Rng& rng, std::uint64_t n) {
  const double u = rng.uniform(0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::exp(u * std::log(static_cast<double>(n))));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

workload::InterruptionModel campus_churn_model(double per_day) {
  workload::InterruptionModel model;
  model.events_per_day = per_day;
  model.min_downtime = 60.0;
  model.max_downtime = 600.0;
  model.temporary_downtime = 120.0;
  return model;
}

/// Synthetic campus of `nodes` single-3090 workstations (the
/// BENCH_scalability shape).  `sliced_every` > 0 time-slices every
/// sliced_every-th node (4 seats).
CampusConfig workstation_campus(const std::string& prefix, int nodes,
                                int sliced_every) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    hw::NodeSpec spec =
        hw::workstation_3090(prefix + "ws-" + std::to_string(i));
    if (sliced_every > 0 && i % sliced_every == 0) {
      spec = hw::with_timeslicing(std::move(spec), 4);
    }
    config.nodes.push_back({std::move(spec), "group-" + std::to_string(i % 16)});
  }
  config.storage.push_back({"nas-" + prefix + "campus", 512ULL << 40});
  config.coordinator.heartbeat_interval = 2.0;
  config.coordinator.heartbeat_miss_threshold = 3;
  config.agent_defaults.heartbeat_interval = 2.0;
  // Telemetry and scrapes off the hot path, as in BENCH_scalability.
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

/// Quantile of one stage's latency histogram in the tracer's registry copy
/// (0 when the stage never closed a span).
double stage_quantile(const monitor::MetricRegistry& registry,
                      std::string_view stage, double q,
                      std::uint64_t* count = nullptr) {
  const monitor::MetricFamily* family =
      registry.find("gpunion_trace_stage_seconds");
  if (family == nullptr) return 0.0;
  auto it = family->histograms().find({{"stage", std::string(stage)}});
  if (it == family->histograms().end()) return 0.0;
  if (count != nullptr) *count = it->second.count();
  return it->second.count() == 0 ? 0.0 : it->second.quantile(q);
}

// ---------------------------------------------------------------------------
// One repetition.
// ---------------------------------------------------------------------------
struct Options {
  WorkloadKind kind = WorkloadKind::kCampus10k;
  std::uint64_t seed = 1;
  /// Independent input set of the same seed (run.py pools replicas).
  int replica = 0;
  bool traced = false;
  std::string spans_path;
  unsigned workers = 2;  // fed-api-4x only
  FedShape fed;
};

class Repetition {
 public:
  explicit Repetition(Options options)
      : opt_(std::move(options)), spans_(opt_.traced) {}

  /// Runs set-up, the measured run and the output checks; returns the
  /// runner's JSON result.
  std::string run() {
    generate_inputs();
    setup();
    schedule_inputs();
    measure();
    return collect();
  }

  bool checks_passed() const { return checks_ok_; }

  /// Writes the host spans to --spans (traced runs record them).
  void write_spans() const {
    if (!opt_.spans_path.empty()) spans_.write(opt_.spans_path);
  }

 private:
  bool federated() const { return opt_.kind == WorkloadKind::kFedApi4x; }

  // --- inputs (generated from the seed before set-up; not timed) ----------
  void generate_inputs() {
    const util::Rng root =
        util::Rng(opt_.seed).fork("replica-" + std::to_string(opt_.replica));
    env_seed_ = root.fork("environment").seed();
    switch (opt_.kind) {
      case WorkloadKind::kCampus10k:
        generate_campus(root);
        break;
      case WorkloadKind::kPaper6wk:
        generate_paper(root);
        break;
      case WorkloadKind::kFedApi4x:
        generate_fed(root);
        break;
    }
  }

  void generate_campus(const util::Rng& root) {
    start_ = kCampusStart;
    horizon_ = kCampusHorizon;
    util::Rng rng = root.fork("campus-jobs");
    const double end = kCampusStart + kCampusArrivalWindow;
    int n = 0;
    for (double t = kCampusStart + rng.exponential(kCampusTrainingRate);
         t < end; t += rng.exponential(kCampusTrainingRate)) {
      Offer offer;
      offer.at = t;
      offer.spec = workload::make_training_job(
          "train-" + std::to_string(n), workload::cnn_small(),
          rng.uniform(30.0, 50.0) / 3600.0, "group-" + std::to_string(n % 16),
          t);
      offer.spec.checkpoint_interval = 10.0;
      offers_.push_back(std::move(offer));
      ++n;
    }
    n = 0;
    for (double t = kCampusStart + rng.exponential(kCampusSessionRate);
         t < end; t += rng.exponential(kCampusSessionRate)) {
      Offer offer;
      offer.at = t;
      offer.session = true;
      offer.spec = workload::make_interactive_session(
          "sess-" + std::to_string(n), rng.uniform(20.0, 40.0) / 3600.0,
          "group-" + std::to_string(n % 16), t);
      offers_.push_back(std::move(offer));
      ++n;
    }
    std::vector<std::string> machines;
    for (int i = 0; i < kCampusNodes; ++i) {
      machines.push_back(Platform::machine_id_for("ws-" + std::to_string(i)));
    }
    churn_.resize(1);
    for (auto& event : workload::generate_interruptions(
             machines, horizon_, campus_churn_model(kChurnPerDay),
             root.fork("campus-churn"))) {
      if (event.at >= start_) churn_[0].push_back(std::move(event));
    }
  }

  void generate_paper(const util::Rng& root) {
    start_ = kPaperStart;
    horizon_ = kPaperHorizon;
    // The job trace is bench/fig2_utilization.cpp's own (its fixed seed);
    // the benchmark seed drives churn and the environment's streams.
    const auto trace = workload::generate_campus_trace(
        paper_demand(), kPaperHorizon, util::Rng(kPaperTraceSeed));
    for (const auto& event : trace) {
      Offer offer;
      offer.spec = baseline::adapt_job(event.job, baseline::Preset::kGpunion);
      offer.at = std::max(event.at, kPaperStart);
      offer.session = offer.spec.type == workload::JobType::kInteractive;
      offers_.push_back(std::move(offer));
    }
    std::vector<std::string> machines;
    for (const auto& node : paper_campus().nodes) {
      machines.push_back(Platform::machine_id_for(node.spec.hostname));
    }
    workload::InterruptionModel churn;
    churn.events_per_day = kPaperChurnPerDay;
    churn_.resize(1);
    for (auto& event : workload::generate_interruptions(
             machines, horizon_, churn, root.fork("paper-churn"))) {
      if (event.at >= start_) churn_[0].push_back(std::move(event));
    }
  }

  void generate_fed(const util::Rng& root) {
    start_ = kFedStart;
    horizon_ = opt_.fed.horizon;
    const double end = kFedStart + opt_.fed.arrival_window;
    const double working_sets[] = {6.0, 10.0, 12.0};
    churn_.resize(kFedRegions.size());
    for (std::size_t r = 0; r < kFedRegions.size(); ++r) {
      // Each region its own stream, so its submits depend on nothing the
      // other regions' lanes do.
      util::Rng rng = root.fork("fed-jobs-" + kFedRegions[r]);
      const double rate = opt_.fed.arrival_rate * kFedRegionShare[r];
      int n = 0;
      for (double t = kFedStart + rng.exponential(rate); t < end;
           t += rng.exponential(rate)) {
        Offer offer;
        offer.at = t;
        offer.region = r;
        offer.tenant = "t";
        offer.tenant += std::to_string(zipf_rank(rng, kFedTenants));
        offer.session = rng.bernoulli(0.25);
        const double ws = working_sets[rng.uniform_int(0, 2)];
        const std::string id = kFedRegions[r] + "-" + std::to_string(n++);
        if (offer.session) {
          offer.spec = workload::make_interactive_session(
              "sess-" + id, rng.uniform(60.0, 180.0) / 3600.0, offer.tenant,
              t);
        } else {
          offer.spec = workload::make_training_job(
              "train-" + id, workload::cnn_small(),
              rng.uniform(30.0, 120.0) / 3600.0, offer.tenant, t);
          offer.spec.checkpoint_interval = 30.0;
        }
        offer.spec.requirements.gpu_memory_gb = ws;
        offers_.push_back(std::move(offer));
      }
      std::vector<std::string> machines;
      for (int i = 0; i < opt_.fed.nodes_per_region; ++i) {
        machines.push_back(Platform::machine_id_for(
            kFedRegions[r] + "-ws-" + std::to_string(i)));
      }
      for (auto& event : workload::generate_interruptions(
               machines, horizon_, campus_churn_model(kFedChurnPerDay),
               root.fork("fed-churn-" + kFedRegions[r]))) {
        if (event.at >= start_) churn_[r].push_back(std::move(event));
      }
    }
  }

  // --- set-up (timed: construct, start, warm up to the first offer) -------
  /// Sets the platform up several times (each from scratch) and keeps the
  /// last one, so setup_s is a median even within one replica.
  void setup() {
    // Paper-6wk's 11-node set-up takes well under a millisecond, so it is
    // repeated most; campus-10k's takes about half a second.
    const int repeats = opt_.kind == WorkloadKind::kCampus10k  ? 2
                        : opt_.kind == WorkloadKind::kPaper6wk ? 25
                                                               : 5;
    for (int i = 0; i < repeats; ++i) {
      if (i > 0) {
        fed_.reset();
        single_.reset();
        env_.reset();
        regions_.clear();
      }
      setup_once();
    }
  }

  void setup_once() {
    const auto t_setup = Clock::now();
    sim::EnvConfig env_config;
    env_config.profile_lanes = opt_.traced;
    if (federated()) {
      env_config.mode = sim::ExecutionMode::kParallel;
      env_config.worker_threads = opt_.workers;
    }
    {
      Scope span(spans_, "gpunion.construct");
      const auto t = Clock::now();
      env_ = std::make_unique<sim::Environment>(env_seed_, env_config);
      construct_platform();
      construct_s_ = seconds_since(t);
    }
    {
      Scope span(spans_, "gpunion.start");
      const auto t = Clock::now();
      if (fed_) {
        fed_->start();
      } else {
        single_->start();
      }
      start_s_ = seconds_since(t);
    }
    {
      Scope span(spans_, "gpunion.warmup");
      const auto t = Clock::now();
      prewarm_images();
      env_->run_until(start_);
      warmup_s_ = seconds_since(t);
    }
    setup_samples_.push_back(seconds_since(t_setup));
    cached_at_start_ = 0;
    for (Platform* platform : regions_) {
      for (const auto& id : platform->machine_ids()) {
        cached_at_start_ += cached_images(*platform->agent(id));
      }
    }
  }

  void construct_platform() {
    switch (opt_.kind) {
      case WorkloadKind::kCampus10k: {
        CampusConfig config = workstation_campus("", kCampusNodes, 0);
        config.coordinator.strategy = std::string(sched::kRoundRobin);
        single_ = std::make_unique<Platform>(*env_, std::move(config));
        break;
      }
      case WorkloadKind::kPaper6wk: {
        CampusConfig config = paper_campus();
        baseline::apply_preset(config, baseline::Preset::kGpunion);
        config.coordinator.heartbeat_interval = 60.0;
        config.agent_defaults.telemetry_interval = 600.0;
        config.scrape_interval = 600.0;
        single_ = std::make_unique<Platform>(*env_, std::move(config));
        break;
      }
      case WorkloadKind::kFedApi4x: {
        FederationConfig config;
        for (const auto& name : kFedRegions) {
          CampusConfig campus = workstation_campus(
              name + "-", opt_.fed.nodes_per_region, /*sliced_every=*/4);
          campus.coordinator.strategy = std::string(sched::kAdaptiveSharing);
          campus.api.enabled = true;
          federation::RegionPolicy policy;
          policy.digest_interval = 10.0;
          config.regions.push_back({name, std::move(campus), policy});
        }
        config.wan.base_latency = 0.010;
        config.metrics_interval = 1e9;
        fed_ = std::make_unique<FederatedPlatform>(*env_, std::move(config));
        break;
      }
    }
    if (fed_) {
      fed_->tracer().set_enabled(opt_.traced);
      for (std::size_t r = 0; r < fed_->region_count(); ++r) {
        regions_.push_back(&fed_->region(r));
      }
    } else {
      single_->tracer().set_enabled(opt_.traced);
      regions_.push_back(single_.get());
    }
  }

  void prewarm_images() {
    std::vector<std::string> images;
    switch (opt_.kind) {
      case WorkloadKind::kCampus10k:
        images = kImages;
        break;
      case WorkloadKind::kPaper6wk:
        return;  // caches start empty
      case WorkloadKind::kFedApi4x:
        images = {kImages[0]};  // training image only
        break;
    }
    for (Platform* platform : regions_) {
      for (const auto& id : platform->machine_ids()) {
        for (const auto& image : images) {
          platform->agent(id)->runtime().mark_image_cached(image);
        }
      }
    }
  }

  static std::uint64_t cached_images(agent::ProviderAgent& agent) {
    std::uint64_t n = 0;
    for (const auto& image : kImages) {
      if (agent.runtime().image_cached(image)) ++n;
    }
    return n;
  }

  // --- scheduling the generated inputs -------------------------------------
  void schedule_inputs() {
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      for (const auto& event : churn_[r]) {
        regions_[r]->schedule_interruption(std::max(event.at, env_->now()),
                                           event);
      }
    }
    for (Offer& offer : offers_) {
      Platform* platform = regions_[offer.region];
      Offer* o = &offer;
      if (federated()) {
        // ApiServer::submit runs on the region's control-plane lane.
        env_->schedule_at_on(platform->lane(), offer.at,
                             [this, platform, o] { submit_api(*platform, *o); });
      } else {
        env_->schedule_at(offer.at,
                          [this, platform, o] { submit_core(*platform, *o); });
      }
    }
    if (opt_.kind == WorkloadKind::kPaper6wk) schedule_give_up();
    if (fed_) {
      // One full-campus outage of a cold region: the rest of the
      // federation absorbs its displaced jobs by cross-campus migration.
      env_->schedule_exclusive_at(opt_.fed.outage_at, [this] {
        fed_->inject_region_outage(kFedRegions[2], opt_.fed.outage_downtime);
      });
    }
  }

  void submit_core(Platform& platform, Offer& offer) {
    const auto t = Clock::now();
    offer.refused = !platform.coordinator().submit(offer.spec).is_ok();
    if (spans_.enabled()) {
      spans_.add("sched.submit", t, Clock::now(), current_slice_.load());
    }
  }

  void submit_api(Platform& platform, Offer& offer) {
    const auto t = Clock::now();
    offer.refused = !platform.api().submit(offer.tenant, offer.spec).accepted();
    if (spans_.enabled()) {
      spans_.add("api.submit", t, Clock::now(), current_slice_.load());
    }
  }

  /// Users abandon training jobs that have queued for three days
  /// (bench/fig2_utilization.cpp's give-up sweep).
  void schedule_give_up() {
    auto sweep = std::make_shared<std::function<void()>>();
    *sweep = [this, sweep] {
      auto& coordinator = single_->coordinator();
      std::vector<std::string> to_cancel;
      for (const auto& [job_id, record] : coordinator.jobs()) {
        if (record.phase == sched::JobPhase::kPending &&
            record.first_dispatched_at < 0 &&
            env_->now() - record.submitted_at > kPaperGiveUp) {
          to_cancel.push_back(job_id);
        }
      }
      for (const auto& job_id : to_cancel) (void)coordinator.cancel(job_id);
      env_->schedule_after(3600.0, *sweep);
    };
    env_->schedule_after(3600.0, *sweep);
  }

  // --- measured run ---------------------------------------------------------
  void measure() {
    const int slices = opt_.kind == WorkloadKind::kPaper6wk ? 252 : 120;
    const double step = (horizon_ - start_) / slices;
    Scope run_span(spans_, "bench.run");

    const auto t = Clock::now();
    for (int i = 1; i <= slices; ++i) {
      const double until = i == slices ? horizon_ : start_ + step * i;
      const int slice = spans_.open("sim.run_until", run_span.index());
      current_slice_.store(slice);
      env_->run_until(until);
      spans_.close(slice);
      tombstones_peak_ =
          std::max(tombstones_peak_, env_->queue_stats().tombstones);
    }
    wall_s_ = seconds_since(t);
  }

  // --- outcomes, checks and metrics ----------------------------------------
  struct Census {
    std::uint64_t completed = 0, denied = 0, disrupted = 0, cancelled = 0,
                  refused = 0, api_dropped = 0, live = 0, lost = 0,
                  duplicated = 0;
  };

  std::string collect() {
    Scope collect_span(spans_, "bench.collect");
    Census census;
    std::vector<double> wait, jct;
    std::uint64_t training = 0, sessions = 0, training_done = 0,
                  sessions_done = 0;
    std::vector<std::uint64_t> api_queued_seen(regions_.size(), 0);
    {
      Scope span(spans_, "sched.job_lookup", collect_span.index());
      for (const Offer& offer : offers_) {
        (offer.session ? sessions : training) += 1;
        if (offer.refused) {
          ++census.refused;
          continue;
        }
        const sched::JobRecord* record = nullptr;
        int holders = 0;
        for (Platform* platform : regions_) {
          if (const auto* r = platform->coordinator().job(offer.spec.id)) {
            record = r;
            ++holders;
          }
        }
        if (holders > 1) {
          ++census.duplicated;
          continue;
        }
        if (record == nullptr) {
          classify_without_record(offer, census, api_queued_seen);
          continue;
        }
        if (record->first_dispatched_at >= 0) {
          wait.push_back(record->first_dispatched_at - offer.at);
        }
        switch (record->phase) {
          case sched::JobPhase::kCompleted:
            ++census.completed;
            if (offer.session) {
              ++sessions_done;
            } else {
              ++training_done;
              jct.push_back(record->completed_at - offer.at);
            }
            break;
          case sched::JobPhase::kDenied:
            ++census.denied;
            break;
          case sched::JobPhase::kSessionDisrupted:
            ++census.disrupted;
            break;
          case sched::JobPhase::kCancelled:
            ++census.cancelled;
            break;
          default:
            ++census.live;
            break;
        }
      }
    }

    // Check 1: every offered job ends in exactly one outcome.
    const std::uint64_t accounted =
        census.completed + census.denied + census.disrupted +
        census.cancelled + census.refused + census.api_dropped + census.live;
    const std::uint64_t violations = census.lost + census.duplicated;
    const bool conservation_ok =
        violations == 0 && accounted == offers_.size();

    // Check 2: the API identity, per region; the jobs this census found
    // queued in the API must be exactly the API's own queue depth.
    bool api_ok = true;
    std::uint64_t api_submitted = 0, api_refused = 0,
                  api_drains = 0, api_commits = 0, api_max_queued = 0;
    util::SampleSet admission;
    {
      Scope span(spans_, "api.stats", collect_span.index());
      for (std::size_t r = 0; r < regions_.size(); ++r) {
        Platform& platform = *regions_[r];
        if (!platform.has_api()) continue;
        const api::ApiStats& stats = platform.api().stats();
        const api::TenantCounters& c = stats.totals;
        const std::uint64_t queued = platform.api().total_queued();
        if (c.accepted != c.dispatched + queued + c.quota_dropped +
                              c.cancelled_queued + c.dispatch_rejected) {
          api_ok = false;
        }
        if (queued != api_queued_seen[r]) api_ok = false;
        api_submitted += c.submitted;
        api_refused += c.rejected_overloaded + c.rejected_quota +
                       c.rejected_invalid;
        api_drains += stats.drains;
        api_commits += stats.group_commits;
        api_max_queued =
            std::max<std::uint64_t>(api_max_queued, stats.max_total_queued);
        for (double s : platform.api().admission_latency().samples()) {
          admission.add(s);
        }
      }
    }
    checks_ok_ = conservation_ok && api_ok;

    JsonObject host, layers, info, checks;

    double busy = 0, gpus = 0;
    for (Platform* platform : regions_) {
      busy += platform->fleet_utilization(start_, horizon_) *
              platform->total_gpus();
      gpus += platform->total_gpus();
    }

    // Training-job interruptions, every cause (a disrupted session cannot
    // resume by design; coordinator-initiated migrate-back evictions are
    // not interruptions).  One still unresumed when the run ends is decided
    // only once a full success window has passed since it happened.
    std::set<std::string> session_ids;
    for (const Offer& offer : offers_) {
      if (offer.session) session_ids.insert(offer.spec.id);
    }
    std::vector<double> lost_work_samples, migration_outcomes;
    std::uint64_t interruptions = 0, migrations = 0, displaced = 0,
                  migrated_back = 0, dispatch_rejects = 0;
    for (Platform* platform : regions_) {
      const auto& coordinator = platform->coordinator();
      const double window = coordinator.config().migration_success_window;
      for (const auto& rec : coordinator.migrations().records()) {
        if (rec.migrate_back_eviction || session_ids.contains(rec.job_id)) {
          continue;
        }
        lost_work_samples.push_back(rec.lost_work_seconds);
        const double resumed_at =
            rec.resumed() ? rec.resumed_at : resumed_elsewhere(rec, platform);
        if (resumed_at >= 0 && resumed_at - rec.interrupted_at <= window) {
          migration_outcomes.push_back(1.0);
        } else if (resumed_at >= 0 ||
                   horizon_ - rec.interrupted_at >= window) {
          migration_outcomes.push_back(0.0);
        }
        if (rec.resumed() && rec.to_node != rec.from_node) ++migrations;
      }
      interruptions +=
          static_cast<std::uint64_t>(coordinator.stats().interruptions);
      displaced += coordinator.stats().displaced_by_temporary;
      migrated_back += coordinator.stats().migrate_back_successes;
      dispatch_rejects += coordinator.stats().dispatches_rejected;
    }

    // --- host ----------------------------------------------------------------
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    host.array("setup_samples_s", setup_samples_);
    host.num("wall_s", wall_s_);
    host.num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);

    // Outcome census, printed when a check fails.
    info.num("completed", census.completed);
    info.num("denied", census.denied);
    info.num("disrupted", census.disrupted);
    info.num("cancelled", census.cancelled);
    info.num("refused", census.refused);
    info.num("api_dropped", census.api_dropped);
    info.num("live", census.live);
    info.num("lost", census.lost);
    info.num("duplicated", census.duplicated);

    // Raw samples, so run.py can pool replicas.
    JsonObject samples;
    samples.array("wait_s", wait);
    samples.array("jct_s", jct);
    samples.array("lost_work_s", lost_work_samples);
    samples.array("migration_ok", migration_outcomes);
    samples.num("training_offered", training);
    samples.num("training_completed", training_done);
    samples.num("sessions_offered", sessions);
    samples.num("sessions_served", sessions_done);
    samples.num("busy_gpu_s", busy * (horizon_ - start_));
    samples.num("capacity_gpu_s", gpus * (horizon_ - start_));

    checks.boolean("conservation", conservation_ok);
    checks.boolean("api_identity", api_ok);

    // --- per layer -------------------------------------------------------------
    const double offered = std::max<double>(1.0, offers_.size());
    {
      Scope span(spans_, "sim.stats", collect_span.index());
      const std::uint64_t events = env_->processed_events();
      layers.num("sim.events", events);
      layers.num("sim.host_us_per_event",
                 events == 0 ? 0.0 : wall_s_ * 1e6 / static_cast<double>(events));
      layers.num("sim.tombstones_peak",
                 static_cast<std::uint64_t>(tombstones_peak_));
      layers.num("sim.compactions", env_->queue_stats().compactions);
      const sim::ProfilerReport profile = env_->lane_profile();
      double busy_s = 0, critical_s = 0, idle_s = 0;
      for (const auto& shard : profile.shards) {
        busy_s += shard.busy_s;
        critical_s += shard.critical_busy_s;
        idle_s += shard.idle_s;
      }
      layers.num("sim.callback_busy_s", busy_s);
      layers.num("sim.exclusive_stall_s", profile.exclusive_stall_s);
      layers.num("sim.critical_busy_s", critical_s);
      layers.num("sim.worker_idle_s", idle_s);
    }
    {
      Scope span(spans_, "net.stats", collect_span.index());
      std::uint64_t delivered = 0, dropped = 0;
      std::uint64_t bytes[5] = {0, 0, 0, 0, 0};
      const net::TrafficClass classes[5] = {
          net::TrafficClass::kHeartbeat, net::TrafficClass::kCheckpoint,
          net::TrafficClass::kMigration, net::TrafficClass::kImage,
          net::TrafficClass::kFederation};
      auto add_network = [&](const net::SimNetwork& network) {
        delivered += network.messages_delivered();
        dropped += network.messages_dropped();
        for (int c = 0; c < 5; ++c) bytes[c] += network.bytes_sent(classes[c]);
      };
      for (Platform* platform : regions_) add_network(platform->network());
      if (fed_) add_network(fed_->wan());
      layers.num("net.messages_per_job",
                 static_cast<double>(delivered) / offered);
      layers.num("net.dropped", dropped);
      layers.num("net.bytes.heartbeat", bytes[0]);
      layers.num("net.bytes.checkpoint", bytes[1]);
      layers.num("net.bytes.migration", bytes[2]);
      layers.num("net.bytes.image", bytes[3]);
      layers.num("net.bytes.federation", bytes[4]);
      layers.num("container.registry_gb", static_cast<double>(bytes[3]) / 1e9);
    }
    {
      Scope span(spans_, "agent.stats", collect_span.index());
      std::uint64_t heartbeats = 0, quanta = 0, swaps = 0, widenings = 0,
                    evictions = 0, cached_at_end = 0;
      double swap_s = 0;
      for (Platform* platform : regions_) {
        for (const auto& id : platform->machine_ids()) {
          agent::ProviderAgent& a = *platform->agent(id);
          heartbeats += a.heartbeats_sent();
          const agent::TimesliceStats& ts = a.timeslice_stats();
          quanta += ts.quanta;
          swaps += ts.swaps;
          swap_s += ts.swap_seconds;
          widenings += ts.quantum_widenings;
          evictions += ts.thrash_evictions;
          cached_at_end += cached_images(a);
        }
      }
      layers.num("agent.heartbeats_sent", heartbeats);
      layers.num("agent.ts.quanta", quanta);
      layers.num("agent.ts.swaps", swaps);
      layers.num("agent.ts.swap_s", swap_s);
      layers.num("agent.ts.widenings", widenings);
      layers.num("agent.ts.evictions", evictions);
      layers.num("container.pulls", cached_at_end - cached_at_start_);
    }
    // Stage histograms of the shared tracer (traced runs only).
    monitor::MetricRegistry stages;
    if (fed_) {
      fed_->tracer().publish_metrics(stages);
    } else {
      single_->tracer().publish_metrics(stages);
    }
    {
      Scope span(spans_, "storage.stats", collect_span.index());
      std::uint64_t stored = 0;
      for (Platform* platform : regions_) {
        stored += platform->checkpoint_store().total_stored_bytes();
      }
      std::uint64_t checkpoints = 0;
      stage_quantile(stages, obs::stage::kCheckpoint, 0.5,
                     &checkpoints);
      layers.num("storage.stored_gb", static_cast<double>(stored) / 1e9);
      layers.num("storage.checkpoints", checkpoints);
    }
    {
      Scope span(spans_, "sched.stats", collect_span.index());
      std::uint64_t heartbeats = 0, examined = 0, sweeps = 0, candidates = 0,
                    dispatches = 0, touches = 0;
      for (Platform* platform : regions_) {
        const auto& coordinator = platform->coordinator();
        heartbeats += coordinator.stats().heartbeats_processed;
        examined += coordinator.heartbeat_monitor().total_examined();
        sweeps += coordinator.heartbeat_monitor().sweeps();
        candidates += coordinator.placement_engine().candidates_examined();
        dispatches += static_cast<std::uint64_t>(
            coordinator.stats().dispatches_sent);
        touches += coordinator.stats().heartbeat_db_touches_coalesced;
      }
      const HostSpans::Totals submits = spans_.totals("sched.submit");
      layers.num("sched.heartbeats", heartbeats);
      layers.num("sched.host_us_per_heartbeat",
                 heartbeats == 0 ? 0.0
                                 : wall_s_ * 1e6 / static_cast<double>(heartbeats));
      layers.num("sched.sweep_examined_per_sweep",
                 sweeps == 0 ? 0.0
                             : static_cast<double>(examined) /
                                   static_cast<double>(sweeps));
      layers.num("sched.candidates_per_dispatch",
                 dispatches == 0 ? 0.0
                                 : static_cast<double>(candidates) /
                                       static_cast<double>(dispatches));
      layers.num("sched.submit_us",
                 submits.count == 0 ? 0.0
                                    : submits.total_s * 1e6 /
                                          static_cast<double>(submits.count));
      layers.num("sched.dispatch_rejects", dispatch_rejects);
      layers.num("sched.interruptions", interruptions);
      layers.num("sched.migrations", migrations);
      layers.num("sched.migrate_back_rate",
                 displaced == 0 ? 0.0
                                : static_cast<double>(migrated_back) /
                                      static_cast<double>(displaced));
      layers.num("sched.queue_wait_p99_s",
                 stage_quantile(stages, obs::stage::kQueueWait,
                                0.99));
      layers.num("sched.placement_p99_s",
                 stage_quantile(stages, obs::stage::kPlacement,
                                0.99));
      layers.num("sched.dispatch_p99_s",
                 stage_quantile(stages, obs::stage::kDispatch,
                                0.99));
      layers.num("db.heartbeat_touches_coalesced", touches);
    }
    {
      Scope span(spans_, "db.stats", collect_span.index());
      std::uint64_t ops = 0, sync_ops = 0, hottest = 0, shard_total = 0,
                    absorbed = 0, flushes = 0, wal = 0;
      for (Platform* platform : regions_) {
        const db::ShardedDatabase& database = platform->database();
        ops += database.op_count();
        sync_ops += database.sync_op_count();
        for (std::uint64_t n : database.shard_op_counts()) {
          hottest = std::max(hottest, n);
          shard_total += n;
        }
        absorbed += database.ledger().stats().absorbed;
        flushes += database.ledger().stats().flushes;
        wal += database.wal().stats().appended;
      }
      layers.num("db.ops_per_job", static_cast<double>(ops) / offered);
      layers.num("db.sync_ops_per_job", static_cast<double>(sync_ops) / offered);
      layers.num("db.hottest_shard_share",
                 shard_total == 0 ? 0.0
                                  : static_cast<double>(hottest) /
                                        static_cast<double>(shard_total));
      layers.num("db.ledger_absorbed", absorbed);
      layers.num("db.group_commits", flushes);
      layers.num("db.wal_records", wal);
      layers.num("db.ack_to_durable_p99_s",
                 stage_quantile(stages,
                                obs::stage::kDbGroupCommit, 0.99));
    }
    {
      const HostSpans::Totals submits = spans_.totals("api.submit");
      layers.num("api.submit_us",
                 submits.count == 0 ? 0.0
                                    : submits.total_s * 1e6 /
                                          static_cast<double>(submits.count));
      layers.num("api.refused_frac",
                 api_submitted == 0 ? 0.0
                                    : static_cast<double>(api_refused) /
                                          static_cast<double>(api_submitted));
      layers.num("api.drains", api_drains);
      layers.num("api.group_commits", api_commits);
      layers.num("api.max_total_queued", api_max_queued);
      layers.num("api.admission_p99_s", admission.percentile(99));
    }
    {
      Scope span(spans_, "federation.stats", collect_span.index());
      FederatedStats fs;
      if (fed_) fs = fed_->stats();
      layers.num("federation.forwards_attempted", fs.forwards_attempted);
      layers.num("federation.forward_yield",
                 fs.forwards_attempted == 0
                     ? 0.0
                     : static_cast<double>(fs.forwards_admitted) /
                           static_cast<double>(fs.forwards_attempted));
      layers.num("federation.wan_gb",
                 fed_ ? static_cast<double>(fed_->wan().total_bytes_sent()) / 1e9
                      : 0.0);
      layers.num("federation.checkpoints_shipped", fs.checkpoints_shipped);
      layers.num("federation.digests", fs.digests_published);
      layers.num("federation.transfer_p99_s",
                 stage_quantile(stages, obs::stage::kFedTransfer,
                                0.99));
    }
    {
      const obs::Tracer& tracer =
          fed_ ? fed_->tracer() : single_->tracer();
      layers.num("obs.spans", tracer.recorded());
      layers.num("obs.spans_dropped", tracer.dropped());
    }
    layers.num("gpunion.construct_s", construct_s_);
    layers.num("gpunion.start_s", start_s_);
    layers.num("gpunion.warmup_s", warmup_s_);

    JsonObject out;
    out.str("workload", workload_name(opt_.kind));
    out.num("seed", opt_.seed);
    out.num("replica", static_cast<std::uint64_t>(opt_.replica));
    out.boolean("traced", opt_.traced);
    out.str("mode", fed_ ? "parallel" : "deterministic");
    out.num("workers", static_cast<std::uint64_t>(env_->worker_count()));
    out.num("attempted", static_cast<std::uint64_t>(offers_.size()));
    out.num("failed", violations + census.refused + census.api_dropped +
                          (api_ok ? 0 : 1));
    out.obj("checks", checks);
    out.obj("samples", samples);
    out.obj("host", host);
    out.obj("layers", layers);
    out.obj("info", info);
    return out.text();
  }

  /// When an interrupted job was forwarded to another region, the origin's
  /// tracker never sees it resume: follow it to the region that ran it.
  /// Returns -1 when it has not resumed anywhere.
  double resumed_elsewhere(const sched::MigrationRecord& rec,
                           const Platform* origin) const {
    for (const Platform* platform : regions_) {
      if (platform == origin) continue;
      const sched::JobRecord* job = platform->coordinator().job(rec.job_id);
      if (job != nullptr && job->first_dispatched_at >= rec.interrupted_at) {
        return job->first_dispatched_at;
      }
    }
    return -1.0;
  }

  /// An offered job no coordinator holds: in WAN flight between regions,
  /// still queued in (or dropped by) its region's API, or lost.
  void classify_without_record(const Offer& offer, Census& census,
                               std::vector<std::uint64_t>& api_queued_seen) {
    if (fed_) {
      for (std::size_t r = 0; r < fed_->region_count(); ++r) {
        if (fed_->gateway(kFedRegions[r]).forwarding(offer.spec.id)) {
          ++census.live;
          return;
        }
      }
    }
    Platform& home = *regions_[offer.region];
    if (home.has_api()) {
      const std::string phase =
          home.api().status(offer.tenant, offer.spec.id).phase;
      if (phase == "queued_api") {
        ++census.live;
        ++api_queued_seen[offer.region];
        return;
      }
      if (phase == "quota_dropped" || phase == "cancelled_api" ||
          phase == "dispatch_rejected") {
        ++census.api_dropped;
        return;
      }
    }
    ++census.lost;
  }

  Options opt_;
  HostSpans spans_;
  std::atomic<int> current_slice_{-1};
  std::vector<Offer> offers_;
  std::vector<std::vector<workload::Interruption>> churn_;
  double start_ = 0;
  double horizon_ = 0;
  std::uint64_t env_seed_ = 1;

  std::unique_ptr<sim::Environment> env_;
  std::unique_ptr<Platform> single_;
  std::unique_ptr<FederatedPlatform> fed_;
  std::vector<Platform*> regions_;

  double construct_s_ = 0, start_s_ = 0, warmup_s_ = 0;
  std::vector<double> setup_samples_;
  double wall_s_ = 0;
  std::size_t tombstones_peak_ = 0;
  std::uint64_t cached_at_start_ = 0;
  bool checks_ok_ = false;
};

/// The fed-api-4x generator and output checks on a small federation, at 1
/// and 2 workers (kParallel submits must stay on their region's lane).
int smoke() {
  int failures = 0;
  for (unsigned workers : {1u, 2u}) {
    Options opt;
    opt.kind = WorkloadKind::kFedApi4x;
    opt.seed = 7;
    opt.workers = workers;
    opt.fed.nodes_per_region = 40;
    opt.fed.arrival_rate = 0.6;
    opt.fed.arrival_window = 60.0;
    opt.fed.horizon = 240.0;
    Repetition rep(opt);
    const std::string result = rep.run();
    std::printf("workers=%u %s\n", workers, result.c_str());
    if (!rep.checks_passed()) ++failures;
  }
  std::printf("smoke: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload campus-10k|paper-6wk|"
               "fed-api-4x --seed N [--replica N] [--traced 0|1] "
               "[--spans FILE]\n"
               "       perfbench_runner --smoke\n");
  return 2;
}

}  // namespace
}  // namespace gpunion::perfbench

int main(int argc, char** argv) {
  using namespace gpunion::perfbench;
  gpunion::util::Logger::instance().set_level(gpunion::util::LogLevel::kError);
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--smoke") return smoke();
    if (arg == "--workload") {
      const std::string name = value();
      have_workload = true;
      if (name == "campus-10k") {
        opt.kind = WorkloadKind::kCampus10k;
      } else if (name == "paper-6wk") {
        opt.kind = WorkloadKind::kPaper6wk;
      } else if (name == "fed-api-4x") {
        opt.kind = WorkloadKind::kFedApi4x;
      } else {
        return usage();
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--replica") {
      opt.replica = std::atoi(value().c_str());
    } else if (arg == "--traced") {
      opt.traced = value() == "1";
    } else if (arg == "--spans") {
      opt.spans_path = value();
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  Repetition rep(opt);
  const std::string result = rep.run();
  rep.write_spans();
  std::printf("%s\n", result.c_str());
  return 0;
}
