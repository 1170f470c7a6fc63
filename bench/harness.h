// Shared helpers for the bench/ binaries: banners, table rules, wall-clock
// timing and a walk over every job record.  The paper-shape scenarios
// (fig3, table1, training impact, network traffic) are ctest properties
// under tests/integration/; perfbench/ is the end-to-end benchmark.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "baseline/presets.h"
#include "gpunion/client.h"
#include "gpunion/platform.h"
#include "workload/generator.h"
#include "workload/provider_behavior.h"

namespace gpunion::bench {

/// Prints a centred experiment banner.
inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void row_divider(int width = 72) {
  for (int i = 0; i < width; ++i) std::printf("-");
  std::printf("\n");
}

/// Wall-clock time of one callable, seconds.
inline double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Applies `fn(job_id, record)` to every record, live and archived.
template <typename Fn>
void for_each_job(const sched::Coordinator& coordinator, Fn&& fn) {
  for (const auto& [job_id, record] : coordinator.jobs()) fn(job_id, record);
  for (const auto& [job_id, record] : coordinator.archive()) {
    fn(job_id, record);
  }
}

}  // namespace gpunion::bench
