// Baseline platform presets.
//
// Each baseline of Table 1 is expressed as a configuration of the same
// engine (see sched/policy.h), so tests/integration/table1_comparison_test
// replays one churn + workload trace under all of them and differences are
// attributable to platform semantics alone:
//
//   kGpunion      everything on (the paper's system)
//   kKubernetes   centralized orchestration: volatility = failure,
//                 restart-from-scratch, no provider grace, no migrate-back
//   kSlurm        reservation semantics: node loss kills the job, the user
//                 resubmits at the queue tail, restart from scratch
//   kManual       the pre-GPUnion campus: per-group silos, manual restarts
#pragma once

#include <string>

#include "gpunion/config.h"
#include "workload/job.h"

namespace gpunion::baseline {

enum class Preset { kGpunion, kKubernetes, kSlurm, kManual };

std::string_view preset_name(Preset p);

/// Rewrites `config`'s policy/agent knobs for the preset.
void apply_preset(CampusConfig& config, Preset preset);

/// Adapts a job spec to the preset's capabilities (e.g. platforms without
/// ALC integration do not run periodic checkpoints).
workload::JobSpec adapt_job(workload::JobSpec job, Preset preset);

}  // namespace gpunion::baseline
