#ifndef MRTHETA_OBS_PROFILE_H_
#define MRTHETA_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/executor.h"

namespace mrtheta {

/// Per-job slice of a QueryProfile. Every rows/bytes field is copied
/// verbatim from the job's simulated JobMeasurement (tests/obs_test.cc
/// pins the exact match), so the profile tells the same story as the
/// paper's cost model — plus the wall-clock and fault-tolerance view the
/// simulator does not have.
struct JobExecutionProfile {
  int index = 0;
  std::string name;
  std::string kind;    ///< PlanJobKindName
  std::string kernel;  ///< reduce-side kernel eligibility
  int reduce_tasks = 1;
  /// Plan-DAG inputs: indices of earlier jobs this one consumed (empty =
  /// base relations only) — what makes the rendering a tree.
  std::vector<int> input_jobs;

  // Wall vs simulated time.
  double wall_seconds = 0.0;       ///< measured on the local runtime
  double sim_release_seconds = 0.0;  ///< simulated schedule window
  double sim_finish_seconds = 0.0;

  // Volumes at pruned widths (JobMeasurement, logical unless noted).
  int64_t input_bytes = 0;
  int64_t shuffle_bytes = 0;  ///< map_output_bytes_logical
  int64_t max_reduce_input_bytes = 0;
  int64_t map_records_physical = 0;
  int64_t output_rows_physical = 0;
  double output_rows_logical = 0.0;
  int64_t output_bytes = 0;

  // Fault-tolerance + skew routing (JobExecution).
  int64_t injected_faults = 0;
  int64_t task_retries = 0;
  int64_t speculative_launches = 0;
  double wasted_task_seconds = 0.0;
  /// Shuffle bytes/files this job spilled under a memory budget
  /// (docs/MEMORY.md); zero without one.
  int64_t spill_bytes = 0;
  int64_t spill_files = 0;
  int skew_residual_tasks = 0;
  int skew_heavy_tasks = 0;
  int skew_heavy_groups = 0;
};

/// \brief Execution profile of one query: the per-job tree plus plan-wide
/// totals, rendered as an ASCII table (ToTable) or machine-readable JSON
/// (ToJson). Produced by QueryResult::profile() (docs/OBSERVABILITY.md).
struct QueryProfile {
  std::vector<JobExecutionProfile> jobs;
  double measured_seconds = 0.0;
  double simulated_seconds = 0.0;
  int64_t sim_shuffle_bytes = 0;
  int64_t result_rows_physical = 0;
  double result_selectivity = 0.0;
  /// Plan-wide spill totals and the budget high-water mark
  /// (ExecutionResult; docs/MEMORY.md).
  int64_t spill_bytes = 0;
  int64_t spill_files = 0;
  int64_t peak_mem_bytes = 0;
  /// True when this execution reused a plan from the engine's plan cache
  /// (docs/API.md "Serving") instead of running the planner. Set by
  /// QueryResult::profile(); BuildQueryProfile alone leaves it false.
  bool plan_cache_hit = false;

  std::string ToTable() const;
  std::string ToJson() const;
};

/// Builds the profile of an executed plan. Pure read of the result — never
/// touches relations or re-runs anything.
QueryProfile BuildQueryProfile(const ExecutionResult& result);

}  // namespace mrtheta

#endif  // MRTHETA_OBS_PROFILE_H_
