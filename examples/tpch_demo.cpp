// TPC-H demo: generate the TPC-H-lite database, run the amended Q17
// (small-quantity parts, a lineitem self-join through part) through one
// ThetaEngine session and show the plan the optimizer picks plus its
// per-job simulated timeline.

#include <cstdio>

#include "src/api/theta_engine.h"
#include "src/common/flags.h"
#include "src/obs/obs_export.h"
#include "src/workload/tpch.h"

using namespace mrtheta;  // NOLINT: example brevity

// Usage: tpch_demo [--threads N] [--mem-budget SIZE] [--trace-out=F]
//        [--metrics-out=F]
int main(int argc, char** argv) {
  const StatusOr<CommonFlags> flags = ParseCommonFlags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--threads N] [--mem-budget SIZE] "
                 "[--trace-out=FILE] [--metrics-out=FILE]\n",
                 flags.status().ToString().c_str(), argv[0]);
    return 2;
  }
  WarnIfSingleHardwareThread(flags->num_threads);
  // Tracing must be installed before the engine runs anything; spans cover
  // planning, calibration and every runtime task (docs/OBSERVABILITY.md).
  ObsExporter obs(flags->trace_out, flags->metrics_out);

  EngineOptions engine_options;
  engine_options.executor.num_threads = flags->num_threads;
  engine_options.executor.mem_budget_bytes = flags->mem_budget_bytes;
  ThetaEngine engine(engine_options);

  TpchOptions options;
  options.scale_factor = 100;  // represents ~100 GB
  options.physical_lineitem_rows = 4000;
  const TpchData db = GenerateTpch(options);
  std::printf("TPC-H-lite @ SF %.0f: lineitem %lld rows (logical %lld)\n\n",
              options.scale_factor,
              static_cast<long long>(db.lineitem->num_rows()),
              static_cast<long long>(db.lineitem->logical_rows()));

  const auto query = TpchQueryBuilder(17, db).Build();
  if (!query.ok()) return 1;
  std::printf("%s\n\n", query->ToString().c_str());

  const auto plan = engine.PlanQuery(*query);
  if (!plan.ok()) return 1;
  std::printf("%s\n", plan->ToString().c_str());

  const auto result = engine.ExecutePlan(*query, *plan);
  if (!result.ok()) {
    std::printf("execute: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("per-job timeline (simulated cluster + measured local):\n");
  for (const JobExecution& job : result->jobs()) {
    std::printf("  %-14s kind=%-12s RN=%-3d in=%9s shuffle=%9s "
                "[%.1fs .. %.1fs] local=%.3fs\n",
                job.name.c_str(), PlanJobKindName(job.kind),
                job.reduce_tasks,
                FormatBytes(job.metrics.input_bytes_logical).c_str(),
                FormatBytes(job.metrics.map_output_bytes_logical).c_str(),
                ToSeconds(job.timing.release),
                ToSeconds(job.timing.finish), job.wall_seconds);
  }
  std::printf("\nresult rows (physical sample): %lld, selectivity %.3g\n",
              static_cast<long long>(result->num_rows()),
              result->selectivity());
  std::printf("makespan: measured %.3fs on %d thread(s) / simulated %s "
              "on the modeled cluster\n",
              result->measured_seconds(), flags->num_threads,
              FormatSimTime(result->makespan()).c_str());

  std::printf("\nprofile (QueryResult::profile):\n%s\n",
              result->profile().ToTable().c_str());

  if (const Status s = obs.Finish(&engine.metrics_registry()); !s.ok()) {
    std::fprintf(stderr, "observability export failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  return 0;
}
