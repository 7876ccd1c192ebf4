// Quickstart: plan and execute a multi-way theta-join with the session
// API. One ThetaEngine owns the simulated cluster, the cost-model
// calibration, per-relation statistics and the runtime thread pool; the
// fluent QueryBuilder expresses the paper's Q1 ("concurrent calls at the
// same base station") without index juggling.

#include <cstdio>

#include "src/api/theta_engine.h"
#include "src/baselines/baseline_planners.h"
#include "src/common/flags.h"
#include "src/obs/obs_export.h"
#include "src/workload/mobile.h"

using namespace mrtheta;  // NOLINT: example brevity

// Usage: quickstart [--threads N] [--mem-budget SIZE] [--trace-out=F]
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
  ObsExporter obs(flags->trace_out, flags->metrics_out);

  // 1. One engine per session: a simulated 96-unit cluster (Table 1
  // parameters); calibration (Sec. 6.2) runs lazily on the first query.
  // --mem-budget SIZE bounds shuffle memory: beyond it the runtime spills
  // to disk and merges back, with byte-identical results (docs/MEMORY.md).
  EngineOptions options;
  options.executor.num_threads = flags->num_threads;
  options.executor.mem_budget_bytes = flags->mem_budget_bytes;
  ThetaEngine engine(options);
  std::printf("cluster: %s\n", engine.cluster().config().ToString().c_str());

  // 2. Data: mobile-call samples, each alias representing 2 GB of records.
  MobileDataOptions data_options;
  data_options.physical_rows = 1500;
  data_options.logical_bytes = 2 * kGiB;

  // 3. Query Q1, fluently: concurrent calls at the same base station.
  QueryBuilder builder;
  builder.From("t1", GenerateMobileCallsInstance(data_options, 0))
      .From("t2", GenerateMobileCallsInstance(data_options, 1))
      .From("t3", GenerateMobileCallsInstance(data_options, 2))
      .Where(Col("t1.bt") <= Col("t2.bt"))
      .Where(Col("t1.l") >= Col("t2.l"))
      .Where(Col("t2.bsc") == Col("t3.bsc"))
      .Where(Col("t2.d") == Col("t3.d"))
      .Select("t3.id");
  const StatusOr<Query> query = builder.Build();
  if (!query.ok()) {
    std::printf("query: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", query->ToString().c_str());

  // 4. Explain: statistics -> join-path graph -> set cover -> malleable
  // schedule, all behind one call.
  const StatusOr<PlanReport> report = engine.Explain(*query);
  if (!report.ok()) {
    std::printf("planning failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->plan.ToString().c_str());

  // 5. Execute on the in-process runtime: exact answers + simulated
  // makespan; measured wall-clock shrinks with --threads, the simulated
  // figures do not change.
  const StatusOr<QueryResult> result = engine.ExecutePlan(*query,
                                                          report->plan);
  if (!result.ok()) {
    std::printf("execution failed: %s\n",
                result.status().ToString().c_str());
    return 1;
  }
  std::printf("result rows (physical): %lld, selectivity: %.6g\n",
              static_cast<long long>(result->num_rows()),
              result->selectivity());
  std::printf("makespan: measured %.3fs on %d thread(s) / simulated %s "
              "on the modeled cluster\n",
              result->measured_seconds(), flags->num_threads,
              FormatSimTime(result->makespan()).c_str());

  // 5b. The same execution as a profile tree (QueryResult::profile()).
  std::printf("\nprofile:\n%s\n", result->profile().ToTable().c_str());

  // 6. Compare against the Hive-style baseline on the same session.
  const StatusOr<QueryPlan> hive = PlanHiveStyle(*query, engine.cluster());
  if (hive.ok()) {
    const StatusOr<QueryResult> hive_result =
        engine.ExecutePlan(*query, *hive);
    if (hive_result.ok()) {
      std::printf("hive-style makespan: %s (%.2fx ours)\n",
                  FormatSimTime(hive_result->makespan()).c_str(),
                  static_cast<double>(hive_result->makespan()) /
                      static_cast<double>(result->makespan()));
    } else {
      std::printf("hive-style execution failed: %s\n",
                  hive_result.status().ToString().c_str());
    }
  }

  if (const Status s = obs.Finish(&engine.metrics_registry()); !s.ok()) {
    std::fprintf(stderr, "observability export failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  return 0;
}
