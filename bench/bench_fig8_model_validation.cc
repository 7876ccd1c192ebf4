// Fig. 8: cost-model validation — estimated vs simulated execution time of
// a self-join program over the mobile data set across map-output sizes.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/exec/hilbert_join.h"
#include "src/runtime/parallel_job_runner.h"
#include "src/workload/mobile.h"

using namespace mrtheta;  // NOLINT

int main() {
  bench::Harness harness(96);
  const ClusterConfig& cfg = harness.cluster.config();

  std::printf("Fig. 8: estimated vs simulated self-join execution time\n\n");
  TablePrinter table({"map output", "simulated (s)", "estimated (s)",
                      "est/sim"});

  for (double gb : {0.25, 1.0, 4.0, 16.0, 64.0}) {
    // Self-join of the call table on (bsc, d): two independent samples.
    MobileDataOptions options;
    options.physical_rows = 1500;
    options.logical_bytes = static_cast<int64_t>(gb / 2.0 * kGiB);
    RelationPtr t1 = GenerateMobileCallsInstance(options, 0);
    RelationPtr t2 = GenerateMobileCallsInstance(options, 1);

    MultiwayJoinJobSpec spec;
    spec.inputs = {JoinSide::ForBase(t1, 0), JoinSide::ForBase(t2, 1)};
    spec.base_relations = {t1, t2};
    spec.conditions = {{{0, 4}, ThetaOp::kEq, {1, 4}, 0.0, 0},
                       {{0, 1}, ThetaOp::kEq, {1, 1}, 0.0, 1}};
    spec.num_reduce_tasks = 32;
    const auto job = BuildHilbertJoinJob(spec);
    if (!job.ok()) return 1;

    // "Real": run physically, clock through the simulator.
    ThreadPool pool(1);
    const auto run = RunJobParallel(*job, pool);
    if (!run.ok()) return 1;
    const auto report =
        RunSimulation(cfg, {harness.cluster.BuildSimJob(*job, run->metrics)});
    if (!report.ok()) return 1;
    const double simulated = ToSeconds(report->makespan);

    // "Estimated": the fitted cost model on the measured profile.
    JobProfile profile;
    profile.input_bytes =
        static_cast<double>(run->metrics.input_bytes_logical);
    profile.alpha =
        static_cast<double>(run->metrics.map_output_bytes_logical) /
        profile.input_bytes;
    profile.output_bytes =
        static_cast<double>(run->metrics.output_bytes_logical);
    profile.num_reduce_tasks = job->num_reduce_tasks;
    // σ from the measured reduce-input distribution.
    double mean = 0.0, var = 0.0;
    for (int64_t b : run->metrics.reduce_input_bytes_logical) {
      mean += static_cast<double>(b);
    }
    mean /= run->metrics.reduce_input_bytes_logical.size();
    for (int64_t b : run->metrics.reduce_input_bytes_logical) {
      var += (b - mean) * (b - mean);
    }
    var /= run->metrics.reduce_input_bytes_logical.size();
    profile.sigma_reduce_bytes = std::sqrt(var);

    const double estimated =
        PredictJobTime(harness.params, cfg, profile, cfg.num_workers).total;
    table.AddRow({FormatBytes(run->metrics.map_output_bytes_logical),
                  TablePrinter::Num(simulated, 1),
                  TablePrinter::Num(estimated, 1),
                  TablePrinter::Num(estimated / simulated, 2)});
  }
  table.Print(std::cout);
  return 0;
}
