// Skew-aware partitioning benchmark (docs/SKEW.md): reducer-input balance
// of Zipf-skewed mobile joins with skew handling off vs on.
//
// Two layers:
//  1. Job-level: a "calls at the same station" pair join over Zipf(1.2)
//     station codes, built directly as a Hilbert join job. The top station
//     holds ~18% of every sample, so without skew handling one hash slice
//     (and every curve segment covering it) carries the pile. The bench
//     *asserts* the acceptance bar: max/mean reducer input <= 1.5 with
//     skew handling on vs >= 3.0 with it off, with identical join output.
//  2. Plan-level: mobile Q1 and a Zipf-skewed TPC-H Q17 through the
//     planner + executor, skew off vs auto — per-reducer inputs and the
//     simulated makespan both reflect the rebalanced assignment (Q17's
//     partkey chain fuses all three inputs into one hash dimension, the
//     worst case: max/mean ~27 -> ~2 and a double-digit percent simulated
//     makespan cut).
//
// Emits BENCH_skew.json; the CI benchmark-regression gate
// (scripts/check_bench.py) compares it against the committed baseline.
//
// Usage: bench_skew [--trace-out=F] [--metrics-out=F] [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/theta_engine.h"
#include "src/common/flags.h"
#include "src/obs/obs_export.h"
#include "src/exec/hilbert_join.h"
#include "src/runtime/parallel_job_runner.h"
#include "src/sched/skew_assigner.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace mrtheta::bench {
namespace {

constexpr double kZipfExponent = 1.2;
constexpr int64_t kPairRows = 8000;
constexpr int kPairReduceTasks = 32;
// Acceptance bars (ISSUE 3): the configured workload must rebalance to
// <= 1.5 with skew handling on and must demonstrate >= 3.0 without it.
constexpr double kMaxRatioOn = 1.5;
constexpr double kMinRatioOff = 3.0;

// Mobile pair join: t1.bsc = t2.bsc AND t1.bt <= t2.bt over two
// independent samples of the Zipf-skewed call table.
MultiwayJoinJobSpec StationPairSpec(SkewHandling skew_handling) {
  MobileDataOptions options;
  options.physical_rows = kPairRows;
  options.station_skew = kZipfExponent;
  MultiwayJoinJobSpec spec;
  spec.name = "station-pair";
  spec.base_relations = {GenerateMobileCallsInstance(options, 0),
                         GenerateMobileCallsInstance(options, 1)};
  spec.inputs = {JoinSide::ForBase(spec.base_relations[0], 0),
                 JoinSide::ForBase(spec.base_relations[1], 1)};
  // Schema: id, d, bt, l, bsc.
  spec.conditions = {JoinCondition{{0, 4}, ThetaOp::kEq, {1, 4}, 0.0, 0},
                     JoinCondition{{0, 2}, ThetaOp::kLe, {1, 2}, 0.0, 1}};
  spec.num_reduce_tasks = kPairReduceTasks;
  spec.skew_handling = skew_handling;
  return spec;
}

// Sorted row multiset fingerprint (task decomposition changes row order;
// the content must not change).
uint64_t RowsFingerprint(const Relation& rel) {
  std::vector<uint64_t> hashes;
  hashes.reserve(static_cast<size_t>(rel.num_rows()));
  for (int64_t r = 0; r < rel.num_rows(); ++r) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int c = 0; c < rel.schema().num_columns(); ++c) {
      h = h * 0x100000001b3ULL ^ static_cast<uint64_t>(rel.GetInt(r, c));
    }
    hashes.push_back(h);
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t fp = 0xcbf29ce484222325ULL;
  for (uint64_t h : hashes) fp = fp * 0x100000001b3ULL ^ h;
  return fp;
}

SkewBenchRecord PairRecord(SkewHandling skew_handling, uint64_t* fingerprint) {
  HilbertJoinPlanInfo info;
  const auto spec = BuildHilbertJoinJob(StationPairSpec(skew_handling), &info);
  if (!spec.ok()) {
    std::fprintf(stderr, "station-pair build failed: %s\n",
                 spec.status().ToString().c_str());
    std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool(1);
  const auto result = RunJobParallel(*spec, pool);
  if (!result.ok()) {
    std::fprintf(stderr, "station-pair run failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  const ReduceBalance balance =
      ComputeReduceBalance(result->metrics.reduce_input_bytes_logical);
  SkewBenchRecord rec;
  rec.workload = "mobile";
  rec.query = "station_pair_8k";
  rec.mode = skew_handling == SkewHandling::kOff ? "off" : "on";
  rec.zipf_exponent = kZipfExponent;
  rec.reduce_tasks = spec->num_reduce_tasks;
  rec.residual_tasks = info.skew.residual_tasks;
  rec.heavy_tasks = info.skew.heavy_tasks;
  rec.heavy_groups = static_cast<int>(info.skew.groups.size());
  rec.max_reduce_input_bytes = balance.max_bytes;
  rec.mean_reduce_input_bytes = balance.mean_bytes;
  rec.max_mean_ratio = balance.ratio;
  rec.result_rows_physical = result->output->num_rows();
  rec.wall_seconds = SecondsSince(start);
  *fingerprint = RowsFingerprint(*result->output);
  std::printf("  %-18s %-4s tasks=%2d (resid=%2d heavy=%2d/%d groups)  "
              "max/mean=%5.2f  rows=%lld\n",
              rec.query.c_str(), rec.mode.c_str(), rec.reduce_tasks,
              rec.residual_tasks, rec.heavy_tasks, rec.heavy_groups,
              rec.max_mean_ratio,
              static_cast<long long>(rec.result_rows_physical));
  std::fflush(stdout);
  return rec;
}

// Plan-level: a whole query through the ThetaEngine session, skew off vs
// on. One record per mode with the balance of the plan's (first) Hilbert
// join and the simulated makespan of the whole plan.
void RunPlanLevel(const Query& query, const std::string& name,
                  ThetaEngine& engine,
                  std::vector<SkewBenchRecord>& records) {
  const auto plan = engine.PlanQuery(query);
  if (!plan.ok()) std::exit(1);

  int64_t base_rows = -1;
  for (const SkewHandling mode : {SkewHandling::kOff, SkewHandling::kAuto}) {
    ExecutorOptions exec_options = engine.options().executor;
    exec_options.skew_handling = mode;
    const auto start = std::chrono::steady_clock::now();
    const auto result = engine.ExecutePlan(query, *plan, exec_options,
                                           engine.options().execution_seed);
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    SkewBenchRecord rec;
    rec.workload = name.substr(0, name.find('/'));
    rec.query = name.substr(name.find('/') + 1);
    rec.mode = mode == SkewHandling::kOff ? "off" : "on";
    rec.zipf_exponent = kZipfExponent;
    for (const JobExecution& job : result->jobs()) {
      if (job.kind != PlanJobKind::kHilbertJoin) continue;
      const ReduceBalance balance =
          ComputeReduceBalance(job.metrics.reduce_input_bytes_logical);
      rec.reduce_tasks = job.reduce_tasks;
      rec.residual_tasks = job.skew_residual_tasks;
      rec.heavy_tasks = job.skew_heavy_tasks;
      rec.heavy_groups = job.skew_heavy_groups;
      rec.max_reduce_input_bytes = balance.max_bytes;
      rec.mean_reduce_input_bytes = balance.mean_bytes;
      rec.max_mean_ratio = balance.ratio;
      break;
    }
    rec.result_rows_physical = result->num_rows();
    rec.sim_makespan_seconds = result->simulated_seconds();
    rec.wall_seconds = SecondsSince(start);
    std::printf("  %-18s %-4s tasks=%2d (resid=%2d heavy=%2d/%d groups)  "
                "max/mean=%5.2f  sim=%7.1fs  rows=%lld\n",
                rec.query.c_str(), rec.mode.c_str(), rec.reduce_tasks,
                rec.residual_tasks, rec.heavy_tasks, rec.heavy_groups,
                rec.max_mean_ratio, rec.sim_makespan_seconds,
                static_cast<long long>(rec.result_rows_physical));
    std::fflush(stdout);
    if (base_rows < 0) {
      base_rows = rec.result_rows_physical;
    } else if (rec.result_rows_physical != base_rows) {
      std::fprintf(stderr,
                   "%s: skew handling changed the result "
                   "(%lld vs %lld rows)\n", name.c_str(),
                   static_cast<long long>(rec.result_rows_physical),
                   static_cast<long long>(base_rows));
      std::exit(1);
    }
    records.push_back(rec);
  }
}

int Main(int argc, char** argv) {
  const StatusOr<CommonFlags> flags =
      ParseCommonFlags(argc, argv, /*allow_threads=*/false);
  if (!flags.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--trace-out=FILE] [--metrics-out=FILE] "
                 "[output.json]\n",
                 flags.status().ToString().c_str(), argv[0]);
    return 2;
  }
  ObsExporter obs(flags->trace_out, flags->metrics_out);
  const std::string out_path =
      flags->output_path.empty() ? "BENCH_skew.json" : flags->output_path;
  // This bench runs single-threaded (default EngineOptions), so there is
  // no time-slicing to warn about; wall_seconds is measured and exempt
  // from the CI gate either way.
  std::vector<SkewBenchRecord> records;

  // ---- Job-level: station-pair join, skew off vs on ----
  uint64_t fp_off = 0;
  uint64_t fp_on = 0;
  records.push_back(PairRecord(SkewHandling::kOff, &fp_off));
  records.push_back(PairRecord(SkewHandling::kForce, &fp_on));
  if (fp_off != fp_on) {
    std::fprintf(stderr,
                 "FAIL: skew handling changed the station-pair result\n");
    return 1;
  }
  const double ratio_off = records[records.size() - 2].max_mean_ratio;
  const double ratio_on = records[records.size() - 1].max_mean_ratio;
  if (ratio_off < kMinRatioOff) {
    std::fprintf(stderr,
                 "FAIL: skew-off ratio %.2f below the %.1f the workload "
                 "must demonstrate\n",
                 ratio_off, kMinRatioOff);
    return 1;
  }
  if (ratio_on > kMaxRatioOn) {
    std::fprintf(stderr, "FAIL: skew-on ratio %.2f exceeds %.2f\n", ratio_on,
                 kMaxRatioOn);
    return 1;
  }

  // ---- Plan-level: mobile Q1 and a Zipf-skewed TPC-H Q17, through one
  // ThetaEngine session ----
  ThetaEngine engine;
  {
    MobileDataOptions options;
    options.physical_rows = 4000;
    options.logical_bytes = 2 * kGiB;
    options.station_skew = kZipfExponent;
    const auto query = MobileQueryBuilder(1, options).Build();
    if (!query.ok()) std::exit(1);
    RunPlanLevel(*query, "mobile/q1_4k_2gb", engine, records);
  }
  {
    // Q17 chains l1.partkey = p.partkey = l2.partkey: all three inputs
    // fuse into ONE hash dimension, so a Zipfian part popularity is the
    // worst case for the pure curve assignment.
    TpchOptions options;
    options.scale_factor = 100;
    options.physical_lineitem_rows = 4000;
    options.lineitem_key_skew = kZipfExponent;
    const TpchData db = GenerateTpch(options);
    const auto query = TpchQueryBuilder(17, db).Build();
    if (!query.ok()) std::exit(1);
    RunPlanLevel(*query, "tpch/q17_4k_skewed", engine, records);
  }

  const Status status = WriteSkewBenchJson(out_path, records);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records)\n", out_path.c_str(), records.size());
  if (const Status s = obs.Finish(&engine.metrics_registry()); !s.ok()) {
    std::fprintf(stderr, "observability export failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mrtheta::bench

int main(int argc, char** argv) { return mrtheta::bench::Main(argc, argv); }
