#include "src/cost/calibration.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/trace.h"

namespace mrtheta {

namespace {

// Logical input size of probe jobs. Kept within one map wave (num_workers ×
// block_size) so phase times can be read off directly.
constexpr int64_t kProbeInputBytes = 2 * kGiB;
// Per-map-task output volumes at which p is probed.
constexpr double kPProbeTaskOutputBytes[] = {
    4.0 * kMiB,   16.0 * kMiB,   64.0 * kMiB,  256.0 * kMiB,
    512.0 * kMiB, 1024.0 * kMiB, 2048.0 * kMiB};
// Reduce-task counts at which q is probed; 1 anchors the commit-cost fit.
constexpr int kQProbeReducerCounts[] = {1, 2, 4, 8, 16, 32, 48, 64};

// Builds the JobMeasurement a synthetic job would have produced.
JobMeasurement SynthesizeMeasurement(const SyntheticJobSpec& s) {
  JobMeasurement m;
  m.input_bytes_logical = static_cast<int64_t>(s.input_bytes);
  m.map_output_bytes_logical = static_cast<int64_t>(s.alpha * s.input_bytes);
  const int n = std::max(1, s.num_reduce_tasks);
  const double avg =
      static_cast<double>(m.map_output_bytes_logical) / n;
  m.reduce_input_bytes_logical.resize(n);
  m.reduce_comparisons_logical.assign(n, s.comparisons / n);
  for (int i = 0; i < n; ++i) {
    // Deterministic unit-variance-ish offsets alternating around 0.
    const double z = (i % 2 == 0 ? 1.0 : -1.0) *
                     (0.5 + static_cast<double>(i) / (2.0 * n));
    m.reduce_input_bytes_logical[i] = static_cast<int64_t>(
        std::max(0.0, avg * (1.0 + s.skew * z)));
  }
  m.output_bytes_logical = static_cast<int64_t>(s.output_bytes);
  return m;
}

}  // namespace

StatusOr<SimJobResult> RunSyntheticJob(const SimCluster& cluster,
                                       const SyntheticJobSpec& spec) {
  MapReduceJobSpec job;
  job.name = "synthetic";
  job.num_reduce_tasks = std::max(1, spec.num_reduce_tasks);
  const JobMeasurement m = SynthesizeMeasurement(spec);
  const SimJobSpec sim = cluster.BuildSimJob(job, m);
  StatusOr<SimReport> report = RunSimulation(cluster.config(), {sim});
  if (!report.ok()) return report.status();
  return report->jobs[0];
}

StatusOr<CalibrationReport> CalibrateCostModel(const SimCluster& cluster) {
  MRTHETA_TRACE_SCOPE("calibrate", "planner");
  const ClusterConfig& cfg = cluster.config();
  const double si = static_cast<double>(kProbeInputBytes);
  const int m = cluster.NumMapTasks(kProbeInputBytes);
  if (m > cfg.num_workers) {
    return Status::InvalidArgument(
        "calibration probe input must fit one map wave");
  }
  const double in_per_task = si / m;
  CalibrationReport report;
  CostModelParams& p = report.params;

  auto run = [&](const SyntheticJobSpec& s) -> StatusOr<double> {
    StatusOr<SimJobResult> r = RunSyntheticJob(cluster, s);
    if (!r.ok()) return r.status();
    return ToSeconds(r->finish - r->release);
  };
  auto run_phases =
      [&](const SyntheticJobSpec& s) -> StatusOr<std::pair<double, double>> {
    StatusOr<SimJobResult> r = RunSyntheticJob(cluster, s);
    if (!r.ok()) return r.status();
    return std::make_pair(ToSeconds(r->maps_done - r->release),
                          ToSeconds(r->finish - r->maps_done));
  };

  // ---- Step 1: C1_read and startup from two zero-output jobs. The map
  // phase is startup + in_per_task·C1; inputs that are block multiples all
  // have in_per_task == block_size, so the second probe is a *sub-block*
  // job whose single map task reads half a block. ----
  {
    SyntheticJobSpec s;
    s.alpha = 0.0;
    s.input_bytes = si;
    auto big = run_phases(s);
    if (!big.ok()) return big.status();
    const double small_in_per_task =
        static_cast<double>(cluster.config().block_size) / 2.0;
    s.input_bytes = small_in_per_task;
    auto small = run_phases(s);
    if (!small.ok()) return small.status();
    p.c1_read_sec_per_byte =
        std::max(0.0, (big->first - small->first) /
                          (in_per_task - small_in_per_task));
    p.job_startup_sec =
        std::max(0.0, big->first - in_per_task * p.c1_read_sec_per_byte);
  }

  // ---- Step 2: q(n) and the per-reduce commit cost from zero-output
  // probes at two input sizes. Post-map time = m·q(n)/n + commit·n; the
  // q part scales with the map count, the commit part does not, so the
  // m-sweep separates them. ----
  {
    double commit_sum = 0.0;
    int commit_count = 0;
    for (int n : kQProbeReducerCounts) {
      if (n > cfg.num_workers) continue;
      SyntheticJobSpec s;
      s.alpha = 0.0;
      s.num_reduce_tasks = n;
      s.input_bytes = si;
      auto full = run_phases(s);
      if (!full.ok()) return full.status();
      s.input_bytes = si / 2;
      auto half = run_phases(s);
      if (!half.ok()) return half.status();
      const int m_half = cluster.NumMapTasks(static_cast<int64_t>(si / 2));
      const double q_n = std::max(
          0.0, (full->second - half->second) * n / (m - m_half));
      report.q_counts.push_back(static_cast<double>(n));
      report.q_values.push_back(q_n);
      const double commit =
          std::max(0.0, (full->second - m * q_n / n) / n);
      commit_sum += commit;
      ++commit_count;
    }
    p.q_conn = PiecewiseLinear(report.q_counts, report.q_values);
    p.commit_sec_per_reduce =
        commit_count > 0 ? commit_sum / commit_count : 0.0;
  }

  // ---- Step 3: C2 from an output-size sweep with one reducer (constant
  // overheads cancel in the slope). ----
  {
    const double b1 = 0.1 * si, b2 = 0.5 * si;
    SyntheticJobSpec s;
    s.input_bytes = si;
    s.num_reduce_tasks = 1;
    s.alpha = b1 / si;
    auto r1 = run_phases(s);
    if (!r1.ok()) return r1.status();
    s.alpha = b2 / si;
    auto r2 = run_phases(s);
    if (!r2.ok()) return r2.status();
    const double slope = (r2->second - r1->second) / (b2 - b1);
    p.c2_net_sec_per_byte = std::max(0.0, slope - p.c1_read_sec_per_byte);
  }

  // ---- Step 4: C1_write from an output-bytes sweep ----
  {
    SyntheticJobSpec s;
    s.input_bytes = si;
    s.num_reduce_tasks = 1;
    s.alpha = 0.1;
    s.output_bytes = 0.0;
    auto r1 = run(s);
    if (!r1.ok()) return r1.status();
    s.output_bytes = 0.5 * si;
    auto r2 = run(s);
    if (!r2.ok()) return r2.status();
    p.c1_write_sec_per_byte =
        std::max(0.0, (*r2 - *r1) / s.output_bytes);
  }

  // ---- Step 5: p(volume) sweep ----
  {
    for (double s_out : kPProbeTaskOutputBytes) {
      SyntheticJobSpec s;
      s.input_bytes = si;
      s.num_reduce_tasks = 1;
      s.alpha = s_out * m / si;
      auto phases = run_phases(s);
      if (!phases.ok()) return phases.status();
      const double t_m = phases->first - p.job_startup_sec;
      const double fitted =
          (t_m - in_per_task * p.c1_read_sec_per_byte) / s_out;
      report.p_volumes.push_back(s_out);
      report.p_values.push_back(std::max(0.0, fitted));
    }
    p.p_spill = PiecewiseLinear(report.p_volumes, report.p_values);
  }

  // ---- Step 6: comparison rate ----
  {
    SyntheticJobSpec s;
    s.input_bytes = si;
    s.num_reduce_tasks = 1;
    s.alpha = 0.1;
    auto base = run(s);
    if (!base.ok()) return base.status();
    s.comparisons = 1e9;
    auto loaded = run(s);
    if (!loaded.ok()) return loaded.status();
    const double delta = *loaded - *base;
    // When the cluster does not charge comparison CPU (the paper's
    // I/O-dominated model), the probe shows no slowdown and the CPU term
    // drops out of the fitted model entirely.
    p.comparisons_per_sec = delta > 1e-6
                                ? s.comparisons / delta
                                : std::numeric_limits<double>::infinity();
  }

  return report;
}

}  // namespace mrtheta
