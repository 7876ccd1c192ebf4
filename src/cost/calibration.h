#ifndef MRTHETA_COST_CALIBRATION_H_
#define MRTHETA_COST_CALIBRATION_H_

#include <vector>

#include "src/common/status.h"
#include "src/cost/cost_model.h"
#include "src/mapreduce/sim_cluster.h"

namespace mrtheta {

/// Result of calibration: fitted parameters plus the raw probe series
/// (the data behind Fig. 7(b)).
struct CalibrationReport {
  CostModelParams params;
  /// p probes: per-task map output volume -> fitted p (sec/byte).
  std::vector<double> p_volumes;
  std::vector<double> p_values;
  /// q probes: reducer count -> fitted q (sec per map task serving n).
  std::vector<double> q_counts;
  std::vector<double> q_values;
};

/// \brief Learns the cost-model parameters from observed executions of an
/// "output-controllable self-join program" on the simulated cluster,
/// following the paper's methodology (Sec. 6.2):
///
///  1. a near-zero-output job isolates C1 (sequential read cost);
///  2. output-size sweeps with one reducer isolate C1_write and C2;
///  3. a reducer-count sweep isolates q(n);
///  4. a map-output sweep isolates p(volume);
///  5. a comparison-heavy job isolates the CPU comparison rate.
///
/// The fit never reads the simulator's internal constants — only job
/// timings, exactly like measuring real Hadoop runs.
StatusOr<CalibrationReport> CalibrateCostModel(const SimCluster& cluster);

/// Runs one synthetic job described directly by logical volumes (no
/// physical tuples) and returns its standalone timing. Shared by the
/// calibrator and the Fig. 6 / Fig. 7(a) benches.
struct SyntheticJobSpec {
  double input_bytes = 0.0;
  double alpha = 0.0;
  int num_reduce_tasks = 1;
  double output_bytes = 0.0;
  double comparisons = 0.0;
  /// Relative reduce-input imbalance: task i gets
  /// avg · (1 + skew · z_i) with fixed unit-variance offsets z_i.
  double skew = 0.0;
};
StatusOr<SimJobResult> RunSyntheticJob(const SimCluster& cluster,
                                       const SyntheticJobSpec& spec);

}  // namespace mrtheta

#endif  // MRTHETA_COST_CALIBRATION_H_
