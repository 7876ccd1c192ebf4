#ifndef MRTHETA_COST_COST_MODEL_H_
#define MRTHETA_COST_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/mapreduce/cluster_config.h"

namespace mrtheta {

/// Piecewise-linear table y(x): linear interpolation between sorted knots,
/// clamped at the ends. Used for the fitted p(·) and q(·) behaviours.
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;
  /// `xs` strictly increasing, same length as `ys` (>= 1 point).
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  double operator()(double x) const;
  bool empty() const { return xs_.empty(); }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

/// \brief Fitted parameters of the paper's cost model (Section 4).
///
/// C1/C2 are the disk and network constants; p is the spill cost (a
/// function of per-map-task output volume); q the connection-serving
/// overhead (a function of the reduce task count). These are *learned from
/// observed job executions* by `CalibrateCostModel` — the cost model never
/// reads the simulator's ground-truth constants directly.
struct CostModelParams {
  double c1_read_sec_per_byte = 0.0;
  double c1_write_sec_per_byte = 0.0;
  double c2_net_sec_per_byte = 0.0;
  double comparisons_per_sec = 1.0;
  PiecewiseLinear p_spill;  ///< sec/byte vs map-output bytes per task
  PiecewiseLinear q_conn;   ///< sec vs reduce task count (per map task)
  /// Fitted fixed per-job overhead (startup/teardown).
  double job_startup_sec = 0.0;
  /// Fitted serial commit cost per reduce output.
  double commit_sec_per_reduce = 0.0;
};

/// Profile of a prospective MRJ, assembled from statistics (planner path)
/// or from measurements (validation path).
struct JobProfile {
  double input_bytes = 0.0;        ///< SI
  double alpha = 0.0;              ///< map output ratio (incl. duplication)
  double output_bytes = 0.0;       ///< β·SI in the paper's terms
  double sigma_reduce_bytes = 0.0; ///< σ of reduce-task input volume
  double comparisons_total = 0.0;  ///< Σ logical comparisons, all reducers
  int num_reduce_tasks = 1;        ///< n (= RN(MRJ))
};

/// Predicted phase breakdown for one MRJ (all in seconds).
struct CostBreakdown {
  double t_map_task = 0.0;   ///< t_M (Eq. 1)
  double jm = 0.0;           ///< map-phase span (Eq. 2)
  double copy_after_maps = 0.0;  ///< non-overlapped shuffle tail (Eq. 3/4/6)
  double t_reduce_task = 0.0;    ///< slowest reduce task (Eq. 5, 3σ rule)
  double jr = 0.0;           ///< reduce-phase span incl. waves
  double total = 0.0;        ///< T (Eq. 6)
  int map_waves = 1;
  int reduce_waves = 1;
};

/// \brief Predicts the execution time of one MRJ on `slots` processing
/// units, following Eq. (1)–(6) with the 3σ biggest-reducer rule.
CostBreakdown PredictJobTime(const CostModelParams& params,
                             const ClusterConfig& cluster,
                             const JobProfile& profile, int slots);

}  // namespace mrtheta

#endif  // MRTHETA_COST_COST_MODEL_H_
