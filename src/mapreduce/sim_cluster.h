#ifndef MRTHETA_MAPREDUCE_SIM_CLUSTER_H_
#define MRTHETA_MAPREDUCE_SIM_CLUSTER_H_

#include <vector>

#include "src/mapreduce/cluster_config.h"
#include "src/mapreduce/job.h"
#include "src/mapreduce/sim_engine.h"

namespace mrtheta {

/// \brief The simulated cluster: turns the measurements of a physically
/// executed job into simulated task durations per the I/O + network cost
/// model (docs/RUNTIME.md, "Measured vs simulated time"); RunSimulation
/// then clocks them on the cluster's slots.
class SimCluster {
 public:
  explicit SimCluster(ClusterConfig config) : config_(config) {}

  const ClusterConfig& config() const { return config_; }

  /// Translates a measured job into the DES representation, applying the
  /// ground-truth timing model:
  ///   map  : t_M = SI/m · C1_read + α·SI/m · p(α·SI/m)           (Eq. 1)
  ///   copy : bytes_r · C2 + m · h(n) connection overhead          (Eq. 3)
  ///   reduce: bytes_r · C1_merge + comparisons/rate + out · C1_w  (Eq. 5)
  SimJobSpec BuildSimJob(const MapReduceJobSpec& spec,
                         const JobMeasurement& metrics,
                         std::vector<int> deps = {}) const;

  /// Number of map tasks a job with the given logical input needs.
  int NumMapTasks(int64_t input_bytes_logical) const;

 private:
  ClusterConfig config_;
};

}  // namespace mrtheta

#endif  // MRTHETA_MAPREDUCE_SIM_CLUSTER_H_
