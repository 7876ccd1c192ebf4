#ifndef MRTHETA_MAPREDUCE_SIM_ENGINE_H_
#define MRTHETA_MAPREDUCE_SIM_ENGINE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/mapreduce/cluster_config.h"

namespace mrtheta {

/// One reduce task in the simulation: shuffle volume plus compute time.
struct SimReduceTask {
  int64_t fetch_bytes = 0;    ///< logical bytes copied over the network
  SimTime fetch_overhead = 0; ///< connection-serving overhead (q-driven)
  SimTime compute = 0;        ///< merge + comparisons + output write
};

/// \brief One MapReduce job as the discrete-event engine sees it.
///
/// Map tasks are uniform (the paper's even-input-partition assumption);
/// reduce tasks are individual so key skew shows up in the makespan.
struct SimJobSpec {
  std::string name;
  int num_map_tasks = 1;
  SimTime map_task_duration = 0;
  std::vector<SimReduceTask> reduces;
  /// Fixed startup latency between the job's release and its first map
  /// task becoming runnable (JVM/scheduling overhead).
  SimTime startup = 0;
  /// Serial commit tail after the last reduce task (output promotion).
  SimTime cleanup = 0;
  /// Indices of jobs (within the same RunSimulation call) that must fully
  /// finish before this job's map tasks may start.
  std::vector<int> deps;
};

/// Timing of one simulated job.
struct SimJobResult {
  SimTime release = 0;         ///< when deps were satisfied
  SimTime first_map_done = -1;
  SimTime maps_done = 0;       ///< end of the map phase
  SimTime finish = 0;          ///< last reduce task completion
};

/// Outcome of a whole simulation run.
struct SimReport {
  std::vector<SimJobResult> jobs;
  SimTime makespan = 0;
};

/// \brief Runs the discrete-event simulation of `jobs` over a cluster with
/// `config.num_workers` slots (each runs one Map or Reduce task at a time).
///
/// Modeling choices:
///  - All of a job's map tasks become ready at release; waves emerge from
///    slot contention. Ready tasks are served FIFO by ready time.
///  - Shuffle copying overlaps the map phase (Hadoop copier threads): a
///    reduce task's data is ready at
///      maps_done + max(0, fetch_time − (maps_done − first_map_done)),
///    which reproduces both cases of the paper's Eq. (6).
///  - A reduce task occupies a slot only for its compute part.
StatusOr<SimReport> RunSimulation(const ClusterConfig& config,
                                  const std::vector<SimJobSpec>& jobs);

}  // namespace mrtheta

#endif  // MRTHETA_MAPREDUCE_SIM_ENGINE_H_
