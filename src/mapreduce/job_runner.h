#ifndef MRTHETA_MAPREDUCE_JOB_RUNNER_H_
#define MRTHETA_MAPREDUCE_JOB_RUNNER_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/mapreduce/job.h"

namespace mrtheta {

class ThreadPool;

/// Result of physically executing a job: the exact output relation (with
/// logical cardinality attached) plus the measurements the simulator needs.
/// `spill_bytes`/`spill_files` count shuffle bytes/files spilled to disk
/// under a memory budget — observability only, deliberately *not* part of
/// JobMeasurement: simulated metrics must stay byte-identical with or
/// without spilling (docs/MEMORY.md).
struct PhysicalJobResult {
  std::shared_ptr<Relation> output;
  JobMeasurement metrics;
  int64_t spill_bytes = 0;
  int64_t spill_files = 0;
};

/// Builds `result.output` from the reduce tasks' collected rows and fills
/// the output fields of `result.metrics`. The tasks' rows are concatenated
/// in task order into exactly sized columns, each task column freed as
/// soon as it is appended, and adopted in one Relation build (one
/// generation).
///
/// Every column is reserved on the calling thread, so the large blocks
/// come from its malloc arena, not a pool worker's (docs/MEMORY.md,
/// "Reducer output path"). One task per column then fills it on `pool`.
/// The bytes and their order do not depend on the pool's width.
Status FinishJobOutput(const MapReduceJobSpec& spec,
                       std::vector<ReduceCollector>& tasks,
                       PhysicalJobResult& result, ThreadPool& pool);

}  // namespace mrtheta

#endif  // MRTHETA_MAPREDUCE_JOB_RUNNER_H_
