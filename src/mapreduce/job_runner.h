#ifndef MRTHETA_MAPREDUCE_JOB_RUNNER_H_
#define MRTHETA_MAPREDUCE_JOB_RUNNER_H_

#include <memory>
#include <span>
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

/// \brief Executes the Map, shuffle and Reduce phases of `spec` faithfully
/// over the physical tuples, single-threaded and deterministic.
///
/// Semantics follow Hadoop: map over every input record, partition map
/// output by key, sort each reduce task's records by key (ties broken by
/// (tag, row) for stability), invoke reduce once per key group, concatenate
/// reduce outputs in task order.
///
/// This runner never spills: budgeted executions route through the
/// parallel runner (even at one thread), which owns the spill machinery.
StatusOr<PhysicalJobResult> RunJobPhysically(const MapReduceJobSpec& spec);

/// \brief Runs one reduce task: sorts `records` in place by (key, tag,
/// row), groups by key, invokes spec.reduce per group into `out` (the
/// task's own collector), and returns the task's charged comparisons — or
/// the first emit error, with its code preserved (kResourceExhausted for
/// allocation failures).
///
/// Idempotent per attempt: the sort is stable under re-sorting and emits
/// go to the caller's (fresh, task-private) collector, so the
/// fault-tolerant runner can re-execute a failed task against the same
/// records and commit only the successful attempt.
///
/// Shared by the sequential runner and the parallel runner
/// (src/runtime/parallel_job_runner.cc) — one implementation is what keeps
/// their outputs byte-identical (docs/RUNTIME.md determinism contract).
StatusOr<double> RunReduceTask(const MapReduceJobSpec& spec,
                               std::span<MapOutputRecord> records,
                               ReduceCollector& out);

/// How many map output records of input `tag` went to each reduce task,
/// over one contiguous stretch of the emit order: a map split, or the
/// sequential runner's whole input.
struct ShuffleCounts {
  int tag = 0;
  std::span<const int64_t> task_records;
};

/// Fills `m.map_output_bytes_logical` and `m.reduce_input_bytes_logical`
/// from the per-task record counts of `splits`, given in emit order. Each
/// record adds its input's record_bytes * scale once to its task's total
/// and once to the map total: the same floating-point additions, in the
/// same order per sum, as a walk over every record in emit order. Shared
/// by both runners so their byte accounting is bit-identical.
void ReplayShuffleBytes(const MapReduceJobSpec& spec,
                        std::span<const ShuffleCounts> splits,
                        JobMeasurement& m);

/// What both runners require of a job before running it: inputs, map and
/// reduce functions, at least one reduce task, and an all-int64 output
/// schema (reducers emit rid rows through ReduceCollector).
Status ValidateJobSpec(const MapReduceJobSpec& spec);

/// Builds `result.output` from the reduce tasks' collected rows and fills
/// the output fields of `result.metrics`. The tasks' rows are concatenated
/// in task order into exactly sized columns, each task column freed as
/// soon as it is appended, and adopted in one Relation build (one
/// generation).
///
/// Every column is reserved on the calling thread, so the large blocks
/// come from its malloc arena, not a pool worker's (docs/MEMORY.md,
/// "Reducer output path"). One task per column then fills it: on `pool`
/// when given, inline when null. The bytes and their order do not depend
/// on which.
Status FinishJobOutput(const MapReduceJobSpec& spec,
                       std::vector<ReduceCollector>& tasks,
                       PhysicalJobResult& result, ThreadPool* pool);

}  // namespace mrtheta

#endif  // MRTHETA_MAPREDUCE_JOB_RUNNER_H_
