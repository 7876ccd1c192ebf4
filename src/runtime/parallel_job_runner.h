#ifndef MRTHETA_RUNTIME_PARALLEL_JOB_RUNNER_H_
#define MRTHETA_RUNTIME_PARALLEL_JOB_RUNNER_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/mapreduce/job_runner.h"
#include "src/mem/spill.h"
#include "src/runtime/fault_injection.h"
#include "src/runtime/thread_pool.h"

namespace mrtheta {

/// Task-granularity knobs for RunJobParallel. The defaults keep per-task
/// overhead negligible while giving the pool enough splits to balance.
struct ParallelRunnerOptions {
  /// Map splits never go below this many input rows (tiny splits cost more
  /// in scheduling than they recover in balance).
  int64_t min_split_rows = 1024;
  /// Target number of map splits per pool thread per input.
  int splits_per_thread = 4;
  /// Deterministic chaos oracle (docs/RUNTIME.md "Fault tolerance"). Null
  /// keeps the fault-free fast path: no retry wrappers, no attempt-local
  /// buffer moves. Not owned; must outlive the call.
  const FaultInjector* injector = nullptr;
  /// Retry policy for restartable tasks; consulted only with an injector.
  RetryPolicy retry;
  /// Straggler-mitigation policy; consulted only with an injector.
  SpeculationPolicy speculation;
  /// Optional external cancellation (e.g. a ThetaEngine::Submit token),
  /// honored at task boundaries and inside interruptible waits even on the
  /// fault-free path. Not owned; must outlive the call.
  const CancellationToken* cancel = nullptr;
  /// When set, the job's fault-tolerance accounting (injected faults,
  /// retries, speculative launches, wasted attempt time) is merged into it
  /// — on success and on failure. Observability only: no field of the
  /// report feeds back into results or simulated metrics.
  FaultReport* fault_report = nullptr;
  /// Spill threshold (docs/MEMORY.md): once MemoryBudget::Global()'s
  /// in-use bytes exceed this, map emitters spill their output to
  /// `spill_dir` in runs partitioned by reduce task. <= 0 disables
  /// spilling. The budget is a spill trigger, not a hard cap — outputs
  /// and simulated metrics are byte-identical at any setting.
  int64_t mem_budget_bytes = 0;
  /// Per-execution temp directory for spill files; not owned, must
  /// outlive the call. Null disables spilling regardless of the budget.
  SpillDirectory* spill_dir = nullptr;
};

/// \brief The physical runner: executes one MapReduceJobSpec over a
/// ThreadPool, deterministically, at any pool width (a 1-thread pool runs
/// every phase as an inline loop on the caller).
///
/// Semantics follow Hadoop, and the shuffle is the one the paper's cost
/// model prices:
///  - map tasks over contiguous input-row splits, each with a private
///    MapEmitter that partitions its own output by reduce task (and, under
///    a memory budget, spills it in runs partitioned the same way,
///    docs/MEMORY.md);
///  - between the phases, only the simulator's byte accounting, replayed
///    from per-split record counts in emit order;
///  - reduce tasks, each gathering its partition from every split in
///    (input, split) order — emit order restricted to the task, which is
///    (tag, row) order — sorting it stably by key, so into (key, tag, row)
///    order, invoking reduce once per key group, and collecting into a
///    private output; task outputs are concatenated in task order.
///
/// Fault tolerance: with `options.injector` set, map splits and reduce
/// partitions become restartable units — each attempt works into fresh
/// attempt-local buffers that are committed only on success, failed
/// attempts are retried with exponential backoff up to
/// `options.retry.max_attempts`, and attempts straggling past a
/// median-derived deadline are abandoned and speculatively re-executed
/// (docs/RUNTIME.md "Fault tolerance"). A task that exhausts its retry
/// budget cancels its sibling tasks and surfaces the last failure's code
/// (kAborted / kResourceExhausted / kDeadlineExceeded); the job-level
/// error is the lowest-index task's non-cancelled failure, so concurrent
/// failures report deterministically. `options.cancel` is honored at every
/// task boundary, with or without an injector.
///
/// Determinism contract (tested by tests/runtime_test.cc,
/// tests/hilbert_join_test.cc and tests/fault_test.cc): for any spec, the
/// output relation (including row order) and every JobMeasurement field
/// are identical at every pool width, split shape and memory budget, and
/// under every FaultPlan the job survives — commit-on-success makes
/// re-execution invisible. Map and reduce closures must therefore be pure
/// readers of their captured state — true for every builder in src/exec
/// (state structs are immutable after build).
StatusOr<PhysicalJobResult> RunJobParallel(
    const MapReduceJobSpec& spec, ThreadPool& pool,
    const ParallelRunnerOptions& options = {});

}  // namespace mrtheta

#endif  // MRTHETA_RUNTIME_PARALLEL_JOB_RUNNER_H_
