#ifndef MRTHETA_CORE_EXECUTOR_H_
#define MRTHETA_CORE_EXECUTOR_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/core/plan.h"
#include "src/core/query.h"
#include "src/mapreduce/sim_cluster.h"
#include "src/runtime/fault_injection.h"
#include "src/sched/skew_assigner.h"

namespace mrtheta {

/// Everything recorded about one executed plan job.
struct JobExecution {
  std::string name;
  PlanJobKind kind = PlanJobKind::kHilbertJoin;
  int reduce_tasks = 1;
  /// Indices of earlier plan jobs whose outputs this job consumed (empty
  /// when the job read base relations only) — the plan DAG, kept here so
  /// profiles can render it without the QueryPlan in hand.
  std::vector<int> input_jobs;
  /// Reduce-side join kernel the job was built for: "sort-theta" when a
  /// pairwise job has a sort driver or a Hilbert depth has an index, else
  /// "generic" (always for merge jobs). Pairwise reduce groups below
  /// kSortKernelMinPairs candidate pairs still run the generic loop.
  std::string kernel = "generic";
  JobMeasurement metrics;
  SimJobResult timing;
  /// Measured wall-clock seconds this process spent physically executing
  /// the job (map + shuffle + reduce on the runtime's threads) — unrelated
  /// to the *simulated* `timing`, which models the paper's cluster.
  double wall_seconds = 0.0;
  /// Heavy/residual reducer decomposition of a Hilbert join
  /// (docs/SKEW.md): residual curve segments, tasks in heavy-value grids,
  /// and the number of grids. heavy == 0 when skew handling was off or
  /// found nothing to split; all zero for non-Hilbert jobs.
  int skew_residual_tasks = 0;
  int skew_heavy_tasks = 0;
  int skew_heavy_groups = 0;
  /// Fault-tolerance accounting of this job (injected faults, retries,
  /// speculative launches, wasted attempt time). All zero on the fault-free
  /// fast path; observability only — never feeds results or timing.
  FaultReport faults;
  /// Shuffle bytes/files this job spilled to disk under a memory budget
  /// (docs/MEMORY.md). Observability only — simulated metrics are
  /// byte-identical with or without spilling.
  int64_t spill_bytes = 0;
  int64_t spill_files = 0;
  std::shared_ptr<Relation> output;
  std::vector<int> covered_bases;
};

/// Result of executing a whole plan.
struct ExecutionResult {
  std::vector<JobExecution> jobs;
  /// Simulated wall-clock makespan of the full plan (slot competition,
  /// dependencies and merge steps included).
  SimTime makespan = 0;
  /// Measured wall-clock seconds for physically executing the whole plan
  /// (jobs with disjoint deps overlap when ExecutorOptions::num_threads
  /// > 1). Excludes the discrete-event replay and final projection.
  double measured_seconds = 0.0;
  /// Simulated shuffle volume: Σ over plan jobs of the logical bytes
  /// shipped map → reduce. This is the paper's cost objective, and the
  /// quantity column pruning / selection pushdown shrink
  /// (docs/EXECUTOR.md).
  int64_t sim_shuffle_bytes = 0;
  /// The final intermediate (one rid column per covered base).
  std::shared_ptr<Relation> result_ids;
  std::vector<int> covered_bases;
  /// The projection requested by the query (empty schema when the query
  /// declares no outputs).
  std::shared_ptr<Relation> projected;
  /// Logical result rows / Π logical |Ri| (the paper's "Result Sel.").
  double result_selectivity = 0.0;
  /// Plan-wide fault-tolerance accounting: the sum of the per-job
  /// JobExecution::faults reports.
  FaultReport fault_report;
  /// Plan-wide spill totals: the sum of the per-job spill_bytes /
  /// spill_files (docs/MEMORY.md). Zero when no memory budget was set.
  int64_t spill_bytes = 0;
  int64_t spill_files = 0;
  /// MemoryBudget::Global().peak_bytes() sampled when the plan finished —
  /// the process-wide budget high-water mark, including any concurrent
  /// executions (benches ResetPeak() between runs to isolate one query).
  int64_t peak_mem_bytes = 0;
};

/// Knobs controlling how plan jobs are lowered to physical kernels and
/// scheduled onto the in-process runtime.
struct ExecutorOptions {
  /// Threads of the in-process runtime (src/runtime). Every job runs on
  /// RunJobParallel over a pool of this width: at 1 its map and reduce
  /// tasks run inline and plan jobs run in plan order; above 1 the tasks
  /// fan out over the pool and plan jobs with disjoint dependencies
  /// overlap via the DAG scheduler. Results — output rows, row order,
  /// measurements, simulated makespan — are identical at every thread
  /// count (see docs/RUNTIME.md).
  int num_threads = 1;
  /// Skew handling for Hilbert join jobs (docs/SKEW.md). kAuto (default)
  /// splits heavy-hitter regions only for jobs the planner flagged
  /// (PlanJob::skew_handling); kForce runs detection on every Hilbert job;
  /// kOff keeps the paper's pure curve-segment assignment. The join result
  /// (as a multiset of rows) is identical in all modes; per-reducer input
  /// sizes, and hence the simulated makespan, are not.
  SkewHandling skew_handling = SkewHandling::kAuto;
  /// Deterministic chaos plan (docs/RUNTIME.md "Fault tolerance"). The
  /// default picks up $MRTHETA_FAULT_PLAN, so any workload can run under
  /// reproducible chaos with no code changes — the CI chaos job sets
  /// exactly that. When enabled, map and reduce tasks become restartable
  /// units at every thread count; outputs and simulated metrics are
  /// unchanged as long as no task exhausts its retries.
  FaultPlan fault_plan = FaultPlan::FromEnvironment();
  /// Retry + straggler-speculation policies; consulted only under an
  /// enabled fault_plan.
  RetryPolicy retry;
  SpeculationPolicy speculation;
  /// Optional external cancellation (e.g. a ThetaEngine::Submit token).
  /// Checked at job and task boundaries and inside interruptible waits;
  /// a cancelled execution returns kCancelled. Not owned; must outlive
  /// every Execute call made with these options.
  const CancellationToken* cancel_token = nullptr;
  /// When set, the plan-wide fault accounting is merged into this report
  /// on *every* exit path — including failed and cancelled executions,
  /// which still consumed retries and wasted attempt seconds even though
  /// no ExecutionResult is returned. ThetaEngine points this at its
  /// session metrics; without it, a failed run's faults would be invisible
  /// (the under-reporting bug pinned by api_test). Not owned.
  FaultReport* fault_report = nullptr;
  /// Memory budget in bytes (docs/MEMORY.md): once the process-wide
  /// MemoryBudget's in-use bytes exceed it, shuffle state spills to a
  /// per-execution temp directory (removed on success, failure and
  /// cancellation alike). 0 inherits MemoryBudget::Global()'s limit (the
  /// $MRTHETA_MEM_BUDGET environment knob). The budget is a spill
  /// trigger, not a hard cap — outputs and simulated metrics are
  /// byte-identical at any setting.
  int64_t mem_budget_bytes = 0;
};

class ThreadPool;
struct QueryProfile;

/// \brief Executes a QueryPlan: runs every plan job physically (exact
/// answers over physical tuples) on the in-process runtime, then replays
/// the whole job DAG through the discrete-event engine to obtain the
/// simulated makespan under the cluster's kP processing units.
///
/// Kernel selection (see docs/EXECUTOR.md) is each job builder's own:
/// pairwise jobs sort on one driving condition (ChooseSortDriver), Hilbert
/// jobs index each depth on its conditions (DepthIndexPlan), and merge jobs
/// run the nested loop over their rid-hash groups.
class Executor {
 public:
  /// `cluster` must outlive the executor.
  explicit Executor(const SimCluster* cluster, ExecutorOptions options = {})
      : cluster_(cluster), options_(options) {}

  /// Runs the plan with max(1, options().num_threads) threads. Map/reduce
  /// tasks run on the caller-owned `pool` when one is given and it is no
  /// wider than that; the pool may be shared across concurrent executions
  /// (ThetaEngine's session pool). Otherwise — no pool, or a pool wider
  /// than the cap — they run on a private pool of exactly that width, so a
  /// per-call cap also bounds intra-job fan-out. Results are identical at
  /// every thread count (docs/RUNTIME.md determinism contract).
  StatusOr<ExecutionResult> Execute(const Query& query, const QueryPlan& plan,
                                    uint64_t seed = 42,
                                    ThreadPool* pool = nullptr) const;

 private:
  /// Runs the plan with pool.num_threads() as the effective thread count.
  StatusOr<ExecutionResult> RunOn(ThreadPool& pool, const Query& query,
                                  const QueryPlan& plan, uint64_t seed) const;

  const SimCluster* cluster_;
  ExecutorOptions options_;
};

/// \brief Session-level view of an ExecutionResult (the ThetaEngine return
/// type): the raw execution plus convenience accessors for the projected
/// output table.
class QueryResult {
 public:
  QueryResult() = default;
  explicit QueryResult(ExecutionResult execution)
      : execution_(std::move(execution)) {}

  const ExecutionResult& execution() const { return execution_; }
  const std::vector<JobExecution>& jobs() const { return execution_.jobs; }

  /// Physical result tuples (rows of the rid table).
  int64_t num_rows() const {
    return execution_.result_ids ? execution_.result_ids->num_rows() : 0;
  }
  double selectivity() const { return execution_.result_selectivity; }
  SimTime makespan() const { return execution_.makespan; }
  double simulated_seconds() const { return ToSeconds(execution_.makespan); }
  double measured_seconds() const { return execution_.measured_seconds; }
  int64_t sim_shuffle_bytes() const { return execution_.sim_shuffle_bytes; }

  /// True when the query declared output columns (rows() is the projection).
  bool has_projection() const { return execution_.projected != nullptr; }

  /// The result table: the query's projection when outputs were declared,
  /// otherwise the rid intermediate. A default-constructed (never
  /// executed) QueryResult yields an empty zero-column relation.
  const Relation& rows() const {
    static const Relation kEmpty;
    if (has_projection()) return *execution_.projected;
    if (execution_.result_ids != nullptr) return *execution_.result_ids;
    return kEmpty;
  }

  /// Cell accessors into rows().
  Value Get(int64_t row, int col) const { return rows().Get(row, col); }
  int num_columns() const { return rows().schema().num_columns(); }

  /// Per-job execution profile of this result (wall vs simulated time,
  /// rows/bytes at pruned widths, retries/speculation, skew routing,
  /// kernel choice) — the substrate of ThetaEngine::ExplainAnalyze. See
  /// src/obs/profile.h for the rendering API.
  QueryProfile profile() const;

  /// True when the executed plan came out of the engine's plan cache (or a
  /// still-fresh PreparedQuery pin) instead of a fresh Planner::Plan run.
  /// Always false for results of ExecutePlan with a caller-provided plan.
  bool plan_cache_hit() const { return plan_cache_hit_; }
  void set_plan_cache_hit(bool hit) { plan_cache_hit_ = hit; }

 private:
  ExecutionResult execution_;
  bool plan_cache_hit_ = false;
};

}  // namespace mrtheta

#endif  // MRTHETA_CORE_EXECUTOR_H_
