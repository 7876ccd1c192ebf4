#include "src/runtime/parallel_job_runner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/mem/memory_budget.h"
#include "src/obs/trace.h"

namespace mrtheta {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One contiguous map split: rows [begin, end) of input `tag`.
struct MapSplit {
  int tag = 0;
  int64_t begin = 0;
  int64_t end = 0;

  // Committed map output of the split's winning attempt, indexed by
  // reduce task (MapEmitter::Finish). Written once by the commit, then
  // frozen: reduce tasks read it concurrently without a lock. It lives
  // until the reduce phase ends, so a retried reduce attempt gathers the
  // same records again.
  MapEmitter emitter;
};

/// Splits every input into contiguous row ranges in (tag, range) order, so
/// concatenating split outputs reproduces the emit order of one walk over
/// every input.
std::vector<MapSplit> PlanMapSplits(const MapReduceJobSpec& spec,
                                    const ThreadPool& pool,
                                    const ParallelRunnerOptions& options) {
  std::vector<MapSplit> splits;
  const int64_t target_splits = std::max<int64_t>(
      1, static_cast<int64_t>(pool.num_threads()) * options.splits_per_thread);
  for (int tag = 0; tag < static_cast<int>(spec.inputs.size()); ++tag) {
    const int64_t rows = spec.inputs[tag].relation->num_rows();
    if (rows == 0) continue;
    const int64_t chunk = std::max(
        options.min_split_rows, (rows + target_splits - 1) / target_splits);
    for (int64_t begin = 0; begin < rows; begin += chunk) {
      MapSplit split;
      split.tag = tag;
      split.begin = begin;
      split.end = std::min(rows, begin + chunk);
      splits.push_back(std::move(split));
    }
  }
  return splits;
}

/// Durations of completed tasks in one phase; the straggler deadline is a
/// multiple of their running median.
class TaskTimeTracker {
 public:
  void Record(double seconds) {
    MutexLock lock(&mu_);
    durations_.push_back(seconds);
  }

  /// Seconds after which a first attempt counts as a straggler; +infinity
  /// while fewer than `min_completed_tasks` durations are recorded (the
  /// median of a few samples is noise, not a baseline).
  double DeadlineSeconds(const SpeculationPolicy& policy) const {
    MutexLock lock(&mu_);
    if (static_cast<int>(durations_.size()) < policy.min_completed_tasks) {
      return std::numeric_limits<double>::infinity();
    }
    std::vector<double> copy = durations_;
    const size_t mid = copy.size() / 2;
    std::nth_element(copy.begin(), copy.begin() + mid, copy.end());
    return std::max(policy.straggler_multiplier * copy[mid],
                    policy.min_deadline_ms * 1e-3);
  }

 private:
  mutable Mutex mu_;
  std::vector<double> durations_ MRTHETA_GUARDED_BY(mu_);
};

/// Shared state of one job execution under (possible) faults.
struct FaultContext {
  const FaultInjector* injector = nullptr;  ///< null = fault-free fast path
  RetryPolicy retry;
  SpeculationPolicy speculation;
  const CancellationToken* external_cancel = nullptr;
  /// Set on the first unrecoverable task failure so sibling tasks stop at
  /// their next boundary instead of burning retries on doomed work.
  CancellationToken job_cancel;

  Mutex report_mu;
  /// Guarded during the parallel phases; read unlocked only after the
  /// ParallelFor barrier (publish_report in RunJobParallel).
  FaultReport report MRTHETA_GUARDED_BY(report_mu);

  bool Cancelled() const {
    return (external_cancel != nullptr && external_cancel->cancelled()) ||
           job_cancel.cancelled();
  }

  Status CancelledStatus(const std::string& job) const {
    if (external_cancel != nullptr && external_cancel->cancelled()) {
      return Status::Cancelled("job '" + job + "' cancelled by caller");
    }
    return Status::Cancelled("job '" + job +
                             "' cancelled after a sibling task failure");
  }

  void CountInjected() {
    MutexLock lock(&report_mu);
    ++report.injected_faults;
  }
  void CountRetry(bool is_map) {
    MutexLock lock(&report_mu);
    ++report.task_retries;
    if (is_map) {
      ++report.map_task_retries;
    } else {
      ++report.reduce_task_retries;
    }
  }
  void CountSpeculative(double wasted_seconds) {
    MutexLock lock(&report_mu);
    ++report.speculative_launches;
    report.wasted_task_seconds += wasted_seconds;
  }
  void CountWasted(double wasted_seconds) {
    MutexLock lock(&report_mu);
    report.wasted_task_seconds += wasted_seconds;
  }
};

/// \brief Runs one restartable task (a map split or a reduce partition)
/// under the fault plan.
///
/// Contract: `work` produces into attempt-local buffers only and must be
/// safe to re-run from scratch; `commit` publishes those buffers into the
/// task's committed slot and runs exactly once, after the first fully
/// successful attempt. Failed, timed-out and abandoned attempts publish
/// nothing, which is what makes re-execution invisible in the output and
/// the simulated metrics (docs/RUNTIME.md determinism contract).
///
/// Failure handling: injected allocation faults (kResourceExhausted),
/// injected task crashes (kAborted), hard attempt timeouts
/// (kDeadlineExceeded) and real `work` errors all consume the retry budget
/// and back off exponentially between attempts. Attempts straggling past
/// the tracker's median-derived deadline are abandoned and relaunched as
/// speculative copies, which consume no retry budget — and, by the
/// slow-slot model (delays fire only on attempt 0), are never re-delayed,
/// so speculation always terminates. On retry exhaustion the task cancels
/// its siblings and returns the last failure's code.
Status RunRestartableTask(FaultContext& ctx, const std::string& job,
                          FaultPoint alloc_point, FaultPoint task_point,
                          FaultPoint straggler_point, int64_t task,
                          TaskTimeTracker& tracker,
                          const std::function<Status()>& work,
                          const std::function<void()>& commit) {
  const bool is_map = task_point == FaultPoint::kMapTask;
  const char* span_name = is_map ? "map-task" : "reduce-task";
  if (ctx.injector == nullptr) {
    // Fault-free fast path; cancellation still honored at the boundary.
    if (ctx.Cancelled()) return ctx.CancelledStatus(job);
    TraceSpan span(span_name, "runtime");
    if (span.enabled()) span.Arg("job", job).Arg("task", task);
    Status s = work();
    if (s.ok()) commit();
    return s;
  }
  const FaultInjector& injector = *ctx.injector;
  int attempt = 0;   // hash-stream index: distinct per launch, incl. copies
  int failures = 0;  // retry budget: failed attempts only
  for (;;) {
    if (ctx.Cancelled()) return ctx.CancelledStatus(job);
    // One span per launch; all launches of this task share a flow id, so
    // the trace viewer draws retry/speculation arrows between them.
    TraceSpan span(span_name, "runtime");
    if (span.enabled()) {
      span.Arg("job", job).Arg("task", task)
          .Arg("attempt", static_cast<int64_t>(attempt))
          .Flow(TaskFlowId(job, is_map ? "map" : "reduce", task));
    }
    const Clock::time_point start = Clock::now();
    Status attempt_status;

    if (injector.ShouldFail(alloc_point, job, task, attempt)) {
      ctx.CountInjected();
      attempt_status = Status::ResourceExhausted(
          std::string("injected allocation failure (") +
          FaultPointName(alloc_point) + ") in job '" + job + "', task " +
          std::to_string(task) + ", attempt " + std::to_string(attempt));
    }

    // Injected straggler delay: an interruptible sleep that watches for
    // cancellation, the hard attempt timeout, and the speculation deadline.
    bool abandoned_as_straggler = false;
    if (attempt_status.ok()) {
      const double delay_s =
          injector.StragglerDelayMs(straggler_point, job, task, attempt) *
          1e-3;
      if (delay_s > 0.0) {
        ctx.CountInjected();
        const double timeout_s = ctx.retry.task_timeout_ms * 1e-3;
        while (SecondsSince(start) < delay_s) {
          if (ctx.Cancelled()) {
            ctx.CountWasted(SecondsSince(start));
            return ctx.CancelledStatus(job);
          }
          if (timeout_s > 0.0 && SecondsSince(start) >= timeout_s) {
            attempt_status = Status::DeadlineExceeded(
                std::string("attempt timed out (") +
                FaultPointName(straggler_point) + ") in job '" + job +
                "', task " + std::to_string(task) + ", attempt " +
                std::to_string(attempt) + " after " +
                std::to_string(ctx.retry.task_timeout_ms) + " ms");
            break;
          }
          if (ctx.speculation.enabled &&
              SecondsSince(start) >=
                  tracker.DeadlineSeconds(ctx.speculation)) {
            abandoned_as_straggler = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    }

    if (abandoned_as_straggler) {
      // Healthy but slow: abandon the slow-slot attempt, launch a
      // speculative copy (a fresh attempt, fresh buffers, no retry budget
      // consumed). First-committer-wins is trivial — the abandoned attempt
      // never reaches commit.
      span.Arg("outcome", "straggler-abandoned");
      ctx.CountSpeculative(SecondsSince(start));
      ++attempt;
      continue;
    }

    if (attempt_status.ok()) {
      attempt_status = work();
      if (attempt_status.ok() &&
          injector.ShouldFail(task_point, job, task, attempt)) {
        // The modeled crash happens after the work but before the commit,
        // so the attempt's buffers are discarded like a real lost task's.
        ctx.CountInjected();
        attempt_status = Status::Aborted(
            std::string("injected task failure (") +
            FaultPointName(task_point) + ") in job '" + job + "', task " +
            std::to_string(task) + ", attempt " + std::to_string(attempt));
      }
    }

    if (attempt_status.ok()) {
      span.Arg("outcome", "ok");
      tracker.Record(SecondsSince(start));
      commit();
      return Status::OK();
    }

    span.Arg("outcome", "failed");
    ctx.CountWasted(SecondsSince(start));
    ++failures;
    if (failures >= ctx.retry.max_attempts) {
      ctx.job_cancel.Cancel();
      return Status::WithCode(
          attempt_status.code(),
          "task " + std::to_string(task) + " of job '" + job +
              "' failed all " + std::to_string(ctx.retry.max_attempts) +
              " attempts; last: " + attempt_status.ToString());
    }
    ctx.CountRetry(is_map);
    const double backoff_s = ctx.retry.BackoffMs(failures - 1) * 1e-3;
    const Clock::time_point backoff_start = Clock::now();
    while (SecondsSince(backoff_start) < backoff_s) {
      if (ctx.Cancelled()) return ctx.CancelledStatus(job);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ++attempt;
  }
}

/// What the runner requires of a job before running it: inputs, map and
/// reduce functions, at least one reduce task, and an all-int64 output
/// schema (reducers emit rid rows through ReduceCollector).
Status ValidateJobSpec(const MapReduceJobSpec& spec) {
  if (spec.inputs.empty()) {
    return Status::InvalidArgument("job '" + spec.name + "' has no inputs");
  }
  if (!spec.map || !spec.reduce) {
    return Status::InvalidArgument("job '" + spec.name +
                                   "' is missing map or reduce function");
  }
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  for (const ColumnDef& col : spec.output_schema.columns()) {
    if (col.type != ValueType::kInt64) {
      return Status::InvalidArgument("job '" + spec.name +
                                     "' output column '" + col.name +
                                     "' is not int64");
    }
  }
  return Status::OK();
}

/// Rewraps a task-internal error with job context, preserving its code so
/// kResourceExhausted survives to the caller (admission control and tests
/// key on the code, not the message).
Status WrapTaskError(const std::string& what, const MapReduceJobSpec& spec,
                     const Status& cause) {
  return Status::WithCode(cause.code(), what + " in job '" + spec.name +
                                            "': " + cause.message());
}

/// Fills `m.map_output_bytes_logical` and `m.reduce_input_bytes_logical`
/// from the committed splits' per-task record counts, in split order. Each
/// record adds its input's record_bytes * scale once to its task's total
/// and once to the map total: the same floating-point additions, in the
/// same order per sum, as a walk over every record in emit order, so the
/// sums do not depend on the split shape.
void ReplayShuffleBytes(const MapReduceJobSpec& spec,
                        const std::vector<MapSplit>& splits,
                        JobMeasurement& m) {
  const int n = spec.num_reduce_tasks;
  std::vector<double> task_bytes(n, 0.0);
  double map_out_bytes = 0.0;
  for (const MapSplit& split : splits) {
    const JobInput& input = spec.inputs[split.tag];
    const double scaled_bytes =
        static_cast<double>(input.record_bytes) * input.scale;
    const std::vector<int64_t>& task_records = split.emitter.task_records();
    // One addition per record, never count * scaled_bytes: the sums must
    // round exactly as a per-record walk does.
    int64_t records = 0;
    for (int t = 0; t < n; ++t) {
      for (int64_t k = 0; k < task_records[t]; ++k) {
        task_bytes[t] += scaled_bytes;
      }
      records += task_records[t];
    }
    for (int64_t k = 0; k < records; ++k) map_out_bytes += scaled_bytes;
  }
  m.map_output_bytes_logical = static_cast<int64_t>(map_out_bytes);
  m.reduce_input_bytes_logical.resize(n);
  for (int t = 0; t < n; ++t) {
    m.reduce_input_bytes_logical[t] = static_cast<int64_t>(task_bytes[t]);
  }
}

/// Runs one reduce task: sorts `records` in place by (key, tag, row),
/// groups by key, invokes spec.reduce per group into `out` (the attempt's
/// own collector), and returns the task's charged comparisons — or the
/// first emit error, with its code preserved (kResourceExhausted for
/// allocation failures). Idempotent per attempt: a retried attempt sorts
/// a fresh gather of the same records into a fresh collector.
StatusOr<double> RunReduceTask(const MapReduceJobSpec& spec,
                               std::span<MapOutputRecord> records,
                               ReduceCollector& out) {
  const int num_tags = static_cast<int>(spec.inputs.size());
  std::sort(records.begin(), records.end(),
            [](const MapOutputRecord& a, const MapOutputRecord& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.tag != b.tag) return a.tag < b.tag;
              return a.row < b.row;
            });
  size_t i = 0;
  while (i < records.size()) {
    size_t j = i;
    while (j < records.size() && records[j].key == records[i].key) ++j;
    std::vector<std::vector<const MapOutputRecord*>> by_tag(num_tags);
    for (size_t k = i; k < j; ++k) {
      by_tag[records[k].tag].push_back(&records[k]);
    }
    ReduceContext ctx;
    ctx.key = records[i].key;
    ctx.by_tag = &by_tag;
    ctx.inputs = &spec.inputs;
    spec.reduce(ctx, out);
    if (!out.status().ok()) {
      return WrapTaskError("reduce emit failed", spec, out.status());
    }
    i = j;
  }
  return out.comparisons();
}

/// Copies reduce task `t`'s records from every split, in split order, into
/// one exactly sized vector: emit order restricted to `t`. Within a split,
/// its spilled runs come first, then its resident records — the order in
/// which the split emitted them. Reads nothing destructively.
StatusOr<std::vector<MapOutputRecord>> GatherTask(
    const std::vector<MapSplit>& splits, int t) {
  int64_t total = 0;
  int64_t spilled = 0;
  for (const MapSplit& split : splits) {
    total += split.emitter.task_records()[t];
    spilled += split.emitter.spilled_task_records(t);
  }
  std::vector<MapOutputRecord> records;
  try {
    records.resize(static_cast<size_t>(total));
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("gathering " + std::to_string(total) +
                                     " records for reduce task " +
                                     std::to_string(t) + " failed");
  }
  if (spilled > 0) {
    TraceSpan span("spill-merge", "mem");
    if (span.enabled()) span.Arg("records", spilled);
    MapOutputRecord* out = records.data();
    for (const MapSplit& split : splits) {
      MRTHETA_RETURN_IF_ERROR(split.emitter.ReadSpilledTask(t, out));
      out += split.emitter.task_records()[t];
    }
  }
  MapOutputRecord* out = records.data();
  for (const MapSplit& split : splits) {
    split.emitter.CopyResidentTask(t,
                                   out + split.emitter.spilled_task_records(t));
    out += split.emitter.task_records()[t];
  }
  return records;
}

/// Deterministic job-level error: the lowest-index task's non-cancelled
/// failure. Cancellations are consequences of some other failure, so they
/// only surface when no task reported a real error (i.e. the cancellation
/// came from outside the job).
Status SelectTaskError(const std::vector<Status>& statuses) {
  const Status* first_cancelled = nullptr;
  for (const Status& s : statuses) {
    if (s.ok()) continue;
    if (s.IsCancelled()) {
      if (first_cancelled == nullptr) first_cancelled = &s;
      continue;
    }
    return s;
  }
  return first_cancelled != nullptr ? *first_cancelled : Status::OK();
}

}  // namespace

StatusOr<PhysicalJobResult> RunJobParallel(
    const MapReduceJobSpec& spec, ThreadPool& pool,
    const ParallelRunnerOptions& options) {
  MRTHETA_RETURN_IF_ERROR(ValidateJobSpec(spec));
  if (options.injector != nullptr) {
    MRTHETA_RETURN_IF_ERROR(options.injector->plan().Validate());
    MRTHETA_RETURN_IF_ERROR(options.retry.Validate());
    MRTHETA_RETURN_IF_ERROR(options.speculation.Validate());
  }

  FaultContext ctx;
  ctx.injector = options.injector;
  ctx.retry = options.retry;
  ctx.speculation = options.speculation;
  ctx.external_cancel = options.cancel;
  const bool chaos = options.injector != nullptr;
  const bool budgeted =
      options.spill_dir != nullptr && options.mem_budget_bytes > 0;
  // Called only after a ParallelFor barrier, so the lock is uncontended;
  // taking it anyway keeps the guarded-by discipline uniform.
  auto publish_report = [&]() {
    if (options.fault_report != nullptr) {
      MutexLock lock(&ctx.report_mu);
      options.fault_report->Merge(ctx.report);
    }
  };

  PhysicalJobResult result;
  JobMeasurement& m = result.metrics;

  const int n = spec.num_reduce_tasks;
  const PartitionFn& partition =
      spec.partition ? spec.partition : PartitionFn(HashPartition);

  // ---- Map phase: splits fan out over the pool as restartable tasks ----
  for (const JobInput& input : spec.inputs) {
    m.input_bytes_logical += input.relation->logical_bytes();
    m.input_bytes_physical += input.relation->physical_bytes();
  }
  std::vector<MapSplit> splits = PlanMapSplits(spec, pool, options);
  TaskTimeTracker map_tracker;
  std::vector<Status> map_status(splits.size());
  TraceSpan map_phase("map-phase", "runtime");
  if (map_phase.enabled()) {
    map_phase.Arg("job", spec.name)
        .Arg("splits", static_cast<int64_t>(splits.size()));
  }
  pool.ParallelFor(
      static_cast<int64_t>(splits.size()), [&](int64_t s) {
        MapSplit& split = splits[s];
        const Relation& rel = *spec.inputs[split.tag].relation;
        MapEmitter emitter;  // attempt-local until commit
        auto work = [&]() -> Status {
          // Fresh buffers per attempt; replacing the emitter also removes
          // any spill file a previous failed attempt left behind.
          // Partitioners are pure functions of (key, n), so each map task
          // computes its records' reduce targets itself.
          emitter = MapEmitter();
          emitter.SetPartitioner(partition, n);
          if (spec.combine) emitter.set_combine(spec.combine);
          if (budgeted) {
            emitter.EnableSpill(options.mem_budget_bytes, options.spill_dir);
          }
          emitter.Reserve(static_cast<size_t>(
              static_cast<double>(split.end - split.begin) *
              spec.EmitsPerRow(split.tag)));
          for (int64_t row = split.begin; row < split.end; ++row) {
            // Long map scans honor cancellation without per-row cost.
            if (chaos && ((row - split.begin) & 1023) == 0 &&
                ctx.Cancelled()) {
              return ctx.CancelledStatus(spec.name);
            }
            spec.map(split.tag, rel, row, emitter);
            emitter.EndRow();  // combine + spill boundary
          }
          const Status s = emitter.Finish();  // index by reduce task
          if (!s.ok()) return WrapTaskError("map emit failed", spec, s);
          return Status::OK();
        };
        auto commit = [&]() { split.emitter = std::move(emitter); };
        map_status[s] = RunRestartableTask(
            ctx, spec.name, FaultPoint::kMapAlloc, FaultPoint::kMapTask,
            FaultPoint::kMapStraggler, s, map_tracker, work, commit);
        if (!map_status[s].ok() && !map_status[s].IsCancelled()) {
          ctx.job_cancel.Cancel();
        }
      });
  map_phase.End();
  {
    Status map_error = SelectTaskError(map_status);
    if (!map_error.ok()) {
      publish_report();
      return map_error;
    }
  }
  for (const MapSplit& split : splits) {
    m.map_output_records_physical += split.emitter.size();
    result.spill_bytes += split.emitter.spilled_bytes();
    result.spill_files += split.emitter.spill_files();
  }
  if (ctx.Cancelled()) {  // external cancel between phases
    publish_report();
    return ctx.CancelledStatus(spec.name);
  }

  // ---- Shuffle: byte accounting only ----
  // The map tasks partitioned their own output; what remains between the
  // phases is replaying the simulator's byte sums from the per-split
  // counts, in emit order.
  TraceSpan shuffle_phase("shuffle-merge", "runtime");
  if (shuffle_phase.enabled()) shuffle_phase.Arg("job", spec.name);
  ReplayShuffleBytes(spec, splits, m);
  shuffle_phase.End();

  // ---- Reduce phase: restartable tasks, each with a private output ----
  // Each task gathers its partition from every split, then sorts, groups
  // and reduces it (RunReduceTask). The gather leaves the map output
  // intact, so a retried attempt reduces exactly the records the failed
  // attempt saw.
  m.reduce_comparisons_logical.assign(n, 0.0);
  const int width = spec.output_schema.num_columns();
  std::vector<ReduceCollector> task_outputs(n, ReduceCollector(width));
  TaskTimeTracker reduce_tracker;
  std::vector<Status> reduce_status(n);
  TraceSpan reduce_phase("reduce-phase", "runtime");
  if (reduce_phase.enabled()) {
    reduce_phase.Arg("job", spec.name).Arg("tasks", static_cast<int64_t>(n));
  }
  pool.ParallelFor(n, [&](int64_t t) {
    double comparisons = 0.0;
    ReduceCollector attempt_output(width);  // attempt-local until commit
    auto work = [&]() -> Status {
      attempt_output = ReduceCollector(width);
      StatusOr<std::vector<MapOutputRecord>> records =
          GatherTask(splits, static_cast<int>(t));
      if (!records.ok()) return records.status();
      // Account the gathered vector so concurrent reduce tasks show up in
      // peak-memory tracking (it frees with the attempt).
      ScopedCharge charge(static_cast<int64_t>(records->capacity()) *
                          static_cast<int64_t>(sizeof(MapOutputRecord)));
      StatusOr<double> c = RunReduceTask(spec, *records, attempt_output);
      if (!c.ok()) return c.status();
      comparisons = *c;
      return Status::OK();
    };
    auto commit = [&]() {
      m.reduce_comparisons_logical[t] = comparisons;
      task_outputs[t] = std::move(attempt_output);
    };
    reduce_status[t] = RunRestartableTask(
        ctx, spec.name, FaultPoint::kReduceAlloc, FaultPoint::kReduceTask,
        FaultPoint::kReduceStraggler, t, reduce_tracker, work, commit);
    if (!reduce_status[t].ok() && !reduce_status[t].IsCancelled()) {
      ctx.job_cancel.Cancel();
    }
  });
  reduce_phase.End();
  {
    Status reduce_error = SelectTaskError(reduce_status);
    if (!reduce_error.ok()) {
      publish_report();
      return reduce_error;
    }
  }

  // Task outputs join in task order.
  Status finish = FinishJobOutput(spec, task_outputs, result, pool);
  publish_report();
  if (!finish.ok()) return finish;
  return result;
}

}  // namespace mrtheta
