#ifndef MRTHETA_RUNTIME_FAULT_INJECTION_H_
#define MRTHETA_RUNTIME_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace mrtheta {

/// Named fault points of the runtime. Fault decisions are a pure function
/// of (plan seed, fault point, job name, task id, attempt), so a chaos run
/// is reproducible from its FaultPlan alone — on any machine, at any
/// thread count.
enum class FaultPoint {
  kMapTask = 0,        ///< map task crashes after producing its output
  kReduceTask,         ///< reduce task crashes after producing its output
  kMapAlloc,           ///< map task fails to acquire its buffers up front
  kReduceAlloc,        ///< reduce task fails to acquire its buffers up front
  kMapStraggler,       ///< map task is artificially delayed (slow slot)
  kReduceStraggler,    ///< reduce task is artificially delayed (slow slot)
};

const char* FaultPointName(FaultPoint point);

/// \brief Seeded, deterministic chaos configuration (docs/RUNTIME.md
/// "Fault tolerance"). All rates are per (task, attempt) probabilities in
/// [0, 1]. Straggler delays model a slow machine slot, so they are only
/// injected on a task's FIRST attempt — a retry or speculative copy runs
/// "elsewhere" and is never re-delayed.
///
/// A FaultPlan can also be armed process-wide through the environment
/// variable MRTHETA_FAULT_PLAN (comma-separated key=value pairs, e.g.
/// "seed=7,map=0.1,reduce=0.1,straggler=0.05,delay_ms=2"), which becomes
/// the default of ExecutorOptions::fault_plan — any workload, bench or
/// test then runs under reproducible chaos with no code changes (the CI
/// chaos job uses exactly this).
struct FaultPlan {
  uint64_t seed = 0;
  double map_failure_rate = 0.0;      ///< FaultPoint::kMapTask
  double reduce_failure_rate = 0.0;   ///< FaultPoint::kReduceTask
  double alloc_failure_rate = 0.0;    ///< kMapAlloc / kReduceAlloc
  double straggler_rate = 0.0;        ///< kMapStraggler / kReduceStraggler
  double straggler_delay_ms = 20.0;   ///< injected delay per straggler
  /// Forces the fault-tolerant execution path (retry wrappers, injector
  /// consultation) even with all rates at zero — the configuration
  /// bench_runtime's fault_overhead record measures.
  bool armed = false;

  /// True when any fault can fire or the plan is explicitly armed.
  bool enabled() const {
    return armed || map_failure_rate > 0.0 || reduce_failure_rate > 0.0 ||
           alloc_failure_rate > 0.0 || straggler_rate > 0.0;
  }

  Status Validate() const;

  /// Parses "key=value,key=value" (keys: seed, map, reduce, alloc,
  /// straggler, delay_ms, armed). Empty string = disabled default plan.
  static StatusOr<FaultPlan> Parse(const std::string& text);
  /// The process-wide default from $MRTHETA_FAULT_PLAN (parsed once,
  /// cached; aborts on a malformed value — a chaos CI job must never
  /// silently run fault-free). Disabled plan when the variable is unset.
  static const FaultPlan& FromEnvironment();
};

/// Retry policy for restartable tasks (map splits, reduce partitions).
struct RetryPolicy {
  /// Total launches a task may consume on *failures* (injected faults,
  /// allocation failures, real task errors, hard timeouts). Speculative
  /// re-executions of healthy-but-slow tasks do not consume this budget.
  int max_attempts = 6;
  /// Exponential backoff between failed attempts:
  /// min(base * multiplier^k, max). Defaults are tiny — the in-process
  /// runtime restarts tasks in microseconds; the knobs exist so tests and
  /// the future multi-process backend can model real restart latency.
  double backoff_base_ms = 0.25;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 20.0;
  /// Hard per-attempt deadline in milliseconds; 0 disables. An attempt
  /// abandoned here counts as a failure with kDeadlineExceeded.
  double task_timeout_ms = 0.0;

  double BackoffMs(int failures) const;
  Status Validate() const;
};

/// Straggler-mitigation policy: when a running task exceeds
/// `straggler_multiplier` times the running median of completed task
/// durations in its phase (never below `min_deadline_ms`), the runtime
/// abandons the straggling attempt at its next cancellation point and
/// launches a speculative re-execution. Commit rule: a task's buffers are
/// published exactly once, by the first attempt to complete successfully —
/// abandoned and failed attempts never publish partial state, so
/// re-execution cannot change results (docs/RUNTIME.md).
struct SpeculationPolicy {
  bool enabled = true;
  double straggler_multiplier = 4.0;
  double min_deadline_ms = 2.0;
  /// Completed tasks required in the phase before the median is trusted.
  int min_completed_tasks = 3;

  Status Validate() const;
};

/// Per-job (and, summed, per-plan) fault-tolerance accounting. All fields
/// are observability only — none participate in the determinism contract
/// (wall-clock-dependent counters like speculative launches may vary run
/// to run; outputs and simulated metrics never do).
struct FaultReport {
  int64_t injected_faults = 0;       ///< faults the FaultPlan fired
  int64_t task_retries = 0;          ///< failed attempts that were retried
  /// Per-phase split of task_retries (map_task_retries +
  /// reduce_task_retries == task_retries) — the chaos CI job asserts on
  /// these through the session MetricsRegistry.
  int64_t map_task_retries = 0;
  int64_t reduce_task_retries = 0;
  int64_t speculative_launches = 0;  ///< straggler re-executions launched
  double wasted_task_seconds = 0.0;  ///< time in attempts that never committed

  void Merge(const FaultReport& other);
};

/// Cooperative cancellation flag, shared between a coordinator and the
/// tasks it may need to stop. Cancellation is honored at task boundaries
/// and inside interruptible waits (injected delays, retry backoff) — real
/// compute is never preempted mid-kernel.
///
/// Tokens chain: a token constructed with a parent reports cancelled when
/// either it or the parent is cancelled, so a plan-level token can extend
/// an engine-level one (ThetaEngine::Submit) without the leaf code
/// checking two pointers. The parent is not owned and must outlive the
/// child.
class CancellationToken {
 public:
  CancellationToken() = default;
  explicit CancellationToken(const CancellationToken* parent)
      : parent_(parent) {}

  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancelled());
  }

 private:
  std::atomic<bool> cancelled_{false};
  const CancellationToken* parent_ = nullptr;
};

/// \brief Deterministic fault oracle for one execution: answers "does
/// fault point P fire for attempt A of task T of job J?" by hashing
/// (plan seed, P, J, T, A) — no mutable state, so concurrent tasks may
/// consult it freely and the same plan replays the same faults.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }

  /// True when `point` fires for this (job, task, attempt).
  bool ShouldFail(FaultPoint point, const std::string& job, int64_t task,
                  int attempt) const;

  /// Injected delay for this task's attempt; 0 when it does not straggle.
  /// Stragglers model slow slots: only attempt 0 is ever delayed.
  double StragglerDelayMs(FaultPoint point, const std::string& job,
                          int64_t task, int attempt) const;

 private:
  double Draw(FaultPoint point, const std::string& job, int64_t task,
              int attempt) const;

  FaultPlan plan_;
};

}  // namespace mrtheta

#endif  // MRTHETA_RUNTIME_FAULT_INJECTION_H_
