// Chaos suite for the fault-tolerant runtime (docs/RUNTIME.md "Fault
// tolerance"): deterministic fault injection, task retry with backoff,
// speculative straggler re-execution, and structured failure propagation
// through Executor and ThetaEngine.
//
// The load-bearing property is the chaos differential: under any FaultPlan
// the execution survives, output rows (including order) and every
// simulated metric are byte-identical to the fault-free run — at every
// thread count. Re-execution must be invisible; only wall-clock and the
// FaultReport may differ.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/theta_engine.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cost/calibration.h"
#include "src/exec/pairwise_join.h"
#include "src/mapreduce/job_runner.h"
#include "src/obs/trace.h"
#include "src/runtime/fault_injection.h"
#include "src/runtime/parallel_job_runner.h"
#include "src/runtime/thread_pool.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"
#include "tests/result_checks.h"

namespace mrtheta {
namespace {

// ---- FaultPlan / RetryPolicy / FaultInjector units ----

TEST(FaultPlanTest, ParsesKeyValuePlans) {
  const auto plan =
      FaultPlan::Parse("seed=7,map=0.1,reduce=0.2,straggler=0.05,delay_ms=2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->map_failure_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan->reduce_failure_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan->straggler_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan->straggler_delay_ms, 2.0);
  EXPECT_TRUE(plan->armed);
  EXPECT_TRUE(plan->enabled());

  // An explicitly armed zero-rate plan engages the chaos machinery — the
  // configuration the fault_overhead bench record measures.
  const auto armed = FaultPlan::Parse("seed=1,armed=1");
  ASSERT_TRUE(armed.ok());
  EXPECT_TRUE(armed->enabled());
  EXPECT_DOUBLE_EQ(armed->map_failure_rate, 0.0);

  // Empty = the disabled default.
  const auto empty = FaultPlan::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->enabled());
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  EXPECT_FALSE(FaultPlan::Parse("map").ok());         // no '='
  EXPECT_FALSE(FaultPlan::Parse("map=zebra").ok());   // not a number
  EXPECT_FALSE(FaultPlan::Parse("turbo=1").ok());     // unknown key
  EXPECT_FALSE(FaultPlan::Parse("map=1.5").ok());     // out of [0, 1]
  EXPECT_FALSE(FaultPlan::Parse("delay_ms=-1").ok());
}

TEST(FaultPlanTest, RetryBackoffIsCappedExponential) {
  RetryPolicy retry;
  retry.backoff_base_ms = 1.0;
  retry.backoff_multiplier = 2.0;
  retry.backoff_max_ms = 5.0;
  EXPECT_DOUBLE_EQ(retry.BackoffMs(0), 1.0);
  EXPECT_DOUBLE_EQ(retry.BackoffMs(1), 2.0);
  EXPECT_DOUBLE_EQ(retry.BackoffMs(2), 4.0);
  EXPECT_DOUBLE_EQ(retry.BackoffMs(3), 5.0);   // capped
  EXPECT_DOUBLE_EQ(retry.BackoffMs(30), 5.0);  // no overflow blowup
}

TEST(FaultInjectorTest, DrawsAreDeterministicAndRateRespecting) {
  FaultPlan plan;
  plan.seed = 11;
  plan.map_failure_rate = 0.3;
  const FaultInjector a(plan), b(plan);
  int fires = 0;
  for (int64_t task = 0; task < 2000; ++task) {
    const bool fa = a.ShouldFail(FaultPoint::kMapTask, "job", task, 0);
    EXPECT_EQ(fa, b.ShouldFail(FaultPoint::kMapTask, "job", task, 0));
    fires += fa ? 1 : 0;
  }
  // The empirical rate tracks the configured 30% (hash uniformity).
  EXPECT_GT(fires, 2000 * 0.2);
  EXPECT_LT(fires, 2000 * 0.4);

  FaultPlan never = plan;
  never.map_failure_rate = 0.0;
  FaultPlan always = plan;
  always.map_failure_rate = 1.0;
  EXPECT_FALSE(
      FaultInjector(never).ShouldFail(FaultPoint::kMapTask, "job", 1, 0));
  EXPECT_TRUE(
      FaultInjector(always).ShouldFail(FaultPoint::kMapTask, "job", 1, 0));
}

TEST(FaultInjectorTest, StragglersModelSlowSlotsFirstAttemptOnly) {
  FaultPlan plan;
  plan.seed = 3;
  plan.straggler_rate = 1.0;
  plan.straggler_delay_ms = 7.0;
  const FaultInjector injector(plan);
  EXPECT_DOUBLE_EQ(
      injector.StragglerDelayMs(FaultPoint::kMapStraggler, "j", 0, 0), 7.0);
  // A retry or speculative copy runs on a different slot: never re-delayed
  // (this is also what guarantees speculation terminates).
  EXPECT_DOUBLE_EQ(
      injector.StragglerDelayMs(FaultPoint::kMapStraggler, "j", 0, 1), 0.0);
}

TEST(CancellationTokenTest, ChainsToParent) {
  CancellationToken parent;
  CancellationToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(parent.cancelled());

  CancellationToken lone;
  CancellationToken child2(&lone);
  child2.Cancel();
  EXPECT_TRUE(child2.cancelled());
  EXPECT_FALSE(lone.cancelled());  // cancellation never flows upward
}

// ---- ReduceCollector hardening ----

TEST(ReduceCollectorTest, LatchesTheFirstAppendError) {
  ReduceCollector collector(1);
  const int64_t wide[] = {1, 2};
  collector.Emit(wide);  // arity mismatch
  EXPECT_FALSE(collector.status().ok());
  EXPECT_EQ(collector.rows_emitted(), 0);
  // Latched: later (even well-formed) emits are dropped, the first error
  // survives for the runner to surface.
  const int64_t narrow[] = {1};
  collector.Emit(narrow);
  EXPECT_EQ(collector.rows_emitted(), 0);
  EXPECT_TRUE(collector.TakeColumns()[0].empty());
}

// ---- Restartable-task machinery on a small hand-checkable job ----

RelationPtr MakeRel(const char* name, int64_t rows, int64_t key_range,
                    uint64_t seed) {
  auto rel = std::make_shared<Relation>(
      name, Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    rel->AppendIntRow({static_cast<int64_t>(rng.Uniform(key_range)),
                       static_cast<int64_t>(rng.Uniform(10))});
  }
  return rel;
}

MapReduceJobSpec SmallEquiJoinSpec() {
  static const RelationPtr a = MakeRel("a", 200, 25, 42);
  static const RelationPtr b = MakeRel("b", 200, 25, 43);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};
  spec.num_reduce_tasks = 16;
  const auto job = BuildEquiJoinJob(spec);
  EXPECT_TRUE(job.ok());
  return *job;
}

::testing::AssertionResult IdenticalRelations(const Relation& a,
                                              const Relation& b) {
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << a.num_rows() << " vs " << b.num_rows();
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.schema().num_columns(); ++c) {
      if (a.Get(r, c).ToString() != b.Get(r, c).ToString()) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << "): " << a.Get(r, c).ToString()
               << " vs " << b.Get(r, c).ToString();
      }
    }
  }
  if (a.logical_rows() != b.logical_rows()) {
    return ::testing::AssertionFailure() << "logical rows differ";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult IdenticalMetrics(const JobMeasurement& a,
                                            const JobMeasurement& b) {
  if (a.input_bytes_logical != b.input_bytes_logical ||
      a.input_bytes_physical != b.input_bytes_physical ||
      a.map_output_bytes_logical != b.map_output_bytes_logical ||
      a.map_output_records_physical != b.map_output_records_physical ||
      a.reduce_input_bytes_logical != b.reduce_input_bytes_logical ||
      a.reduce_comparisons_logical != b.reduce_comparisons_logical ||
      a.output_rows_physical != b.output_rows_physical ||
      a.output_rows_logical != b.output_rows_logical ||
      a.output_bytes_logical != b.output_bytes_logical) {
    return ::testing::AssertionFailure() << "JobMeasurement fields differ";
  }
  return ::testing::AssertionSuccess();
}

// Runs `spec` on one thread, one map split per input, without a budget or
// faults: the reference every chaotic run must reproduce.
StatusOr<PhysicalJobResult> RunReference(const MapReduceJobSpec& spec) {
  ThreadPool pool(1);
  ParallelRunnerOptions options;
  options.min_split_rows = std::numeric_limits<int64_t>::max();
  return RunJobParallel(spec, pool, options);
}

ParallelRunnerOptions ChaosOptions(const FaultInjector& injector,
                                   FaultReport* report) {
  ParallelRunnerOptions options;
  options.min_split_rows = 8;  // many restartable map tasks on tiny inputs
  options.injector = &injector;
  options.fault_report = report;
  options.retry.backoff_base_ms = 0.05;
  options.retry.backoff_max_ms = 0.5;
  return options;
}

TEST(RestartableTaskTest, RetriesMakeModerateChaosInvisible) {
  const MapReduceJobSpec spec = SmallEquiJoinSpec();
  const auto reference = RunReference(spec);
  ASSERT_TRUE(reference.ok());
  FaultPlan plan;
  plan.seed = 99;
  plan.map_failure_rate = 0.3;
  plan.reduce_failure_rate = 0.3;
  plan.alloc_failure_rate = 0.1;
  const FaultInjector injector(plan);
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    FaultReport report;
    const auto chaotic =
        RunJobParallel(spec, pool, ChaosOptions(injector, &report));
    ASSERT_TRUE(chaotic.ok()) << chaotic.status().ToString();
    EXPECT_TRUE(IdenticalRelations(*reference->output, *chaotic->output))
        << "threads=" << threads;
    EXPECT_TRUE(IdenticalMetrics(reference->metrics, chaotic->metrics))
        << "threads=" << threads;
    EXPECT_GT(report.injected_faults, 0) << "threads=" << threads;
    EXPECT_GT(report.task_retries, 0) << "threads=" << threads;
  }
}

TEST(RestartableTaskTest, ExhaustedRetriesSurfaceAborted) {
  const MapReduceJobSpec spec = SmallEquiJoinSpec();
  FaultPlan plan;
  plan.seed = 5;
  plan.map_failure_rate = 1.0;  // every attempt of every map task crashes
  const FaultInjector injector(plan);
  ThreadPool pool(4);
  FaultReport report;
  ParallelRunnerOptions options = ChaosOptions(injector, &report);
  options.retry.max_attempts = 3;
  const auto result = RunJobParallel(spec, pool, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted)
      << result.status().ToString();
  // The budget was actually consumed before giving up.
  EXPECT_GE(report.task_retries, 2);
  EXPECT_GE(report.injected_faults, 3);
}

TEST(RestartableTaskTest, AllocFailuresSurfaceResourceExhausted) {
  const MapReduceJobSpec spec = SmallEquiJoinSpec();
  FaultPlan plan;
  plan.seed = 5;
  plan.alloc_failure_rate = 1.0;
  const FaultInjector injector(plan);
  ThreadPool pool(2);
  FaultReport report;
  ParallelRunnerOptions options = ChaosOptions(injector, &report);
  options.retry.max_attempts = 2;
  const auto result = RunJobParallel(spec, pool, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
}

TEST(RestartableTaskTest, HardTimeoutSurfacesDeadlineExceeded) {
  const MapReduceJobSpec spec = SmallEquiJoinSpec();
  FaultPlan plan;
  plan.seed = 5;
  plan.straggler_rate = 1.0;       // every first attempt stalls...
  plan.straggler_delay_ms = 60.0;  // ...well past the attempt deadline
  const FaultInjector injector(plan);
  ThreadPool pool(2);
  FaultReport report;
  ParallelRunnerOptions options = ChaosOptions(injector, &report);
  options.speculation.enabled = false;  // isolate the timeout path
  options.retry.task_timeout_ms = 3.0;
  options.retry.max_attempts = 1;
  const auto result = RunJobParallel(spec, pool, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_GT(report.wasted_task_seconds, 0.0);
}

TEST(RestartableTaskTest, StragglersAreSpeculativelyReExecuted) {
  const MapReduceJobSpec spec = SmallEquiJoinSpec();
  const auto reference = RunReference(spec);
  ASSERT_TRUE(reference.ok());
  FaultPlan plan;
  plan.seed = 21;
  plan.straggler_rate = 0.4;
  plan.straggler_delay_ms = 40.0;  // far past the median-derived deadline
  const FaultInjector injector(plan);
  ThreadPool pool(4);
  FaultReport report;
  ParallelRunnerOptions options = ChaosOptions(injector, &report);
  options.speculation.min_deadline_ms = 1.0;
  const auto result = RunJobParallel(spec, pool, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Speculative copies fired, wasted (abandoned) time was charged, and —
  // the point — the output is still byte-identical.
  EXPECT_GT(report.speculative_launches, 0);
  EXPECT_GT(report.wasted_task_seconds, 0.0);
  EXPECT_TRUE(IdenticalRelations(*reference->output, *result->output));
  EXPECT_TRUE(IdenticalMetrics(reference->metrics, result->metrics));
}

TEST(RestartableTaskTest, ExternalCancellationStopsTheJob) {
  const MapReduceJobSpec spec = SmallEquiJoinSpec();
  FaultPlan plan;
  plan.seed = 8;
  plan.straggler_rate = 1.0;
  plan.straggler_delay_ms = 500.0;  // would take ~seconds without cancel
  const FaultInjector injector(plan);
  ThreadPool pool(2);
  ParallelRunnerOptions options = ChaosOptions(injector, nullptr);
  options.speculation.enabled = false;
  CancellationToken cancel;
  options.cancel = &cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const auto result = RunJobParallel(spec, pool, options);
  canceller.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  // Cancellation interrupts the injected delays: nowhere near the several
  // seconds the stragglers would otherwise sleep.
  EXPECT_LT(elapsed, 5.0);
}

// ---- Chaos differential: real workloads through the Executor ----

class ChaosDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<SimCluster>(ClusterConfig{});
    const auto calib = CalibrateCostModel(*cluster_);
    ASSERT_TRUE(calib.ok());
    planner_ = std::make_unique<Planner>(cluster_.get(), calib->params);
  }

  // Plans `query` once, executes it fault-free, then replays it at
  // {1,2,4,8} threads x {0%,10%,30%} fault rates: rows (order included),
  // per-job metrics, makespan and shuffle volume must match the reference
  // byte-for-byte. The plan also runs on the query without its outputs,
  // whose rid rows the projection reads.
  void CheckChaosInvariance(const Query& query, const std::string& label) {
    const auto plan = planner_->Plan(query);
    ASSERT_TRUE(plan.ok()) << label;
    CheckChaosInvariance(query, *plan, label);
    CheckChaosInvariance(query.WithoutOutputs(), *plan, label + " ids");
  }

  void CheckChaosInvariance(const Query& query, const QueryPlan& plan,
                            const std::string& label) {
    ExecutorOptions ref_options;
    ref_options.fault_plan = FaultPlan{};  // fault-free, env-proof
    const Executor reference(cluster_.get(), ref_options);
    const auto ref = reference.Execute(query, plan);
    ASSERT_TRUE(ref.ok()) << label << ": " << ref.status().ToString();

    for (const double rate : {0.0, 0.1, 0.3}) {
      for (const int threads : {1, 2, 4, 8}) {
        ExecutorOptions options;
        options.num_threads = threads;
        options.fault_plan = FaultPlan{};
        options.fault_plan.seed = 1234;
        options.fault_plan.map_failure_rate = rate;
        options.fault_plan.reduce_failure_rate = rate;
        options.fault_plan.alloc_failure_rate = rate / 3.0;
        options.fault_plan.straggler_rate = rate / 3.0;
        options.fault_plan.straggler_delay_ms = 1.0;
        options.fault_plan.armed = true;  // rate 0.0 still takes the
                                          // chaos path (overhead config)
        options.retry.max_attempts = 12;  // exhaustion must not be why
                                          // this test would ever pass
        options.retry.backoff_base_ms = 0.05;
        options.retry.backoff_max_ms = 0.5;
        const Executor executor(cluster_.get(), options);
        const auto result = executor.Execute(query, plan);
        const std::string at = label + " rate=" + std::to_string(rate) +
                               " threads=" + std::to_string(threads);
        ASSERT_TRUE(result.ok()) << at << ": " << result.status().ToString();
        EXPECT_EQ(result->makespan, ref->makespan) << at;
        EXPECT_EQ(result->sim_shuffle_bytes, ref->sim_shuffle_bytes) << at;
        ASSERT_EQ(result->jobs.size(), ref->jobs.size()) << at;
        for (size_t j = 0; j < ref->jobs.size(); ++j) {
          EXPECT_TRUE(
              IdenticalMetrics(ref->jobs[j].metrics, result->jobs[j].metrics))
              << at << " job " << j;
        }
        EXPECT_TRUE(SameRelation(ResultRows(*ref), ResultRows(*result)))
            << at;
        EXPECT_EQ(result->projected != nullptr, !query.outputs().empty())
            << at;
        if (rate > 0.0) {
          // The run must actually have been chaotic, or this test is
          // vacuous.
          EXPECT_GT(result->fault_report.injected_faults, 0) << at;
        }
      }
    }
  }

  std::unique_ptr<SimCluster> cluster_;
  std::unique_ptr<Planner> planner_;
};

TEST_F(ChaosDifferentialTest, MobileQ1) {
  MobileDataOptions options;
  options.physical_rows = 120;
  options.logical_bytes = 4 * kGiB;
  const auto q = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(q.ok());
  CheckChaosInvariance(*q, "mobile-q1");
}

TEST_F(ChaosDifferentialTest, TpchQ17) {
  TpchOptions options;
  options.scale_factor = 50;
  options.physical_lineitem_rows = 600;
  const TpchData db = GenerateTpch(options);
  const auto q = TpchQueryBuilder(17, db).Build();
  ASSERT_TRUE(q.ok());
  CheckChaosInvariance(*q, "tpch-q17");
}

TEST_F(ChaosDifferentialTest, FlightItinerary) {
  FlightLegOptions options;
  options.physical_rows = 150;
  options.logical_rows = kGiB / 28;
  std::vector<RelationPtr> legs = {GenerateFlightLeg(0, options),
                                   GenerateFlightLeg(1, options),
                                   GenerateFlightLeg(2, options)};
  const auto q =
      ItineraryQueryBuilder(legs, {StayOver{60, 240}, StayOver{120, 360}})
          .Build();
  ASSERT_TRUE(q.ok());
  CheckChaosInvariance(*q, "flights");
}

// ---- Chaos x spill: tiny budgets under fault injection ----

TEST_F(ChaosDifferentialTest, TinyBudgetChaosIsInvisibleAndLeaksNoFiles) {
  // Chaos retries re-materialize spilled shuffle partitions; a 1-byte
  // budget makes every task do so. Rows must stay byte-identical, and —
  // the cleanup satellite — no spill file may outlive any execution,
  // successful or failed. $MRTHETA_SPILL_DIR points every SpillDirectory
  // of this test at a private root we can audit for leaks.
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root =
      fs::temp_directory_path() / "mrtheta-fault-spill-audit";
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  ASSERT_FALSE(ec) << ec.message();
  ASSERT_EQ(setenv("MRTHETA_SPILL_DIR", root.c_str(), 1), 0);

  MobileDataOptions data;
  data.physical_rows = 1000;  // big enough that spilling actually happens
  data.logical_bytes = 4 * kGiB;
  const auto q = MobileQueryBuilder(1, data).Build();
  ASSERT_TRUE(q.ok());
  const auto plan = planner_->Plan(*q);
  ASSERT_TRUE(plan.ok());

  ExecutorOptions ref_options;
  ref_options.fault_plan = FaultPlan{};  // fault-free, env-proof
  const Executor reference(cluster_.get(), ref_options);
  // The query with and without its outputs: the projections and the rid
  // rows they read.
  for (const Query& shape : {*q, q->WithoutOutputs()}) {
    const auto ref = reference.Execute(shape, *plan);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    for (const int threads : {1, 4}) {
      ExecutorOptions options;
      options.num_threads = threads;
      options.mem_budget_bytes = 1;  // maximal spill pressure
      options.fault_plan = FaultPlan{};
      options.fault_plan.seed = 4321;
      options.fault_plan.map_failure_rate = 0.2;
      options.fault_plan.reduce_failure_rate = 0.2;
      options.fault_plan.armed = true;
      options.retry.max_attempts = 12;
      options.retry.backoff_base_ms = 0.05;
      options.retry.backoff_max_ms = 0.5;
      const Executor executor(cluster_.get(), options);
      const auto result = executor.Execute(shape, *plan);
      ASSERT_TRUE(result.ok())
          << "threads=" << threads << ": " << result.status().ToString();
      EXPECT_EQ(result->makespan, ref->makespan) << "threads=" << threads;
      EXPECT_TRUE(SameRelation(ResultRows(*ref), ResultRows(*result)))
          << "threads=" << threads;
      EXPECT_GT(result->fault_report.injected_faults, 0)
          << "threads=" << threads;
      // The run must actually have spilled, or the cleanup check is
      // vacuous.
      EXPECT_GT(result->spill_bytes, 0) << "threads=" << threads;
      EXPECT_TRUE(fs::is_empty(root, ec)) << "threads=" << threads;
    }
  }

  // A *failing* execution (retries exhausted mid-run, spill files open)
  // must clean up on the error path too.
  ExecutorOptions doomed;
  doomed.num_threads = 4;
  doomed.mem_budget_bytes = 1;
  doomed.fault_plan = FaultPlan{};
  doomed.fault_plan.seed = 9;
  doomed.fault_plan.map_failure_rate = 1.0;
  doomed.retry.max_attempts = 2;
  doomed.retry.backoff_base_ms = 0.05;
  doomed.retry.backoff_max_ms = 0.5;
  const Executor failing(cluster_.get(), doomed);
  const auto failed = failing.Execute(*q, *plan);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(fs::is_empty(root, ec));

  ASSERT_EQ(unsetenv("MRTHETA_SPILL_DIR"), 0);
  fs::remove_all(root, ec);
}

// ---- Structured propagation through ThetaEngine ----

Query SmallMobileQuery() {
  MobileDataOptions options;
  options.physical_rows = 100;
  options.logical_bytes = 2 * kGiB;
  const auto q = MobileQueryBuilder(1, options).Build();
  EXPECT_TRUE(q.ok());
  return *q;
}

EngineOptions ChaosEngineOptions() {
  EngineOptions options;
  options.executor.num_threads = 2;
  options.executor.fault_plan = FaultPlan{};  // env-proof baseline
  options.executor.retry.backoff_base_ms = 0.05;
  options.executor.retry.backoff_max_ms = 0.5;
  return options;
}

TEST(EngineFaultTest, ExecuteAndSubmitSurfaceRetryExhaustion) {
  EngineOptions options = ChaosEngineOptions();
  options.executor.fault_plan.seed = 17;
  options.executor.fault_plan.map_failure_rate = 1.0;
  options.executor.retry.max_attempts = 2;
  ThetaEngine engine(options);
  const Query q = SmallMobileQuery();

  // Synchronous: the terminal code travels RunJobParallel -> RunDag ->
  // Executor -> Execute.
  const auto direct = engine.Execute(q);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kAborted)
      << direct.status().ToString();

  // Asynchronous: the same failure resolves the Submit future — no crash,
  // no deadlock, engine still usable afterwards.
  auto future = engine.Submit(q);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const auto submitted = future.get();
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kAborted);

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.failed_executions, 2);
  EXPECT_EQ(metrics.executions, 0);
}

TEST(EngineFaultTest, SessionMetricsAggregateFaultReports) {
  EngineOptions chaotic = ChaosEngineOptions();
  chaotic.executor.fault_plan.seed = 23;
  chaotic.executor.fault_plan.map_failure_rate = 0.2;
  chaotic.executor.fault_plan.reduce_failure_rate = 0.2;
  chaotic.executor.retry.max_attempts = 12;
  ThetaEngine engine(chaotic);
  ThetaEngine clean(ChaosEngineOptions());
  const Query q = SmallMobileQuery();

  const auto chaotic_result = engine.Execute(q);
  ASSERT_TRUE(chaotic_result.ok()) << chaotic_result.status().ToString();
  const auto clean_result = clean.Execute(q);
  ASSERT_TRUE(clean_result.ok());

  // Same rows despite the chaos...
  EXPECT_TRUE(
      IdenticalRelations(clean_result->rows(), chaotic_result->rows()));
  EXPECT_EQ(chaotic_result->makespan(), clean_result->makespan());
  // ...and the session metrics expose what it cost to get them.
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.executions, 1);
  EXPECT_GT(metrics.injected_faults, 0);
  EXPECT_GT(metrics.task_retries, 0);
  EXPECT_EQ(clean.metrics().injected_faults, 0);
}

TEST(EngineFaultTest, CancelInflightResolvesSubmissionsPromptly) {
  EngineOptions options = ChaosEngineOptions();
  // Every first attempt stalls half a second and nothing else intervenes
  // (no speculation, no timeout): without cancellation the plan would run
  // for many seconds.
  options.executor.fault_plan.seed = 31;
  options.executor.fault_plan.straggler_rate = 1.0;
  options.executor.fault_plan.straggler_delay_ms = 500.0;
  options.executor.speculation.enabled = false;
  ThetaEngine engine(options);
  // Warm up calibration/stats so the submission below spends its time
  // executing (where cancellation applies), not planning.
  ASSERT_TRUE(engine.Explain(SmallMobileQuery()).ok());

  auto future = engine.Submit(SmallMobileQuery());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.CancelInflight();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_EQ(engine.metrics().failed_executions, 1);

  // The engine is not poisoned: later submissions run normally.
  EngineOptions clean = ChaosEngineOptions();
  ThetaEngine engine2(clean);
  const auto ok_result = engine2.Execute(SmallMobileQuery());
  EXPECT_TRUE(ok_result.ok());
}

TEST(EngineFaultTest, CancelInflightStopsAFaultFreeOneThreadJobMidway) {
  // docs/API.md: CancelInflight stops an in-flight Submit at its next task
  // boundary. Here on the plainest path: one runtime thread per query (a
  // session pool capped per query, as serving runs it), no fault plan
  // (whatever the environment says) and no engine budget. The submitted
  // run itself triggers the cancel: the test watches its spans, so no
  // timing of another run decides where the cancel lands. The session
  // outlives the engine's threads.
  Tracer tracer;
  TraceSession session(&tracer);
  EngineOptions options;
  options.executor.num_threads = 2;
  options.per_query_threads = 1;
  options.executor.fault_plan = FaultPlan{};
  ThetaEngine engine(options);
  MobileDataOptions data;
  // Large enough that the reduce tasks left after the first take tens of
  // milliseconds (the whole run 130-170 ms in Release on a 4-vCPU VM), so
  // the cancel keeps a wide margin when the test thread is descheduled
  // under load.
  data.physical_rows = 6000;
  data.logical_bytes = 2 * kGiB;
  const auto q = MobileQueryBuilder(1, data).Build();
  ASSERT_TRUE(q.ok());
  // Warm-up: calibration, statistics and the cached plan. The plan is one
  // Hilbert job, so the cancellation has to stop that job's tasks; the
  // cancel waits for the first of them to finish, and lands in the second
  // at the earliest (96 tasks at this size).
  const auto report = engine.Explain(*q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->plan.jobs.size(), 1u);
  ASSERT_EQ(report->plan.jobs[0].kind, PlanJobKind::kHilbertJoin);
  ASSERT_GE(report->plan.jobs[0].num_reduce_tasks, 3);

  // The uncancelled one-thread run, timed for the failure messages.
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(engine.Execute(*q).ok());
  const std::chrono::duration<double> full =
      std::chrono::steady_clock::now() - start;
  SCOPED_TRACE("uncancelled run took " + std::to_string(full.count()) +
               " s");
  // Cancel once the submitted run has finished its first reduce task: the
  // job is under way and has tasks left to stop.
  const size_t before_submit = tracer.num_events();
  auto future = engine.Submit(*q);
  auto first_reduce_task_done = [&] {
    const std::vector<TraceEvent> events = tracer.events();
    return std::any_of(events.begin() + before_submit, events.end(),
                       [](const TraceEvent& e) {
                         return std::string_view(e.name) == "reduce-task";
                       });
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!first_reduce_task_done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no reduce task of the submitted run finished within 60 s";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  engine.CancelInflight();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const auto result = future.get();
  ASSERT_FALSE(result.ok()) << "ran to completion; uncancelled run took "
                            << full.count() << " s";
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  // Stopped by the runner at a task boundary, not before the job began.
  EXPECT_NE(result.status().message().find("cancelled by caller"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace mrtheta
