// Tests for the in-process multi-threaded runtime (src/runtime): the
// thread pool, the DAG scheduler, and — most importantly — the determinism
// contract of RunJobParallel: for every join operator, pool width, split
// shape and memory budget, output rows (including order) and all
// JobMeasurement metrics must be bit-identical to a one-thread, one-split
// reference run, whose rows are the naive oracle's (NaiveMultiwayJoin).

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/baseline_planners.h"
#include "src/common/rng.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cost/calibration.h"
#include "src/exec/hilbert_join.h"
#include "src/exec/merge_join.h"
#include "src/exec/naive_join.h"
#include "src/exec/pairwise_join.h"
#include "src/mapreduce/job_runner.h"
#include "src/mem/memory_budget.h"
#include "src/mem/spill.h"
#include "src/runtime/dag_scheduler.h"
#include "src/runtime/parallel_job_runner.h"
#include "src/runtime/thread_pool.h"
#include "tests/result_checks.h"

namespace mrtheta {
namespace {

// ---- ThreadPool ----

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    constexpr int64_t kTasks = 2000;
    std::vector<int> hits(kTasks, 0);
    pool.ParallelFor(kTasks, [&](int64_t i) { ++hits[i]; });
    for (int64_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(hits[i], 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, HandlesEmptyAndSingleBatches) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SequentialBatchesReuseWorkers) {
  ThreadPool pool(3);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(17, [&](int64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50 * 17);
}

TEST(ThreadPoolTest, ConcurrentCallersShareThePool) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  auto burst = [&] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(31, [&](int64_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::thread a(burst), b(burst);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 20 * 31);
}

// ---- DagScheduler ----

TEST(DagSchedulerTest, EveryNodeRunsAfterItsDeps) {
  // Diamond with a tail: 0 -> {1, 2} -> 3 -> 4, plus the isolated 5.
  const std::vector<std::vector<int>> deps = {{}, {0}, {0}, {1, 2}, {3}, {}};
  for (int threads : {1, 2, 4}) {
    std::mutex mu;
    std::vector<bool> finished(deps.size(), false);
    const Status status = RunDag(deps, threads, [&](int node) {
      std::lock_guard<std::mutex> lock(mu);
      for (int d : deps[node]) {
        EXPECT_TRUE(finished[d])
            << "node " << node << " ran before dep " << d;
      }
      finished[node] = true;
      return Status::OK();
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (size_t i = 0; i < deps.size(); ++i) EXPECT_TRUE(finished[i]);
  }
}

TEST(DagSchedulerTest, SequentialOrderIsLowestIndexFirst) {
  const std::vector<std::vector<int>> deps = {{}, {}, {0}, {}, {2}};
  std::vector<int> order;
  ASSERT_TRUE(RunDag(deps, 1, [&](int node) {
                order.push_back(node);
                return Status::OK();
              }).ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DagSchedulerTest, ReportsLowestIndexFailureAndStopsScheduling) {
  // 0 and 1 are independent and both fail; 2 depends on 1 and must not run.
  // At one thread 0 runs first, and its failure keeps 1 from starting.
  const std::vector<std::vector<int>> deps = {{}, {}, {1}};
  for (int threads : {1, 2, 4}) {
    std::atomic<bool> ran1{false};
    std::atomic<bool> ran2{false};
    const Status status = RunDag(deps, threads, [&](int node) -> Status {
      if (node == 2) {
        ran2 = true;
        return Status::OK();
      }
      if (node == 1) ran1 = true;
      return Status::Internal("node " + std::to_string(node) + " failed");
    });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "node 0 failed") << "threads=" << threads;
    EXPECT_FALSE(ran2.load());
    if (threads == 1) {
      EXPECT_FALSE(ran1.load());
    }
  }
}

TEST(DagSchedulerTest, OneWorkerRunsOnTheCallingThread) {
  // One thread, or one node at any width: every body runs on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<std::pair<std::vector<std::vector<int>>, int>> runs = {
      {{{}, {0}, {}, {1, 2}}, 1}, {{{}}, 1}, {{{}}, 4}};
  for (const auto& [deps, threads] : runs) {
    std::atomic<int> elsewhere{0};
    ASSERT_TRUE(RunDag(deps, threads, [&](int) {
                  if (std::this_thread::get_id() != caller) ++elsewhere;
                  return Status::OK();
                }).ok());
    EXPECT_EQ(elsewhere.load(), 0)
        << deps.size() << " nodes, threads=" << threads;
  }
}

TEST(DagSchedulerTest, ConcurrentFailuresReportLowestNodeDeterministically) {
  // Regression: four independent nodes all fail *while concurrently
  // in-flight* (a barrier makes sure no node finishes before every node
  // has started, so completion order is genuinely racy). The reported
  // error must be node 0's on every repetition.
  const std::vector<std::vector<int>> deps = {{}, {}, {}, {}};
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> started{0};
    const Status status = RunDag(deps, 4, [&](int node) -> Status {
      started.fetch_add(1);
      while (started.load() < 4) std::this_thread::yield();
      return Status::Internal("node " + std::to_string(node) + " failed");
    });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "node 0 failed") << "rep=" << rep;
  }
}

TEST(DagSchedulerTest, CancelledNodeNeverMasksTheRealFailure) {
  // Node 0 reports kCancelled (it observed a cancellation token), node 1
  // fails for real; a barrier keeps both in flight so both statuses are
  // recorded. Despite node 0's lower index, the real failure must surface
  // — a cancellation is a consequence, not a root cause.
  const std::vector<std::vector<int>> deps = {{}, {}};
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> started{0};
    const Status status = RunDag(deps, 2, [&](int node) -> Status {
      started.fetch_add(1);
      while (started.load() < 2) std::this_thread::yield();
      if (node == 0) return Status::Cancelled("node 0 cancelled");
      return Status::Aborted("node 1 exhausted its retries");
    });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kAborted) << "rep=" << rep;
    EXPECT_EQ(status.message(), "node 1 exhausted its retries");
  }
  // All-cancelled: the lowest-index cancellation surfaces.
  std::atomic<int> started{0};
  const Status all_cancelled = RunDag(deps, 2, [&](int node) -> Status {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    return Status::Cancelled("node " + std::to_string(node) + " cancelled");
  });
  ASSERT_FALSE(all_cancelled.ok());
  EXPECT_EQ(all_cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(all_cancelled.message(), "node 0 cancelled");
}

TEST(DagSchedulerTest, RejectsCyclesAndBadDeps) {
  for (int threads : {1, 2, 4}) {
    std::atomic<int> runs{0};
    auto count = [&](int) {
      ++runs;
      return Status::OK();
    };
    EXPECT_FALSE(RunDag({{1}, {0}}, threads, count).ok());  // 2-cycle
    EXPECT_FALSE(RunDag({{}, {1}}, threads, count).ok());   // self-dep
    EXPECT_FALSE(RunDag({{7}}, threads, count).ok());       // out of range
    EXPECT_EQ(runs.load(), 0) << "threads=" << threads;
    // A cycle behind a root: the root runs, then the cycle is reported.
    const Status cycle = RunDag({{}, {2}, {1}}, threads, count);
    EXPECT_EQ(cycle.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(cycle.message(), "dag contains a dependency cycle");
    EXPECT_EQ(runs.load(), 1) << "threads=" << threads;
    EXPECT_TRUE(RunDag({}, threads, count).ok());  // empty dag
  }
}

// ---- RunJobParallel differential suite ----

RelationPtr MakeRel(const char* name, int64_t rows, int64_t key_range,
                    uint64_t seed, int64_t logical_rows = 0) {
  auto rel = std::make_shared<Relation>(
      name, Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    rel->AppendIntRow({static_cast<int64_t>(rng.Uniform(key_range)),
                       static_cast<int64_t>(rng.Uniform(10))});
  }
  if (logical_rows > 0) rel->set_logical_rows(logical_rows);
  return rel;
}

// Order-sensitive equality: the runtime's contract is identical rows in
// identical order, strictly stronger than the row-set equality the
// operator tests use.
::testing::AssertionResult IdenticalRelations(const Relation& a,
                                              const Relation& b) {
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << a.num_rows() << " vs " << b.num_rows();
  }
  if (a.schema().num_columns() != b.schema().num_columns()) {
    return ::testing::AssertionFailure() << "column count differs";
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.schema().num_columns(); ++c) {
      if (a.Get(r, c).ToString() != b.Get(r, c).ToString()) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << "): "
               << a.Get(r, c).ToString() << " vs " << b.Get(r, c).ToString();
      }
    }
  }
  if (a.logical_rows() != b.logical_rows()) {
    return ::testing::AssertionFailure()
           << "logical rows " << a.logical_rows() << " vs "
           << b.logical_rows();
  }
  return ::testing::AssertionSuccess();
}

// Exact equality on every JobMeasurement field; doubles must match to the
// bit (same values accumulated in the same order).
::testing::AssertionResult IdenticalMetrics(const JobMeasurement& a,
                                            const JobMeasurement& b) {
  if (a.input_bytes_logical != b.input_bytes_logical ||
      a.input_bytes_physical != b.input_bytes_physical) {
    return ::testing::AssertionFailure() << "input bytes differ";
  }
  if (a.map_output_bytes_logical != b.map_output_bytes_logical) {
    return ::testing::AssertionFailure()
           << "map output bytes " << a.map_output_bytes_logical << " vs "
           << b.map_output_bytes_logical;
  }
  if (a.map_output_records_physical != b.map_output_records_physical) {
    return ::testing::AssertionFailure() << "map output records differ";
  }
  if (a.reduce_input_bytes_logical != b.reduce_input_bytes_logical) {
    return ::testing::AssertionFailure() << "reduce input bytes differ";
  }
  if (a.reduce_comparisons_logical != b.reduce_comparisons_logical) {
    return ::testing::AssertionFailure() << "reduce comparisons differ";
  }
  if (a.output_rows_physical != b.output_rows_physical ||
      a.output_rows_logical != b.output_rows_logical ||
      a.output_bytes_logical != b.output_bytes_logical) {
    return ::testing::AssertionFailure() << "output accounting differs";
  }
  return ::testing::AssertionSuccess();
}

// Runs `spec` on one thread, one map split per input, without a budget or
// faults: the reference every other run of it must reproduce.
StatusOr<PhysicalJobResult> RunReference(const MapReduceJobSpec& spec) {
  ThreadPool pool(1);
  ParallelRunnerOptions options;
  options.min_split_rows = std::numeric_limits<int64_t>::max();
  return RunJobParallel(spec, pool, options);
}

// Runs `spec` as the reference, whose rows must be the naive oracle's
// `oracle` as a multiset, and then at several pool sizes; every run must
// match the reference exactly. Small splits force multi-split gathers even
// on the tests' tiny inputs. Every spec then re-runs under a 1-byte memory
// budget (maximal spill pressure, docs/MEMORY.md) at {1, 4} threads:
// spilling may only change where records live, never rows or metrics.
void ExpectRunsMatchReference(const MapReduceJobSpec& spec,
                              const Relation& oracle,
                              const std::string& label) {
  const StatusOr<PhysicalJobResult> reference = RunReference(spec);
  ASSERT_TRUE(reference.ok()) << label << ": " << reference.status().ToString();
  const Relation sorted = SortedByRows(*reference->output);
  ASSERT_EQ(sorted.num_rows(), oracle.num_rows()) << label;
  ASSERT_EQ(sorted.schema().num_columns(), oracle.schema().num_columns())
      << label;
  for (int c = 0; c < oracle.schema().num_columns(); ++c) {
    EXPECT_EQ(*sorted.TryColumn<int64_t>(c), *oracle.TryColumn<int64_t>(c))
        << label << " column " << c;
  }
  ParallelRunnerOptions options;
  options.min_split_rows = 16;
  options.splits_per_thread = 3;
  for (int threads : {1, 2, 3, 4, 8}) {
    ThreadPool pool(threads);
    const StatusOr<PhysicalJobResult> parallel =
        RunJobParallel(spec, pool, options);
    ASSERT_TRUE(parallel.ok())
        << label << " threads=" << threads << ": "
        << parallel.status().ToString();
    EXPECT_TRUE(IdenticalRelations(*reference->output, *parallel->output))
        << label << " threads=" << threads;
    EXPECT_TRUE(IdenticalMetrics(reference->metrics, parallel->metrics))
        << label << " threads=" << threads;
  }
  SpillDirectory spill_dir;
  ParallelRunnerOptions budgeted = options;
  budgeted.mem_budget_bytes = 1;
  budgeted.spill_dir = &spill_dir;
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    const StatusOr<PhysicalJobResult> spilled =
        RunJobParallel(spec, pool, budgeted);
    ASSERT_TRUE(spilled.ok())
        << label << " budgeted threads=" << threads << ": "
        << spilled.status().ToString();
    EXPECT_TRUE(IdenticalRelations(*reference->output, *spilled->output))
        << label << " budgeted threads=" << threads;
    EXPECT_TRUE(IdenticalMetrics(reference->metrics, spilled->metrics))
        << label << " budgeted threads=" << threads;
  }
}

TEST(ParallelRunnerDifferentialTest, HilbertMultiwayJoin) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(5000 + seed);
    const int num_rels = 2 + static_cast<int>(rng.Uniform(2));
    std::vector<RelationPtr> bases;
    MultiwayJoinJobSpec spec;
    for (int i = 0; i < num_rels; ++i) {
      bases.push_back(
          MakeRel("r", 40 + rng.Uniform(80), 25, 500 + seed * 17 + i));
      spec.inputs.push_back(JoinSide::ForBase(bases.back(), i));
    }
    spec.base_relations = bases;
    for (int i = 0; i + 1 < num_rels; ++i) {
      spec.conditions.push_back(
          {{i, static_cast<int>(rng.Uniform(2))},
           static_cast<ThetaOp>(rng.Uniform(6)),
           {i + 1, static_cast<int>(rng.Uniform(2))},
           0.0,
           i});
    }
    spec.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(16));
    spec.seed = 900 + seed;
    const auto job = BuildHilbertJoinJob(spec);
    ASSERT_TRUE(job.ok());
    std::vector<int> indices(num_rels);
    std::iota(indices.begin(), indices.end(), 0);
    const auto oracle = NaiveMultiwayJoin(bases, indices, spec.conditions);
    ASSERT_TRUE(oracle.ok());
    ExpectRunsMatchReference(*job, *oracle,
                             "hilbert seed=" + std::to_string(seed));
  }
}

TEST(ParallelRunnerDifferentialTest, EquiJoin) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(6000 + seed);
    RelationPtr a = MakeRel("a", 80 + rng.Uniform(120), 25, 600 + seed);
    RelationPtr b = MakeRel("b", 80 + rng.Uniform(120), 25, 700 + seed);
    PairwiseJoinJobSpec spec;
    spec.left = JoinSide::ForBase(a, 0);
    spec.right = JoinSide::ForBase(b, 1);
    spec.base_relations = {a, b};
    spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};
    if (rng.Bernoulli(0.5)) {
      spec.conditions.push_back({{0, 1}, ThetaOp::kLe, {1, 1}, 0.0, 1});
    }
    spec.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(8));
    const auto job = BuildEquiJoinJob(spec);
    ASSERT_TRUE(job.ok());
    const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, spec.conditions);
    ASSERT_TRUE(oracle.ok());
    ExpectRunsMatchReference(*job, *oracle,
                             "equi seed=" + std::to_string(seed));
  }
}

TEST(ParallelRunnerDifferentialTest, OneBucketTheta) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(7000 + seed);
    RelationPtr a = MakeRel("a", 60 + rng.Uniform(100), 25, 800 + seed);
    RelationPtr b = MakeRel("b", 60 + rng.Uniform(100), 25, 900 + seed);
    PairwiseJoinJobSpec spec;
    spec.left = JoinSide::ForBase(a, 0);
    spec.right = JoinSide::ForBase(b, 1);
    spec.base_relations = {a, b};
    spec.conditions = {
        {{0, 0}, static_cast<ThetaOp>(rng.Uniform(6)), {1, 0}, 0.0, 0}};
    spec.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(12));
    spec.seed = 40 + seed;
    const auto job = BuildOneBucketThetaJob(spec);
    ASSERT_TRUE(job.ok());
    const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, spec.conditions);
    ASSERT_TRUE(oracle.ok());
    ExpectRunsMatchReference(*job, *oracle,
                             "1bucket seed=" + std::to_string(seed));
  }
}

TEST(ParallelRunnerDifferentialTest, MergeJoin) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    RelationPtr a = MakeRel("a", 70, 15, 1000 + seed);
    RelationPtr b = MakeRel("b", 70, 15, 1100 + seed);
    RelationPtr c = MakeRel("c", 70, 15, 1200 + seed);
    const std::vector<RelationPtr> bases = {a, b, c};
    auto run_pair = [&](JoinSide l, JoinSide r, JoinCondition cond) {
      PairwiseJoinJobSpec spec;
      spec.left = l;
      spec.right = r;
      spec.base_relations = bases;
      spec.conditions = {cond};
      spec.num_reduce_tasks = 4;
      const auto job = cond.op == ThetaOp::kEq
                           ? BuildEquiJoinJob(spec)
                           : BuildOneBucketThetaJob(spec);
      EXPECT_TRUE(job.ok());
      return RunReference(*job)->output;
    };
    const JoinCondition ab_cond{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0};
    const JoinCondition bc_cond{{1, 1}, ThetaOp::kLe, {2, 1}, 0.0, 1};
    auto ab = run_pair(JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1),
                       ab_cond);
    auto bc = run_pair(JoinSide::ForBase(b, 1), JoinSide::ForBase(c, 2),
                       bc_cond);
    MergeJobSpec merge;
    merge.left = JoinSide::ForIntermediate(ab, {0, 1});
    merge.right = JoinSide::ForIntermediate(bc, {1, 2});
    merge.base_relations = bases;
    merge.num_reduce_tasks = 4;
    const auto job = BuildMergeJob(merge);
    ASSERT_TRUE(job.ok());
    const auto oracle =
        NaiveMultiwayJoin(bases, {0, 1, 2}, {ab_cond, bc_cond});
    ASSERT_TRUE(oracle.ok());
    ExpectRunsMatchReference(*job, *oracle,
                             "merge seed=" + std::to_string(seed));
  }
}

// ---- Bounded-memory spill differential (docs/MEMORY.md) ----

// A job big enough that a tight budget *must* spill — every map task ends
// over budget and spills its output as runs partitioned by reduce task —
// so the differential is not vacuously in-memory.
MapReduceJobSpec LargeEquiJoinSpec() {
  RelationPtr a = MakeRel("a", 3000, 40, 2400);
  RelationPtr b = MakeRel("b", 3000, 40, 2401);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};
  spec.num_reduce_tasks = 4;
  const auto job = BuildEquiJoinJob(spec);
  EXPECT_TRUE(job.ok());
  return *job;
}

TEST(SpillDifferentialTest, TightBudgetSpillsAndStaysByteIdentical) {
  const MapReduceJobSpec spec = LargeEquiJoinSpec();
  const auto reference = RunReference(spec);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->spill_bytes, 0);  // unbudgeted: nothing spills
  SpillDirectory spill_dir;
  for (int threads : {1, 4}) {
    for (int64_t budget : {int64_t{0}, int64_t{1}}) {
      ThreadPool pool(threads);
      ParallelRunnerOptions options;
      options.mem_budget_bytes = budget;
      options.spill_dir = budget > 0 ? &spill_dir : nullptr;
      const auto result = RunJobParallel(spec, pool, options);
      const std::string at = "threads=" + std::to_string(threads) +
                             " budget=" + std::to_string(budget);
      ASSERT_TRUE(result.ok()) << at << ": " << result.status().ToString();
      EXPECT_TRUE(IdenticalRelations(*reference->output, *result->output))
          << at;
      EXPECT_TRUE(IdenticalMetrics(reference->metrics, result->metrics))
          << at;
      if (budget > 0) {
        EXPECT_GT(result->spill_bytes, 0) << at;
        EXPECT_GT(result->spill_files, 0) << at;
      } else {
        EXPECT_EQ(result->spill_bytes, 0) << at;
      }
    }
  }
}

TEST(SpillDifferentialTest, DuplicateRecordsWithinARowSurviveSpilling) {
  // A group-count whose map emits three identical records per row, run
  // unbudgeted and under maximal spill pressure: identical rows and
  // metrics, with every duplicate kept while pages spill at row
  // boundaries.
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  for (int64_t i = 0; i < 4000; ++i) rel->AppendIntRow({i % 64, i});
  MapReduceJobSpec spec;
  spec.name = "dup-count";
  spec.inputs.push_back({rel, 1.0, /*record_bytes=*/16});
  spec.num_reduce_tasks = 4;
  spec.output_schema =
      Schema({{"key", ValueType::kInt64}, {"count", ValueType::kInt64}});
  spec.map = [](int tag, const Relation& r, int64_t row, MapEmitter& out) {
    // Three identical emissions per row.
    for (int rep = 0; rep < 3; ++rep) {
      out.Emit(r.GetInt(row, 0), tag, row, row);
    }
  };
  spec.reduce = [](const ReduceContext& ctx, ReduceCollector& out) {
    const int64_t row[] = {ctx.key,
                           static_cast<int64_t>(ctx.records(0).size())};
    out.Emit(row);
  };
  const auto reference = RunReference(spec);
  ASSERT_TRUE(reference.ok());
  // Every emitted record reaches the shuffle.
  EXPECT_EQ(reference->metrics.map_output_records_physical, 12000);
  SpillDirectory spill_dir;
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ParallelRunnerOptions options;
    options.mem_budget_bytes = 1;
    options.spill_dir = &spill_dir;
    const auto result = RunJobParallel(spec, pool, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(IdenticalRelations(*reference->output, *result->output))
        << "threads=" << threads;
    EXPECT_TRUE(IdenticalMetrics(reference->metrics, result->metrics))
        << "threads=" << threads;
  }
}

TEST(SpillDifferentialTest, ByteAccountingMatchesAtNonIntegerScales) {
  // Scales near 1e11 make each record's charge (width * scale) a double
  // whose sums round differently under any other grouping or order of the
  // additions; with logical_rows == num_rows every order gives the same
  // sums. Split shape, thread count and budget must not move a bit.
  RelationPtr a = MakeRel("a", 3000, 40, 2500, 300000000000007);
  RelationPtr b = MakeRel("b", 3000, 40, 2501, 200000000000011);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};
  spec.num_reduce_tasks = 7;
  const auto job = BuildEquiJoinJob(spec);
  ASSERT_TRUE(job.ok());
  const auto reference = RunReference(*job);
  ASSERT_TRUE(reference.ok());
  // The per-record sums. Folding each task's count into one product reads
  // 10000000000000360 map output bytes instead.
  EXPECT_EQ(reference->metrics.map_output_bytes_logical, 9999999999999760);
  EXPECT_EQ(reference->metrics.reduce_input_bytes_logical,
            (std::vector<int64_t>{1480000000000066, 269333333333342,
                                  2030666666666780, 1770000000000097,
                                  1713333333333423, 1318666666666716,
                                  1418000000000059}));
  SpillDirectory spill_dir;
  for (int64_t min_split_rows : {1, 16, 100000}) {
    for (int threads : {1, 4}) {
      for (int64_t budget : {int64_t{0}, int64_t{1}}) {
        ThreadPool pool(threads);
        ParallelRunnerOptions options;
        options.min_split_rows = min_split_rows;
        options.mem_budget_bytes = budget;
        options.spill_dir = budget > 0 ? &spill_dir : nullptr;
        const auto result = RunJobParallel(*job, pool, options);
        const std::string at = "min_split_rows=" +
                               std::to_string(min_split_rows) +
                               " threads=" + std::to_string(threads) +
                               " budget=" + std::to_string(budget);
        ASSERT_TRUE(result.ok()) << at << ": " << result.status().ToString();
        EXPECT_TRUE(IdenticalMetrics(reference->metrics, result->metrics))
            << at;
      }
    }
  }
}

// ---- Executor-level parity ----

class RuntimeExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<SimCluster>(ClusterConfig{});
    const auto calib = CalibrateCostModel(*cluster_);
    ASSERT_TRUE(calib.ok());
    params_ = calib->params;
  }

  Query ChainQuery() {
    Query q;
    std::vector<RelationPtr> rels = {MakeRel("r0", 90, 20, 1300),
                                     MakeRel("r1", 90, 20, 1301),
                                     MakeRel("r2", 90, 20, 1302)};
    for (const RelationPtr& r : rels) q.AddRelation(r);
    EXPECT_TRUE(q.AddCondition(0, "a", ThetaOp::kLe, 1, "a").ok());
    EXPECT_TRUE(q.AddCondition(1, "b", ThetaOp::kEq, 2, "b").ok());
    EXPECT_TRUE(q.AddOutput(2, "a").ok());
    return q;
  }

  std::unique_ptr<SimCluster> cluster_;
  CostModelParams params_;
};

TEST_F(RuntimeExecutorTest, ParallelPlanExecutionMatchesSequential) {
  const Query q = ChainQuery();
  // "ours" gives a single-MRJ plan; hive-style gives a cascade whose
  // merge-free prefix jobs have disjoint deps — the DAG-overlap case.
  Planner planner(cluster_.get(), params_);
  std::vector<StatusOr<QueryPlan>> plans = {planner.Plan(q),
                                            PlanHiveStyle(q, *cluster_)};
  for (const auto& plan : plans) {
    ASSERT_TRUE(plan.ok());
    // The query with and without its outputs: the projections and the rid
    // rows they read.
    for (const Query& shape : {q, q.WithoutOutputs()}) {
      Executor one_thread(cluster_.get());
      const auto ref = one_thread.Execute(shape, *plan);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      for (int threads : {2, 4, 8}) {
        ExecutorOptions options;
        options.num_threads = threads;
        Executor executor(cluster_.get(), options);
        const auto result = executor.Execute(shape, *plan);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // Simulated accounting must be byte-identical: same makespan, same
        // per-job metrics, same outputs in the same order.
        EXPECT_EQ(result->makespan, ref->makespan) << "threads=" << threads;
        EXPECT_GT(result->measured_seconds, 0.0);
        ASSERT_EQ(result->jobs.size(), ref->jobs.size());
        for (size_t j = 0; j < ref->jobs.size(); ++j) {
          EXPECT_TRUE(IdenticalMetrics(ref->jobs[j].metrics,
                                       result->jobs[j].metrics))
              << "job " << j << " threads=" << threads;
          EXPECT_GE(result->jobs[j].wall_seconds, 0.0);
        }
        EXPECT_TRUE(SameRelation(ResultRows(*ref), ResultRows(*result)))
            << "threads=" << threads;
        EXPECT_EQ(result->projected != nullptr, !shape.outputs().empty());
      }
    }
  }
}

TEST_F(RuntimeExecutorTest, BudgetedExecutionMatchesUnbudgeted) {
  // ExecutorOptions::mem_budget_bytes = 1 puts every job of the plan under
  // maximal spill pressure; simulated accounting and rows must not move.
  const Query q = ChainQuery();
  Planner planner(cluster_.get(), params_);
  const auto plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok());
  Executor one_thread(cluster_.get());
  // The query with and without its outputs: the projections and the rid
  // rows they read.
  for (const Query& shape : {q, q.WithoutOutputs()}) {
    const auto ref = one_thread.Execute(shape, *plan);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    // (No spill assertion on the reference: under a $MRTHETA_MEM_BUDGET CI
    // leg even the default-options executor is budgeted and may spill.)
    for (int threads : {1, 4}) {
      ExecutorOptions options;
      options.num_threads = threads;
      options.mem_budget_bytes = 1;
      Executor executor(cluster_.get(), options);
      const auto result = executor.Execute(shape, *plan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->makespan, ref->makespan) << "threads=" << threads;
      ASSERT_EQ(result->jobs.size(), ref->jobs.size());
      for (size_t j = 0; j < ref->jobs.size(); ++j) {
        EXPECT_TRUE(
            IdenticalMetrics(ref->jobs[j].metrics, result->jobs[j].metrics))
            << "job " << j << " threads=" << threads;
      }
      EXPECT_TRUE(SameRelation(ResultRows(*ref), ResultRows(*result)))
          << "threads=" << threads;
      // The ledger saw the run: the process high-water mark is non-zero.
      EXPECT_GT(result->peak_mem_bytes, 0) << "threads=" << threads;
    }
  }
}

// The last job writes the query's projection straight from its reducers'
// rid columns. For a last job of each kind, the projected run's rows must
// be byte-identical, order included, to a naive projection of the rid
// table the same plan yields without the outputs: at 1 and 4 threads,
// unbudgeted and at 256 KiB, with and without the CI fault plan.
TEST_F(RuntimeExecutorTest, ProjectionMatchesNaiveProjectionOfRidRows) {
  // Three relations with a column of each type.
  Query q;
  Rng rng(1310);
  for (const char* name : {"r0", "r1", "r2"}) {
    auto rel = std::make_shared<Relation>(
        name, Schema({{"a", ValueType::kInt64},
                      {"b", ValueType::kInt64},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString}}));
    for (int64_t r = 0; r < 70; ++r) {
      const std::string s(rng.Uniform(30), static_cast<char>('a' + r % 26));
      ASSERT_TRUE(rel->AppendRow({Value(static_cast<int64_t>(rng.Uniform(20))),
                                  Value(static_cast<int64_t>(rng.Uniform(8))),
                                  Value(rng.UniformDouble()), Value(s)})
                      .ok());
    }
    q.AddRelation(rel);
  }
  ASSERT_TRUE(q.AddCondition(0, "a", ThetaOp::kLe, 1, "a").ok());  // θ0
  ASSERT_TRUE(q.AddCondition(1, "b", ThetaOp::kEq, 2, "b").ok());  // θ1
  // Every type, two columns of R0, and R2.s twice.
  for (const auto& [rel, col] :
       std::vector<std::pair<int, const char*>>{{0, "s"}, {2, "d"}, {1, "a"},
                                                {0, "a"}, {2, "s"}, {2, "s"}}) {
    ASSERT_TRUE(q.AddOutput(rel, col).ok());
  }
  const Query ids_query = q.WithoutOutputs();

  auto job = [](PlanJobKind kind, std::vector<PlanInput> inputs,
                std::vector<int> thetas) {
    PlanJob pj;
    pj.kind = kind;
    pj.inputs = std::move(inputs);
    pj.thetas = std::move(thetas);
    pj.num_reduce_tasks = 5;
    return pj;
  };
  const PlanInput r0 = PlanInput::Base(0);
  const PlanInput r1 = PlanInput::Base(1);
  const PlanInput r2 = PlanInput::Base(2);
  std::vector<QueryPlan> plans(4);
  plans[0].jobs = {job(PlanJobKind::kHilbertJoin, {r0, r1, r2}, {0, 1})};
  plans[1].jobs = {job(PlanJobKind::kThetaPair, {r0, r1}, {0}),
                   job(PlanJobKind::kEquiJoin, {PlanInput::Job(0), r2}, {1})};
  const auto hive = PlanHiveStyle(q, *cluster_);  // equi, then 1-Bucket-Theta
  ASSERT_TRUE(hive.ok());
  plans[2] = *hive;
  plans[3].jobs = {job(PlanJobKind::kThetaPair, {r0, r1}, {0}),
                   job(PlanJobKind::kEquiJoin, {r1, r2}, {1}),
                   job(PlanJobKind::kMerge,
                       {PlanInput::Job(0), PlanInput::Job(1)}, {})};
  const std::vector<PlanJobKind> last_kinds = {
      PlanJobKind::kHilbertJoin, PlanJobKind::kEquiJoin,
      PlanJobKind::kThetaPair, PlanJobKind::kMerge};

  const auto ci_faults =
      FaultPlan::Parse("seed=7,map=0.1,reduce=0.1,straggler=0.05,delay_ms=2");
  ASSERT_TRUE(ci_faults.ok());
  for (size_t p = 0; p < plans.size(); ++p) {
    ASSERT_EQ(plans[p].jobs.back().kind, last_kinds[p]) << "plan " << p;
    for (int threads : {1, 4}) {
      for (int64_t budget : {int64_t{0}, int64_t{256} << 10}) {
        for (bool chaos : {false, true}) {
          const std::string at =
              "plan " + std::to_string(p) + " threads=" +
              std::to_string(threads) + " budget=" + std::to_string(budget) +
              (chaos ? " chaos" : "");
          ExecutorOptions options;
          options.num_threads = threads;
          options.mem_budget_bytes = budget;
          options.fault_plan = chaos ? *ci_faults : FaultPlan{};
          const Executor executor(cluster_.get(), options);
          const auto got = executor.Execute(q, plans[p]);
          const auto ids = executor.Execute(ids_query, plans[p]);
          ASSERT_TRUE(got.ok()) << at << ": " << got.status().ToString();
          ASSERT_TRUE(ids.ok()) << at << ": " << ids.status().ToString();
          ASSERT_GT(ids->result_ids->num_rows(), 0) << at;
          // One copy of the rows: the projection is the last job's output.
          EXPECT_EQ(got->result_ids, nullptr) << at;
          EXPECT_EQ(got->projected, got->jobs.back().output) << at;
          EXPECT_TRUE(SameRelation(*got->projected, NaiveProjection(q, *ids)))
              << at;
          EXPECT_EQ(got->result_selectivity, ids->result_selectivity) << at;
          EXPECT_EQ(got->jobs.back().metrics.output_rows_logical,
                    ids->jobs.back().metrics.output_rows_logical)
              << at;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mrtheta
