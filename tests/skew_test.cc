// Skew-aware partitioning (docs/SKEW.md): exact sample counts of heavy keys
// (CountKeys, src/stats/table_stats), the heavy/residual reducer assignment
// (src/sched/skew_assigner), the Hilbert-join skew routing, and the
// differential guarantee that skew handling never changes a join's result
// at any thread count.

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cost/calibration.h"
#include "src/exec/hilbert_join.h"
#include "src/mapreduce/job_runner.h"
#include "src/runtime/parallel_job_runner.h"
#include "src/runtime/thread_pool.h"
#include "src/sched/skew_assigner.h"
#include "src/stats/table_stats.h"
#include "src/workload/mobile.h"
#include "tests/result_checks.h"

namespace mrtheta {
namespace {

// ---- Heavy keys from exact sample counts ----

RelationPtr ZipfColumn(int64_t rows, int64_t domain, double exponent,
                       uint64_t seed) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"k", ValueType::kInt64}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    rel->AppendIntRow({static_cast<int64_t>(
        rng.Zipf(static_cast<uint64_t>(domain), exponent))});
  }
  return rel;
}

std::map<int64_t, double> ExactFrequencies(const Relation& rel, int column) {
  std::map<int64_t, double> freq;
  for (int64_t r = 0; r < rel.num_rows(); ++r) freq[rel.GetInt(r, column)]++;
  for (auto& [k, f] : freq) f /= static_cast<double>(rel.num_rows());
  return freq;
}

// Value frequencies of int64 column 0 in a reservoir sample of `sample_size`
// rows, most frequent first (ties by value), through CountKeys: an int64
// key is the value's bits.
std::vector<std::pair<int64_t, double>> SampleFrequencies(
    const Relation& rel, int64_t sample_size) {
  const std::vector<int64_t> rows =
      ReservoirSampleRows(rel.num_rows(), sample_size, 0x5eed);
  std::vector<uint64_t> keys;
  for (int64_t r : rows) {
    keys.push_back(static_cast<uint64_t>(rel.GetInt(r, 0)));
  }
  std::vector<std::pair<int64_t, double>> freq;
  for (const KeyCount& kc : CountKeys(std::move(keys))) {
    freq.emplace_back(static_cast<int64_t>(kc.key),
                      static_cast<double>(kc.count) /
                          static_cast<double>(rows.size()));
  }
  std::sort(freq.begin(), freq.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  return freq;
}

TEST(HeavyHitterTest, ExactOnFullScan) {
  // Sample covers the whole relation -> frequencies are exact.
  const RelationPtr rel = ZipfColumn(3000, 500, 1.2, 11);
  const auto exact = ExactFrequencies(*rel, 0);
  const auto freq = SampleFrequencies(*rel, rel->num_rows());
  ASSERT_EQ(freq.size(), exact.size());
  for (const auto& [value, f] : freq) {
    EXPECT_NEAR(f, exact.at(value), 1e-12) << "value " << value;
  }
  // The top value really is the most frequent one.
  const auto top = std::max_element(
      exact.begin(), exact.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_EQ(freq[0].first, top->first);
}

TEST(HeavyHitterTest, SampledTracksExactOnZipfColumn) {
  const RelationPtr rel = ZipfColumn(40000, 2000, 1.2, 12);
  const auto exact = ExactFrequencies(*rel, 0);
  const auto freq = SampleFrequencies(*rel, 2000);  // 5% sample
  ASSERT_GE(freq.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const auto it = exact.find(freq[i].first);
    ASSERT_NE(it, exact.end());
    EXPECT_NEAR(freq[i].second, it->second, 0.03)
        << "value " << i << ": " << freq[i].first;
  }
}

TEST(HeavyHitterTest, UniformColumnHasNoHeavyHitters) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"k", ValueType::kInt64}}));
  for (int64_t i = 0; i < 20000; ++i) rel->AppendIntRow({i});
  const auto freq = SampleFrequencies(*rel, 4096);
  ASSERT_FALSE(freq.empty());
  EXPECT_LT(freq[0].second, 0.005);
}

// ---- PlanSkewAssignment ----

SkewCandidate Candidate(uint64_t hash, std::vector<double> axis_bytes,
                        double skew_dim_bytes) {
  SkewCandidate c;
  c.key_hash = hash;
  c.axis_bytes = std::move(axis_bytes);
  c.skew_dim_bytes = skew_dim_bytes;
  return c;
}

TEST(SkewAssignerTest, BalancedInputProducesNoGroups) {
  // Every candidate is at (or below) the mean per-task volume.
  std::vector<SkewCandidate> candidates;
  for (uint64_t v = 0; v < 8; ++v) {
    candidates.push_back(Candidate(v, {100.0, 100.0}, 200.0));
  }
  const SkewAssignment a = PlanSkewAssignment(candidates, 64000.0, 32);
  EXPECT_FALSE(a.enabled());
  EXPECT_EQ(a.residual_tasks, 32);
  EXPECT_EQ(a.heavy_tasks, 0);
}

TEST(SkewAssignerTest, SplitsDominantValueAcrossGrid) {
  // One value holds 20% of a 2-input join's volume: mean task bytes at
  // budget 32 is 1250, so 8000 skew-dim bytes is way past threshold.
  const SkewAssignment a = PlanSkewAssignment(
      {Candidate(7, {4000.0, 4000.0}, 8000.0)}, 40000.0, 32);
  ASSERT_TRUE(a.enabled());
  ASSERT_EQ(a.groups.size(), 1u);
  const HeavyGroup& g = a.groups[0];
  EXPECT_EQ(g.key_hash, 7u);
  EXPECT_GT(g.num_tasks, 1);
  EXPECT_EQ(g.num_tasks, g.shares[0] * g.shares[1]);
  EXPECT_EQ(a.residual_tasks + a.heavy_tasks, 32);
  EXPECT_EQ(g.first_task, a.residual_tasks);
  // The grid brings the group's per-task bytes toward the residual mean.
  EXPECT_LT(g.est_task_bytes, 8000.0 / 2);
}

TEST(SkewAssignerTest, HeavierValuesGetMoreTasks) {
  const SkewAssignment a = PlanSkewAssignment(
      {Candidate(1, {6000.0, 6000.0}, 12000.0),
       Candidate(2, {1500.0, 1500.0}, 3000.0)},
      50000.0, 32);
  ASSERT_EQ(a.groups.size(), 2u);
  EXPECT_EQ(a.groups[0].key_hash, 1u);  // descending skew bytes
  EXPECT_GT(a.groups[0].num_tasks, a.groups[1].num_tasks);
  // Groups are laid out contiguously after the residual segments.
  EXPECT_EQ(a.groups[1].first_task,
            a.groups[0].first_task + a.groups[0].num_tasks);
}

TEST(SkewAssignerTest, RespectsHeavyBudgetCap) {
  std::vector<SkewCandidate> candidates;
  for (uint64_t v = 0; v < 20; ++v) {
    candidates.push_back(Candidate(v, {5000.0, 5000.0}, 10000.0));
  }
  SkewAssignerOptions options;
  options.max_heavy_task_frac = 0.5;
  const SkewAssignment a =
      PlanSkewAssignment(candidates, 100000.0, 24, options);
  EXPECT_LE(a.heavy_tasks, 12);
  EXPECT_GE(a.residual_tasks, 12);
  EXPECT_LE(static_cast<int>(a.groups.size()), 12);
}

TEST(SkewAssignerTest, TinyBudgetDisablesSkewHandling) {
  const SkewAssignment a = PlanSkewAssignment(
      {Candidate(7, {4000.0, 4000.0}, 8000.0)}, 40000.0, 2);
  EXPECT_FALSE(a.enabled());
  EXPECT_EQ(a.residual_tasks, 2);
}

TEST(ReduceBalanceTest, RatioOfMaxToMean) {
  const std::vector<int64_t> bytes = {100, 100, 100, 500};
  const ReduceBalance b = ComputeReduceBalance(bytes);
  EXPECT_DOUBLE_EQ(b.max_bytes, 500.0);
  EXPECT_DOUBLE_EQ(b.mean_bytes, 200.0);
  EXPECT_DOUBLE_EQ(b.ratio, 2.5);
  EXPECT_DOUBLE_EQ(ComputeReduceBalance({}).ratio, 1.0);
}

// ---- Hilbert-join skew routing: differential + balance ----

// A mobile-style "calls at the same station" pair join over Zipf-skewed
// station codes: the fused hash dimension concentrates the top station on
// one slice, which is exactly the overload skew handling must dissolve.
MultiwayJoinJobSpec StationPairSpec(int64_t rows, double station_skew,
                                    int num_reduce_tasks,
                                    SkewHandling skew_handling) {
  MobileDataOptions options;
  options.physical_rows = rows;
  options.station_skew = station_skew;
  MultiwayJoinJobSpec spec;
  spec.name = "station-pair";
  spec.base_relations = {GenerateMobileCallsInstance(options, 0),
                         GenerateMobileCallsInstance(options, 1)};
  spec.inputs = {JoinSide::ForBase(spec.base_relations[0], 0),
                 JoinSide::ForBase(spec.base_relations[1], 1)};
  // t1.bsc = t2.bsc AND t1.bt <= t2.bt   (schema: id, d, bt, l, bsc)
  spec.conditions = {JoinCondition{{0, 4}, ThetaOp::kEq, {1, 4}, 0.0, 0},
                     JoinCondition{{0, 2}, ThetaOp::kLe, {1, 2}, 0.0, 1}};
  spec.num_reduce_tasks = num_reduce_tasks;
  spec.skew_handling = skew_handling;
  return spec;
}

// Output rows as sorted tuples (the reducer decomposition changes row
// order between skew on and off; the multiset must not change).
std::vector<std::vector<int64_t>> SortedRows(const Relation& rel) {
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(static_cast<size_t>(rel.num_rows()));
  for (int64_t r = 0; r < rel.num_rows(); ++r) {
    std::vector<int64_t> row;
    for (int c = 0; c < rel.schema().num_columns(); ++c) {
      row.push_back(rel.GetInt(r, c));
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Runs `spec` on one thread, one map split per input.
StatusOr<PhysicalJobResult> RunJob(const MapReduceJobSpec& spec) {
  ThreadPool pool(1);
  ParallelRunnerOptions options;
  options.min_split_rows = std::numeric_limits<int64_t>::max();
  return RunJobParallel(spec, pool, options);
}

TEST(HilbertSkewTest, SkewRoutingPreservesResultsAndRebalances) {
  HilbertJoinPlanInfo info_off, info_on;
  const auto spec_off =
      BuildHilbertJoinJob(StationPairSpec(4000, 1.2, 32, SkewHandling::kOff),
                          &info_off);
  const auto spec_on =
      BuildHilbertJoinJob(StationPairSpec(4000, 1.2, 32, SkewHandling::kForce),
                          &info_on);
  ASSERT_TRUE(spec_off.ok()) << spec_off.status().ToString();
  ASSERT_TRUE(spec_on.ok()) << spec_on.status().ToString();
  EXPECT_FALSE(info_off.skew.enabled());
  ASSERT_TRUE(info_on.skew.enabled());
  EXPECT_GE(info_on.skew_dim, 0);
  EXPECT_EQ(info_on.skew.residual_tasks + info_on.skew.heavy_tasks,
            spec_on->num_reduce_tasks);

  const auto off = RunJob(*spec_off);
  const auto on = RunJob(*spec_on);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(SortedRows(*off->output), SortedRows(*on->output));
  EXPECT_GT(on->output->num_rows(), 0);

  const ReduceBalance balance_off =
      ComputeReduceBalance(off->metrics.reduce_input_bytes_logical);
  const ReduceBalance balance_on =
      ComputeReduceBalance(on->metrics.reduce_input_bytes_logical);
  // The heavy station overloads its slice's segment without skew handling;
  // the per-value grids pull the max back toward the mean.
  EXPECT_GT(balance_off.ratio, 2.0);
  EXPECT_LT(balance_on.ratio, balance_off.ratio / 2);

  // The builder's layout constants (cells per segment, the grid-bit cap,
  // the sample, the heavy-key cut and the task-budget split) decide these
  // literals. bench_skew's station-pair job: one fused dimension, 13
  // residual segments and five heavy grids.
  HilbertJoinPlanInfo bench_info;
  ASSERT_TRUE(BuildHilbertJoinJob(
                  StationPairSpec(8000, 1.2, 32, SkewHandling::kForce),
                  &bench_info)
                  .ok());
  EXPECT_EQ(bench_info.grid_order, 10);
  EXPECT_EQ(bench_info.effective_reduce_tasks, 32);
  EXPECT_EQ(bench_info.skew.residual_tasks, 13);
  EXPECT_EQ(bench_info.skew.heavy_tasks, 19);
  std::vector<std::vector<int>> shares;
  for (const HeavyGroup& g : bench_info.skew.groups) {
    shares.push_back(g.shares);
  }
  EXPECT_EQ(shares, (std::vector<std::vector<int>>{
                        {3, 4}, {2, 2}, {1, 1}, {1, 1}, {1, 1}}));

  // The heavy-key cut: in 1,000-row inputs (sampled whole), a key on
  // exactly kHeavyKeyFrequency of each input is a candidate (>=), and at 64
  // tasks its 2% of the volume passes the 1/64 mean, so it gets a grid;
  // the other keys hold 1% each.
  MultiwayJoinJobSpec cut;
  for (int i = 0; i < 2; ++i) {
    auto rel = std::make_shared<Relation>(
        "t", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
    for (int64_t r = 0; r < 1000; ++r) {
      rel->AppendIntRow({r < 20 ? 0 : 1 + (r - 20) / 10, r});
    }
    cut.base_relations.push_back(rel);
    cut.inputs.push_back(JoinSide::ForBase(rel, i));
  }
  cut.conditions = {JoinCondition{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0},
                    JoinCondition{{0, 1}, ThetaOp::kLe, {1, 1}, 0.0, 1}};
  cut.num_reduce_tasks = 64;
  cut.skew_handling = SkewHandling::kForce;
  HilbertJoinPlanInfo cut_info;
  ASSERT_TRUE(BuildHilbertJoinJob(cut, &cut_info).ok());
  ASSERT_EQ(cut_info.skew.groups.size(), 1u);
  EXPECT_EQ(cut_info.skew.groups[0].key_hash, HashValue(Value(int64_t{0})));

  // A plain 3-input band chain (three dimensions): 64 tasks want 4,096
  // cells, order 4; at 8,192 tasks the 18-bit grid cap holds order 6.
  MobileDataOptions chain_options;
  chain_options.physical_rows = 500;
  MultiwayJoinJobSpec chain;
  for (int i = 0; i < 3; ++i) {
    chain.base_relations.push_back(
        GenerateMobileCallsInstance(chain_options, i));
    chain.inputs.push_back(JoinSide::ForBase(chain.base_relations[i], i));
  }
  chain.conditions = {JoinCondition{{0, 2}, ThetaOp::kLe, {1, 2}, 0.0, 0},
                      JoinCondition{{1, 2}, ThetaOp::kLe, {2, 2}, 0.0, 1}};
  for (const auto& [tasks, order] : {std::pair{64, 4}, std::pair{8192, 6}}) {
    chain.num_reduce_tasks = tasks;
    HilbertJoinPlanInfo chain_info;
    ASSERT_TRUE(BuildHilbertJoinJob(chain, &chain_info).ok());
    EXPECT_EQ(chain_info.grouping.num_dims, 3);
    EXPECT_EQ(chain_info.grid_order, order) << "tasks=" << tasks;
  }
}

TEST(HilbertSkewTest, UniformDataIsUntouchedBySkewHandling) {
  // No heavy hitters -> kForce must degenerate to the exact kOff job,
  // byte-identical row order included.
  const auto spec_off =
      BuildHilbertJoinJob(StationPairSpec(2000, 0.0, 16, SkewHandling::kOff));
  const auto spec_on = BuildHilbertJoinJob(
      StationPairSpec(2000, 0.0, 16, SkewHandling::kForce));
  ASSERT_TRUE(spec_off.ok());
  ASSERT_TRUE(spec_on.ok());
  EXPECT_EQ(spec_off->num_reduce_tasks, spec_on->num_reduce_tasks);
  const auto off = RunJob(*spec_off);
  const auto on = RunJob(*spec_on);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  ASSERT_EQ(off->output->num_rows(), on->output->num_rows());
  for (int64_t r = 0; r < off->output->num_rows(); ++r) {
    for (int c = 0; c < off->output->schema().num_columns(); ++c) {
      ASSERT_EQ(off->output->GetInt(r, c), on->output->GetInt(r, c));
    }
  }
}

TEST(HilbertSkewTest, ParallelRunnerMatchesSequentialWithSkewOn) {
  // The determinism contract extends to heavy-grid jobs: identical rows,
  // row order and metrics at every thread count and split shape.
  const auto spec =
      BuildHilbertJoinJob(StationPairSpec(3000, 1.2, 24, SkewHandling::kForce));
  ASSERT_TRUE(spec.ok());
  const auto ref = RunJob(*spec);
  ASSERT_TRUE(ref.ok());
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const auto got = RunJobParallel(*spec, pool);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->output->num_rows(), ref->output->num_rows());
    for (int64_t r = 0; r < ref->output->num_rows(); ++r) {
      for (int c = 0; c < ref->output->schema().num_columns(); ++c) {
        ASSERT_EQ(got->output->GetInt(r, c), ref->output->GetInt(r, c))
            << "threads=" << threads;
      }
    }
    EXPECT_EQ(got->metrics.reduce_input_bytes_logical,
              ref->metrics.reduce_input_bytes_logical);
    EXPECT_EQ(got->metrics.map_output_bytes_logical,
              ref->metrics.map_output_bytes_logical);
  }
}

// ---- Executor-level differential: skew-enabled plans vs disabled ----

class SkewExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<SimCluster>(ClusterConfig{});
    const auto calib = CalibrateCostModel(*cluster_);
    ASSERT_TRUE(calib.ok());
    params_ = calib->params;
  }

  std::unique_ptr<SimCluster> cluster_;
  CostModelParams params_;
};

TEST_F(SkewExecutorTest, SkewedMobilePlanIsFlaggedAndResultInvariant) {
  MobileDataOptions options;
  options.physical_rows = 1200;
  // At this represented scale the planner picks the single Hilbert MRJ
  // over the cascade (the paper's preferred shape for Q1).
  options.logical_bytes = int64_t{2} << 30;
  options.station_skew = 1.2;
  const auto query = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(query.ok());
  Planner planner(cluster_.get(), params_);
  const auto plan = planner.Plan(*query);
  ASSERT_TRUE(plan.ok());
  // The Zipf(1.2) station column must trip the planner's skew flag on at
  // least one Hilbert join of the plan.
  bool flagged = false;
  for (const PlanJob& job : plan->jobs) {
    flagged |= job.kind == PlanJobKind::kHilbertJoin && job.skew_handling;
  }
  EXPECT_TRUE(flagged);

  ExecutorOptions off;
  off.skew_handling = SkewHandling::kOff;
  Executor reference(cluster_.get(), off);
  // The query with and without its outputs: the projections and the rid
  // rows they read.
  for (const Query& shape : {*query, query->WithoutOutputs()}) {
    const auto ref = reference.Execute(shape, *plan);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (int threads : {1, 2, 4}) {
      ExecutorOptions opts;
      opts.skew_handling = SkewHandling::kAuto;
      opts.num_threads = threads;
      Executor executor(cluster_.get(), opts);
      const auto got = executor.Execute(shape, *plan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(SortedRows(ResultRows(*ref)), SortedRows(ResultRows(*got)))
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace mrtheta
