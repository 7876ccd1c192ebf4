// Correctness tests for the distributed join executors: every operator is
// checked against the single-machine nested-loop oracle.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/exec/hilbert_join.h"
#include "src/exec/merge_join.h"
#include "src/exec/naive_join.h"
#include "src/exec/pairwise_join.h"
#include "src/exec/theta_kernels.h"
#include "src/mapreduce/job_runner.h"
#include "src/mem/spill.h"
#include "src/relation/column_view.h"
#include "src/runtime/parallel_job_runner.h"
#include "src/runtime/thread_pool.h"

namespace mrtheta {
namespace {

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

bool SameRows(const Relation& a, const Relation& b) {
  if (a.num_rows() != b.num_rows()) return false;
  if (a.schema().num_columns() != b.schema().num_columns()) return false;
  const Relation sa = SortedByRows(a);
  const Relation sb = SortedByRows(b);
  for (int64_t r = 0; r < sa.num_rows(); ++r) {
    for (int c = 0; c < sa.schema().num_columns(); ++c) {
      if (sa.GetInt(r, c) != sb.GetInt(r, c)) return false;
    }
  }
  return true;
}

// Runs `job` on one thread, one map split per input: the reference run
// that every other pool width, split shape and budget must reproduce.
StatusOr<PhysicalJobResult> RunJob(const MapReduceJobSpec& job) {
  ThreadPool pool(1);
  ParallelRunnerOptions options;
  options.min_split_rows = std::numeric_limits<int64_t>::max();
  return RunJobParallel(job, pool, options);
}

// ---- JoinSide / helpers ----

TEST(JoinSideTest, BaseAndIntermediateResolution) {
  RelationPtr base = MakeRel("b", 10, 100, 1);
  JoinSide side = JoinSide::ForBase(base, 3);
  EXPECT_TRUE(side.Covers(3));
  EXPECT_FALSE(side.Covers(0));
  EXPECT_EQ(side.BaseRow(7, 3), 7);

  auto inter = std::make_shared<Relation>(
      "i", Schema({{"rid_1", ValueType::kInt64},
                   {"rid_3", ValueType::kInt64}}));
  inter->AppendIntRow({5, 9});
  JoinSide is = JoinSide::ForIntermediate(inter, {1, 3});
  EXPECT_EQ(is.BaseRow(0, 1), 5);
  EXPECT_EQ(is.BaseRow(0, 3), 9);
}

TEST(JoinSideTest, ScaleFromLogicalRows) {
  RelationPtr base = MakeRel("b", 100, 100, 2);
  std::const_pointer_cast<Relation>(base)->set_logical_rows(5000);
  JoinSide side = JoinSide::ForBase(base, 0);
  EXPECT_DOUBLE_EQ(side.scale, 50.0);
}

TEST(IntermediateSchemaTest, WidthsAreMaterialized) {
  RelationPtr a = MakeRel("a", 1, 10, 3);
  RelationPtr b = MakeRel("b", 1, 10, 4);
  Schema s = MakeIntermediateSchema({0, 1}, {a, b});
  ASSERT_EQ(s.num_columns(), 2);
  EXPECT_EQ(s.column(0).name, "rid_0");
  EXPECT_EQ(s.column(0).avg_width, a->schema().avg_row_bytes());
}

TEST(EstimateDistinctTest, KeyLikeVsCategorical) {
  auto keys = std::make_shared<Relation>(
      "k", Schema({{"id", ValueType::kInt64}}));
  for (int64_t i = 0; i < 1000; ++i) keys->AppendIntRow({i});
  keys->set_logical_rows(100000);
  const ColumnDistinct kd = EstimateDistinct(*keys, 0);
  EXPECT_NEAR(kd.physical, 1000.0, 1.0);
  EXPECT_NEAR(kd.logical, 100000.0, 1.0);

  RelationPtr cat = MakeRel("c", 1000, 20, 5);
  std::const_pointer_cast<Relation>(cat)->set_logical_rows(100000);
  const ColumnDistinct cd = EstimateDistinct(*cat, 0);
  EXPECT_NEAR(cd.logical, 20.0, 1.0);
}

// Numeric keys hash by their value as a double, so an int64 key and the
// double it equals share a partition. Past 2^53 neighbouring int64 keys
// therefore share one hash: a collision the reducers' condition checks
// resolve. EstimateDistinct still counts int64 values exactly.
TEST(HashValueTest, NumbersHashByTheirDoubleValue) {
  const int64_t base = int64_t{1} << 60;  // doubles are 256 apart here
  EXPECT_EQ(HashValue(Value(base + 1)),
            HashValue(Value(static_cast<double>(base))));
  EXPECT_EQ(HashValue(Value(base)), HashValue(Value(base + 128)));
  EXPECT_NE(HashValue(Value(int64_t{5})), HashValue(Value(int64_t{6})));
  EXPECT_EQ(HashValue(Value(int64_t{5})), HashValue(Value(5.0)));

  auto keys = std::make_shared<Relation>(
      "k", Schema({{"id", ValueType::kInt64}}));
  for (int64_t i = 0; i < 256; ++i) keys->AppendIntRow({base + i});
  EXPECT_EQ(EstimateDistinct(*keys, 0).physical, 256.0);

  // Two hash groups hold all 256 keys; the equi-join still matches each
  // key with itself only.
  PairwiseJoinJobSpec pw;
  pw.left = JoinSide::ForBase(keys, 0);
  pw.right = JoinSide::ForBase(keys, 1);
  pw.base_relations = {keys, keys};
  pw.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};
  pw.num_reduce_tasks = 8;
  const auto equi = BuildEquiJoinJob(pw);
  ASSERT_TRUE(equi.ok());
  const auto result = RunJob(*equi);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output->num_rows(), 256);
}

// ---- Hilbert multi-way join: parameterized oracle checks ----

struct HilbertCase {
  const char* name;
  int num_relations;
  int rows;
  int reduce_tasks;
  std::vector<JoinCondition> conditions;
};

class HilbertJoinOracleTest : public ::testing::TestWithParam<HilbertCase> {};

TEST_P(HilbertJoinOracleTest, MatchesNaiveJoin) {
  const HilbertCase& tc = GetParam();
  std::vector<RelationPtr> bases;
  std::vector<int> indices;
  MultiwayJoinJobSpec spec;
  for (int i = 0; i < tc.num_relations; ++i) {
    bases.push_back(MakeRel("r", tc.rows, 50, 100 + i));
    indices.push_back(i);
    spec.inputs.push_back(JoinSide::ForBase(bases.back(), i));
  }
  spec.base_relations = bases;
  spec.conditions = tc.conditions;
  spec.num_reduce_tasks = tc.reduce_tasks;

  const auto oracle = NaiveMultiwayJoin(bases, indices, tc.conditions);
  ASSERT_TRUE(oracle.ok());

  HilbertJoinPlanInfo info;
  const auto job = BuildHilbertJoinJob(spec, &info);
  ASSERT_TRUE(job.ok());
  const auto result = RunJob(*job);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SameRows(*oracle, *result->output))
      << tc.name << ": hilbert " << result->output->num_rows()
      << " rows vs naive " << oracle->num_rows();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HilbertJoinOracleTest,
    ::testing::Values(
        HilbertCase{"band_lt", 2, 150, 8,
                    {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0}}},
        HilbertCase{"band_le_offset", 2, 150, 8,
                    {{{0, 0}, ThetaOp::kLe, {1, 0}, 5.0, 0}}},
        HilbertCase{"not_equal", 2, 100, 4,
                    {{{0, 1}, ThetaOp::kNe, {1, 1}, 0.0, 0}}},
        HilbertCase{"pure_eq", 2, 200, 8,
                    {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}}},
        HilbertCase{"eq_plus_band", 2, 150, 16,
                    {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0},
                     {{0, 1}, ThetaOp::kGe, {1, 1}, 0.0, 1}}},
        HilbertCase{"chain3_bands", 3, 60, 8,
                    {{{0, 0}, ThetaOp::kLe, {1, 0}, 0.0, 0},
                     {{1, 1}, ThetaOp::kGt, {2, 1}, 0.0, 1}}},
        HilbertCase{"chain3_mixed", 3, 60, 16,
                    {{{0, 0}, ThetaOp::kLe, {1, 0}, 0.0, 0},
                     {{1, 0}, ThetaOp::kEq, {2, 0}, 0.0, 1},
                     {{1, 1}, ThetaOp::kEq, {2, 1}, 0.0, 2}}},
        HilbertCase{"cycle3", 3, 50, 8,
                    {{{0, 0}, ThetaOp::kLe, {1, 0}, 0.0, 0},
                     {{1, 1}, ThetaOp::kGe, {2, 1}, 0.0, 1},
                     {{2, 0}, ThetaOp::kNe, {0, 0}, 0.0, 2}}},
        HilbertCase{"chain4", 4, 30, 8,
                    {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0},
                     {{1, 0}, ThetaOp::kLt, {2, 0}, 0.0, 1},
                     {{2, 1}, ThetaOp::kEq, {3, 1}, 0.0, 2}}},
        HilbertCase{"star_eq", 3, 100, 12,
                    {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0},
                     {{0, 0}, ThetaOp::kEq, {2, 0}, 0.0, 1}}}),
    [](const ::testing::TestParamInfo<HilbertCase>& param_info) {
      return param_info.param.name;
    });

TEST(HilbertJoinTest, SingleReducerStillCorrect) {
  RelationPtr a = MakeRel("a", 80, 20, 11);
  RelationPtr b = MakeRel("b", 80, 20, 12);
  MultiwayJoinJobSpec spec;
  spec.inputs = {JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1)};
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kGe, {1, 0}, 0.0, 0}};
  spec.num_reduce_tasks = 1;
  const auto job = BuildHilbertJoinJob(spec);
  ASSERT_TRUE(job.ok());
  const auto result = RunJob(*job);
  ASSERT_TRUE(result.ok());
  const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, spec.conditions);
  EXPECT_TRUE(SameRows(*oracle, *result->output));
}

TEST(HilbertJoinTest, RejectsUncoveredCondition) {
  RelationPtr a = MakeRel("a", 10, 10, 13);
  RelationPtr b = MakeRel("b", 10, 10, 14);
  MultiwayJoinJobSpec spec;
  spec.inputs = {JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1)};
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kLt, {5, 0}, 0.0, 0}};
  EXPECT_FALSE(BuildHilbertJoinJob(spec).ok());
}

TEST(HilbertJoinTest, DuplicationShrinksWithEqualityFusion) {
  // Same 3 relations, once with a fused equality pair, once all-band:
  // fusion must emit fewer map records (smaller network volume).
  std::vector<RelationPtr> bases;
  for (int i = 0; i < 3; ++i) bases.push_back(MakeRel("r", 120, 40, 20 + i));
  auto run = [&](std::vector<JoinCondition> conds) {
    MultiwayJoinJobSpec spec;
    for (int i = 0; i < 3; ++i) {
      spec.inputs.push_back(JoinSide::ForBase(bases[i], i));
    }
    spec.base_relations = bases;
    spec.conditions = std::move(conds);
    spec.num_reduce_tasks = 32;
    const auto job = BuildHilbertJoinJob(spec);
    EXPECT_TRUE(job.ok());
    return RunJob(*job)->metrics.map_output_records_physical;
  };
  const int64_t with_eq =
      run({{{0, 0}, ThetaOp::kLe, {1, 0}, 0.0, 0},
           {{1, 0}, ThetaOp::kEq, {2, 0}, 0.0, 1}});
  const int64_t all_band =
      run({{{0, 0}, ThetaOp::kLe, {1, 0}, 0.0, 0},
           {{1, 0}, ThetaOp::kLe, {2, 0}, 0.0, 1}});
  EXPECT_LT(with_eq, all_band);
}

TEST(DimensionGroupingTest, BandOnlyKeepsAllDims) {
  const DimensionGrouping g = ComputeDimensionGrouping(
      {{0}, {1}, {2}}, {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0},
                        {{1, 0}, ThetaOp::kLt, {2, 0}, 0.0, 1}});
  EXPECT_EQ(g.num_dims, 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(g.key_of_input[i].relation, -1);
}

TEST(DimensionGroupingTest, EqualityPairFuses) {
  const DimensionGrouping g = ComputeDimensionGrouping(
      {{0}, {1}, {2}}, {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0},
                        {{1, 0}, ThetaOp::kEq, {2, 0}, 0.0, 1}});
  EXPECT_EQ(g.num_dims, 2);
  EXPECT_EQ(g.dim_of_input[1], g.dim_of_input[2]);
  EXPECT_NE(g.dim_of_input[0], g.dim_of_input[1]);
  EXPECT_EQ(g.key_of_input[1].relation, 1);
  EXPECT_EQ(g.key_of_input[2].relation, 2);
}

TEST(DimensionGroupingTest, OffsetEqualityDoesNotFuse) {
  const DimensionGrouping g = ComputeDimensionGrouping(
      {{0}, {1}}, {{{0, 0}, ThetaOp::kEq, {1, 0}, 3.0, 0}});
  EXPECT_EQ(g.num_dims, 2);
}

TEST(DimensionGroupingTest, StarOnSameKeyFusesAll) {
  const DimensionGrouping g = ComputeDimensionGrouping(
      {{0}, {1}, {2}}, {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0},
                        {{1, 0}, ThetaOp::kEq, {2, 0}, 0.0, 1}});
  EXPECT_EQ(g.num_dims, 1);
}

TEST(DimensionGroupingTest, LargestClassWins) {
  // orderkey class {1,2,3} and custkey class {0,1}: input 1 goes to the
  // larger class; 0 stays alone.
  const DimensionGrouping g = ComputeDimensionGrouping(
      {{0}, {1}, {2}, {3}},
      {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0},
       {{1, 1}, ThetaOp::kEq, {2, 1}, 0.0, 1},
       {{1, 1}, ThetaOp::kEq, {3, 1}, 0.0, 2}});
  EXPECT_EQ(g.num_dims, 2);
  EXPECT_EQ(g.dim_of_input[1], g.dim_of_input[2]);
  EXPECT_EQ(g.dim_of_input[1], g.dim_of_input[3]);
  EXPECT_NE(g.dim_of_input[0], g.dim_of_input[1]);
}

// ---- Pairwise joins ----

TEST(OneBucketThetaTest, MatchesNaive) {
  RelationPtr a = MakeRel("a", 120, 30, 31);
  RelationPtr b = MakeRel("b", 90, 30, 32);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kGt, {1, 0}, 0.0, 0},
                     {{0, 1}, ThetaOp::kNe, {1, 1}, 0.0, 1}};
  spec.num_reduce_tasks = 12;
  const auto job = BuildOneBucketThetaJob(spec);
  ASSERT_TRUE(job.ok());
  const auto result = RunJob(*job);
  ASSERT_TRUE(result.ok());
  const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, spec.conditions);
  EXPECT_TRUE(SameRows(*oracle, *result->output));
}

TEST(OneBucketThetaTest, EveryPairMeetsExactlyOnce) {
  // With a tautological condition the output is the full cross product,
  // each pair exactly once.
  RelationPtr a = MakeRel("a", 40, 10, 33);
  RelationPtr b = MakeRel("b", 30, 10, 34);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kGe, {1, 0}, 1000.0, 0}};  // always
  spec.num_reduce_tasks = 7;
  const auto job = BuildOneBucketThetaJob(spec);
  ASSERT_TRUE(job.ok());
  const auto result = RunJob(*job);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output->num_rows(), 40 * 30);
}

// Every theta operator through 1-Bucket-Theta, against the oracle.
class OneBucketOpTest : public ::testing::TestWithParam<ThetaOp> {};

TEST_P(OneBucketOpTest, MatchesNaiveForOp) {
  RelationPtr a = MakeRel("a", 90, 25, 61);
  RelationPtr b = MakeRel("b", 70, 25, 62);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, GetParam(), {1, 0}, 0.0, 0}};
  spec.num_reduce_tasks = 9;
  const auto job = BuildOneBucketThetaJob(spec);
  ASSERT_TRUE(job.ok());
  const auto result = RunJob(*job);
  ASSERT_TRUE(result.ok());
  const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, spec.conditions);
  EXPECT_TRUE(SameRows(*oracle, *result->output));
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OneBucketOpTest,
    ::testing::Values(ThetaOp::kLt, ThetaOp::kLe, ThetaOp::kEq,
                      ThetaOp::kGe, ThetaOp::kGt, ThetaOp::kNe),
    [](const ::testing::TestParamInfo<ThetaOp>& param_info) {
      switch (param_info.param) {
        case ThetaOp::kLt: return "lt";
        case ThetaOp::kLe: return "le";
        case ThetaOp::kEq: return "eq";
        case ThetaOp::kGe: return "ge";
        case ThetaOp::kGt: return "gt";
        case ThetaOp::kNe: return "ne";
      }
      return "unknown";
    });

TEST(EquiJoinTest, StringKeys) {
  auto make_named = [](const char* name, int rows, uint64_t seed) {
    auto rel = std::make_shared<Relation>(
        name, Schema({{"city", ValueType::kString},
                      {"v", ValueType::kInt64}}));
    Rng rng(seed);
    const char* cities[] = {"hk", "sz", "bj", "sh", "gz"};
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row = {Value(std::string(cities[rng.Uniform(5)])),
                                Value(rng.UniformInt(0, 9))};
      EXPECT_TRUE(rel->AppendRow(row).ok());
    }
    return rel;
  };
  RelationPtr a = make_named("a", 60, 71);
  RelationPtr b = make_named("b", 50, 72);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};
  spec.num_reduce_tasks = 4;
  const auto job = BuildEquiJoinJob(spec);
  ASSERT_TRUE(job.ok());
  const auto result = RunJob(*job);
  ASSERT_TRUE(result.ok());
  const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, spec.conditions);
  EXPECT_TRUE(SameRows(*oracle, *result->output));
}

TEST(ChooseBucketGridTest, ShapesFollowCardinalities) {
  // |L| >> |R|: replicate R across many row-bands.
  const BucketGrid g = ChooseBucketGrid(1e6, 1e3, 16);
  EXPECT_GT(g.rows, g.cols);
  EXPECT_LE(g.rows * g.cols, 16);
  const BucketGrid sq = ChooseBucketGrid(1e5, 1e5, 16);
  EXPECT_EQ(sq.rows, sq.cols);
}

TEST(EquiJoinTest, MatchesNaiveWithResidual) {
  RelationPtr a = MakeRel("a", 200, 25, 35);
  RelationPtr b = MakeRel("b", 150, 25, 36);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0},
                     {{0, 1}, ThetaOp::kLe, {1, 1}, 0.0, 1}};
  spec.num_reduce_tasks = 8;
  const auto job = BuildEquiJoinJob(spec);
  ASSERT_TRUE(job.ok());
  const auto result = RunJob(*job);
  ASSERT_TRUE(result.ok());
  const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, spec.conditions);
  EXPECT_TRUE(SameRows(*oracle, *result->output));
}

TEST(EquiJoinTest, RequiresOffsetFreeEquality) {
  RelationPtr a = MakeRel("a", 10, 10, 37);
  RelationPtr b = MakeRel("b", 10, 10, 38);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0}};
  EXPECT_FALSE(BuildEquiJoinJob(spec).ok());
  spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 2.0, 0}};
  EXPECT_FALSE(BuildEquiJoinJob(spec).ok());
}

TEST(PairwiseTest, RejectsConditionNotConnectingSides) {
  RelationPtr a = MakeRel("a", 10, 10, 39);
  RelationPtr b = MakeRel("b", 10, 10, 40);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kLt, {0, 1}, 0.0, 0}};
  EXPECT_FALSE(BuildOneBucketThetaJob(spec).ok());

  // Sides that share base 1: a condition on it has no single side to bind.
  RelationPtr c = MakeRel("c", 10, 10, 41);
  auto rids = [](const char* name) {
    auto rel = std::make_shared<Relation>(
        name, Schema({{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}));
    rel->AppendIntRow({0, 0});
    return rel;
  };
  spec.left = JoinSide::ForIntermediate(rids("ab"), {0, 1});
  spec.right = JoinSide::ForIntermediate(rids("bc"), {1, 2});
  spec.base_relations = {a, b, c};
  spec.conditions = {{{1, 0}, ThetaOp::kLt, {2, 0}, 0.0, 0}};
  EXPECT_FALSE(BuildOneBucketThetaJob(spec).ok());
  spec.conditions = {{{0, 0}, ThetaOp::kLt, {2, 0}, 0.0, 0}};
  EXPECT_TRUE(BuildOneBucketThetaJob(spec).ok());
}

// ---- Merge ----

TEST(MergeJoinTest, RecombinesPartialResults) {
  // Join a-b and b-c separately, merge on shared b rids; compare with the
  // 3-way oracle.
  RelationPtr a = MakeRel("a", 60, 15, 41);
  RelationPtr b = MakeRel("b", 60, 15, 42);
  RelationPtr c = MakeRel("c", 60, 15, 43);
  const std::vector<RelationPtr> bases = {a, b, c};
  JoinCondition ab{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0};
  JoinCondition bc{{1, 1}, ThetaOp::kLe, {2, 1}, 0.0, 1};

  auto run_pair = [&](JoinSide l, JoinSide r, JoinCondition cond) {
    PairwiseJoinJobSpec spec;
    spec.left = l;
    spec.right = r;
    spec.base_relations = bases;
    spec.conditions = {cond};
    spec.num_reduce_tasks = 4;
    const auto job = cond.op == ThetaOp::kEq ? BuildEquiJoinJob(spec)
                                             : BuildOneBucketThetaJob(spec);
    EXPECT_TRUE(job.ok());
    return RunJob(*job)->output;
  };
  auto ab_out = run_pair(JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1),
                         ab);
  auto bc_out = run_pair(JoinSide::ForBase(b, 1), JoinSide::ForBase(c, 2),
                         bc);

  MergeJobSpec merge;
  merge.left = JoinSide::ForIntermediate(ab_out, {0, 1});
  merge.right = JoinSide::ForIntermediate(bc_out, {1, 2});
  merge.base_relations = bases;
  merge.num_reduce_tasks = 4;
  const auto job = BuildMergeJob(merge);
  ASSERT_TRUE(job.ok());
  const auto merged = RunJob(*job);
  ASSERT_TRUE(merged.ok());

  const auto oracle = NaiveMultiwayJoin(bases, {0, 1, 2}, {ab, bc});
  EXPECT_TRUE(SameRows(*oracle, *merged->output));
}

TEST(MergeJoinTest, RequiresSharedBase) {
  RelationPtr a = MakeRel("a", 5, 5, 44);
  auto left = std::make_shared<Relation>(
      "l", Schema({{"rid_0", ValueType::kInt64}}));
  auto right = std::make_shared<Relation>(
      "r", Schema({{"rid_1", ValueType::kInt64}}));
  MergeJobSpec spec;
  spec.left = JoinSide::ForIntermediate(left, {0});
  spec.right = JoinSide::ForIntermediate(right, {1});
  spec.base_relations = {a, a};
  EXPECT_FALSE(BuildMergeJob(spec).ok());
}

TEST(SharedBasesTest, Intersection) {
  auto rel = std::make_shared<Relation>(
      "x", Schema({{"rid_0", ValueType::kInt64}}));
  JoinSide a = JoinSide::ForIntermediate(rel, {0, 1, 2});
  JoinSide b = JoinSide::ForIntermediate(rel, {2, 3, 0});
  EXPECT_EQ(SharedBases(a, b), (std::vector<int>{0, 2}));
}

// ---- Column pruning: widths, payloads and byte-identical execution ----

TEST(ColumnPruningTest, PrunedIntermediateWidths) {
  RelationPtr a = MakeRel("a", 1, 10, 51);  // 2 cols: 4 + 16 = 20 B/row
  RelationPtr b = MakeRel("b", 1, 10, 52);
  const Schema full = MakeIntermediateSchema({0, 1}, {a, b});
  EXPECT_EQ(full.column(0).avg_width, a->schema().avg_row_bytes());

  // Base 0 keeps column 1 only; base 1 keeps nothing (rid-only floor).
  const Schema pruned =
      MakeIntermediateSchema({0, 1}, {a, b}, {{0, {1}}, {1, {}}});
  EXPECT_EQ(pruned.column(0).avg_width, 4 + 8);
  EXPECT_EQ(pruned.column(1).avg_width, 8);
  EXPECT_LT(pruned.avg_row_bytes(), full.avg_row_bytes());
}

TEST(ColumnPruningTest, SideShuffleBytesCombinesConditionsAndRequired) {
  auto wide = std::make_shared<Relation>(
      "w", Schema({{"c0", ValueType::kInt64},
                   {"c1", ValueType::kInt64},
                   {"c2", ValueType::kInt64},
                   {"pad", ValueType::kString, 40}}));
  ASSERT_TRUE(wide->AppendRow({Value(int64_t{1}), Value(int64_t{2}),
                               Value(int64_t{3}), Value(std::string("x"))})
                  .ok());
  const RelationPtr w = wide;
  const JoinSide side = JoinSide::ForBase(w, 0);
  const std::vector<JoinCondition> conds = {
      {{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};

  // Pruning off (empty required): full row width.
  EXPECT_EQ(SideShuffleBytes(side, conds, {}, {w, w}),
            w->schema().avg_row_bytes());
  // Pruning on: the job's own condition column (c0) plus the downstream
  // requirement (c2) — never the untouched c1 or the 40-byte pad.
  EXPECT_EQ(SideShuffleBytes(side, conds, {{0, {2}}, {1, {}}}, {w, w}),
            4 + 8 + 8);
  // Intermediate sides ship their (already pruned) schema row.
  auto inter = std::make_shared<Relation>(
      "i", Schema({{"rid_0", ValueType::kInt64, 12}}));
  const JoinSide is = JoinSide::ForIntermediate(inter, {0});
  EXPECT_EQ(SideShuffleBytes(is, conds, {{0, {2}}}, {w, w}),
            inter->schema().avg_row_bytes());
}

// Wide 4-column relation: conditions touch c0/c1, the projection keeps
// c2, and the 40-byte pad column is never referenced — the shape column
// pruning exists for.
RelationPtr MakeWideRel(const char* name, int64_t rows, int64_t key_range,
                        uint64_t seed) {
  auto rel = std::make_shared<Relation>(
      name, Schema({{"c0", ValueType::kInt64},
                    {"c1", ValueType::kInt64},
                    {"c2", ValueType::kInt64},
                    {"pad", ValueType::kString, 40}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(rel->AppendRow({Value(static_cast<int64_t>(
                                    rng.Uniform(key_range))),
                                Value(static_cast<int64_t>(rng.Uniform(10))),
                                Value(static_cast<int64_t>(rng.Uniform(100))),
                                Value(std::string("padpadpad"))})
                    .ok());
  }
  return rel;
}

void ExpectIdenticalOutputs(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns());
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.schema().num_columns(); ++c) {
      ASSERT_EQ(a.GetInt(r, c), b.GetInt(r, c)) << "row " << r;
    }
  }
}

// The pruning contract, per operator: annotating a builder spec with
// required columns changes ONLY byte accounting — rows, row order,
// physical record counts and comparison charges are untouched, while the
// shuffle and output volumes shrink.
void CheckPrunedMatchesFullWidth(
    const StatusOr<MapReduceJobSpec>& full_job,
    const StatusOr<MapReduceJobSpec>& pruned_job) {
  ASSERT_TRUE(full_job.ok()) << full_job.status().ToString();
  ASSERT_TRUE(pruned_job.ok()) << pruned_job.status().ToString();
  const auto full = RunJob(*full_job);
  const auto pruned = RunJob(*pruned_job);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(pruned.ok());

  ExpectIdenticalOutputs(*full->output, *pruned->output);
  const JobMeasurement& fm = full->metrics;
  const JobMeasurement& pm = pruned->metrics;
  EXPECT_EQ(fm.input_bytes_logical, pm.input_bytes_logical);
  EXPECT_EQ(fm.map_output_records_physical, pm.map_output_records_physical);
  EXPECT_EQ(fm.output_rows_physical, pm.output_rows_physical);
  EXPECT_EQ(fm.output_rows_logical, pm.output_rows_logical);
  EXPECT_EQ(fm.reduce_comparisons_logical, pm.reduce_comparisons_logical);
  EXPECT_LT(pm.output_bytes_logical, fm.output_bytes_logical);
  ASSERT_EQ(fm.reduce_input_bytes_logical.size(),
            pm.reduce_input_bytes_logical.size());
  for (size_t t = 0; t < fm.reduce_input_bytes_logical.size(); ++t) {
    EXPECT_LE(pm.reduce_input_bytes_logical[t],
              fm.reduce_input_bytes_logical[t]);
  }
  if (fm.map_output_records_physical > 0) {
    EXPECT_LT(pm.map_output_bytes_logical, fm.map_output_bytes_logical);
  }
}

TEST(PruningDifferentialTest, HilbertJobPrunedMatchesFullWidth) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(6100 + seed);
    RelationPtr a = MakeWideRel("a", 30 + rng.Uniform(40), 8, 610 + seed);
    RelationPtr b = MakeWideRel("b", 30 + rng.Uniform(40), 8, 620 + seed);
    RelationPtr c = MakeWideRel("c", 30 + rng.Uniform(40), 8, 630 + seed);
    MultiwayJoinJobSpec spec;
    spec.inputs = {JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1),
                   JoinSide::ForBase(c, 2)};
    spec.base_relations = {a, b, c};
    spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0},
                       {{1, 1}, ThetaOp::kLe, {2, 1}, 0.0, 1}};
    spec.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(8));
    const auto full = BuildHilbertJoinJob(spec);
    spec.output_columns = {{0, {2}}, {1, {2}}, {2, {2}}};
    const auto pruned = BuildHilbertJoinJob(spec);
    CheckPrunedMatchesFullWidth(full, pruned);
  }
}

TEST(PruningDifferentialTest, PairwiseJobsPrunedMatchFullWidth) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(6400 + seed);
    RelationPtr a = MakeWideRel("a", 30 + rng.Uniform(50), 10, 640 + seed);
    RelationPtr b = MakeWideRel("b", 30 + rng.Uniform(50), 10, 650 + seed);
    PairwiseJoinJobSpec spec;
    spec.left = JoinSide::ForBase(a, 0);
    spec.right = JoinSide::ForBase(b, 1);
    spec.base_relations = {a, b};
    spec.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(6));

    // Equi-join (hash repartition).
    spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0},
                       {{0, 1}, ThetaOp::kLe, {1, 1}, 0.0, 1}};
    const auto equi_full = BuildEquiJoinJob(spec);
    spec.output_columns = {{0, {2}}, {1, {2}}};
    const auto equi_pruned = BuildEquiJoinJob(spec);
    CheckPrunedMatchesFullWidth(equi_full, equi_pruned);

    // 1-Bucket-Theta (pure inequality).
    spec.output_columns.clear();
    spec.conditions = {{{0, 1}, ThetaOp::kLt, {1, 1}, 0.0, 0}};
    const auto theta_full = BuildOneBucketThetaJob(spec);
    spec.output_columns = {{0, {2}}, {1, {2}}};
    const auto theta_pruned = BuildOneBucketThetaJob(spec);
    CheckPrunedMatchesFullWidth(theta_full, theta_pruned);
  }
}

TEST(PruningDifferentialTest, MergeJobPrunedMatchesFullWidth) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(6700 + seed);
    RelationPtr a = MakeWideRel("a", 40, 6, 670 + seed);
    RelationPtr b = MakeWideRel("b", 40, 6, 680 + seed);
    RelationPtr c = MakeWideRel("c", 40, 6, 690 + seed);
    const std::vector<RelationPtr> bases = {a, b, c};
    auto run_pair = [&](JoinSide l, JoinSide r, JoinCondition cond) {
      PairwiseJoinJobSpec spec;
      spec.left = l;
      spec.right = r;
      spec.base_relations = bases;
      spec.conditions = {cond};
      spec.num_reduce_tasks = 3;
      const auto job = cond.op == ThetaOp::kEq
                           ? BuildEquiJoinJob(spec)
                           : BuildOneBucketThetaJob(spec);
      EXPECT_TRUE(job.ok());
      return RunJob(*job)->output;
    };
    auto ab = run_pair(JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1),
                       {{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0});
    auto bc = run_pair(JoinSide::ForBase(b, 1), JoinSide::ForBase(c, 2),
                       {{1, 1}, ThetaOp::kLe, {2, 1}, 0.0, 1});
    MergeJobSpec merge;
    merge.left = JoinSide::ForIntermediate(ab, {0, 1});
    merge.right = JoinSide::ForIntermediate(bc, {1, 2});
    merge.base_relations = bases;
    merge.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(4));
    const auto full = BuildMergeJob(merge);
    merge.output_columns = {{0, {2}}, {1, {}}, {2, {2}}};
    const auto pruned = BuildMergeJob(merge);
    // Merge shuffles only rids (identical both ways); the pruned output
    // schema still shrinks the materialized intermediate.
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(pruned.ok());
    const auto f = RunJob(*full);
    const auto p = RunJob(*pruned);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(p.ok());
    ExpectIdenticalOutputs(*f->output, *p->output);
    EXPECT_EQ(f->metrics.map_output_bytes_logical,
              p->metrics.map_output_bytes_logical);
    EXPECT_LT(p->metrics.output_bytes_logical,
              f->metrics.output_bytes_logical);
  }
}

// ---- Selection pushdown: map-side filters vs the filtered oracle ----

TEST(FilterPushdownTest, CompiledRowFilterTypedPaths) {
  auto rel = std::make_shared<Relation>(
      "f", Schema({{"i", ValueType::kInt64},
                   {"d", ValueType::kDouble},
                   {"s", ValueType::kString}}));
  ASSERT_TRUE(rel->AppendRow({Value(int64_t{5}), Value(1.5),
                              Value(std::string("keep"))})
                  .ok());
  ASSERT_TRUE(rel->AppendRow({Value(int64_t{9}), Value(2.5),
                              Value(std::string("drop"))})
                  .ok());
  const RelationPtr r = rel;
  // No filters on this base -> nullptr (no per-row overhead).
  EXPECT_EQ(CompiledRowFilter::CompileFor(0, {}, r), nullptr);
  EXPECT_EQ(CompiledRowFilter::CompileFor(
                0, {{{1, 0}, ThetaOp::kLe, Value(int64_t{5}), 0.0}}, r),
            nullptr);

  const std::vector<SelectionFilter> filters = {
      {{0, 0}, ThetaOp::kLe, Value(int64_t{6}), 0.0},       // i <= 6
      {{0, 1}, ThetaOp::kLt, Value(2.0), 0.0},              // d < 2.0
      {{0, 2}, ThetaOp::kEq, Value(std::string("keep")), 0.0}};
  const auto compiled = CompiledRowFilter::CompileFor(0, filters, r);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->num_predicates(), 3);
  EXPECT_TRUE(compiled->Passes(0));
  EXPECT_FALSE(compiled->Passes(1));

  // Offset folds into the comparison: (i + 2) > 10 keeps only row 1.
  const auto offset = CompiledRowFilter::CompileFor(
      0, {{{0, 0}, ThetaOp::kGt, Value(int64_t{10}), 2.0}}, r);
  ASSERT_NE(offset, nullptr);
  EXPECT_FALSE(offset->Passes(0));
  EXPECT_TRUE(offset->Passes(1));
}

TEST(FilterPushdownTest, MapSideFiltersMatchFilteredOracle) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(7300 + seed);
    RelationPtr a = MakeRel("a", 40 + rng.Uniform(40), 12, 730 + seed);
    RelationPtr b = MakeRel("b", 40 + rng.Uniform(40), 12, 740 + seed);
    const std::vector<SelectionFilter> filters = {
        {{0, 1}, ThetaOp::kLe, Value(int64_t{rng.UniformInt(2, 7)}), 0.0},
        {{1, 0}, ThetaOp::kGe, Value(int64_t{rng.UniformInt(1, 5)}), 0.0}};
    const std::vector<JoinCondition> conds = {
        {{0, 0}, ThetaOp::kLe, {1, 0}, 0.0, 0}};
    const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, conds, filters);
    ASSERT_TRUE(oracle.ok());
    const auto unfiltered = NaiveMultiwayJoin({a, b}, {0, 1}, conds);
    ASSERT_TRUE(unfiltered.ok());
    // The filters must actually bite for this to test anything.
    ASSERT_LT(oracle->num_rows(), unfiltered->num_rows());

    JoinSide left = JoinSide::ForBase(a, 0);
    left.filter = CompiledRowFilter::CompileFor(0, filters, a);
    JoinSide right = JoinSide::ForBase(b, 1);
    right.filter = CompiledRowFilter::CompileFor(1, filters, b);
    ASSERT_NE(left.filter, nullptr);
    ASSERT_NE(right.filter, nullptr);

    // 1-Bucket-Theta with map-side filters.
    PairwiseJoinJobSpec pw;
    pw.left = left;
    pw.right = right;
    pw.base_relations = {a, b};
    pw.conditions = conds;
    pw.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(6));
    const auto pw_job = BuildOneBucketThetaJob(pw);
    ASSERT_TRUE(pw_job.ok());
    const auto pw_result = RunJob(*pw_job);
    ASSERT_TRUE(pw_result.ok());
    EXPECT_TRUE(SameRows(*oracle, *pw_result->output)) << "seed=" << seed;

    // Hilbert multi-way with map-side filters.
    MultiwayJoinJobSpec mw;
    mw.inputs = {left, right};
    mw.base_relations = {a, b};
    mw.conditions = conds;
    mw.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(8));
    const auto mw_job = BuildHilbertJoinJob(mw);
    ASSERT_TRUE(mw_job.ok());
    const auto mw_result = RunJob(*mw_job);
    ASSERT_TRUE(mw_result.ok());
    EXPECT_TRUE(SameRows(*oracle, *mw_result->output)) << "seed=" << seed;
  }
}

TEST(FilterPushdownTest, SkewDetectionSamplesPostFilterDistribution) {
  // A hot equality key whose tuples the filter drops must not earn a
  // heavy-value reducer grid: the grid would starve the residual tasks
  // for tuples that never reach any reducer.
  auto make_skewed = [](const char* name, uint64_t seed) {
    auto rel = std::make_shared<Relation>(
        name, Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
    Rng rng(seed);
    for (int64_t i = 0; i < 4000; ++i) {
      // Key 7 holds ~60% of the rows.
      const int64_t k = rng.Bernoulli(0.6) ? 7 : rng.UniformInt(100, 160);
      rel->AppendIntRow({k, rng.UniformInt(0, 9)});
    }
    return rel;
  };
  RelationPtr a = make_skewed("a", 771);
  RelationPtr b = make_skewed("b", 772);
  MultiwayJoinJobSpec spec;
  spec.inputs = {JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1)};
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};
  spec.num_reduce_tasks = 16;
  spec.skew_handling = SkewHandling::kForce;

  HilbertJoinPlanInfo unfiltered_info;
  ASSERT_TRUE(BuildHilbertJoinJob(spec, &unfiltered_info).ok());
  ASSERT_FALSE(unfiltered_info.skew.groups.empty());

  // Filter out the hot key on both sides: detection must see the
  // post-selection (uniform) distribution and split nothing.
  const std::vector<SelectionFilter> filters = {
      {{0, 0}, ThetaOp::kNe, Value(int64_t{7}), 0.0},
      {{1, 0}, ThetaOp::kNe, Value(int64_t{7}), 0.0}};
  spec.inputs[0].filter = CompiledRowFilter::CompileFor(0, filters, a);
  spec.inputs[1].filter = CompiledRowFilter::CompileFor(1, filters, b);
  HilbertJoinPlanInfo filtered_info;
  const auto job = BuildHilbertJoinJob(spec, &filtered_info);
  ASSERT_TRUE(job.ok());
  EXPECT_TRUE(filtered_info.skew.groups.empty());

  const auto oracle =
      NaiveMultiwayJoin({a, b}, {0, 1}, spec.conditions, filters);
  ASSERT_TRUE(oracle.ok());
  const auto result = RunJob(*job);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SameRows(*oracle, *result->output));
}

TEST(FilterPushdownTest, EquiJoinFiltersShrinkShuffleNotInput) {
  RelationPtr a = MakeRel("a", 200, 20, 751);
  RelationPtr b = MakeRel("b", 200, 20, 752);
  const std::vector<JoinCondition> conds = {
      {{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = conds;
  spec.num_reduce_tasks = 4;
  const auto plain = RunJob(*BuildEquiJoinJob(spec));
  ASSERT_TRUE(plain.ok());

  const std::vector<SelectionFilter> filters = {
      {{0, 1}, ThetaOp::kLe, Value(int64_t{4}), 0.0}};
  spec.left.filter = CompiledRowFilter::CompileFor(0, filters, a);
  const auto filtered = RunJob(*BuildEquiJoinJob(spec));
  ASSERT_TRUE(filtered.ok());

  const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, conds, filters);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(SameRows(*oracle, *filtered->output));
  // Scans still read the full relation; only the shuffle shrinks.
  EXPECT_EQ(filtered->metrics.input_bytes_logical,
            plain->metrics.input_bytes_logical);
  EXPECT_LT(filtered->metrics.map_output_bytes_logical,
            plain->metrics.map_output_bytes_logical);
  EXPECT_LT(filtered->metrics.map_output_records_physical,
            plain->metrics.map_output_records_physical);
}

// ---- Sort-based kernels: randomized differential vs nested-loop oracle ----

// Relation whose column "k" has the given type, plus a constant int64
// column "z" that an equi-join can key on to put every row in one reduce
// group; a small domain makes duplicate keys the common case. With
// `specials`, a double cell is NaN, +inf or -inf one time in five.
RelationPtr MakeTypedRel(ValueType type, int64_t rows, int64_t domain,
                         uint64_t seed, bool specials = false) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"k", type}, {"z", ValueType::kInt64}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    switch (type) {
      case ValueType::kInt64:
        row.push_back(Value(rng.UniformInt(-domain, domain)));
        break;
      case ValueType::kDouble:
        if (specials && rng.Bernoulli(0.2)) {
          constexpr double kInf = std::numeric_limits<double>::infinity();
          const double special[] = {std::nan(""), kInf, -kInf};
          row.push_back(Value(special[rng.Uniform(3)]));
          break;
        }
        // Half-integral values: exercises exact ties across the domain.
        row.push_back(
            Value(static_cast<double>(rng.UniformInt(-domain, domain)) * 0.5));
        break;
      case ValueType::kString:
        row.push_back(Value("s" + std::to_string(rng.Uniform(domain + 1))));
        break;
    }
    row.push_back(Value(int64_t{0}));
    EXPECT_TRUE(rel->AppendRow(row).ok());
  }
  return rel;
}

// The (rid_0, rid_1) pairs a two-input join job's output holds, sorted.
std::vector<std::pair<int64_t, int64_t>> SortedPairs(const Relation& out) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    pairs.emplace_back(out.GetInt(r, 0), out.GetInt(r, 1));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// All (lrow, rrow) pairs satisfying cond, in (lrow, rrow) order, via the
// boxed per-pair reference path (Relation::Get + EvalTheta) — deliberately
// independent of the compiled predicates and the join kernel under test.
// Base 0 is the left relation; either may hold the lhs endpoint.
std::vector<std::pair<int64_t, int64_t>> NestedLoopReference(
    const JoinCondition& cond, const Relation& lrel, const Relation& rrel) {
  const bool lhs_left = cond.lhs.relation == 0;
  std::vector<std::pair<int64_t, int64_t>> out;
  for (int64_t l = 0; l < lrel.num_rows(); ++l) {
    for (int64_t r = 0; r < rrel.num_rows(); ++r) {
      const Value lv = lrel.Get(l, (lhs_left ? cond.lhs : cond.rhs).column);
      const Value rv = rrel.Get(r, (lhs_left ? cond.rhs : cond.lhs).column);
      if (lhs_left ? EvalTheta(lv, cond.op, rv, cond.offset)
                   : EvalTheta(rv, cond.op, lv, cond.offset)) {
        out.emplace_back(l, r);
      }
    }
  }
  return out;
}

// The (rid_0, rid_1) pairs a two-input join job's output holds, in row
// order.
std::vector<std::pair<int64_t, int64_t>> OutputPairs(const Relation& out) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    pairs.emplace_back(out.GetInt(r, 0), out.GetInt(r, 1));
  }
  return pairs;
}

TEST(KernelDifferentialTest, SortAndCompiledKernelsMatchNaiveReference) {
  constexpr ThetaOp kOps[] = {ThetaOp::kLt, ThetaOp::kLe, ThetaOp::kEq,
                              ThetaOp::kGe, ThetaOp::kGt, ThetaOp::kNe};
  // Type pairings: all three ValueTypes plus the mixed-numeric domain.
  const std::pair<ValueType, ValueType> kTypes[] = {
      {ValueType::kInt64, ValueType::kInt64},
      {ValueType::kDouble, ValueType::kDouble},
      {ValueType::kString, ValueType::kString},
      {ValueType::kInt64, ValueType::kDouble},
  };
  int cases = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(9000 + seed);
    for (const auto& [ltype, rtype] : kTypes) {
      const ThetaOp op = kOps[rng.Uniform(6)];
      // At least 16 rows a side, so one group of every row holds at least
      // kSortKernelMinPairs candidate pairs; domains stay tiny so duplicate
      // keys and all-equal columns occur regularly.
      const int64_t lrows = 16 + rng.Uniform(40);
      const int64_t rrows = 16 + rng.Uniform(40);
      const int64_t domain = 1 + static_cast<int64_t>(rng.Uniform(12));
      double offset = 0.0;
      const bool strings = ltype == ValueType::kString;
      if (!strings && rng.Bernoulli(0.5)) {
        offset = static_cast<double>(rng.UniformInt(-3, 3));
        if (rng.Bernoulli(0.3)) offset += 0.5;
      }
      RelationPtr lrel = MakeTypedRel(ltype, lrows, domain, 100 + seed * 7);
      RelationPtr rrel = MakeTypedRel(rtype, rrows, domain, 200 + seed * 13);
      JoinCondition cond{{0, 0}, op, {1, 0}, offset, 0};

      const auto expected = NestedLoopReference(cond, *lrel, *rrel);

      // Compiled predicate: per-pair differential.
      const CompiledPredicate pred =
          CompiledPredicate::Compile(cond, *lrel, *rrel);
      std::vector<std::pair<int64_t, int64_t>> compiled;
      for (int64_t l = 0; l < lrel->num_rows(); ++l) {
        for (int64_t r = 0; r < rrel->num_rows(); ++r) {
          if (pred.Eval(l, r)) compiled.emplace_back(l, r);
        }
      }
      EXPECT_EQ(compiled, expected)
          << "compiled predicate diverged: " << cond.ToString() << " "
          << ValueTypeName(ltype) << "/" << ValueTypeName(rtype)
          << " seed=" << seed;

      // Both pairwise reducers under kAuto, each on one reduce group that
      // holds every row: 1-Bucket-Theta on one reduce task, and the
      // equi-join keyed on the constant z columns.
      const JoinCondition z_eq{{0, 1}, ThetaOp::kEq, {1, 1}, 0.0, 1};
      PairwiseJoinJobSpec spec;
      spec.left = JoinSide::ForBase(lrel, 0);
      spec.right = JoinSide::ForBase(rrel, 1);
      spec.base_relations = {lrel, rrel};
      spec.num_reduce_tasks = 1;
      for (const bool equi : {false, true}) {
        spec.conditions = equi ? std::vector<JoinCondition>{z_eq, cond}
                               : std::vector<JoinCondition>{cond};
        const auto job =
            equi ? BuildEquiJoinJob(spec) : BuildOneBucketThetaJob(spec);
        ASSERT_TRUE(job.ok()) << job.status().ToString();
        const auto result = RunJob(*job);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(SortedPairs(*result->output), expected)
            << (equi ? "equi" : "1-bucket") << " reducer diverged: "
            << cond.ToString() << " " << ValueTypeName(ltype) << "/"
            << ValueTypeName(rtype) << " seed=" << seed
            << " kernel=" << job->kernel << " lrows=" << lrows
            << " rrows=" << rrows;
      }
      ++cases;
    }
  }
  EXPECT_GE(cases, 100);
}

// Groups below kSortKernelMinPairs run the pairwise reducers' nested
// loop, whatever the policy. Each side holds 1-15 rows in one
// reduce group, and the condition is written with its lhs on either input,
// over doubles that include NaN and +-inf and with integral, .5 and
// infinite offsets. Rows equal the naive reference as multisets, and come
// in left arrival x right arrival order.
TEST(KernelDifferentialTest, SmallGroupsMatchNaiveReferenceInArrivalOrder) {
  constexpr ThetaOp kOps[] = {ThetaOp::kLt, ThetaOp::kLe, ThetaOp::kEq,
                              ThetaOp::kGe, ThetaOp::kGt, ThetaOp::kNe};
  const std::pair<ValueType, ValueType> kTypes[] = {
      {ValueType::kInt64, ValueType::kInt64},
      {ValueType::kDouble, ValueType::kDouble},
      {ValueType::kString, ValueType::kString},
      {ValueType::kInt64, ValueType::kDouble},
      {ValueType::kDouble, ValueType::kInt64},
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int cases = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(4400 + seed);
    for (const auto& [ltype, rtype] : kTypes) {
      const ThetaOp op = kOps[rng.Uniform(6)];
      const int64_t lrows = 1 + rng.Uniform(15);
      const int64_t rrows = 1 + rng.Uniform(15);
      const int64_t domain = 1 + static_cast<int64_t>(rng.Uniform(6));
      double offset = 0.0;
      if (ltype != ValueType::kString) {
        switch (rng.Uniform(4)) {
          case 0:
            break;
          case 1:
            offset = static_cast<double>(rng.UniformInt(-3, 3));
            break;
          case 2:
            offset = static_cast<double>(rng.UniformInt(-3, 3)) + 0.5;
            break;
          case 3:
            offset = rng.Bernoulli(0.5) ? kInf : -kInf;
            break;
        }
      }
      RelationPtr lrel =
          MakeTypedRel(ltype, lrows, domain, 300 + seed * 7, true);
      RelationPtr rrel =
          MakeTypedRel(rtype, rrows, domain, 400 + seed * 13, true);
      const JoinCondition z_eq{{0, 1}, ThetaOp::kEq, {1, 1}, 0.0, 1};
      for (const bool lhs_left : {true, false}) {
        const JoinCondition cond =
            lhs_left ? JoinCondition{{0, 0}, op, {1, 0}, offset, 0}
                     : JoinCondition{{1, 0}, op, {0, 0}, offset, 0};
        const auto expected = NestedLoopReference(cond, *lrel, *rrel);
        auto expected_set = expected;
        std::sort(expected_set.begin(), expected_set.end());
        PairwiseJoinJobSpec spec;
        spec.left = JoinSide::ForBase(lrel, 0);
        spec.right = JoinSide::ForBase(rrel, 1);
        spec.base_relations = {lrel, rrel};
        spec.num_reduce_tasks = 1;
        for (const KernelPolicy policy :
             {KernelPolicy::kAuto, KernelPolicy::kGenericOnly}) {
          spec.kernel_policy = policy;
          for (const bool equi : {false, true}) {
            spec.conditions = equi ? std::vector<JoinCondition>{z_eq, cond}
                                   : std::vector<JoinCondition>{cond};
            const auto job =
                equi ? BuildEquiJoinJob(spec) : BuildOneBucketThetaJob(spec);
            ASSERT_TRUE(job.ok()) << job.status().ToString();
            const auto result = RunJob(*job);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            const std::string at =
                std::string(equi ? "equi" : "1-bucket") + " " +
                cond.ToString() + " " + ValueTypeName(ltype) + "/" +
                ValueTypeName(rtype) + " seed=" + std::to_string(seed) +
                (policy == KernelPolicy::kAuto ? " auto" : " generic");
            EXPECT_EQ(SortedPairs(*result->output), expected_set) << at;
            EXPECT_EQ(OutputPairs(*result->output), expected)
                << at << ": rows out of arrival order";
          }
        }
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 400);
}

// Two conditions between one pair of inputs, in reduce groups large enough
// for the index: a two-sided band on one column pair (both bounds searched
// on one range column, written from either side), and an equality plus a
// range on another column pair. Both kernel policies, both builders where
// they apply, against the naive oracle as multisets.
TEST(KernelDifferentialTest, TwoConditionGroupsMatchNaiveReference) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(7300 + seed);
    RelationPtr a = MakeRel("a", 200 + rng.Uniform(100), 40, 500 + seed);
    RelationPtr b = MakeRel("b", 200 + rng.Uniform(100), 40, 600 + seed);
    const double width = static_cast<double>(1 + rng.Uniform(6));
    struct Case {
      const char* name;
      std::vector<JoinCondition> conditions;
      bool equi;
    };
    const Case cases[] = {
        // a.a < b.a < a.a + width
        {"band",
         {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0},
          {{1, 0}, ThetaOp::kLt, {0, 0}, width, 1}},
         false},
        // a.a <= b.a + width and a.a >= b.a: the upper bound on b's side
        {"band-rhs",
         {{{0, 0}, ThetaOp::kLe, {1, 0}, width, 0},
          {{0, 0}, ThetaOp::kGe, {1, 0}, 0.0, 1}},
         false},
        // a.b = b.b and a.a + 1 > b.a
        {"eq+range",
         {{{0, 1}, ThetaOp::kEq, {1, 1}, 0.0, 0},
          {{0, 0}, ThetaOp::kGt, {1, 0}, 1.0, 1}},
         true},
    };
    for (const Case& tc : cases) {
      const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, tc.conditions);
      ASSERT_TRUE(oracle.ok());
      PairwiseJoinJobSpec spec;
      spec.left = JoinSide::ForBase(a, 0);
      spec.right = JoinSide::ForBase(b, 1);
      spec.base_relations = {a, b};
      spec.conditions = tc.conditions;
      spec.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(4));
      for (KernelPolicy policy :
           {KernelPolicy::kAuto, KernelPolicy::kGenericOnly}) {
        spec.kernel_policy = policy;
        for (const bool equi : {false, true}) {
          if (equi && !tc.equi) continue;
          const auto job =
              equi ? BuildEquiJoinJob(spec) : BuildOneBucketThetaJob(spec);
          ASSERT_TRUE(job.ok()) << job.status().ToString();
          EXPECT_EQ(job->kernel, policy == KernelPolicy::kAuto
                                     ? "sort-theta"
                                     : "generic");
          const auto result = RunJob(*job);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_TRUE(SameRows(*oracle, *result->output))
              << tc.name << " seed=" << seed
              << (equi ? " equi" : " 1-bucket") << " kernel=" << job->kernel
              << ": "
              << result->output->num_rows() << " rows, oracle "
              << oracle->num_rows();
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, OneBucketJobMatchesOracleUnderBothPolicies) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(7100 + seed);
    const ThetaOp op = static_cast<ThetaOp>(rng.Uniform(6));
    RelationPtr a = MakeRel("a", 60 + rng.Uniform(80), 25, 300 + seed);
    RelationPtr b = MakeRel("b", 60 + rng.Uniform(80), 25, 400 + seed);
    PairwiseJoinJobSpec spec;
    spec.left = JoinSide::ForBase(a, 0);
    spec.right = JoinSide::ForBase(b, 1);
    spec.base_relations = {a, b};
    spec.conditions = {{{0, 0}, op, {1, 0}, 0.0, 0}};
    if (rng.Bernoulli(0.5)) {
      spec.conditions.push_back({{0, 1}, ThetaOp::kLe, {1, 1}, 1.0, 1});
    }
    spec.num_reduce_tasks = 1 + static_cast<int>(rng.Uniform(8));

    const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, spec.conditions);
    ASSERT_TRUE(oracle.ok());
    for (KernelPolicy policy :
         {KernelPolicy::kAuto, KernelPolicy::kGenericOnly}) {
      spec.kernel_policy = policy;
      const auto job = BuildOneBucketThetaJob(spec);
      ASSERT_TRUE(job.ok());
      const auto result = RunJob(*job);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(SameRows(*oracle, *result->output))
          << "seed=" << seed << " op=" << ThetaOpName(op)
          << " kernel=" << job->kernel;
    }
  }
}

TEST(KernelSelectionTest, BuildersReportChosenKernel) {
  RelationPtr a = MakeRel("a", 10, 10, 81);
  RelationPtr b = MakeRel("b", 10, 10, 82);
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(a, 0);
  spec.right = JoinSide::ForBase(b, 1);
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0}};
  EXPECT_EQ(BuildOneBucketThetaJob(spec)->kernel, "sort-theta");

  spec.kernel_policy = KernelPolicy::kGenericOnly;
  EXPECT_EQ(BuildOneBucketThetaJob(spec)->kernel, "generic");

  // `<>` alone cannot drive the sort kernel: candidates are ~ the full
  // cross product.
  spec.kernel_policy = KernelPolicy::kAuto;
  spec.conditions = {{{0, 0}, ThetaOp::kNe, {1, 0}, 0.0, 0}};
  EXPECT_EQ(BuildOneBucketThetaJob(spec)->kernel, "generic");
}

TEST(KernelSelectionTest, HilbertReportsEligibilityNotPolicy) {
  RelationPtr a = MakeRel("a", 10, 10, 85);
  RelationPtr b = MakeRel("b", 10, 10, 86);
  MultiwayJoinJobSpec spec;
  spec.inputs = {JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1)};
  spec.base_relations = {a, b};
  spec.conditions = {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0}};
  EXPECT_EQ(BuildHilbertJoinJob(spec)->kernel, "sort-theta");

  // <> cannot drive a sorted candidate list at any depth.
  spec.conditions = {{{0, 0}, ThetaOp::kNe, {1, 0}, 0.0, 0}};
  EXPECT_EQ(BuildHilbertJoinJob(spec)->kernel, "generic");

  spec.conditions = {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0}};
  spec.kernel_policy = KernelPolicy::kGenericOnly;
  EXPECT_EQ(BuildHilbertJoinJob(spec)->kernel, "generic");
}

// The Hilbert index searches each range with the condition's own
// comparison, in the predicate's own domain. In each case exactly one
// row satisfies the condition under exact evaluation: an index that
// re-derives a bound in doubles (`other - offset`), rounds an int64 key
// to a double, or treats a comparison as monotone where an infinite
// offset makes it NaN drops that row. One reduce task, so every
// candidate meets every other in one group. The 1-Bucket-Theta job must
// evaluate the conditions as written too: rewriting `b.x + off θ a.x` for
// the left side as `a.x - off θ' b.x` rounds in doubles.
TEST(HilbertIndexTest, ExactInThePredicateDomain) {
  struct Case {
    const char* name;
    ValueType type;
    std::vector<Value> a;  // input 0 (bound first)
    std::vector<Value> b;  // input 1 (the indexed depth)
    JoinCondition cond;
  };
  const int64_t two53 = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  const Case cases[] = {
      {"a.x < b.x above 2^53", ValueType::kInt64, {Value(two53)},
       {Value(two53 + 1)}, {{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0}},
      {"b.x + 0.7 > a.x", ValueType::kDouble, {Value(3.4)}, {Value(2.7)},
       {{1, 0}, ThetaOp::kGt, {0, 0}, 0.7, 0}},
      {"b.x + 0.3 >= a.x", ValueType::kDouble, {Value(4.198088070211341)},
       {Value(3.8980880702113407)}, {{1, 0}, ThetaOp::kGe, {0, 0}, 0.3, 0}},
      {"b.x + 0.16517871395709105 < a.x", ValueType::kDouble,
       {Value(3.1651787139570913)}, {Value(3.0)},
       {{1, 0}, ThetaOp::kLt, {0, 0}, 0.16517871395709105, 0}},
      {"b.x + 1.1 <= a.x", ValueType::kDouble, {Value(2.3633007483484247)},
       {Value(1.2633007483484249)}, {{1, 0}, ThetaOp::kLe, {0, 0}, 1.1, 0}},
      // +inf + -inf is NaN: the comparison fails at the top of b.x.
      {"b.x + -inf >= a.x", ValueType::kDouble, {Value(-inf)},
       {Value(1.0), Value(inf)}, {{1, 0}, ThetaOp::kGe, {0, 0}, -inf, 0}},
      // -inf + +inf is NaN: the comparison fails at the bottom of b.x.
      {"b.x + inf <= a.x", ValueType::kDouble, {Value(inf)},
       {Value(-inf), Value(-inf), Value(1.0)},
       {{1, 0}, ThetaOp::kLe, {0, 0}, inf, 0}},
  };
  for (const Case& tc : cases) {
    auto a = std::make_shared<Relation>("a", Schema({{"x", tc.type}}));
    auto b = std::make_shared<Relation>("b", Schema({{"x", tc.type}}));
    for (const Value& v : tc.a) ASSERT_TRUE(a->AppendRow({v}).ok());
    for (const Value& v : tc.b) ASSERT_TRUE(b->AppendRow({v}).ok());
    const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, {tc.cond});
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(oracle->num_rows(), 1) << tc.name;
    for (KernelPolicy policy :
         {KernelPolicy::kAuto, KernelPolicy::kGenericOnly}) {
      MultiwayJoinJobSpec spec;
      spec.inputs = {JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1)};
      spec.base_relations = {a, b};
      spec.conditions = {tc.cond};
      spec.num_reduce_tasks = 1;
      spec.kernel_policy = policy;
      const auto job = BuildHilbertJoinJob(spec);
      ASSERT_TRUE(job.ok());
      const auto result = RunJob(*job);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(SameRows(*oracle, *result->output))
          << tc.name << " kernel=" << job->kernel << ": "
          << result->output->num_rows() << " rows";

      PairwiseJoinJobSpec pw;
      pw.left = JoinSide::ForBase(a, 0);
      pw.right = JoinSide::ForBase(b, 1);
      pw.base_relations = {a, b};
      pw.conditions = {tc.cond};
      pw.kernel_policy = policy;
      const auto one_bucket = BuildOneBucketThetaJob(pw);
      ASSERT_TRUE(one_bucket.ok());
      const auto pw_result = RunJob(*one_bucket);
      ASSERT_TRUE(pw_result.ok());
      EXPECT_TRUE(SameRows(*oracle, *pw_result->output))
          << tc.name << " 1-bucket: " << pw_result->output->num_rows()
          << " rows";
    }
  }
}

// An int64 key and a double key compare as doubles, so past 2^53 keys
// that differ as int64 can be equal: both must land in one partition.
// The Hilbert job fuses an offset-free equality into one hashed
// dimension, and the equi-join hashes it into one reduce group.
TEST(HilbertIndexTest, MixedNumericEqualityPartitionsTogether) {
  auto a = std::make_shared<Relation>("a", Schema({{"x", ValueType::kDouble}}));
  auto b = std::make_shared<Relation>("b", Schema({{"x", ValueType::kInt64}}));
  ASSERT_TRUE(a->AppendRow({Value(-9007199254740992.0)}).ok());
  b->AppendIntRow({-9007199254740993});  // == -2^53 as a double
  const std::vector<JoinCondition> conds = {
      {{1, 0}, ThetaOp::kEq, {0, 0}, 0.0, 0}};
  const auto oracle = NaiveMultiwayJoin({a, b}, {0, 1}, conds);
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(oracle->num_rows(), 1);

  MultiwayJoinJobSpec mw;
  mw.inputs = {JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1)};
  mw.base_relations = {a, b};
  mw.conditions = conds;
  mw.num_reduce_tasks = 8;
  const auto hilbert = BuildHilbertJoinJob(mw);
  ASSERT_TRUE(hilbert.ok());
  EXPECT_TRUE(SameRows(*oracle, *RunJob(*hilbert)->output));

  PairwiseJoinJobSpec pw;
  pw.left = JoinSide::ForBase(a, 0);
  pw.right = JoinSide::ForBase(b, 1);
  pw.base_relations = {a, b};
  pw.conditions = conds;
  pw.num_reduce_tasks = 8;
  const auto equi = BuildEquiJoinJob(pw);
  ASSERT_TRUE(equi.ok());
  EXPECT_TRUE(SameRows(*oracle, *RunJob(*equi)->output));
}

// ---- Spill differential: every operator under a tight memory budget ----

// Runs `job` at {1, 4} threads in small splits under an unlimited and a
// 1-byte budget (maximal spill pressure, docs/MEMORY.md) and demands
// byte-identical rows — order included, stronger than SameRows — and
// byte-identical JobMeasurement against the one-split reference (RunJob).
// Spilling may only change where shuffle records live.
void CheckSpillInvariance(const StatusOr<MapReduceJobSpec>& job,
                          const std::string& label) {
  ASSERT_TRUE(job.ok()) << label << ": " << job.status().ToString();
  const auto reference = RunJob(*job);
  ASSERT_TRUE(reference.ok()) << label;
  SpillDirectory spill_dir;
  for (const int64_t budget : {int64_t{0}, int64_t{1}}) {
    for (const int threads : {1, 4}) {
      ThreadPool pool(threads);
      ParallelRunnerOptions options;
      options.min_split_rows = 16;
      options.splits_per_thread = 3;
      options.mem_budget_bytes = budget;
      options.spill_dir = budget > 0 ? &spill_dir : nullptr;
      const auto result = RunJobParallel(*job, pool, options);
      const std::string at = label + " budget=" + std::to_string(budget) +
                             " threads=" + std::to_string(threads);
      ASSERT_TRUE(result.ok()) << at << ": " << result.status().ToString();
      const Relation& ref = *reference->output;
      const Relation& got = *result->output;
      ASSERT_EQ(ref.num_rows(), got.num_rows()) << at;
      for (int64_t r = 0; r < ref.num_rows(); ++r) {
        for (int c = 0; c < ref.schema().num_columns(); ++c) {
          ASSERT_EQ(ref.GetInt(r, c), got.GetInt(r, c))
              << at << " row " << r << " col " << c;
        }
      }
      const JobMeasurement& rm = reference->metrics;
      const JobMeasurement& gm = result->metrics;
      EXPECT_EQ(rm.input_bytes_logical, gm.input_bytes_logical) << at;
      EXPECT_EQ(rm.map_output_bytes_logical, gm.map_output_bytes_logical)
          << at;
      EXPECT_EQ(rm.map_output_records_physical,
                gm.map_output_records_physical)
          << at;
      EXPECT_EQ(rm.reduce_input_bytes_logical, gm.reduce_input_bytes_logical)
          << at;
      EXPECT_EQ(rm.reduce_comparisons_logical, gm.reduce_comparisons_logical)
          << at;
      EXPECT_EQ(rm.output_rows_physical, gm.output_rows_physical) << at;
      EXPECT_EQ(rm.output_rows_logical, gm.output_rows_logical) << at;
      EXPECT_EQ(rm.output_bytes_logical, gm.output_bytes_logical) << at;
    }
  }
}

TEST(SpillDifferentialTest, AllFourOperatorsSurviveTightBudgets) {
  RelationPtr a = MakeRel("a", 150, 25, 7801);
  RelationPtr b = MakeRel("b", 150, 25, 7802);
  RelationPtr c = MakeRel("c", 150, 25, 7803);

  // Hilbert multi-way.
  MultiwayJoinJobSpec mw;
  mw.inputs = {JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1),
               JoinSide::ForBase(c, 2)};
  mw.base_relations = {a, b, c};
  mw.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0},
                   {{1, 1}, ThetaOp::kLe, {2, 1}, 0.0, 1}};
  mw.num_reduce_tasks = 8;
  CheckSpillInvariance(BuildHilbertJoinJob(mw), "hilbert");

  // Equi-join (hash repartition).
  PairwiseJoinJobSpec pw;
  pw.left = JoinSide::ForBase(a, 0);
  pw.right = JoinSide::ForBase(b, 1);
  pw.base_relations = {a, b};
  pw.conditions = {{{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0}};
  pw.num_reduce_tasks = 4;
  CheckSpillInvariance(BuildEquiJoinJob(pw), "equi");

  // 1-Bucket-Theta.
  pw.conditions = {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0}};
  CheckSpillInvariance(BuildOneBucketThetaJob(pw), "1bucket");

  // Merge of two pairwise partials.
  auto run_pair = [&](JoinSide l, JoinSide r, JoinCondition cond) {
    PairwiseJoinJobSpec spec;
    spec.left = l;
    spec.right = r;
    spec.base_relations = {a, b, c};
    spec.conditions = {cond};
    spec.num_reduce_tasks = 4;
    const auto job = cond.op == ThetaOp::kEq ? BuildEquiJoinJob(spec)
                                             : BuildOneBucketThetaJob(spec);
    EXPECT_TRUE(job.ok());
    return RunJob(*job)->output;
  };
  auto ab = run_pair(JoinSide::ForBase(a, 0), JoinSide::ForBase(b, 1),
                     {{0, 0}, ThetaOp::kEq, {1, 0}, 0.0, 0});
  auto bc = run_pair(JoinSide::ForBase(b, 1), JoinSide::ForBase(c, 2),
                     {{1, 1}, ThetaOp::kLe, {2, 1}, 0.0, 1});
  MergeJobSpec merge;
  merge.left = JoinSide::ForIntermediate(ab, {0, 1});
  merge.right = JoinSide::ForIntermediate(bc, {1, 2});
  merge.base_relations = {a, b, c};
  merge.num_reduce_tasks = 4;
  CheckSpillInvariance(BuildMergeJob(merge), "merge");
}

// ---- Naive oracle sanity ----

TEST(NaiveJoinTest, SmallHandComputedCase) {
  auto a = std::make_shared<Relation>("a",
                                      Schema({{"x", ValueType::kInt64}}));
  auto b = std::make_shared<Relation>("b",
                                      Schema({{"x", ValueType::kInt64}}));
  a->AppendIntRow({1});
  a->AppendIntRow({5});
  b->AppendIntRow({3});
  b->AppendIntRow({7});
  // a.x < b.x: (1,3), (1,7), (5,7) -> 3 rows.
  const auto out = NaiveMultiwayJoin(
      {a, b}, {0, 1}, {{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3);
}

TEST(NaiveJoinTest, RequiresTwoRelations) {
  auto a = std::make_shared<Relation>("a",
                                      Schema({{"x", ValueType::kInt64}}));
  EXPECT_FALSE(NaiveMultiwayJoin({a}, {0}, {}).ok());
}

}  // namespace
}  // namespace mrtheta
