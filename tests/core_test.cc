// End-to-end tests: Query validation, Planner plan shapes, Executor
// correctness against the oracle, and baseline-planner agreement.

#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/baselines/baseline_planners.h"
#include "src/common/rng.h"
#include "src/core/column_pruning.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cost/calibration.h"
#include "src/exec/naive_join.h"
#include "src/workload/tpch.h"

namespace mrtheta {
namespace {

RelationPtr MakeRel(int64_t rows, int64_t key_range, uint64_t seed,
                    int64_t logical_rows = 0) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    rel->AppendIntRow({static_cast<int64_t>(rng.Uniform(key_range)),
                       static_cast<int64_t>(rng.Uniform(40))});
  }
  if (logical_rows > 0) rel->set_logical_rows(logical_rows);
  return rel;
}

// A 3-relation chain query: R0.a <= R1.a, R1.b = R2.b.
Query ChainQuery(const std::vector<RelationPtr>& rels) {
  Query q;
  const int r0 = q.AddRelation(rels[0]);
  const int r1 = q.AddRelation(rels[1]);
  const int r2 = q.AddRelation(rels[2]);
  EXPECT_TRUE(q.AddCondition(r0, "a", ThetaOp::kLe, r1, "a").ok());
  EXPECT_TRUE(q.AddCondition(r1, "b", ThetaOp::kEq, r2, "b").ok());
  EXPECT_TRUE(q.AddOutput(r2, "a").ok());
  return q;
}

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig cfg;
    cluster_ = std::make_unique<SimCluster>(cfg);
    const auto calib = CalibrateCostModel(*cluster_);
    ASSERT_TRUE(calib.ok());
    params_ = calib->params;
  }

  std::unique_ptr<SimCluster> cluster_;
  CostModelParams params_;
};

TEST(QueryTest, ValidatesStructure) {
  Query q;
  EXPECT_FALSE(q.Validate().ok());  // no relations
  RelationPtr r = MakeRel(10, 10, 1);
  q.AddRelation(r);
  q.AddRelation(r);
  EXPECT_FALSE(q.Validate().ok());  // no conditions
  ASSERT_TRUE(q.AddCondition(0, "a", ThetaOp::kLt, 1, "a").ok());
  EXPECT_TRUE(q.Validate().ok());
}

TEST(QueryTest, RejectsBadConditions) {
  Query q;
  RelationPtr r = MakeRel(10, 10, 2);
  q.AddRelation(r);
  q.AddRelation(r);
  EXPECT_FALSE(q.AddCondition(0, "a", ThetaOp::kLt, 0, "a").ok());  // self
  EXPECT_FALSE(q.AddCondition(0, "zz", ThetaOp::kLt, 1, "a").ok());
  EXPECT_FALSE(q.AddCondition(0, "a", ThetaOp::kLt, 5, "a").ok());
}

TEST(QueryTest, RejectsDisconnectedGraph) {
  Query q;
  RelationPtr r = MakeRel(10, 10, 3);
  for (int i = 0; i < 4; ++i) q.AddRelation(r);
  ASSERT_TRUE(q.AddCondition(0, "a", ThetaOp::kLt, 1, "a").ok());
  ASSERT_TRUE(q.AddCondition(2, "a", ThetaOp::kLt, 3, "a").ok());
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryTest, ConditionMaskAndLookup) {
  Query q;
  RelationPtr r = MakeRel(10, 10, 4);
  q.AddRelation(r);
  q.AddRelation(r);
  q.AddRelation(r);
  ASSERT_TRUE(q.AddCondition(0, "a", ThetaOp::kLt, 1, "a").ok());
  ASSERT_TRUE(q.AddCondition(1, "b", ThetaOp::kEq, 2, "b").ok());
  EXPECT_EQ(q.AllConditionsMask(), 0b11u);
  const auto conds = q.ConditionsById({1});
  ASSERT_EQ(conds.size(), 1u);
  EXPECT_EQ(conds[0].op, ThetaOp::kEq);
}

TEST(QueryTest, TypeMismatchRejected) {
  auto strings = std::make_shared<Relation>(
      "s", Schema({{"name", ValueType::kString}}));
  Query q;
  RelationPtr nums = MakeRel(10, 10, 5);
  const int a = q.AddRelation(nums);
  const int b = q.AddRelation(strings);
  EXPECT_FALSE(q.AddCondition(a, "a", ThetaOp::kEq, b, "name").ok());
}

TEST(QueryTest, ValidateErrorPathsReportSpecificCodes) {
  // Disconnected join graph: FailedPrecondition naming the requirement.
  Query q;
  RelationPtr r = MakeRel(10, 10, 6);
  for (int i = 0; i < 4; ++i) q.AddRelation(r);
  ASSERT_TRUE(q.AddCondition(0, "a", ThetaOp::kLt, 1, "a").ok());
  ASSERT_TRUE(q.AddCondition(2, "a", ThetaOp::kLt, 3, "a").ok());
  const Status disconnected = q.Validate();
  EXPECT_EQ(disconnected.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(disconnected.message().find("connected"), std::string::npos);

  // Out-of-range condition endpoints are refused at insertion...
  Query q2;
  q2.AddRelation(r);
  q2.AddRelation(r);
  EXPECT_EQ(q2.AddCondition(-1, "a", ThetaOp::kLt, 1, "a").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(q2.AddCondition(0, "a", ThetaOp::kLt, 7, "a").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(q2.AddOutput(5, "a").code(), StatusCode::kInvalidArgument);
  // So is a NaN band offset; an infinite one is legal.
  EXPECT_EQ(q2.AddCondition(0, "a", ThetaOp::kLt, 1, "a",
                            std::numeric_limits<double>::quiet_NaN())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(q2.AddCondition(0, "b", ThetaOp::kLt, 1, "b",
                              std::numeric_limits<double>::infinity())
                  .ok());
  // ...so a query built through the public API revalidates cleanly.
  ASSERT_TRUE(q2.AddCondition(0, "a", ThetaOp::kLt, 1, "a").ok());
  EXPECT_TRUE(q2.Validate().ok());
}

TEST(QueryTest, ValidateRejectsTypeIncompatibleEndpointsAndStringOffsets) {
  auto strings = std::make_shared<Relation>(
      "s", Schema({{"name", ValueType::kString}}));
  Query q;
  const int a = q.AddRelation(strings);
  const int b = q.AddRelation(strings);
  // A string = string condition is fine; an offset on it is not.
  EXPECT_EQ(
      q.AddCondition(a, "name", ThetaOp::kEq, b, "name", 2.0).status().code(),
      StatusCode::kInvalidArgument);
  ASSERT_TRUE(q.AddCondition(a, "name", ThetaOp::kEq, b, "name").ok());
  EXPECT_TRUE(q.Validate().ok());
}

TEST(QueryTest, ValidateRejectsTooManyConditions) {
  Query q;
  RelationPtr r = MakeRel(10, 10, 7);
  for (int i = 0; i < 22; ++i) q.AddRelation(r);
  for (int i = 0; i + 1 < 22; ++i) {
    ASSERT_TRUE(q.AddCondition(i, "a", ThetaOp::kLe, i + 1, "a").ok());
  }
  EXPECT_EQ(q.Validate().code(), StatusCode::kInvalidArgument);
}

TEST_F(CoreTest, PlanCoversAllConditions) {
  std::vector<RelationPtr> rels = {MakeRel(100, 20, 10), MakeRel(100, 20, 11),
                                   MakeRel(100, 20, 12)};
  const Query q = ChainQuery(rels);
  Planner planner(cluster_.get(), params_);
  const auto plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok());
  uint32_t covered = 0;
  for (const PlanJob& job : plan->jobs) {
    for (int t : job.thetas) covered |= 1u << t;
  }
  EXPECT_EQ(covered, q.AllConditionsMask());
  EXPECT_GT(plan->est_makespan_sec, 0.0);
  for (const PlanJob& job : plan->jobs) {
    EXPECT_GE(job.num_reduce_tasks, 1);
    EXPECT_LE(job.num_reduce_tasks, cluster_->config().num_workers);
  }
}

// Describes the plan-job fields the pinned-plan test below compares.
std::string DescribeJob(const PlanJob& job) {
  std::string inputs;
  for (const PlanInput& in : job.inputs) {
    if (!inputs.empty()) inputs += ",";
    inputs += in.is_base() ? "R" + std::to_string(in.base)
                           : "J" + std::to_string(in.job);
  }
  std::string thetas;
  for (int t : job.thetas) {
    if (!thetas.empty()) thetas += ",";
    thetas += std::to_string(t);
  }
  return std::string(PlanJobKindName(job.kind)) + " in=[" + inputs +
         "] θ=[" + thetas + "] RN=" + std::to_string(job.num_reduce_tasks) +
         (job.skew_handling ? " skew" : "");
}

struct PinnedCandidate {
  uint32_t theta_mask;
  int schedule_slots;
  double weight;
};

struct PinnedPlan {
  int which;
  std::string strategy;
  double est_makespan_sec;
  std::vector<std::string> jobs;
  std::vector<PinnedCandidate> candidates;
  int64_t lineitem_rows = 2000;
  double lineitem_key_skew = 0.0;
};

// The optimizer's choices on the paper's TPC-H queries (Sec. 6.3.2) at
// 2,000 lineitem rows and SF 100, and on bench_skew's Q17 (4,000 rows,
// Zipf(1.2) part popularity), whose Hilbert job the planner flags for skew
// handling: the strategy, every job's shape, reduce-task count and skew
// flag, and every priced G'_JP candidate with its kR. A change to how the
// cost oracle is evaluated, or to the column statistics behind the skew
// flag, must reproduce them exactly; the doubles are pinned to a relative
// 1e-12.
TEST_F(CoreTest, TpchPlansArePinned) {
  Planner planner(cluster_.get(), params_);
  const PinnedPlan kPinned[] = {
      {7,
       "mrtheta-single-mrj",
       241.65618262084985,
       {"hilbert-join in=[R0,R1,R2,R3,R4] θ=[0,1,2,3,4,5,6,7] RN=32"},
       {{0x8, 4, 30.313037553148966},
        {0x18, 10, 38.763116204541554},
        {0x10, 16, 46.634369161564415},
        {0x80, 19, 55.769410143964159},
        {0x90, 26, 65.120408067099191},
        {0x4, 43, 92.81568720994656},
        {0x62, 32, 145.4345385833746},
        {0x42, 46, 200.84775586408568},
        {0x22, 47, 201.84922880597088},
        {0x1, 48, 266.26441448997514},
        {0x2, 48, 276.86978464137985},
        {0x63, 48, 276.90984609005363},
        {0x43, 48, 323.68822340885015},
        {0x23, 48, 324.91072978867686},
        {0x3, 89, 397.68212894381799},
        {0x60, 96, 8293.4519300198081},
        {0x61, 96, 10333.279402559881},
        {0x40, 96, 20516.361070440205},
        {0x20, 96, 20840.442364699466},
        {0x41, 96, 24368.82590273194},
        {0x21, 96, 24754.249709470216},
        {0x44, 96, 26688.918348657327},
        {0x24, 96, 27111.479846209619},
        {0x45, 96, 30898.983190225863},
        {0x25, 96, 31388.998846834802},
        {0xff, 32, 241.65618262084985}}},
      {17,
       "mrtheta",
       766.9497057799291,
       {"hilbert-join in=[R0,R2,R1] θ=[3,2,0,1] RN=96"},
       {{0x1, 53, 279.48474318704393},
        {0x2, 53, 279.55385077726925},
        {0xf, 96, 766.9497057799291},
        {0x7, 96, 2605.0151846712097},
        {0xb, 96, 3235.7945072895918},
        {0x3, 96, 7271.607656003016},
        {0xc, 96, 19528.803232740975},
        {0xd, 96, 43206.517759166396},
        {0xe, 96, 47982.891532591406},
        {0x4, 96, 48109.542647997463},
        {0x8, 96, 58964.818406995299},
        {0x5, 96, 104752.47705990133},
        {0x6, 96, 104803.88013909764},
        {0x9, 96, 126549.05249399212},
        {0xa, 96, 126611.1954477556}}},
      {21,
       "mrtheta-single-mrj",
       604.37676428250813,
       {"hilbert-join in=[R0,R1,R2,R3,R4,R5] θ=[0,1,2,3,4,5,6,7] RN=48"},
       {{0x4, 3, 29.275653385159124},
        {0x2, 48, 220.8678715432946},
        {0x1, 48, 241.05522322685204},
        {0xe0, 48, 297.04686474205226},
        {0x3, 48, 335.27110979036553},
        {0xa0, 48, 351.64883159800161},
        {0x18, 48, 453.92733436938153},
        {0x60, 68, 481.37764669430794},
        {0xe1, 48, 488.2293792500077},
        {0x8, 96, 533.87165611732257},
        {0xa1, 84, 556.23724997824263},
        {0x20, 96, 574.42065454822909},
        {0x61, 96, 648.06771836257781},
        {0x9, 96, 707.5966338023909},
        {0x21, 96, 760.74302093365964},
        {0xc0, 96, 30043.229452949687},
        {0xc1, 96, 48668.46776399004},
        {0x80, 96, 49810.226205327883},
        {0x10, 96, 73370.928296846672},
        {0x81, 96, 74652.609517931589},
        {0x40, 96, 88033.170381749034},
        {0x42, 96, 103138.11036514092},
        {0x11, 96, 110048.02853262406},
        {0x41, 96, 124759.39750873181},
        {0x48, 96, 440680.8048997061},
        {0x50, 96, 164187358.47038028},
        {0xff, 48, 604.37676428250813}}},
      {17,
       "mrtheta-single-mrj",
       646.436642678211,
       {"hilbert-join in=[R0,R1,R2] θ=[0,1,2,3] RN=96 skew"},
       {{0x2, 48, 255.11226540090996},
        {0x1, 48, 256.00532602623969},
        {0xc, 96, 38955.061826953686},
        {0xd, 96, 73406.383170910878},
        {0xe, 96, 80962.418152383922},
        {0x4, 96, 96453.411447339662},
        {0x8, 96, 117661.70226857542},
        {0x6, 96, 176989.93480034548},
        {0x5, 96, 178201.15217361215},
        {0xa, 96, 212708.43536198771},
        {0x9, 96, 214164.6848304038},
        {0xf, 96, 646.436642678211}},
       4000,
       1.2}
  };
  for (const PinnedPlan& pin : kPinned) {
    SCOPED_TRACE("Q" + std::to_string(pin.which) + " at " +
                 std::to_string(pin.lineitem_rows) + " rows");
    TpchOptions options;
    options.scale_factor = 100;
    options.physical_lineitem_rows = pin.lineitem_rows;
    options.lineitem_key_skew = pin.lineitem_key_skew;
    const TpchData db = GenerateTpch(options);
    const auto query = TpchQueryBuilder(pin.which, db).Build();
    ASSERT_TRUE(query.ok());
    const auto plan = planner.Plan(*query);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->strategy, pin.strategy);
    std::vector<std::string> jobs;
    for (const PlanJob& job : plan->jobs) jobs.push_back(DescribeJob(job));
    EXPECT_EQ(jobs, pin.jobs);
    EXPECT_NEAR(plan->est_makespan_sec, pin.est_makespan_sec,
                1e-12 * pin.est_makespan_sec);
    ASSERT_EQ(plan->candidates.size(), pin.candidates.size());
    for (size_t i = 0; i < pin.candidates.size(); ++i) {
      const JobCandidate& cand = plan->candidates[i];
      const PinnedCandidate& want = pin.candidates[i];
      EXPECT_EQ(cand.theta_mask, want.theta_mask) << "candidate " << i;
      EXPECT_EQ(cand.schedule_slots, want.schedule_slots) << "candidate " << i;
      EXPECT_NEAR(cand.weight, want.weight, 1e-12 * want.weight)
          << "candidate " << i;
    }
  }
}

TEST_F(CoreTest, ExecutorMatchesOracle) {
  std::vector<RelationPtr> rels = {MakeRel(80, 15, 20), MakeRel(80, 15, 21),
                                   MakeRel(80, 15, 22)};
  const Query q = ChainQuery(rels);
  Planner planner(cluster_.get(), params_);
  const auto plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok());
  Executor executor(cluster_.get());
  const auto result = executor.Execute(q, *plan);
  ASSERT_TRUE(result.ok());

  const auto oracle = NaiveMultiwayJoin(q.relations(), {0, 1, 2},
                                        q.conditions());
  ASSERT_TRUE(oracle.ok());
  const Relation sorted_result = SortedByRows(*result->result_ids);
  ASSERT_EQ(sorted_result.num_rows(), oracle->num_rows());
  for (int64_t r = 0; r < oracle->num_rows(); ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(sorted_result.GetInt(r, c), oracle->GetInt(r, c));
    }
  }
  EXPECT_GT(result->makespan, 0);
  // Projection produced one column (R2.a) per result row.
  ASSERT_NE(result->projected, nullptr);
  EXPECT_EQ(result->projected->num_rows(), oracle->num_rows());
  EXPECT_EQ(result->projected->schema().num_columns(), 1);
}

TEST_F(CoreTest, AllPlannersAgreeOnResults) {
  std::vector<RelationPtr> rels = {MakeRel(70, 12, 30), MakeRel(70, 12, 31),
                                   MakeRel(70, 12, 32)};
  const Query q = ChainQuery(rels);
  Executor executor(cluster_.get());
  Planner planner(cluster_.get(), params_);

  std::vector<StatusOr<QueryPlan>> plans;
  plans.push_back(planner.Plan(q));
  plans.push_back(PlanHiveStyle(q, *cluster_));
  plans.push_back(PlanPigStyle(q, *cluster_));
  plans.push_back(PlanYSmartStyle(q, *cluster_));

  int64_t expected_rows = -1;
  for (const auto& plan : plans) {
    ASSERT_TRUE(plan.ok());
    const auto result = executor.Execute(q, *plan);
    ASSERT_TRUE(result.ok()) << plan->strategy;
    if (expected_rows < 0) {
      expected_rows = result->result_ids->num_rows();
    } else {
      EXPECT_EQ(result->result_ids->num_rows(), expected_rows)
          << plan->strategy;
    }
  }
  const auto oracle = NaiveMultiwayJoin(q.relations(), {0, 1, 2},
                                        q.conditions());
  EXPECT_EQ(expected_rows, oracle->num_rows());
}

TEST_F(CoreTest, BaselinePlansAreCascades) {
  std::vector<RelationPtr> rels = {MakeRel(50, 10, 40), MakeRel(50, 10, 41),
                                   MakeRel(50, 10, 42)};
  const Query q = ChainQuery(rels);
  const auto hive = PlanHiveStyle(q, *cluster_);
  ASSERT_TRUE(hive.ok());
  EXPECT_EQ(hive->jobs.size(), 2u);  // 3 relations -> 2 pairwise steps
  // Second step consumes the first step's output.
  EXPECT_FALSE(hive->jobs[1].inputs[0].is_base());
  EXPECT_EQ(hive->jobs[1].inputs[0].job, 0);
  // Hive always requests max reducers.
  EXPECT_EQ(hive->jobs[0].num_reduce_tasks,
            cluster_->config().num_workers);
  EXPECT_TRUE(hive->jobs[0].text_serde);
  // YSmart uses shared scans on repeated inputs but binary serde.
  const auto ysmart = PlanYSmartStyle(q, *cluster_);
  ASSERT_TRUE(ysmart.ok());
  EXPECT_FALSE(ysmart->jobs[0].text_serde);
}

TEST_F(CoreTest, PigUsesSizeBasedReducers) {
  std::vector<RelationPtr> rels = {
      MakeRel(50, 10, 50, /*logical=*/40000000),   // ~1.1 GB logical
      MakeRel(50, 10, 51, /*logical=*/40000000),
      MakeRel(50, 10, 52, /*logical=*/40000000)};
  const Query q = ChainQuery(rels);
  const auto pig = PlanPigStyle(q, *cluster_);
  ASSERT_TRUE(pig.ok());
  // ~2.2 GB of input => a handful of reducers, far fewer than 96.
  EXPECT_LT(pig->jobs[0].num_reduce_tasks, 16);
  EXPECT_GE(pig->jobs[0].num_reduce_tasks, 2);
}

TEST_F(CoreTest, ScarceUnitsChangeThePlanOrTiming) {
  std::vector<RelationPtr> rels = {
      MakeRel(100, 20, 60, 40000000), MakeRel(100, 20, 61, 40000000),
      MakeRel(100, 20, 62, 40000000)};
  const Query q = ChainQuery(rels);

  Planner wide(cluster_.get(), params_);
  const auto wide_plan = wide.Plan(q);
  ASSERT_TRUE(wide_plan.ok());

  ClusterConfig narrow_cfg = cluster_->config();
  narrow_cfg.num_workers = 8;
  SimCluster narrow_cluster(narrow_cfg);
  Planner narrow(&narrow_cluster, params_);
  const auto narrow_plan = narrow.Plan(q);
  ASSERT_TRUE(narrow_plan.ok());

  for (const PlanJob& job : narrow_plan->jobs) {
    EXPECT_LE(job.num_reduce_tasks, 8);
  }
  EXPECT_GE(narrow_plan->est_makespan_sec,
            wide_plan->est_makespan_sec * 0.99);
}

TEST(ColumnPruningTest, RequiredColumnsFollowPendingConditionsAndOutputs) {
  std::vector<RelationPtr> rels = {MakeRel(10, 5, 90), MakeRel(10, 5, 91),
                                   MakeRel(10, 5, 92)};
  const Query q = ChainQuery(rels);  // θ0: R0.a<=R1.a, θ1: R1.b=R2.b; out R2.a

  // Both conditions pending: R1 must carry both endpoints.
  EXPECT_EQ(RequiredColumnsForBase(q, 1, {0, 1}),
            (std::vector<int>{0, 1}));
  // Only θ1 pending: R1 keeps just column b; R0 keeps nothing.
  EXPECT_EQ(RequiredColumnsForBase(q, 1, {1}), (std::vector<int>{1}));
  EXPECT_TRUE(RequiredColumnsForBase(q, 0, {1}).empty());
  // The projection keeps R2.a alive even with nothing pending.
  EXPECT_EQ(RequiredColumnsForBase(q, 2, {}), (std::vector<int>{0}));
}

TEST(ColumnPruningTest, AnnotationUsesDescendantsNotSiblings) {
  std::vector<RelationPtr> rels = {MakeRel(10, 5, 93), MakeRel(10, 5, 94),
                                   MakeRel(10, 5, 95)};
  const Query q = ChainQuery(rels);

  // Cascade shape: job0 evaluates θ0 over {R0, R1}; job1 folds in R2 with
  // θ1. Job0's output must keep R1.b (θ1 is downstream) but drop R1.a (θ0
  // is done) and everything of R0 (rid-only).
  QueryPlan cascade;
  PlanJob j0;
  j0.inputs = {PlanInput::Base(0), PlanInput::Base(1)};
  j0.thetas = {0};
  PlanJob j1;
  j1.inputs = {PlanInput::Job(0), PlanInput::Base(2)};
  j1.thetas = {1};
  cascade.jobs = {j0, j1};
  AnnotateRequiredColumns(q, &cascade);
  ASSERT_EQ(cascade.jobs[0].output_columns.size(), 2u);
  EXPECT_TRUE(cascade.jobs[0].output_columns[0].columns.empty());  // R0
  EXPECT_EQ(cascade.jobs[0].output_columns[1].columns,
            (std::vector<int>{1}));  // R1.b for θ1
  // The final job's output carries only the projection (R2.a).
  ASSERT_EQ(cascade.jobs[1].output_columns.size(), 3u);
  EXPECT_TRUE(cascade.jobs[1].output_columns[0].columns.empty());
  EXPECT_TRUE(cascade.jobs[1].output_columns[1].columns.empty());
  EXPECT_EQ(cascade.jobs[1].output_columns[2].columns,
            (std::vector<int>{0}));

  // Set-cover shape: two sibling joins recombined by a rid-merge. A
  // sibling's condition is evaluated on the sibling's own tuples and
  // never re-checked by the merge, so it must NOT keep columns alive:
  // both join outputs carry only the projection columns.
  QueryPlan cover;
  PlanJob a;
  a.inputs = {PlanInput::Base(0), PlanInput::Base(1)};
  a.thetas = {0};
  PlanJob b;
  b.inputs = {PlanInput::Base(1), PlanInput::Base(2)};
  b.thetas = {1};
  PlanJob merge;
  merge.kind = PlanJobKind::kMerge;
  merge.inputs = {PlanInput::Job(0), PlanInput::Job(1)};
  cover.jobs = {a, b, merge};
  AnnotateRequiredColumns(q, &cover);
  for (const RequiredColumns& rc : cover.jobs[0].output_columns) {
    EXPECT_TRUE(rc.columns.empty()) << "base " << rc.base;
  }
  ASSERT_EQ(cover.jobs[1].output_columns.size(), 2u);
  EXPECT_EQ(cover.jobs[1].output_columns[1].columns,
            (std::vector<int>{0}));  // R2.a projection
}

TEST_F(CoreTest, PlannerReactsToColumnPruning) {
  std::vector<RelationPtr> rels = {
      MakeRel(100, 20, 96, 40000000), MakeRel(100, 20, 97, 40000000),
      MakeRel(100, 20, 98, 40000000)};
  const Query q = ChainQuery(rels);

  PlannerOptions pruned_options;
  Planner pruned(cluster_.get(), params_, pruned_options);
  PlannerOptions full_options;
  full_options.enable_column_pruning = false;
  Planner full(cluster_.get(), params_, full_options);

  const auto pruned_plan = pruned.Plan(q);
  const auto full_plan = full.Plan(q);
  ASSERT_TRUE(pruned_plan.ok());
  ASSERT_TRUE(full_plan.ok());
  // Thinner tuples can only help the estimated makespan.
  EXPECT_LE(pruned_plan->est_makespan_sec, full_plan->est_makespan_sec);
  // Pruned plans are annotated; full-width plans are not.
  for (const PlanJob& job : pruned_plan->jobs) {
    EXPECT_FALSE(job.output_columns.empty());
  }
  for (const PlanJob& job : full_plan->jobs) {
    EXPECT_TRUE(job.output_columns.empty());
  }
}

TEST_F(CoreTest, ExecutorRejectsMalformedPlans) {
  std::vector<RelationPtr> rels = {MakeRel(10, 5, 70), MakeRel(10, 5, 71),
                                   MakeRel(10, 5, 72)};
  const Query q = ChainQuery(rels);
  Executor executor(cluster_.get());
  QueryPlan empty;
  EXPECT_FALSE(executor.Execute(q, empty).ok());

  QueryPlan forward_ref;
  PlanJob job;
  job.kind = PlanJobKind::kMerge;
  job.inputs = {PlanInput::Job(3), PlanInput::Job(4)};
  forward_ref.jobs.push_back(job);
  EXPECT_FALSE(executor.Execute(q, forward_ref).ok());
}

TEST_F(CoreTest, ResultSelectivityIsLogical) {
  std::vector<RelationPtr> rels = {
      MakeRel(80, 15, 80, 8000), MakeRel(80, 15, 81, 8000),
      MakeRel(80, 15, 82, 8000)};
  const Query q = ChainQuery(rels);
  Planner planner(cluster_.get(), params_);
  Executor executor(cluster_.get());
  const auto result = executor.Execute(q, *planner.Plan(q));
  ASSERT_TRUE(result.ok());
  // selectivity = logical result rows / (8000^3); logical rows scale the
  // physical count by 100 (β rule).
  const double expected =
      static_cast<double>(result->result_ids->num_rows()) * 100.0 /
      (8000.0 * 8000.0 * 8000.0);
  EXPECT_NEAR(result->result_selectivity, expected, expected * 0.01);
}

}  // namespace
}  // namespace mrtheta
