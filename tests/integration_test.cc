// Cross-module integration tests: the paper's actual benchmark queries run
// end-to-end at miniature scale, all planners checked against the oracle.

#include <memory>

#include <gtest/gtest.h>

#include "src/baselines/baseline_planners.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cost/calibration.h"
#include "src/exec/naive_join.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace mrtheta {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<SimCluster>(ClusterConfig{});
    const auto calib = CalibrateCostModel(*cluster_);
    ASSERT_TRUE(calib.ok());
    params_ = calib->params;
  }

  // Runs the query with every planner, asserts identical results and
  // agreement with the oracle; returns the per-system simulated seconds
  // in order {ours, ysmart, hive, pig}.
  std::vector<double> CheckAllSystems(const Query& q) {
    std::vector<int> indices(q.num_relations());
    for (int i = 0; i < q.num_relations(); ++i) indices[i] = i;
    const auto oracle =
        NaiveMultiwayJoin(q.relations(), indices, q.conditions());
    EXPECT_TRUE(oracle.ok());

    Executor executor(cluster_.get());
    Planner planner(cluster_.get(), params_);
    std::vector<StatusOr<QueryPlan>> plans;
    plans.push_back(planner.Plan(q));
    plans.push_back(PlanYSmartStyle(q, *cluster_));
    plans.push_back(PlanHiveStyle(q, *cluster_));
    plans.push_back(PlanPigStyle(q, *cluster_));

    std::vector<double> seconds;
    for (const auto& plan : plans) {
      EXPECT_TRUE(plan.ok());
      const auto result = executor.Execute(q, *plan);
      EXPECT_TRUE(result.ok()) << plan->strategy;
      const Relation sorted = SortedByRows(*result->result_ids);
      EXPECT_EQ(sorted.num_rows(), oracle->num_rows()) << plan->strategy;
      if (sorted.num_rows() == oracle->num_rows()) {
        int64_t mismatches = 0;
        for (int64_t r = 0; r < sorted.num_rows(); ++r) {
          for (int c = 0; c < sorted.schema().num_columns(); ++c) {
            mismatches += sorted.GetInt(r, c) != oracle->GetInt(r, c);
          }
        }
        EXPECT_EQ(mismatches, 0) << plan->strategy;
      }
      seconds.push_back(ToSeconds(result->makespan));
    }
    return seconds;
  }

  std::unique_ptr<SimCluster> cluster_;
  CostModelParams params_;
};

TEST_F(IntegrationTest, MobileQ1AllSystemsAgree) {
  MobileDataOptions options;
  options.physical_rows = 120;
  options.logical_bytes = 4 * kGiB;
  const auto q = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(q.ok());
  CheckAllSystems(*q);
}

TEST_F(IntegrationTest, MobileQ2AllSystemsAgree) {
  MobileDataOptions options;
  options.physical_rows = 80;
  options.logical_bytes = 4 * kGiB;
  const auto q = MobileQueryBuilder(2, options).Build();
  ASSERT_TRUE(q.ok());
  CheckAllSystems(*q);
}

TEST_F(IntegrationTest, MobileQ3AllSystemsAgree) {
  MobileDataOptions options;
  options.physical_rows = 60;
  options.logical_bytes = 4 * kGiB;
  const auto q = MobileQueryBuilder(3, options).Build();
  ASSERT_TRUE(q.ok());
  CheckAllSystems(*q);
}

TEST_F(IntegrationTest, MobileQ4AllSystemsAgree) {
  MobileDataOptions options;
  options.physical_rows = 50;
  options.logical_bytes = 4 * kGiB;
  const auto q = MobileQueryBuilder(4, options).Build();
  ASSERT_TRUE(q.ok());
  CheckAllSystems(*q);
}

TEST_F(IntegrationTest, TpchQ17AllSystemsAgree) {
  TpchOptions options;
  options.scale_factor = 50;
  options.physical_lineitem_rows = 600;
  const TpchData db = GenerateTpch(options);
  const auto q = TpchQueryBuilder(17, db).Build();
  ASSERT_TRUE(q.ok());
  CheckAllSystems(*q);
}

TEST_F(IntegrationTest, TpchQ18AllSystemsAgree) {
  TpchOptions options;
  options.scale_factor = 50;
  options.physical_lineitem_rows = 600;
  const TpchData db = GenerateTpch(options);
  const auto q = TpchQueryBuilder(18, db).Build();
  ASSERT_TRUE(q.ok());
  CheckAllSystems(*q);
}

TEST_F(IntegrationTest, TpchQ7AllSystemsAgree) {
  TpchOptions options;
  options.scale_factor = 50;
  options.physical_lineitem_rows = 600;
  const TpchData db = GenerateTpch(options);
  const auto q = TpchQueryBuilder(7, db).Build();
  ASSERT_TRUE(q.ok());
  CheckAllSystems(*q);
}

TEST_F(IntegrationTest, TpchQ21AllSystemsAgree) {
  TpchOptions options;
  options.scale_factor = 50;
  options.physical_lineitem_rows = 400;
  const TpchData db = GenerateTpch(options);
  const auto q = TpchQueryBuilder(21, db).Build();
  ASSERT_TRUE(q.ok());
  CheckAllSystems(*q);
}

TEST_F(IntegrationTest, FlightItineraryAllSystemsAgree) {
  FlightLegOptions options;
  options.physical_rows = 150;
  options.logical_rows = kGiB / 28;
  std::vector<RelationPtr> legs = {GenerateFlightLeg(0, options),
                                   GenerateFlightLeg(1, options),
                                   GenerateFlightLeg(2, options)};
  const auto q = ItineraryQueryBuilder(
      legs, {StayOver{60, 240}, StayOver{120, 360}}).Build();
  ASSERT_TRUE(q.ok());
  CheckAllSystems(*q);
}

TEST_F(IntegrationTest, InequalityChainFavoursSingleJob) {
  // The headline behaviour: on an inequality-only chain our plan beats the
  // Hive-style cascade in simulated time (the cascade materializes band
  // intermediates; ours evaluates the chain in one Hilbert job).
  FlightLegOptions options;
  options.physical_rows = 200;
  options.logical_rows = 2 * kGiB / 28;
  std::vector<RelationPtr> legs = {GenerateFlightLeg(0, options),
                                   GenerateFlightLeg(1, options),
                                   GenerateFlightLeg(2, options)};
  const auto q = ItineraryQueryBuilder(
      legs, {StayOver{45, 360}, StayOver{45, 360}}).Build();
  ASSERT_TRUE(q.ok());
  const auto seconds = CheckAllSystems(*q);
  EXPECT_LT(seconds[0], seconds[2]);  // ours < hive
  EXPECT_LT(seconds[0], seconds[3]);  // ours < pig
}

TEST_F(IntegrationTest, DeterministicAcrossRuns) {
  MobileDataOptions options;
  options.physical_rows = 100;
  options.logical_bytes = 2 * kGiB;
  const auto q = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(q.ok());
  Planner planner(cluster_.get(), params_);
  Executor executor(cluster_.get());
  const auto plan = planner.Plan(*q);
  ASSERT_TRUE(plan.ok());
  const auto a = executor.Execute(*q, *plan, /*seed=*/7);
  const auto b = executor.Execute(*q, *plan, /*seed=*/7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->makespan, b->makespan);
  EXPECT_EQ(a->result_ids->num_rows(), b->result_ids->num_rows());
}

}  // namespace
}  // namespace mrtheta
