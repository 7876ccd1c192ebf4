// Tests for the workload generators and the benchmark query catalog
// (Table 2 / Table 3 structure).

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace mrtheta {
namespace {

// Distinct inequality ops used by a query (Tables 2/3 "Inequality Func.").
std::set<ThetaOp> InequalityOps(const Query& q) {
  std::set<ThetaOp> ops;
  for (const auto& c : q.conditions()) {
    if (IsInequality(c.op)) ops.insert(c.op);
  }
  return ops;
}

TEST(MobileGenTest, SchemaAndRanges) {
  MobileDataOptions opts;
  opts.physical_rows = 3000;
  RelationPtr calls = GenerateMobileCalls(opts);
  EXPECT_EQ(calls->num_rows(), 3000);
  ASSERT_EQ(calls->schema().num_columns(), 5);
  EXPECT_EQ(calls->schema().column(0).name, "id");
  EXPECT_EQ(calls->schema().column(4).name, "bsc");
  for (int64_t r = 0; r < calls->num_rows(); ++r) {
    EXPECT_GE(calls->GetInt(r, 1), 1);
    EXPECT_LE(calls->GetInt(r, 1), opts.num_days);
    EXPECT_GE(calls->GetInt(r, 2), 0);
    EXPECT_LT(calls->GetInt(r, 2), 86400);
    EXPECT_GE(calls->GetInt(r, 3), 1);
    EXPECT_GE(calls->GetInt(r, 4), 0);
    EXPECT_LT(calls->GetInt(r, 4), opts.num_stations);
  }
}

TEST(MobileGenTest, LogicalBytesHonored) {
  MobileDataOptions opts;
  opts.physical_rows = 100;
  opts.logical_bytes = 20 * kGiB;
  RelationPtr calls = GenerateMobileCalls(opts);
  EXPECT_NEAR(static_cast<double>(calls->logical_bytes()),
              static_cast<double>(20 * kGiB), 1e3);
}

TEST(MobileGenTest, DiurnalPatternHasPeaks) {
  MobileDataOptions opts;
  opts.physical_rows = 40000;
  RelationPtr calls = GenerateMobileCalls(opts);
  std::map<int, int> by_hour;
  for (int64_t r = 0; r < calls->num_rows(); ++r) {
    by_hour[static_cast<int>(calls->GetInt(r, 2) / 3600)]++;
  }
  // Day hours (10-20) must be busier than night hours (1-5).
  int day = 0, night = 0;
  for (int h = 10; h <= 20; ++h) day += by_hour[h];
  for (int h = 1; h <= 5; ++h) night += by_hour[h];
  EXPECT_GT(day / 11.0, 2.0 * night / 5.0);
}

TEST(MobileGenTest, StationsAreSkewed) {
  MobileDataOptions opts;
  opts.physical_rows = 30000;
  RelationPtr calls = GenerateMobileCalls(opts);
  std::map<int64_t, int> counts;
  for (int64_t r = 0; r < calls->num_rows(); ++r) {
    counts[calls->GetInt(r, 4)]++;
  }
  int max_count = 0;
  for (const auto& [s, c] : counts) max_count = std::max(max_count, c);
  // A Zipf top station far exceeds the uniform share.
  EXPECT_GT(max_count, 3 * 30000 / opts.num_stations);
}

TEST(MobileGenTest, InstancesAreIndependent) {
  MobileDataOptions opts;
  opts.physical_rows = 500;
  RelationPtr a = GenerateMobileCallsInstance(opts, 0);
  RelationPtr b = GenerateMobileCallsInstance(opts, 1);
  int identical = 0;
  for (int64_t r = 0; r < a->num_rows(); ++r) {
    identical += a->GetInt(r, 2) == b->GetInt(r, 2);
  }
  EXPECT_LT(identical, 50);  // begin-times coincide only by chance
}

TEST(MobileQueryTest, Table2Structure) {
  MobileDataOptions opts;
  opts.physical_rows = 50;
  // Q1: 3 relations, 4 conditions, {<=, >=}.
  const auto q1 = MobileQueryBuilder(1, opts).Build();
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->num_relations(), 3);
  EXPECT_EQ(q1->num_conditions(), 4);
  EXPECT_EQ(InequalityOps(*q1),
            (std::set<ThetaOp>{ThetaOp::kLe, ThetaOp::kGe}));
  // Q2 adds <>.
  const auto q2 = MobileQueryBuilder(2, opts).Build();
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(InequalityOps(*q2),
            (std::set<ThetaOp>{ThetaOp::kLe, ThetaOp::kGe, ThetaOp::kNe}));
  // Q3: 4 relations, 4 conditions, {<, >}.
  const auto q3 = MobileQueryBuilder(3, opts).Build();
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ(q3->num_relations(), 4);
  EXPECT_EQ(q3->num_conditions(), 4);
  EXPECT_EQ(InequalityOps(*q3),
            (std::set<ThetaOp>{ThetaOp::kLt, ThetaOp::kGt}));
  // Q4: {<, >, <>}.
  const auto q4 = MobileQueryBuilder(4, opts).Build();
  ASSERT_TRUE(q4.ok());
  EXPECT_EQ(InequalityOps(*q4),
            (std::set<ThetaOp>{ThetaOp::kLt, ThetaOp::kGt, ThetaOp::kNe}));
  EXPECT_FALSE(MobileQueryBuilder(5, opts).Build().ok());
}

TEST(MobileQueryTest, QueriesValidate) {
  MobileDataOptions opts;
  opts.physical_rows = 50;
  for (int which = 1; which <= 4; ++which) {
    const auto q = MobileQueryBuilder(which, opts).Build();
    ASSERT_TRUE(q.ok());
    EXPECT_TRUE(q->Validate().ok()) << "Q" << which;
  }
}

TEST(TpchGenTest, TableShapes) {
  TpchOptions opts;
  opts.physical_lineitem_rows = 2400;
  opts.scale_factor = 10.0;
  const TpchData db = GenerateTpch(opts);
  EXPECT_EQ(db.region->num_rows(), 5);
  EXPECT_EQ(db.nation->num_rows(), 25);
  EXPECT_EQ(db.lineitem->num_rows(), 2400);
  EXPECT_EQ(db.orders->num_rows(), 600);
  EXPECT_EQ(db.lineitem->logical_rows(), 60000000);
  EXPECT_EQ(db.orders->logical_rows(), 15000000);
  EXPECT_EQ(db.customer->logical_rows(), 1500000);
}

TEST(TpchGenTest, ForeignKeysAreValid) {
  TpchOptions opts;
  opts.physical_lineitem_rows = 1200;
  const TpchData db = GenerateTpch(opts);
  const auto orderkey_col = *db.lineitem->schema().FindColumn("l_orderkey");
  for (int64_t r = 0; r < db.lineitem->num_rows(); ++r) {
    const int64_t okey = db.lineitem->GetInt(r, orderkey_col);
    ASSERT_GE(okey, 0);
    ASSERT_LT(okey, db.orders->num_rows());
  }
  const auto custkey_col = *db.orders->schema().FindColumn("o_custkey");
  for (int64_t r = 0; r < db.orders->num_rows(); ++r) {
    ASSERT_LT(db.orders->GetInt(r, custkey_col), db.customer->num_rows());
  }
}

TEST(TpchGenTest, LineitemDatesAreConsistent) {
  TpchOptions opts;
  opts.physical_lineitem_rows = 1200;
  const TpchData db = GenerateTpch(opts);
  const Relation& li = *db.lineitem;
  const int ship = *li.schema().FindColumn("l_shipdate");
  const int receipt = *li.schema().FindColumn("l_receiptdate");
  const int okey = *li.schema().FindColumn("l_orderkey");
  const int odate = *db.orders->schema().FindColumn("o_orderdate");
  for (int64_t r = 0; r < li.num_rows(); ++r) {
    EXPECT_GT(li.GetInt(r, ship), db.orders->GetInt(li.GetInt(r, okey),
                                                    odate));
    EXPECT_GT(li.GetInt(r, receipt), li.GetInt(r, ship));
  }
}

TEST(TpchGenTest, LineitemInstancesShareOrders) {
  TpchOptions opts;
  opts.physical_lineitem_rows = 800;
  opts.num_lineitem_instances = 3;
  const TpchData db = GenerateTpch(opts);
  ASSERT_EQ(db.lineitem_samples.size(), 3u);
  // Same FK structure, different attribute draws.
  const int qty = *db.lineitem->schema().FindColumn("l_quantity");
  int diffs = 0;
  for (int64_t r = 0; r < 800; ++r) {
    EXPECT_EQ(db.lineitem_samples[0]->GetInt(r, 0),
              db.lineitem_samples[1]->GetInt(r, 0));  // same l_orderkey
    diffs += db.lineitem_samples[0]->GetInt(r, qty) !=
             db.lineitem_samples[1]->GetInt(r, qty);
  }
  EXPECT_GT(diffs, 700);
}

TEST(TpchQueryTest, Table3Structure) {
  TpchOptions opts;
  opts.physical_lineitem_rows = 800;
  const TpchData db = GenerateTpch(opts);
  // Q7: 5 relations, 8 conditions, {<=, >=}.
  const auto q7 = TpchQueryBuilder(7, db).Build();
  ASSERT_TRUE(q7.ok());
  EXPECT_EQ(q7->num_relations(), 5);
  EXPECT_EQ(q7->num_conditions(), 8);
  EXPECT_EQ(InequalityOps(*q7),
            (std::set<ThetaOp>{ThetaOp::kLe, ThetaOp::kGe}));
  // Q17: 3 relations, 4 conditions, {<=}.
  const auto q17 = TpchQueryBuilder(17, db).Build();
  ASSERT_TRUE(q17.ok());
  EXPECT_EQ(q17->num_relations(), 3);
  EXPECT_EQ(q17->num_conditions(), 4);
  EXPECT_EQ(InequalityOps(*q17), (std::set<ThetaOp>{ThetaOp::kLe}));
  // Q18: 4 relations, 4 conditions, {>=}.
  const auto q18 = TpchQueryBuilder(18, db).Build();
  ASSERT_TRUE(q18.ok());
  EXPECT_EQ(q18->num_relations(), 4);
  EXPECT_EQ(q18->num_conditions(), 4);
  EXPECT_EQ(InequalityOps(*q18), (std::set<ThetaOp>{ThetaOp::kGe}));
  // Q21: 6 relations, 8 conditions, {>=, <>}.
  const auto q21 = TpchQueryBuilder(21, db).Build();
  ASSERT_TRUE(q21.ok());
  EXPECT_EQ(q21->num_relations(), 6);
  EXPECT_EQ(q21->num_conditions(), 8);
  EXPECT_EQ(InequalityOps(*q21),
            (std::set<ThetaOp>{ThetaOp::kGe, ThetaOp::kNe}));
  EXPECT_FALSE(TpchQueryBuilder(1, db).Build().ok());
}

TEST(TpchQueryTest, QueriesValidate) {
  TpchOptions opts;
  opts.physical_lineitem_rows = 800;
  const TpchData db = GenerateTpch(opts);
  for (int which : {7, 17, 18, 21}) {
    const auto q = TpchQueryBuilder(which, db).Build();
    ASSERT_TRUE(q.ok());
    EXPECT_TRUE(q->Validate().ok()) << "Q" << which;
  }
}

TEST(FlightsTest, LegsAreConsistent) {
  FlightLegOptions opts;
  opts.physical_rows = 300;
  RelationPtr leg = GenerateFlightLeg(0, opts);
  EXPECT_EQ(leg->num_rows(), 300);
  const int dt = *leg->schema().FindColumn("dt");
  const int at = *leg->schema().FindColumn("at");
  for (int64_t r = 0; r < leg->num_rows(); ++r) {
    EXPECT_GE(leg->GetInt(r, at) - leg->GetInt(r, dt), opts.min_duration);
    EXPECT_LE(leg->GetInt(r, at) - leg->GetInt(r, dt), opts.max_duration);
  }
}

TEST(FlightsTest, ItineraryQueryShape) {
  FlightLegOptions opts;
  opts.physical_rows = 50;
  std::vector<RelationPtr> legs = {GenerateFlightLeg(0, opts),
                                   GenerateFlightLeg(1, opts),
                                   GenerateFlightLeg(2, opts)};
  const auto q = ItineraryQueryBuilder(legs, {StayOver{60, 240},
                                            StayOver{30, 120}}).Build();
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_relations(), 3);
  EXPECT_EQ(q->num_conditions(), 4);  // two per stop-over
  EXPECT_TRUE(q->Validate().ok());
  // All conditions are strict inequalities with offsets.
  for (const auto& c : q->conditions()) {
    EXPECT_TRUE(c.op == ThetaOp::kLt || c.op == ThetaOp::kGt);
    EXPECT_NE(c.offset, 0.0);
  }
}

TEST(TpchGenTest, LineitemKeySkewKnob) {
  TpchOptions uniform;
  uniform.physical_lineitem_rows = 8000;
  TpchOptions skewed = uniform;
  skewed.lineitem_key_skew = 1.2;
  const TpchData u = GenerateTpch(uniform);
  const TpchData s = GenerateTpch(skewed);
  auto top_partkey_freq = [](const Relation& lineitem) {
    std::map<int64_t, int64_t> counts;
    for (int64_t r = 0; r < lineitem.num_rows(); ++r) {
      counts[lineitem.GetInt(r, 1)]++;  // l_partkey
    }
    int64_t top = 0;
    for (const auto& [k, c] : counts) top = std::max(top, c);
    return static_cast<double>(top) /
           static_cast<double>(lineitem.num_rows());
  };
  // Uniform draw: no part dominates. Zipf(1.2): the top part carries a
  // double-digit share — the heavy hitter the skew subsystem must absorb.
  EXPECT_LT(top_partkey_freq(*u.lineitem), 0.02);
  EXPECT_GT(top_partkey_freq(*s.lineitem), 0.10);
  // The knob must not perturb the FK structure.
  for (int64_t r = 0; r < s.lineitem->num_rows(); ++r) {
    ASSERT_LT(s.lineitem->GetInt(r, 1), s.part->num_rows());
    ASSERT_LT(s.lineitem->GetInt(r, 2), s.supplier->num_rows());
  }
}

TEST(FlightsTest, ItineraryValidatesArguments) {
  FlightLegOptions opts;
  opts.physical_rows = 10;
  std::vector<RelationPtr> one = {GenerateFlightLeg(0, opts)};
  EXPECT_FALSE(ItineraryQueryBuilder(one, {}).Build().ok());
  std::vector<RelationPtr> two = {GenerateFlightLeg(0, opts),
                                  GenerateFlightLeg(1, opts)};
  // Missing stay-over window.
  EXPECT_FALSE(ItineraryQueryBuilder(two, {}).Build().ok());
}

}  // namespace
}  // namespace mrtheta
