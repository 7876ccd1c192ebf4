// Unit tests for src/relation: values, schemas, relations, predicates.

#include <gtest/gtest.h>

#include "src/relation/predicate.h"
#include "src/relation/relation.h"

namespace mrtheta {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value(int64_t{1}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(1.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value(std::string("x")).type(), ValueType::kString);
  EXPECT_TRUE(Value(int64_t{1}).is_numeric());
  EXPECT_FALSE(Value(std::string("x")).is_numeric());
}

TEST(ValueTest, NumericCompareAcrossTypes) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, LargeIntegersCompareExactly) {
  // 2^62 and 2^62+1 are indistinguishable as doubles.
  const int64_t big = int64_t{1} << 62;
  EXPECT_LT(Value(big).Compare(Value(big + 1)), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value(std::string("abc")).Compare(Value(std::string("abd"))), 0);
  EXPECT_EQ(Value(std::string("x")).Compare(Value(std::string("x"))), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(std::string("hi")).ToString(), "hi");
}

TEST(SchemaTest, FindColumn) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(*s.FindColumn("a"), 0);
  EXPECT_EQ(*s.FindColumn("b"), 1);
  EXPECT_FALSE(s.FindColumn("c").ok());
}

TEST(SchemaTest, RowBytesIncludesOverheadAndWidths) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  // 4 (framing) + 8 (int) + 16 (string default)
  EXPECT_EQ(s.avg_row_bytes(), 28);
}

TEST(SchemaTest, CustomWidth) {
  Schema s({{"fat", ValueType::kInt64, 100}});
  EXPECT_EQ(s.avg_row_bytes(), 104);
}

TEST(RelationTest, AppendAndGet) {
  Relation r("t", Schema({{"a", ValueType::kInt64},
                          {"b", ValueType::kDouble},
                          {"c", ValueType::kString}}));
  ASSERT_TRUE(r.AppendRow({Value(int64_t{1}), Value(2.5),
                           Value(std::string("x"))})
                  .ok());
  EXPECT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.GetInt(0, 0), 1);
  EXPECT_EQ(r.GetDouble(0, 1), 2.5);
  EXPECT_EQ(r.GetString(0, 2), "x");
  EXPECT_EQ(r.Get(0, 0), Value(int64_t{1}));
}

TEST(RelationTest, ArityMismatchIsError) {
  Relation r("t", Schema({{"a", ValueType::kInt64}}));
  EXPECT_FALSE(r.AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
}

TEST(RelationTest, GetDoublePromotesInt) {
  Relation r("t", Schema({{"a", ValueType::kInt64}}));
  r.AppendIntRow({7});
  EXPECT_EQ(r.GetDouble(0, 0), 7.0);
}

TEST(RelationTest, LogicalDefaultsToPhysical) {
  Relation r("t", Schema({{"a", ValueType::kInt64}}));
  r.AppendIntRow({1});
  r.AppendIntRow({2});
  EXPECT_EQ(r.logical_rows(), 2);
  r.set_logical_rows(1000);
  EXPECT_EQ(r.logical_rows(), 1000);
  EXPECT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.logical_bytes(), 1000 * r.schema().avg_row_bytes());
  EXPECT_EQ(r.physical_bytes(), 2 * r.schema().avg_row_bytes());
}

TEST(RelationTest, Slice) {
  Relation r("t", Schema({{"a", ValueType::kInt64}}));
  for (int64_t i = 0; i < 5; ++i) r.AppendIntRow({i * 10});
  Relation s = r.Slice({4, 0, 2});
  ASSERT_EQ(s.num_rows(), 3);
  EXPECT_EQ(s.GetInt(0, 0), 40);
  EXPECT_EQ(s.GetInt(1, 0), 0);
  EXPECT_EQ(s.GetInt(2, 0), 20);
}

TEST(PredicateTest, OpNames) {
  EXPECT_STREQ(ThetaOpName(ThetaOp::kLt), "<");
  EXPECT_STREQ(ThetaOpName(ThetaOp::kNe), "<>");
}

TEST(PredicateTest, FlipOp) {
  EXPECT_EQ(FlipOp(ThetaOp::kLt), ThetaOp::kGt);
  EXPECT_EQ(FlipOp(ThetaOp::kLe), ThetaOp::kGe);
  EXPECT_EQ(FlipOp(ThetaOp::kEq), ThetaOp::kEq);
  EXPECT_EQ(FlipOp(ThetaOp::kNe), ThetaOp::kNe);
  EXPECT_EQ(FlipOp(FlipOp(ThetaOp::kGe)), ThetaOp::kGe);
}

TEST(PredicateTest, IsInequality) {
  EXPECT_FALSE(IsInequality(ThetaOp::kEq));
  for (ThetaOp op : {ThetaOp::kLt, ThetaOp::kLe, ThetaOp::kGe, ThetaOp::kGt,
                     ThetaOp::kNe}) {
    EXPECT_TRUE(IsInequality(op));
  }
}

TEST(PredicateTest, EvalThetaIntAllOps) {
  EXPECT_TRUE(EvalThetaInt(1, ThetaOp::kLt, 2, 0));
  EXPECT_FALSE(EvalThetaInt(2, ThetaOp::kLt, 2, 0));
  EXPECT_TRUE(EvalThetaInt(2, ThetaOp::kLe, 2, 0));
  EXPECT_TRUE(EvalThetaInt(2, ThetaOp::kEq, 2, 0));
  EXPECT_TRUE(EvalThetaInt(2, ThetaOp::kGe, 2, 0));
  EXPECT_TRUE(EvalThetaInt(3, ThetaOp::kGt, 2, 0));
  EXPECT_TRUE(EvalThetaInt(1, ThetaOp::kNe, 2, 0));
}

TEST(PredicateTest, EvalThetaIntOffset) {
  // (1 + 3) > 3
  EXPECT_TRUE(EvalThetaInt(1, ThetaOp::kGt, 3, 3));
  // (1 + 1) > 3 fails
  EXPECT_FALSE(EvalThetaInt(1, ThetaOp::kGt, 3, 1));
}

TEST(PredicateTest, EvalThetaValuesWithOffset) {
  EXPECT_TRUE(EvalTheta(Value(int64_t{10}), ThetaOp::kLt,
                        Value(int64_t{12}), /*offset=*/1.5));
  EXPECT_FALSE(EvalTheta(Value(int64_t{11}), ThetaOp::kLt,
                         Value(int64_t{12}), /*offset=*/1.5));
}

TEST(PredicateTest, EvalThetaStrings) {
  EXPECT_TRUE(EvalTheta(Value(std::string("a")), ThetaOp::kLt,
                        Value(std::string("b"))));
  EXPECT_TRUE(EvalTheta(Value(std::string("a")), ThetaOp::kNe,
                        Value(std::string("b"))));
}

TEST(PredicateTest, OrientedForSwapsSidesConsistently) {
  // (R0.c0 + 5) < R1.c1  ==  (R1.c1 - 5) > R0.c0
  JoinCondition cond;
  cond.lhs = {0, 0};
  cond.op = ThetaOp::kLt;
  cond.rhs = {1, 1};
  cond.offset = 5.0;
  cond.id = 3;
  const JoinCondition flipped = cond.OrientedFor(1);
  EXPECT_EQ(flipped.lhs.relation, 1);
  EXPECT_EQ(flipped.rhs.relation, 0);
  EXPECT_EQ(flipped.op, ThetaOp::kGt);
  EXPECT_EQ(flipped.offset, -5.0);
  EXPECT_EQ(flipped.id, 3);
  // Semantics preserved for a concrete pair: lhs=2, rhs=8: (2+5)<8 true.
  EXPECT_TRUE(EvalTheta(Value(int64_t{2}), cond.op, Value(int64_t{8}),
                        cond.offset));
  EXPECT_TRUE(EvalTheta(Value(int64_t{8}), flipped.op, Value(int64_t{2}),
                        flipped.offset));
}

TEST(PredicateTest, ToStringIncludesOffset) {
  JoinCondition cond;
  cond.lhs = {0, 1};
  cond.op = ThetaOp::kGt;
  cond.rhs = {2, 3};
  cond.offset = 3.0;
  EXPECT_EQ(cond.ToString(), "R0.c1+3 > R2.c3");
}

TEST(RelationTest, GenerationChangesOnEveryMutation) {
  Relation rel("g", Schema({{"a", ValueType::kInt64}}));
  Relation other("o", Schema({{"a", ValueType::kInt64}}));
  // Distinct objects never share a generation (process-wide counter).
  EXPECT_NE(rel.generation(), other.generation());

  uint64_t last = rel.generation();
  auto expect_bumped = [&](const char* what) {
    EXPECT_NE(rel.generation(), last) << what;
    last = rel.generation();
  };
  ASSERT_TRUE(rel.AppendRow({Value(int64_t{1})}).ok());
  expect_bumped("AppendRow");
  rel.AppendIntRow({2});
  expect_bumped("AppendIntRow");
  ASSERT_TRUE(rel.AppendRows(other).ok());
  expect_bumped("AppendRows");
  rel.set_logical_rows(500);
  expect_bumped("set_logical_rows");
  // The stale-stats case: an in-place edit keeps num_rows but must not
  // keep the generation.
  const int64_t rows = rel.num_rows();
  ASSERT_TRUE(rel.SetCell(0, 0, Value(int64_t{42})).ok());
  EXPECT_EQ(rel.num_rows(), rows);
  expect_bumped("SetCell");
  EXPECT_EQ(rel.GetInt(0, 0), 42);

  // A read does not bump.
  (void)rel.Get(0, 0);
  EXPECT_EQ(rel.generation(), last);
  // A copy shares content, so it keeps the source's generation.
  const Relation copy = rel;
  EXPECT_EQ(copy.generation(), rel.generation());
}

TEST(RelationTest, FromColumnsAdoptsStorageInOneGeneration) {
  const Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kDouble}});
  std::vector<int64_t> a = {1, 2, 3};
  const int64_t* a_storage = a.data();
  std::vector<Relation::ColumnData> columns;
  columns.emplace_back(std::move(a));
  columns.emplace_back(std::vector<double>{0.5, 1.5, 2.5});
  // Generations come from one process-wide counter that nothing else
  // draws from while this test runs: a build drawing exactly one lands
  // exactly between two default-constructed relations.
  const uint64_t before = Relation().generation();
  StatusOr<Relation> rel =
      Relation::FromColumns("f", schema, std::move(columns), 300);
  const uint64_t after = Relation().generation();
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->generation(), before + 1);
  EXPECT_EQ(after, before + 2);
  // Adopted, not copied.
  EXPECT_EQ(rel->TryColumn<int64_t>(0)->data(), a_storage);
  EXPECT_EQ(rel->num_rows(), 3);
  EXPECT_EQ(rel->logical_rows(), 300);
  EXPECT_EQ(rel->GetInt(2, 0), 3);
  EXPECT_EQ(rel->GetDouble(1, 1), 1.5);

  // Arity, type and length mismatches are a Status.
  std::vector<Relation::ColumnData> one;
  one.emplace_back(std::vector<int64_t>{1});
  EXPECT_FALSE(Relation::FromColumns("f", schema, std::move(one)).ok());
  std::vector<Relation::ColumnData> swapped;
  swapped.emplace_back(std::vector<double>{1.0});
  swapped.emplace_back(std::vector<int64_t>{1});
  EXPECT_FALSE(Relation::FromColumns("f", schema, std::move(swapped)).ok());
  std::vector<Relation::ColumnData> ragged;
  ragged.emplace_back(std::vector<int64_t>{1, 2});
  ragged.emplace_back(std::vector<double>{1.0});
  EXPECT_FALSE(Relation::FromColumns("f", schema, std::move(ragged)).ok());
}

TEST(RelationTest, SetCellValidatesRowColAndType) {
  Relation rel("s", Schema({{"i", ValueType::kInt64},
                            {"s", ValueType::kString}}));
  ASSERT_TRUE(
      rel.AppendRow({Value(int64_t{1}), Value(std::string("x"))}).ok());
  EXPECT_FALSE(rel.SetCell(1, 0, Value(int64_t{2})).ok());   // row range
  EXPECT_FALSE(rel.SetCell(0, 2, Value(int64_t{2})).ok());   // col range
  EXPECT_FALSE(rel.SetCell(0, 0, Value(std::string("y"))).ok());  // type
  EXPECT_FALSE(rel.SetCell(0, 1, Value(int64_t{2})).ok());   // type
  EXPECT_TRUE(rel.SetCell(0, 1, Value(std::string("y"))).ok());
  EXPECT_EQ(rel.GetString(0, 1), "y");
}

}  // namespace
}  // namespace mrtheta
