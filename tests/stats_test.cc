// Unit tests for src/stats: histograms, sample counts and the KMV distinct
// estimate, sampling, table statistics and selectivity.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/stats/selectivity.h"
#include "src/stats/table_stats.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace mrtheta {
namespace {

std::vector<double> Uniform(int n, double lo, double hi, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = lo + rng.UniformDouble() * (hi - lo);
  return v;
}

TEST(HistogramTest, EmptyInput) {
  Histogram h = Histogram::Build({}, 8);
  EXPECT_EQ(h.total_count(), 0);
  EXPECT_EQ(h.FracBelow(1.0), 0.0);
}

TEST(HistogramTest, SingleValueColumn) {
  std::vector<double> v(100, 5.0);
  Histogram h = Histogram::Build(v, 8);
  EXPECT_EQ(h.total_count(), 100);
  EXPECT_EQ(h.min(), 5.0);
  EXPECT_EQ(h.max(), 5.0);
  EXPECT_EQ(h.FracBelow(4.9), 0.0);
  EXPECT_EQ(h.FracBelow(5.1), 1.0);
}

TEST(HistogramTest, FracBelowUniform) {
  const auto v = Uniform(50000, 0.0, 100.0, 1);
  Histogram h = Histogram::Build(v, 64);
  EXPECT_NEAR(h.FracBelow(25.0), 0.25, 0.02);
  EXPECT_NEAR(h.FracBelow(50.0), 0.50, 0.02);
  EXPECT_NEAR(h.FracBelow(90.0), 0.90, 0.02);
  EXPECT_EQ(h.FracBelow(-1.0), 0.0);
  EXPECT_EQ(h.FracBelow(200.0), 1.0);
}

TEST(HistogramTest, FracBetween) {
  const auto v = Uniform(50000, 0.0, 100.0, 2);
  Histogram h = Histogram::Build(v, 64);
  EXPECT_NEAR(h.FracBetween(20.0, 40.0), 0.2, 0.02);
  EXPECT_EQ(h.FracBetween(40.0, 20.0), 0.0);
}

TEST(HistogramTest, BinBoundaries) {
  std::vector<double> v = {0.0, 10.0};
  Histogram h = Histogram::Build(v, 10);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
  EXPECT_EQ(h.bin_count(0), 1);
  EXPECT_EQ(h.bin_count(9), 1);
}

// Reference KMV: a k-entry max-heap of the smallest distinct Mix64 images,
// fed one value at a time, which scans for a duplicate before it asks
// whether the hash can enter. Its keys are the sample keys BuildTableStats
// uses: an int64's or a double's bits, or a string's FNV-1a hash.
// KmvDistinct must give exactly its estimate.
class ReferenceKmv {
 public:
  explicit ReferenceKmv(int k) : k_(k) {}

  static uint64_t IntKey(int64_t v) { return static_cast<uint64_t>(v); }
  static uint64_t DoubleKey(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static uint64_t StringKey(const std::string& v) {
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : v) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    return h;
  }

  void InsertKey(uint64_t key) { InsertHash(Mix64(key)); }

  double Estimate() const {
    if (heap_.empty()) return 0.0;
    if (static_cast<int>(heap_.size()) < k_) {
      return static_cast<double>(heap_.size());
    }
    const double frac =
        static_cast<double>(heap_.front()) / static_cast<double>(UINT64_MAX);
    if (frac <= 0.0) return static_cast<double>(k_);
    return (k_ - 1) / frac;
  }

 private:
  static uint64_t Mix64(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  void InsertHash(uint64_t h) {
    if (std::find(heap_.begin(), heap_.end(), h) != heap_.end()) return;
    if (static_cast<int>(heap_.size()) < k_) {
      heap_.push_back(h);
      std::push_heap(heap_.begin(), heap_.end());
      return;
    }
    if (h < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = h;
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  int k_;
  std::vector<uint64_t> heap_;
};

double Distinct(std::vector<uint64_t> keys) {
  return KmvDistinct(CountKeys(std::move(keys)));
}

TEST(CountKeysTest, CountsEachDistinctKeyAscending) {
  const std::vector<KeyCount> counts = CountKeys({7, 3, 7, 7, 1, 3});
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0].key, 1u);
  EXPECT_EQ(counts[0].count, 1);
  EXPECT_EQ(counts[1].key, 3u);
  EXPECT_EQ(counts[1].count, 2);
  EXPECT_EQ(counts[2].key, 7u);
  EXPECT_EQ(counts[2].count, 3);
  EXPECT_TRUE(CountKeys({}).empty());
}

TEST(KmvDistinctTest, ExactBelowK) {
  std::vector<uint64_t> keys;
  for (int i = 0; i < 100; ++i) keys.push_back(ReferenceKmv::IntKey(i % 50));
  EXPECT_NEAR(Distinct(keys), 50.0, 1.0);
}

TEST(KmvDistinctTest, EstimatesLargeCardinality) {
  std::vector<uint64_t> keys;
  for (int i = 0; i < 100000; ++i) keys.push_back(ReferenceKmv::IntKey(i));
  EXPECT_NEAR(Distinct(keys), 100000.0, 15000.0);
}

TEST(KmvDistinctTest, DuplicatesDoNotInflate) {
  // Below and above k = 256 distinct keys.
  for (int d : {10, 1000}) {
    std::vector<uint64_t> repeated, once;
    for (int i = 0; i < 10 * d; ++i) {
      repeated.push_back(ReferenceKmv::IntKey(i % d));
    }
    for (int i = 0; i < d; ++i) once.push_back(ReferenceKmv::IntKey(i));
    EXPECT_DOUBLE_EQ(Distinct(repeated), Distinct(once)) << d;
  }
}

TEST(KmvDistinctTest, StringsAndDoubles) {
  EXPECT_NEAR(Distinct({ReferenceKmv::StringKey("a"),
                        ReferenceKmv::StringKey("b"),
                        ReferenceKmv::DoubleKey(1.5)}),
              3.0, 0.5);
}

TEST(KmvDistinctTest, MatchesReferenceOnStreamsWithDuplicates) {
  // Streams shorter and longer than k, over domains small enough that
  // most values repeat; the estimate must match the reference on every
  // prefix of the short stream and on prefixes of the long one.
  for (int64_t length : {int64_t{50}, int64_t{20000}}) {
    const uint64_t domain = static_cast<uint64_t>(length / 3 + 1);
    SCOPED_TRACE("length=" + std::to_string(length));
    Rng rng(static_cast<uint64_t>(256 * 100003 + length));
    std::vector<uint64_t> ints, doubles, strings;
    ReferenceKmv ref_ints(256), ref_doubles(256), ref_strings(256);
    for (int64_t i = 0; i < length; ++i) {
      const int64_t v = static_cast<int64_t>(rng.Uniform(domain));
      ints.push_back(ReferenceKmv::IntKey(v));
      doubles.push_back(ReferenceKmv::DoubleKey(static_cast<double>(v) / 8.0));
      strings.push_back(ReferenceKmv::StringKey("v" + std::to_string(v)));
      ref_ints.InsertKey(ints.back());
      ref_doubles.InsertKey(doubles.back());
      ref_strings.InsertKey(strings.back());
      if (i < 600 || i % 997 == 0 || i + 1 == length) {
        ASSERT_EQ(Distinct(ints), ref_ints.Estimate()) << "prefix " << i;
        ASSERT_EQ(Distinct(doubles), ref_doubles.Estimate()) << "prefix " << i;
        ASSERT_EQ(Distinct(strings), ref_strings.Estimate()) << "prefix " << i;
      }
    }
  }
}

TEST(ReservoirTest, TakesAllWhenSmall) {
  const auto rows = ReservoirSampleRows(5, 10, 1);
  EXPECT_EQ(rows.size(), 5u);
}

TEST(ReservoirTest, UniformInclusion) {
  // Each of 1000 rows should appear in a 100-row sample ~10% of the time.
  std::vector<int> hits(1000, 0);
  for (uint64_t seed = 0; seed < 200; ++seed) {
    for (int64_t r : ReservoirSampleRows(1000, 100, seed)) hits[r]++;
  }
  int extremes = 0;
  for (int h : hits) {
    if (h < 5 || h > 40) ++extremes;
  }
  EXPECT_LT(extremes, 20);
}

RelationPtr MakeIntRelation(int64_t rows, int64_t modulo, uint64_t seed) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    rel->AppendIntRow({static_cast<int64_t>(rng.Uniform(modulo)),
                       rng.UniformInt(0, 999)});
  }
  return rel;
}

TEST(TableStatsTest, BasicShape) {
  RelationPtr rel = MakeIntRelation(5000, 100, 3);
  const TableStats stats = BuildTableStats(*rel);
  EXPECT_EQ(stats.logical_rows, 5000);
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_NEAR(stats.column(0).distinct, 100.0, 10.0);
  EXPECT_GE(stats.column(0).min, 0.0);
  EXPECT_LE(stats.column(0).max, 99.0);
}

TEST(TableStatsTest, KeyLikeColumnScalesToLogical) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"id", ValueType::kInt64}}));
  for (int64_t i = 0; i < 2000; ++i) rel->AppendIntRow({i});
  rel->set_logical_rows(1000000);
  const TableStats stats = BuildTableStats(*rel);
  // All-distinct sample => treat as key: distinct ≈ logical cardinality.
  EXPECT_GT(stats.column(0).distinct, 500000.0);
}

TEST(TableStatsTest, LowCardinalityColumnStaysPut) {
  RelationPtr rel = MakeIntRelation(2000, 50, 5);
  auto mutable_rel = std::const_pointer_cast<Relation>(rel);
  mutable_rel->set_logical_rows(1000000);
  const TableStats stats = BuildTableStats(*rel);
  EXPECT_NEAR(stats.column(0).distinct, 50.0, 10.0);
}

// BuildTableStats' distinct estimate recomputed with ReferenceKmv over the
// same reservoir sample, after the same key-like scaling.
double ReferenceDistinct(const Relation& rel, int column) {
  const std::vector<int64_t> rows =
      ReservoirSampleRows(rel.num_rows(), kStatsSampleRows, kStatsSampleSeed);
  ReferenceKmv kmv(256);
  for (int64_t r : rows) {
    switch (rel.schema().column(column).type) {
      case ValueType::kInt64:
        kmv.InsertKey(ReferenceKmv::IntKey(rel.GetInt(r, column)));
        break;
      case ValueType::kDouble:
        kmv.InsertKey(ReferenceKmv::DoubleKey(rel.GetDouble(r, column)));
        break;
      case ValueType::kString:
        kmv.InsertKey(ReferenceKmv::StringKey(rel.GetString(r, column)));
        break;
    }
  }
  double d = kmv.Estimate();
  const double n = static_cast<double>(rows.size());
  if (n > 0 && d > 0.9 * n) {
    d = d / n * static_cast<double>(rel.logical_rows());
  }
  return std::max(1.0, d);
}

// The most common value's share of the same sample, counted pairwise:
// doubles by their bits, so -0.0, +0.0 and each NaN pattern count apart.
double BruteForceTopFrequency(const Relation& rel, int column) {
  const std::vector<int64_t> rows =
      ReservoirSampleRows(rel.num_rows(), kStatsSampleRows, kStatsSampleSeed);
  const ValueType type = rel.schema().column(column).type;
  auto same = [&](int64_t a, int64_t b) {
    switch (type) {
      case ValueType::kInt64:
        return rel.GetInt(a, column) == rel.GetInt(b, column);
      case ValueType::kDouble:
        return ReferenceKmv::DoubleKey(rel.GetDouble(a, column)) ==
               ReferenceKmv::DoubleKey(rel.GetDouble(b, column));
      case ValueType::kString:
        return rel.GetString(a, column) == rel.GetString(b, column);
    }
    return false;
  };
  int64_t top = 0;
  std::vector<bool> counted(rows.size(), false);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (counted[i]) continue;
    int64_t count = 0;
    for (size_t j = i; j < rows.size(); ++j) {
      if (!counted[j] && same(rows[i], rows[j])) {
        counted[j] = true;
        ++count;
      }
    }
    top = std::max(top, count);
  }
  return rows.empty() ? 0.0
                      : static_cast<double>(top) /
                            static_cast<double>(rows.size());
}

// Every column of the generated TPC-H, mobile and flights relations: the
// planner's two statistics inputs equal the reference KMV estimate and a
// brute-force count of the sample.
TEST(TableStatsTest, GeneratedColumnsMatchReferenceCounts) {
  std::vector<RelationPtr> rels;
  TpchOptions tpch;
  tpch.scale_factor = 100;
  tpch.physical_lineitem_rows = 2000;
  const TpchData db = GenerateTpch(tpch);
  rels = {db.region, db.nation, db.supplier, db.customer, db.part,
          db.partsupp, db.orders};
  rels.insert(rels.end(), db.lineitem_samples.begin(),
              db.lineitem_samples.end());
  MobileDataOptions mobile;
  mobile.physical_rows = 800;
  for (int i = 0; i < 3; ++i) {
    rels.push_back(GenerateMobileCallsInstance(mobile, i));
  }
  FlightLegOptions flights;
  flights.physical_rows = 400;
  for (int i = 0; i < 3; ++i) rels.push_back(GenerateFlightLeg(i, flights));

  int columns = 0;
  for (const RelationPtr& rel : rels) {
    const TableStats stats = BuildTableStats(*rel);
    for (int c = 0; c < rel->schema().num_columns(); ++c) {
      SCOPED_TRACE(rel->name() + "." + rel->schema().column(c).name);
      EXPECT_EQ(stats.column(c).distinct, ReferenceDistinct(*rel, c));
      EXPECT_EQ(stats.column(c).top_frequency,
                BruteForceTopFrequency(*rel, c));
      ++columns;
    }
  }
  EXPECT_GE(columns, 40);
}

TEST(TableStatsTest, EmptyRelation) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"i", ValueType::kInt64},
                   {"d", ValueType::kDouble},
                   {"s", ValueType::kString}}));
  const TableStats stats = BuildTableStats(*rel);
  ASSERT_EQ(stats.columns.size(), 3u);
  for (const ColumnStats& cs : stats.columns) {
    EXPECT_EQ(cs.distinct, 1.0);
    EXPECT_EQ(cs.top_frequency, 0.0);
    EXPECT_FALSE(std::isnan(cs.distinct));
    EXPECT_FALSE(std::isnan(cs.top_frequency));
  }
}

TEST(TableStatsTest, OneRowRelation) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"i", ValueType::kInt64}, {"s", ValueType::kString}}));
  ASSERT_TRUE(rel->AppendRow({Value(int64_t{7}), Value(std::string("x"))})
                  .ok());
  const TableStats stats = BuildTableStats(*rel);
  for (const ColumnStats& cs : stats.columns) {
    EXPECT_EQ(cs.distinct, 1.0);
    EXPECT_EQ(cs.top_frequency, 1.0);
  }
  EXPECT_EQ(stats.column(0).min, 7.0);
  EXPECT_EQ(stats.column(0).max, 7.0);
}

TEST(TableStatsTest, SingleValueColumn) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"k", ValueType::kInt64}}));
  for (int64_t i = 0; i < 5000; ++i) rel->AppendIntRow({42});
  const TableStats stats = BuildTableStats(*rel);
  EXPECT_EQ(stats.column(0).top_frequency, 1.0);
  EXPECT_EQ(stats.column(0).distinct, 1.0);
}

TEST(TableStatsTest, DoublesCountByBitPattern) {
  // NaN, -0.0 and +0.0 are three keys: -0.0 == +0.0 as numbers, but the
  // statistics count each bit pattern apart.
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"d", ValueType::kDouble}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {nan, nan, nan, -0.0, -0.0, 0.0, 1.5, 1.5, 1.5, 1.5}) {
    ASSERT_TRUE(rel->AppendRow({Value(v)}).ok());
  }
  const TableStats stats = BuildTableStats(*rel);
  EXPECT_EQ(stats.column(0).distinct, 4.0);
  EXPECT_EQ(stats.column(0).top_frequency, 0.4);
}

TEST(TableStatsTest, StringColumn) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"s", ValueType::kString}}));
  for (int i = 0; i < 100; ++i) {
    const std::string v = i < 40 ? "hot" : "v" + std::to_string(i % 20);
    ASSERT_TRUE(rel->AppendRow({Value(v)}).ok());
  }
  const TableStats stats = BuildTableStats(*rel);
  const ColumnStats& cs = stats.column(0);
  EXPECT_FALSE(cs.numeric);
  EXPECT_EQ(cs.histogram.total_count(), 0);
  EXPECT_EQ(cs.distinct, 21.0);
  EXPECT_EQ(cs.top_frequency, 0.4);
  EXPECT_EQ(cs.distinct, ReferenceDistinct(*rel, 0));
}

ColumnStats MakeUniformStats(double lo, double hi, double distinct,
                             uint64_t seed) {
  ColumnStats cs;
  cs.numeric = true;
  cs.min = lo;
  cs.max = hi;
  cs.distinct = distinct;
  const auto v = Uniform(20000, lo, hi, seed);
  cs.histogram = Histogram::Build(v, 64);
  return cs;
}

TEST(SelectivityTest, UniformLessThan) {
  const ColumnStats a = MakeUniformStats(0, 100, 1000, 7);
  const ColumnStats b = MakeUniformStats(0, 100, 1000, 8);
  // P(a < b) = 0.5 for iid uniforms.
  EXPECT_NEAR(EstimateThetaSelectivity(a, b, ThetaOp::kLt, 0.0), 0.5, 0.05);
  EXPECT_NEAR(EstimateThetaSelectivity(a, b, ThetaOp::kGe, 0.0), 0.5, 0.05);
}

TEST(SelectivityTest, DisjointRanges) {
  const ColumnStats a = MakeUniformStats(0, 10, 100, 9);
  const ColumnStats b = MakeUniformStats(100, 110, 100, 10);
  EXPECT_NEAR(EstimateThetaSelectivity(a, b, ThetaOp::kLt, 0.0), 1.0, 0.01);
  EXPECT_NEAR(EstimateThetaSelectivity(a, b, ThetaOp::kGt, 0.0), 0.0, 0.01);
  EXPECT_NEAR(EstimateThetaSelectivity(a, b, ThetaOp::kEq, 0.0), 0.0, 1e-6);
}

TEST(SelectivityTest, OffsetShiftsTheBand) {
  const ColumnStats a = MakeUniformStats(0, 100, 1000, 11);
  const ColumnStats b = MakeUniformStats(0, 100, 1000, 12);
  // P(a + 100 < b) = 0 ; P(a - 100 < b) = 1.
  EXPECT_NEAR(EstimateThetaSelectivity(a, b, ThetaOp::kLt, 100.0), 0.0,
              0.02);
  EXPECT_NEAR(EstimateThetaSelectivity(a, b, ThetaOp::kLt, -100.0), 1.0,
              0.02);
}

TEST(SelectivityTest, EqualityUniformMatchesOneOverD) {
  const ColumnStats a = MakeUniformStats(0, 100, 200, 13);
  const ColumnStats b = MakeUniformStats(0, 100, 200, 14);
  const double sel = EstimateThetaSelectivity(a, b, ThetaOp::kEq, 0.0);
  EXPECT_NEAR(sel, 1.0 / 200, 0.5 / 200);
}

TEST(SelectivityTest, SkewRaisesEqualitySelectivity) {
  // Zipf-distributed values collide far more often than uniform 1/d.
  Rng rng(15);
  std::vector<double> za(20000), zb(20000);
  for (auto& v : za) v = static_cast<double>(rng.Zipf(200, 1.0));
  for (auto& v : zb) v = static_cast<double>(rng.Zipf(200, 1.0));
  ColumnStats a, b;
  a.numeric = b.numeric = true;
  a.distinct = b.distinct = 200;
  a.histogram = Histogram::Build(za, 64);
  b.histogram = Histogram::Build(zb, 64);
  const double skewed = EstimateThetaSelectivity(a, b, ThetaOp::kEq, 0.0);
  EXPECT_GT(skewed, 2.0 / 200);  // well above the uniform estimate
}

TEST(SelectivityTest, NotEqualIsComplement) {
  const ColumnStats a = MakeUniformStats(0, 100, 50, 16);
  const ColumnStats b = MakeUniformStats(0, 100, 50, 17);
  const double eq = EstimateThetaSelectivity(a, b, ThetaOp::kEq, 0.0);
  const double ne = EstimateThetaSelectivity(a, b, ThetaOp::kNe, 0.0);
  EXPECT_NEAR(eq + ne, 1.0, 1e-9);
}

TEST(SelectivityTest, ConjunctionMultipliesAndClamps) {
  const ColumnStats a = MakeUniformStats(0, 100, 100, 18);
  const ColumnStats b = MakeUniformStats(0, 100, 100, 19);
  TableStats ta, tb;
  ta.logical_rows = tb.logical_rows = 1000;
  ta.columns = {a};
  tb.columns = {b};
  JoinCondition lt{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0};
  JoinCondition gt{{0, 0}, ThetaOp::kGt, {1, 0}, 0.0, 1};
  const double sel =
      EstimateConjunctionSelectivity({lt, gt}, {&ta, &tb});
  EXPECT_NEAR(sel, 0.25, 0.05);
  const double rows = EstimateJoinOutputRows({&ta, &tb}, {lt});
  EXPECT_NEAR(rows, 0.5 * 1000 * 1000, 0.1 * 1000 * 1000);
}

}  // namespace
}  // namespace mrtheta
