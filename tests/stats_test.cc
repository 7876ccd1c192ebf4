// Unit tests for src/stats: histograms, sketches, sampling, selectivity.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/stats/selectivity.h"
#include "src/stats/table_stats.h"

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

TEST(KmvSketchTest, ExactBelowK) {
  KmvSketch sketch(256);
  for (int i = 0; i < 100; ++i) sketch.InsertInt(i % 50);
  EXPECT_NEAR(sketch.Estimate(), 50.0, 1.0);
}

TEST(KmvSketchTest, EstimatesLargeCardinality) {
  KmvSketch sketch(256);
  for (int i = 0; i < 100000; ++i) sketch.InsertInt(i);
  EXPECT_NEAR(sketch.Estimate(), 100000.0, 15000.0);
}

TEST(KmvSketchTest, DuplicatesDoNotInflate) {
  KmvSketch a(64), b(64);
  for (int i = 0; i < 1000; ++i) a.InsertInt(i % 10);
  for (int i = 0; i < 10; ++i) b.InsertInt(i);
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

TEST(KmvSketchTest, StringsAndDoubles) {
  KmvSketch sketch;
  sketch.InsertString("a");
  sketch.InsertString("b");
  sketch.InsertDouble(1.5);
  EXPECT_NEAR(sketch.Estimate(), 3.0, 0.5);
}

// Reference KMV: the plain insert, which scans for a duplicate before it
// asks whether the hash can enter, with KmvSketch's hashes and estimator.
// KmvSketch must keep exactly the same heap, so every estimate matches.
class ReferenceKmv {
 public:
  explicit ReferenceKmv(int k) : k_(k) {}

  void InsertInt(int64_t v) { InsertHash(Mix64(static_cast<uint64_t>(v))); }
  void InsertDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    InsertHash(Mix64(bits));
  }
  void InsertString(const std::string& v) {
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : v) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    InsertHash(Mix64(h));
  }

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

TEST(KmvSketchTest, MatchesReferenceOnStreamsWithDuplicates) {
  // Streams shorter and longer than k, over domains small enough that
  // most values repeat; the estimate must match after every insert.
  for (int k : {8, 256}) {
    for (int64_t length : {int64_t{50}, int64_t{20000}}) {
      const uint64_t domain = static_cast<uint64_t>(length / 3 + 1);
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " length=" + std::to_string(length));
      Rng rng(static_cast<uint64_t>(k * 100003 + length));
      KmvSketch ints(k), doubles(k), strings(k);
      ReferenceKmv ref_ints(k), ref_doubles(k), ref_strings(k);
      for (int64_t i = 0; i < length; ++i) {
        const int64_t v = static_cast<int64_t>(rng.Uniform(domain));
        ints.InsertInt(v);
        ref_ints.InsertInt(v);
        doubles.InsertDouble(static_cast<double>(v) / 8.0);
        ref_doubles.InsertDouble(static_cast<double>(v) / 8.0);
        strings.InsertString("v" + std::to_string(v));
        ref_strings.InsertString("v" + std::to_string(v));
        ASSERT_EQ(ints.Estimate(), ref_ints.Estimate()) << "insert " << i;
        ASSERT_EQ(doubles.Estimate(), ref_doubles.Estimate())
            << "insert " << i;
        ASSERT_EQ(strings.Estimate(), ref_strings.Estimate())
            << "insert " << i;
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
