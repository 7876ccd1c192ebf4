// Unit and property tests for the d-dimensional Hilbert curve and the
// segment-coverage machinery (the paper's perfect partition function).

#include <cstdlib>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/hilbert/hilbert.h"

namespace mrtheta {
namespace {

TEST(HilbertCurveTest, CreateValidatesArguments) {
  EXPECT_FALSE(HilbertCurve::Create(0, 4).ok());
  EXPECT_FALSE(HilbertCurve::Create(17, 1).ok());
  EXPECT_FALSE(HilbertCurve::Create(2, 0).ok());
  EXPECT_FALSE(HilbertCurve::Create(8, 8).ok());  // 64 bits > 62
  EXPECT_TRUE(HilbertCurve::Create(8, 7).ok());
}

TEST(HilbertCurveTest, TwoDimOrderOneIsTheClassicU) {
  // The order-1 2-D Hilbert curve visits (0,0),(0,1),(1,1),(1,0) or a
  // rotation; successive cells must be grid neighbours and all distinct.
  const HilbertCurve c = *HilbertCurve::Create(2, 1);
  std::set<std::pair<uint32_t, uint32_t>> seen;
  uint32_t prev[2];
  for (uint64_t i = 0; i < 4; ++i) {
    uint32_t xy[2];
    c.Decode(i, xy);
    seen.insert({xy[0], xy[1]});
    if (i > 0) {
      const int dist = std::abs(static_cast<int>(xy[0]) -
                                static_cast<int>(prev[0])) +
                       std::abs(static_cast<int>(xy[1]) -
                                static_cast<int>(prev[1]));
      EXPECT_EQ(dist, 1);
    }
    prev[0] = xy[0];
    prev[1] = xy[1];
  }
  EXPECT_EQ(seen.size(), 4u);
}

struct CurveParam {
  int dims;
  int order;
};

class HilbertPropertyTest : public ::testing::TestWithParam<CurveParam> {};

TEST_P(HilbertPropertyTest, EncodeDecodeRoundTrip) {
  const auto [dims, order] = GetParam();
  const HilbertCurve c = *HilbertCurve::Create(dims, order);
  std::vector<uint32_t> coords(dims);
  for (uint64_t i = 0; i < c.num_cells(); ++i) {
    c.Decode(i, coords);
    for (uint32_t v : coords) EXPECT_LT(v, c.side());
    EXPECT_EQ(c.Encode(coords), i);
  }
}

TEST_P(HilbertPropertyTest, ConsecutiveCellsAreGridNeighbours) {
  const auto [dims, order] = GetParam();
  const HilbertCurve c = *HilbertCurve::Create(dims, order);
  std::vector<uint32_t> prev(dims), cur(dims);
  c.Decode(0, prev);
  for (uint64_t i = 1; i < c.num_cells(); ++i) {
    c.Decode(i, cur);
    int dist = 0;
    for (int d = 0; d < dims; ++d) {
      dist += std::abs(static_cast<int>(cur[d]) - static_cast<int>(prev[d]));
    }
    EXPECT_EQ(dist, 1) << "between positions " << i - 1 << " and " << i;
    prev = cur;
  }
}

TEST_P(HilbertPropertyTest, SegmentOfCellMatchesEncode) {
  const auto [dims, order] = GetParam();
  const HilbertCurve c = *HilbertCurve::Create(dims, order);
  std::vector<uint32_t> coords(dims);
  for (const uint64_t k : {uint64_t{1}, uint64_t{7}, c.num_cells()}) {
    const SegmentCoverage cov =
        *SegmentCoverage::Build(c, static_cast<int>(k));
    // Cells in row-major order, independent of the table's own walk.
    for (uint64_t cell = 0; cell < c.num_cells(); ++cell) {
      uint64_t rest = cell;
      for (int d = dims - 1; d >= 0; --d) {
        coords[d] = static_cast<uint32_t>(rest % c.side());
        rest /= c.side();
      }
      ASSERT_EQ(cov.SegmentOfCell(coords),
                cov.SegmentOfIndex(c.Encode(coords)))
          << "segments " << k << ", row-major cell " << cell;
    }
  }
}

// `a` and `b` answer every query alike: each cell's segment, each slice's
// segments and each segment's coverage counts.
void ExpectSameCoverage(const SegmentCoverage& a, const SegmentCoverage& b,
                        const HilbertCurve& c) {
  ASSERT_EQ(a.num_segments(), b.num_segments());
  ASSERT_EQ(a.dims(), c.dims());
  ASSERT_EQ(b.dims(), c.dims());
  std::vector<uint32_t> coords(c.dims());
  for (uint64_t cell = 0; cell < c.num_cells(); ++cell) {
    uint64_t rest = cell;
    for (int d = c.dims() - 1; d >= 0; --d) {
      coords[d] = static_cast<uint32_t>(rest % c.side());
      rest /= c.side();
    }
    ASSERT_EQ(a.SegmentOfCell(coords), b.SegmentOfCell(coords))
        << "row-major cell " << cell;
    ASSERT_EQ(a.cell_segments()[cell], a.SegmentOfCell(coords));
  }
  for (int d = 0; d < c.dims(); ++d) {
    for (uint32_t slice = 0; slice < c.side(); ++slice) {
      ASSERT_EQ(a.SegmentsForSlice(d, slice), b.SegmentsForSlice(d, slice))
          << "dim " << d << " slice " << slice;
    }
    for (int seg = 0; seg < a.num_segments(); ++seg) {
      ASSERT_EQ(a.CoverageCount(seg, d), b.CoverageCount(seg, d))
          << "dim " << d << " segment " << seg;
    }
  }
}

TEST_P(HilbertPropertyTest, SharedCoverageIsOneObjectEqualToAFreshBuild) {
  const auto [dims, order] = GetParam();
  const HilbertCurve c = *HilbertCurve::Create(dims, order);
  for (const uint64_t k : {uint64_t{1}, uint64_t{7}, c.num_cells()}) {
    const int segments = static_cast<int>(k);
    const auto shared = SharedSegmentCoverage(c, segments);
    ASSERT_TRUE(shared.ok());
    const auto again = SharedSegmentCoverage(c, segments);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(shared->get(), again->get()) << "segments " << k;
    ExpectSameCoverage(**shared, *SegmentCoverage::Build(c, segments), c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsOrders, HilbertPropertyTest,
    ::testing::Values(CurveParam{1, 6}, CurveParam{2, 3}, CurveParam{2, 5},
                      CurveParam{3, 3}, CurveParam{4, 3}, CurveParam{5, 2},
                      CurveParam{6, 2}),
    [](const ::testing::TestParamInfo<CurveParam>& param_info) {
      return "d" + std::to_string(param_info.param.dims) + "o" +
             std::to_string(param_info.param.order);
    });

TEST(SegmentCoverageTest, RejectsBadSegmentCounts) {
  const HilbertCurve c = *HilbertCurve::Create(2, 2);
  EXPECT_FALSE(SegmentCoverage::Build(c, 0).ok());
  EXPECT_FALSE(SegmentCoverage::Build(c, 17).ok());
  EXPECT_TRUE(SegmentCoverage::Build(c, 16).ok());
}

TEST(SegmentCoverageTest, SegmentsPartitionTheCurve) {
  const HilbertCurve c = *HilbertCurve::Create(3, 2);
  const SegmentCoverage cov = *SegmentCoverage::Build(c, 7);
  EXPECT_EQ(cov.SegmentBegin(0), 0u);
  EXPECT_EQ(cov.SegmentEnd(6), c.num_cells());
  for (int s = 0; s < 6; ++s) {
    EXPECT_EQ(cov.SegmentEnd(s), cov.SegmentBegin(s + 1));
    // Balanced: sizes differ by at most one cell.
    const int64_t size =
        static_cast<int64_t>(cov.SegmentEnd(s) - cov.SegmentBegin(s));
    EXPECT_GE(size, static_cast<int64_t>(c.num_cells() / 7));
    EXPECT_LE(size, static_cast<int64_t>(c.num_cells() / 7) + 1);
  }
  for (uint64_t i = 0; i < c.num_cells(); ++i) {
    const int s = cov.SegmentOfIndex(i);
    EXPECT_GE(i, cov.SegmentBegin(s));
    EXPECT_LT(i, cov.SegmentEnd(s));
  }
}

TEST(SegmentCoverageTest, EverySliceIsCovered) {
  const HilbertCurve c = *HilbertCurve::Create(2, 4);
  const SegmentCoverage cov = *SegmentCoverage::Build(c, 8);
  for (int d = 0; d < 2; ++d) {
    for (uint32_t s = 0; s < c.side(); ++s) {
      EXPECT_FALSE(cov.SegmentsForSlice(d, s).empty());
    }
  }
}

TEST(SegmentCoverageTest, CoverageConsistentWithCellWalk) {
  // slice_segments and coverage_count must describe the same relation.
  const HilbertCurve c = *HilbertCurve::Create(2, 3);
  const SegmentCoverage cov = *SegmentCoverage::Build(c, 5);
  for (int seg = 0; seg < 5; ++seg) {
    for (int d = 0; d < 2; ++d) {
      int count = 0;
      for (uint32_t s = 0; s < c.side(); ++s) {
        const auto& segs = cov.SegmentsForSlice(d, s);
        count += std::count(segs.begin(), segs.end(), seg);
      }
      EXPECT_EQ(count, cov.CoverageCount(seg, d));
    }
  }
}

TEST(SegmentCoverageTest, TheoremTwoFairTraversal) {
  // A Hilbert segment of 1/k of the curve covers roughly equal proportions
  // of every dimension (the core of the Theorem 2 proof).
  const HilbertCurve c = *HilbertCurve::Create(3, 3);
  const SegmentCoverage cov = *SegmentCoverage::Build(c, 8);
  for (int seg = 0; seg < 8; ++seg) {
    const int c0 = cov.CoverageCount(seg, 0);
    for (int d = 1; d < 3; ++d) {
      const int cd = cov.CoverageCount(seg, d);
      EXPECT_LE(std::abs(c0 - cd), 2)
          << "segment " << seg << " covers dimensions unevenly";
    }
  }
}

TEST(SegmentCoverageTest, SingleSegmentCoversEverything) {
  const HilbertCurve c = *HilbertCurve::Create(2, 3);
  const SegmentCoverage cov = *SegmentCoverage::Build(c, 1);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(cov.CoverageCount(0, d), static_cast<int>(c.side()));
  }
  EXPECT_EQ(cov.ReplicasForUniformRelation(0, 1000), 1000);
}

TEST(SegmentCoverageTest, ScoreMatchesReplicaAccounting) {
  const HilbertCurve c = *HilbertCurve::Create(2, 3);
  const SegmentCoverage cov = *SegmentCoverage::Build(c, 4);
  // Uniform populations: Score == sum of per-dimension replica counts.
  const int64_t rows = 800;
  std::vector<std::vector<int64_t>> pop(
      2, std::vector<int64_t>(c.side(), rows / c.side()));
  const int64_t score = cov.Score(pop);
  const int64_t replicas = cov.ReplicasForUniformRelation(0, rows) +
                           cov.ReplicasForUniformRelation(1, rows);
  EXPECT_EQ(score, replicas);
}

TEST(SegmentCoverageTest, MoreSegmentsMeansMoreReplicas) {
  // Fig. 5: network volume grows with the number of reduce tasks.
  const HilbertCurve c = *HilbertCurve::Create(3, 2);
  int64_t prev = 0;
  for (int k : {1, 2, 4, 8}) {
    const SegmentCoverage cov = *SegmentCoverage::Build(c, k);
    int64_t total = 0;
    for (int d = 0; d < 3; ++d) {
      total += cov.ReplicasForUniformRelation(d, 1000);
    }
    EXPECT_GE(total, prev) << "k=" << k;
    prev = total;
  }
  EXPECT_GT(prev, 3000);  // k=8 must replicate beyond the k=1 baseline
}

TEST(SharedSegmentCoverageTest, RejectsBadSegmentCounts) {
  const HilbertCurve c = *HilbertCurve::Create(2, 2);
  EXPECT_FALSE(SharedSegmentCoverage(c, 0).ok());
  EXPECT_FALSE(SharedSegmentCoverage(c, 17).ok());
  EXPECT_TRUE(SharedSegmentCoverage(c, 16).ok());
}

// Eight threads ask for a mix of keys at once, each in its own order,
// misses and hits alike; every table they get equals a fresh build.
TEST(SharedSegmentCoverageTest, ConcurrentRequestsGetEqualTables) {
  struct Key {
    int dims;
    int order;
    int segments;
  };
  const std::vector<Key> keys = {{3, 2, 3},  {3, 2, 5},  {3, 2, 9},
                                 {2, 4, 6},  {2, 4, 11}, {2, 4, 13},
                                 {4, 2, 10}, {4, 2, 21}, {1, 7, 5}};
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::vector<std::shared_ptr<const SegmentCoverage>>> got(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < keys.size(); ++i) {
          const Key& key = keys[(i + t * 5 + r) % keys.size()];
          const HilbertCurve c = *HilbertCurve::Create(key.dims, key.order);
          const auto coverage = SharedSegmentCoverage(c, key.segments);
          got[t].push_back(coverage.ok() ? *coverage : nullptr);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * keys.size());
    for (size_t j = 0; j < got[t].size(); ++j) {
      const Key& key =
          keys[(j % keys.size() + t * 5 + j / keys.size()) % keys.size()];
      const HilbertCurve c = *HilbertCurve::Create(key.dims, key.order);
      ASSERT_NE(got[t][j], nullptr) << "thread " << t << " request " << j;
      ExpectSameCoverage(*got[t][j], *SegmentCoverage::Build(c, key.segments),
                         c);
    }
  }
}

// More keys than the memo holds: every answer is still right, and a
// coverage the memo evicted stays valid for its holder.
TEST(SharedSegmentCoverageTest, MoreKeysThanTheBoundStayCorrect) {
  const HilbertCurve c = *HilbertCurve::Create(2, 3);
  const int num_keys = kSharedCoverageCapacity + 8;
  ASSERT_LE(static_cast<uint64_t>(num_keys), c.num_cells());
  const auto first = SharedSegmentCoverage(c, 1);
  ASSERT_TRUE(first.ok());
  for (int round = 0; round < 2; ++round) {
    for (int segments = 1; segments <= num_keys; ++segments) {
      const auto coverage = SharedSegmentCoverage(c, segments);
      ASSERT_TRUE(coverage.ok());
      ExpectSameCoverage(**coverage, *SegmentCoverage::Build(c, segments), c);
    }
  }
  ExpectSameCoverage(**first, *SegmentCoverage::Build(c, 1), c);
}

TEST(ChooseGridOrderTest, MeetsTargetWithinCap) {
  // 2 dims, 16 segments, 64 cells/segment target -> >= 1024 cells.
  const int order = ChooseGridOrder(2, 16, 64, 20);
  EXPECT_GE(uint64_t{1} << (2 * order), 1024u);
  // Cap binds: 6 dims with max 18 bits -> order 3.
  EXPECT_LE(ChooseGridOrder(6, 1024, 64, 18) * 6, 18);
  EXPECT_GE(ChooseGridOrder(1, 1, 1, 20), 1);
}

TEST(ApproxDuplicationFactorTest, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(ApproxDuplicationFactor(1, 64), 1.0);
  EXPECT_DOUBLE_EQ(ApproxDuplicationFactor(2, 64), 8.0);
  EXPECT_NEAR(ApproxDuplicationFactor(3, 64), 16.0, 1e-9);
  EXPECT_DOUBLE_EQ(ApproxDuplicationFactor(4, 1), 1.0);
}

TEST(ApproxDuplicationFactorTest, TracksMeasuredCoverage) {
  // The closed form should approximate the exact per-tuple duplication
  // measured from a real coverage (within a small factor).
  const HilbertCurve c = *HilbertCurve::Create(2, 4);
  const int k = 16;
  const SegmentCoverage cov = *SegmentCoverage::Build(c, k);
  const int64_t rows = 1 << 12;
  const double measured =
      static_cast<double>(cov.ReplicasForUniformRelation(0, rows)) / rows;
  const double predicted = ApproxDuplicationFactor(2, k);
  EXPECT_GT(measured, predicted * 0.4);
  EXPECT_LT(measured, predicted * 2.5);
}

}  // namespace
}  // namespace mrtheta
