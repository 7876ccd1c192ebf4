#ifndef MRTHETA_HILBERT_HILBERT_H_
#define MRTHETA_HILBERT_HILBERT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"

namespace mrtheta {

/// \brief d-dimensional Hilbert space-filling curve over a 2^order-wide grid.
///
/// This is the paper's "perfect partition function" (Theorem 2): a bijection
/// between cell coordinates in the cross-product hyper-cube R1 × ... × Rd and
/// positions along a curve that visits every cell exactly once while
/// traversing all dimensions "fairly" — any contiguous curve segment covers
/// an (approximately) equal proportion of each dimension.
///
/// Implementation: Skilling's compact transform (AIP Conf. Proc. 707, 2004),
/// which converts between axes and a transposed Hilbert index with O(d·order)
/// bit operations. Requires dims * order <= 62 so indices fit in uint64_t.
class HilbertCurve {
 public:
  /// Creates a curve. `dims` in [1, 16]; `order` in [1, 31];
  /// dims*order <= 62.
  static StatusOr<HilbertCurve> Create(int dims, int order);

  int dims() const { return dims_; }
  int order() const { return order_; }

  /// Grid side length: 2^order cells per dimension.
  uint32_t side() const { return uint32_t{1} << order_; }

  /// Total number of cells: 2^(dims*order).
  uint64_t num_cells() const { return uint64_t{1} << (dims_ * order_); }

  /// Curve position of the cell at `coords` (coords.size() == dims, each
  /// < side()).
  uint64_t Encode(std::span<const uint32_t> coords) const;

  /// Inverse of Encode. `coords.size()` must equal dims().
  void Decode(uint64_t index, std::span<uint32_t> coords) const;

 private:
  HilbertCurve(int dims, int order) : dims_(dims), order_(order) {}

  int dims_;
  int order_;
};

/// \brief Coverage of a partition of the Hilbert curve into kR contiguous,
/// balanced segments ("components" c1..ckR in the paper, Definition 5 area).
///
/// For every segment and every dimension, records *which coordinate slices*
/// the segment touches. A tuple of relation i that falls into slice s along
/// dimension i must be replicated to every segment whose dimension-i coverage
/// contains s — this is exactly Cnt(t, C) from Eq. (7).
///
/// It also records which segment owns each cell, in a row-major table of
/// one int32 per cell (1 MiB at 2^18 cells). Hilbert reducers read that
/// table, through ComponentJoiner's CellOwnership, to keep only the
/// last-depth candidates whose cell their segment owns; no curve is
/// re-encoded per combination. A coverage is a pure function of (dims,
/// order, num_segments): jobs share one through SharedSegmentCoverage.
class SegmentCoverage {
 public:
  /// Walks the whole curve once (O(num_cells · dims)) and builds coverage
  /// and the cell table. `num_segments` in [1, num_cells].
  static StatusOr<SegmentCoverage> Build(const HilbertCurve& curve,
                                         int num_segments);

  int num_segments() const { return num_segments_; }
  int dims() const { return dims_; }
  uint32_t side() const { return side_; }

  /// Segments whose dimension-`dim` coverage includes coordinate `slice`.
  const std::vector<int>& SegmentsForSlice(int dim, uint32_t slice) const {
    return slice_segments_[dim][slice];
  }

  /// Number of distinct slices segment `seg` touches along `dim`
  /// (the c(R_i) of the Theorem 2 proof).
  int CoverageCount(int seg, int dim) const {
    return coverage_count_[seg][dim];
  }

  /// Segment owning curve position `index` (segments are balanced contiguous
  /// ranges).
  int SegmentOfIndex(uint64_t index) const;

  /// Segment owning the cell at `coords` (coords.size() == dims, each
  /// < side()): SegmentOfIndex(curve.Encode(coords)), read from the table
  /// Build filled while decoding every cell.
  int SegmentOfCell(std::span<const uint32_t> coords) const {
    MRTHETA_DCHECK(static_cast<int>(coords.size()) == dims_);
    uint64_t cell = 0;
    for (int d = 0; d < dims_; ++d) {
      MRTHETA_DCHECK(coords[d] < side_);
      cell = cell * side_ + coords[d];
    }
    return cell_segment_[cell];
  }

  /// The owning segment of every cell, row-major with dimension 0 most
  /// significant: the cell at `coords` is entry Σ_d coords[d] ·
  /// side^(dims-1-d).
  std::span<const int32_t> cell_segments() const { return cell_segment_; }

  /// First curve position of segment `seg`.
  uint64_t SegmentBegin(int seg) const;
  /// One past the last curve position of segment `seg`.
  uint64_t SegmentEnd(int seg) const { return SegmentBegin(seg + 1); }

  /// Partition score of this partition for the given per-dimension slice
  /// populations: Score(f) = Σ_i Σ_slices pop_i(s) · |segments covering s|
  /// — Eq. (7) evaluated exactly.
  /// `slice_population[dim][slice]` = number of tuples mapped to that slice.
  int64_t Score(
      const std::vector<std::vector<int64_t>>& slice_population) const;

  /// Total replica count ("network volume" in tuples) when relation `dim`
  /// has `rows` tuples spread uniformly over slices. Closed over the exact
  /// coverage, so it reproduces Fig. 5 numbers.
  int64_t ReplicasForUniformRelation(int dim, int64_t rows) const;

 private:
  SegmentCoverage() = default;

  int num_segments_ = 0;
  int dims_ = 0;
  uint32_t side_ = 0;
  uint64_t num_cells_ = 0;
  // slice_segments_[dim][slice] -> sorted segment ids covering that slice.
  std::vector<std::vector<std::vector<int>>> slice_segments_;
  // coverage_count_[seg][dim] -> #distinct slices touched.
  std::vector<std::vector<int>> coverage_count_;
  // cell_segment_[row-major cell] -> owning segment (dimension 0 most
  // significant).
  std::vector<int32_t> cell_segment_;
};

/// Most coverages SharedSegmentCoverage keeps at once: at most 32 MiB of
/// cell tables at the Hilbert job builder's 2^18-cell grid cap.
inline constexpr int kSharedCoverageCapacity = 32;

/// The coverage of `curve` cut into `num_segments` segments, built on the
/// first request for its (dims, order, num_segments) and shared
/// process-wide after it. The memo keeps the kSharedCoverageCapacity most
/// recently requested coverages; one it evicts stays valid for whoever
/// holds it. A build records a `hilbert/coverage-build` span. Thread-safe.
StatusOr<std::shared_ptr<const SegmentCoverage>> SharedSegmentCoverage(
    const HilbertCurve& curve, int num_segments);

/// Picks a grid order for partitioning a `dims`-dimensional cube into
/// `num_segments` Hilbert segments: the smallest order whose grid has at
/// least `cells_per_segment_target` cells per segment, capped so the full
/// walk stays cheap (2^max_total_bits cells).
int ChooseGridOrder(int dims, int num_segments,
                    int cells_per_segment_target = 64,
                    int max_total_bits = 20);

/// Closed-form approximation of the per-tuple duplication factor for a
/// Hilbert partition into kR segments of a d-cube (Eq. 9's consequence):
/// each segment covers ≈ kR^(-1/d) of every dimension, so a slice is covered
/// by ≈ kR^((d-1)/d) segments. Used by the optimizer's Δ minimization where
/// an exact grid walk per candidate would be too slow.
double ApproxDuplicationFactor(int dims, int num_segments);

}  // namespace mrtheta

#endif  // MRTHETA_HILBERT_HILBERT_H_
