#include "src/hilbert/hilbert.h"

#include "src/common/status.h"

#include <cmath>

namespace mrtheta {

namespace {

// Skilling's in-place conversion from axis coordinates to the "transposed"
// Hilbert index representation (each X[i] holds every dims-th bit of the
// final index).
void AxesToTranspose(uint32_t* x, int order, int dims) {
  const uint32_t m = uint32_t{1} << (order - 1);
  // Inverse undo.
  for (uint32_t q = m; q > 1; q >>= 1) {
    const uint32_t p = q - 1;
    for (int i = 0; i < dims; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert low bits of x[0]
      } else {
        const uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (int i = 1; i < dims; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    if (x[dims - 1] & q) t ^= q - 1;
  }
  for (int i = 0; i < dims; ++i) x[i] ^= t;
}

// Inverse of AxesToTranspose.
void TransposeToAxes(uint32_t* x, int order, int dims) {
  const uint32_t n = uint32_t{2} << (order - 1);
  // Gray decode by H ^ (H/2).
  uint32_t t = x[dims - 1] >> 1;
  for (int i = dims - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (uint32_t q = 2; q != n; q <<= 1) {
    const uint32_t p = q - 1;
    for (int i = dims - 1; i >= 0; --i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
}

}  // namespace

StatusOr<HilbertCurve> HilbertCurve::Create(int dims, int order) {
  if (dims < 1 || dims > 16) {
    return Status::InvalidArgument("dims must be in [1,16], got " +
                                   std::to_string(dims));
  }
  if (order < 1 || order > 31) {
    return Status::InvalidArgument("order must be in [1,31], got " +
                                   std::to_string(order));
  }
  if (dims * order > 62) {
    return Status::InvalidArgument(
        "dims*order must be <= 62 to fit a uint64 index");
  }
  return HilbertCurve(dims, order);
}

uint64_t HilbertCurve::Encode(std::span<const uint32_t> coords) const {
  MRTHETA_DCHECK(static_cast<int>(coords.size()) == dims_);
  uint32_t x[16];
  for (int i = 0; i < dims_; ++i) {
    MRTHETA_DCHECK(coords[i] < side());
    x[i] = coords[i];
  }
  if (order_ > 1) {
    AxesToTranspose(x, order_, dims_);
  } else if (dims_ > 1) {
    // order == 1: the transpose is the 1-bit Gray-code step.
    AxesToTranspose(x, 1, dims_);
  }
  // Interleave: MSB-first across bit planes, dimension 0 most significant.
  uint64_t index = 0;
  for (int bit = order_ - 1; bit >= 0; --bit) {
    for (int i = 0; i < dims_; ++i) {
      index = (index << 1) | ((x[i] >> bit) & 1u);
    }
  }
  return index;
}

void HilbertCurve::Decode(uint64_t index, std::span<uint32_t> coords) const {
  MRTHETA_DCHECK(static_cast<int>(coords.size()) == dims_);
  uint32_t x[16] = {0};
  // De-interleave.
  for (int bit = order_ - 1; bit >= 0; --bit) {
    for (int i = 0; i < dims_; ++i) {
      const int shift = bit * dims_ + (dims_ - 1 - i);
      x[i] = (x[i] << 1) | ((index >> shift) & 1u);
    }
  }
  TransposeToAxes(x, order_, dims_);
  for (int i = 0; i < dims_; ++i) coords[i] = x[i];
}

StatusOr<SegmentCoverage> SegmentCoverage::Build(const HilbertCurve& curve,
                                                 int num_segments) {
  if (num_segments < 1 ||
      static_cast<uint64_t>(num_segments) > curve.num_cells()) {
    return Status::InvalidArgument("num_segments must be in [1, num_cells]");
  }
  SegmentCoverage cov;
  cov.num_segments_ = num_segments;
  cov.dims_ = curve.dims();
  cov.side_ = curve.side();
  cov.num_cells_ = curve.num_cells();

  // seen[seg][dim] bitset over slices.
  const uint32_t side = curve.side();
  const int dims = curve.dims();
  std::vector<std::vector<std::vector<bool>>> seen(
      num_segments, std::vector<std::vector<bool>>(
                        dims, std::vector<bool>(side, false)));

  // Decode is Encode's inverse, so the table answers exactly what
  // SegmentOfIndex(Encode(coords)) would.
  cov.cell_segment_.resize(cov.num_cells_);
  std::vector<uint32_t> coords(dims);
  for (uint64_t idx = 0; idx < cov.num_cells_; ++idx) {
    const int seg = cov.SegmentOfIndex(idx);
    curve.Decode(idx, coords);
    uint64_t cell = 0;
    for (int d = 0; d < dims; ++d) {
      seen[seg][d][coords[d]] = true;
      cell = cell * side + coords[d];
    }
    cov.cell_segment_[cell] = seg;
  }

  cov.slice_segments_.assign(
      dims, std::vector<std::vector<int>>(side, std::vector<int>{}));
  cov.coverage_count_.assign(num_segments, std::vector<int>(dims, 0));
  for (int seg = 0; seg < num_segments; ++seg) {
    for (int d = 0; d < dims; ++d) {
      for (uint32_t s = 0; s < side; ++s) {
        if (seen[seg][d][s]) {
          cov.slice_segments_[d][s].push_back(seg);
          ++cov.coverage_count_[seg][d];
        }
      }
    }
  }
  return cov;
}

int SegmentCoverage::SegmentOfIndex(uint64_t index) const {
  // Balanced contiguous ranges: the first (num_cells % k) segments get one
  // extra cell. Invert the SegmentBegin formula.
  const uint64_t k = static_cast<uint64_t>(num_segments_);
  const uint64_t base = num_cells_ / k;
  const uint64_t extra = num_cells_ % k;
  const uint64_t long_cells = extra * (base + 1);
  if (index < long_cells) {
    return static_cast<int>(index / (base + 1));
  }
  return static_cast<int>(extra + (index - long_cells) / base);
}

uint64_t SegmentCoverage::SegmentBegin(int seg) const {
  const uint64_t k = static_cast<uint64_t>(num_segments_);
  const uint64_t base = num_cells_ / k;
  const uint64_t extra = num_cells_ % k;
  const uint64_t s = static_cast<uint64_t>(seg);
  return s * base + std::min(s, extra);
}

int64_t SegmentCoverage::Score(
    const std::vector<std::vector<int64_t>>& slice_population) const {
  MRTHETA_DCHECK(static_cast<int>(slice_population.size()) == dims_);
  int64_t score = 0;
  for (int d = 0; d < dims_; ++d) {
    MRTHETA_DCHECK(slice_population[d].size() == side_);
    for (uint32_t s = 0; s < side_; ++s) {
      score += slice_population[d][s] *
               static_cast<int64_t>(slice_segments_[d][s].size());
    }
  }
  return score;
}

int64_t SegmentCoverage::ReplicasForUniformRelation(int dim,
                                                    int64_t rows) const {
  // rows spread uniformly over `side_` slices: slice s holds rows/side
  // (± rounding) tuples.
  int64_t total = 0;
  for (uint32_t s = 0; s < side_; ++s) {
    const int64_t pop =
        rows / side_ + (static_cast<int64_t>(s) < rows % side_ ? 1 : 0);
    total += pop * static_cast<int64_t>(slice_segments_[dim][s].size());
  }
  return total;
}

int ChooseGridOrder(int dims, int num_segments, int cells_per_segment_target,
                    int max_total_bits) {
  MRTHETA_CHECK(dims >= 1);
  const double want_cells =
      static_cast<double>(num_segments) * cells_per_segment_target;
  int order = 1;
  while (order * dims < max_total_bits &&
         std::ldexp(1.0, order * dims) < want_cells) {
    ++order;
  }
  // Never exceed the walkable cap.
  while (order > 1 && order * dims > max_total_bits) --order;
  return order;
}

double ApproxDuplicationFactor(int dims, int num_segments) {
  if (dims <= 1) return 1.0;
  return std::pow(static_cast<double>(num_segments),
                  static_cast<double>(dims - 1) / dims);
}

}  // namespace mrtheta
