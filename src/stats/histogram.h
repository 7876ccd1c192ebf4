#ifndef MRTHETA_STATS_HISTOGRAM_H_
#define MRTHETA_STATS_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mrtheta {

/// \brief Equi-width histogram over a numeric column.
///
/// Built once at data-load time from a sample (the paper: "we run a sampling
/// algorithm to collect rough data statistics", Sec. 6.3) and consulted by
/// the selectivity estimator and the cost model.
class Histogram {
 public:
  /// Builds an equi-width histogram with `num_bins` buckets. Empty input
  /// yields an empty histogram (total_count() == 0).
  static Histogram Build(std::span<const double> values, int num_bins = 64);

  int num_bins() const { return static_cast<int>(counts_.size()); }
  int64_t total_count() const { return total_; }
  double min() const { return min_; }
  double max() const { return max_; }

  int64_t bin_count(int bin) const { return counts_[bin]; }
  double bin_lo(int bin) const { return min_ + bin * width_; }
  double bin_hi(int bin) const { return min_ + (bin + 1) * width_; }

  /// Fraction of values strictly below `v` (or <= when `inclusive`),
  /// linearly interpolating inside the containing bin. Returns values
  /// in [0, 1]; 0 for an empty histogram.
  double FracBelow(double v, bool inclusive = false) const;

  /// Fraction of values in [lo, hi].
  double FracBetween(double lo, double hi) const;

  std::string ToString() const;

 private:
  double min_ = 0.0;
  double max_ = 0.0;
  double width_ = 1.0;
  int64_t total_ = 0;
  std::vector<int64_t> counts_;
};

}  // namespace mrtheta

#endif  // MRTHETA_STATS_HISTOGRAM_H_
