#include "src/stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mrtheta {

Histogram Histogram::Build(std::span<const double> values, int num_bins) {
  Histogram h;
  if (values.empty() || num_bins < 1) return h;
  h.min_ = *std::min_element(values.begin(), values.end());
  h.max_ = *std::max_element(values.begin(), values.end());
  double span = h.max_ - h.min_;
  if (span <= 0.0) span = 1.0;  // degenerate single-value column
  h.width_ = span / num_bins;
  h.counts_.assign(num_bins, 0);
  for (double v : values) {
    // A NaN position (a NaN value, or an infinite bound) counts in bin 0
    // rather than reaching the int cast, where it would be undefined.
    const double pos = (v - h.min_) / h.width_;
    const int bin =
        pos >= 0.0 ? static_cast<int>(std::min(pos, num_bins - 1.0)) : 0;
    ++h.counts_[bin];
  }
  h.total_ = static_cast<int64_t>(values.size());
  return h;
}

double Histogram::FracBelow(double v, bool inclusive) const {
  if (total_ == 0) return 0.0;
  if (v < min_) return 0.0;
  if (v > max_) return 1.0;
  if (v == max_ && inclusive) return 1.0;
  int64_t below = 0;
  const int bin = std::clamp(static_cast<int>((v - min_) / width_), 0,
                             num_bins() - 1);
  for (int b = 0; b < bin; ++b) below += counts_[b];
  // Linear interpolation inside the containing bin.
  const double frac_in_bin = (v - bin_lo(bin)) / width_;
  const double inside =
      static_cast<double>(counts_[bin]) * std::clamp(frac_in_bin, 0.0, 1.0);
  double result = (static_cast<double>(below) + inside) / total_;
  if (inclusive) {
    // Nudge by the average mass of one point; exactness is not needed here.
    result = std::min(1.0, result + 1.0 / static_cast<double>(total_));
  }
  return result;
}

double Histogram::FracBetween(double lo, double hi) const {
  if (hi < lo) return 0.0;
  return std::max(0.0, FracBelow(hi, /*inclusive=*/true) - FracBelow(lo));
}

std::string Histogram::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "hist[min=%g max=%g n=%lld bins=%d]", min_,
                max_, static_cast<long long>(total_), num_bins());
  return buf;
}

}  // namespace mrtheta
