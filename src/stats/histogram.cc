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
    int bin = static_cast<int>((v - h.min_) / h.width_);
    bin = std::clamp(bin, 0, num_bins - 1);
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

namespace {
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

void KmvSketch::InsertHash(uint64_t h) {
  // A full sketch admits only hashes below its largest one; checking that
  // first skips the duplicate scan for most values of a long stream.
  const bool full = static_cast<int>(heap_.size()) >= k_;
  if (full && h >= heap_.front()) return;
  // KMV tracks the k smallest *distinct* hashes; duplicates must never
  // enter the heap or the estimator is biased low/high.
  if (std::find(heap_.begin(), heap_.end(), h) != heap_.end()) return;
  if (!full) {
    heap_.push_back(h);
    std::push_heap(heap_.begin(), heap_.end());
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.back() = h;
  std::push_heap(heap_.begin(), heap_.end());
}

void KmvSketch::InsertInt(int64_t v) {
  InsertHash(Mix64(static_cast<uint64_t>(v)));
}

void KmvSketch::InsertDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  InsertHash(Mix64(bits));
}

void KmvSketch::InsertString(const std::string& v) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : v) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  InsertHash(Mix64(h));
}

double KmvSketch::Estimate() const {
  if (heap_.empty()) return 0.0;
  if (static_cast<int>(heap_.size()) < k_) {
    return static_cast<double>(heap_.size());
  }
  const double frac =
      static_cast<double>(heap_.front()) / static_cast<double>(UINT64_MAX);
  if (frac <= 0.0) return static_cast<double>(k_);
  return (k_ - 1) / frac;
}

}  // namespace mrtheta
