#include "src/stats/table_stats.h"

#include <algorithm>
#include <bit>
#include <string>

#include "src/common/rng.h"

namespace mrtheta {

namespace {

constexpr int kKmvMinValues = 256;
// Equi-width histogram buckets per numeric column.
constexpr int kHistogramBins = 64;

// Murmur3's 64-bit finalizer. It is a bijection, so distinct keys keep
// distinct images.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// One key per sampled cell: an int64's or a double's bits (so -0.0, +0.0
// and each NaN pattern count apart), or a string's FNV-1a hash.
std::vector<uint64_t> SampleKeys(const Relation& rel, int column,
                                 std::span<const int64_t> rows) {
  std::vector<uint64_t> keys;
  keys.reserve(rows.size());
  switch (rel.schema().column(column).type) {
    case ValueType::kInt64:
      for (int64_t r : rows) {
        keys.push_back(static_cast<uint64_t>(rel.GetInt(r, column)));
      }
      break;
    case ValueType::kDouble:
      for (int64_t r : rows) {
        keys.push_back(std::bit_cast<uint64_t>(rel.GetDouble(r, column)));
      }
      break;
    case ValueType::kString:
      for (int64_t r : rows) keys.push_back(Fnv1a(rel.GetString(r, column)));
      break;
  }
  return keys;
}

}  // namespace

std::vector<int64_t> ReservoirSampleRows(int64_t num_rows, int64_t k,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> reservoir;
  if (k <= 0) return reservoir;
  reservoir.reserve(static_cast<size_t>(std::min(k, num_rows)));
  for (int64_t i = 0; i < num_rows; ++i) {
    if (i < k) {
      reservoir.push_back(i);
    } else {
      const int64_t j = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(i) + 1));
      if (j < k) reservoir[j] = i;
    }
  }
  std::sort(reservoir.begin(), reservoir.end());
  return reservoir;
}

std::vector<KeyCount> CountKeys(std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<KeyCount> counts;
  for (size_t i = 0; i < keys.size();) {
    size_t end = i + 1;
    while (end < keys.size() && keys[end] == keys[i]) ++end;
    counts.push_back({keys[i], static_cast<int64_t>(end - i)});
    i = end;
  }
  return counts;
}

double KmvDistinct(std::span<const KeyCount> counts) {
  if (counts.size() < kKmvMinValues) {
    return static_cast<double>(counts.size());
  }
  std::vector<uint64_t> images;
  images.reserve(counts.size());
  for (const KeyCount& kc : counts) images.push_back(Mix64(kc.key));
  const auto kth = images.begin() + (kKmvMinValues - 1);
  std::nth_element(images.begin(), kth, images.end());
  const double u =
      static_cast<double>(*kth) / static_cast<double>(UINT64_MAX);
  return (kKmvMinValues - 1) / u;
}

TableStats BuildTableStats(const Relation& rel) {
  TableStats stats;
  stats.logical_rows = rel.logical_rows();
  stats.logical_bytes = rel.logical_bytes();
  stats.avg_row_bytes = rel.schema().avg_row_bytes();

  const std::vector<int64_t> rows =
      ReservoirSampleRows(rel.num_rows(), kStatsSampleRows, kStatsSampleSeed);
  const double n = static_cast<double>(rows.size());

  for (int c = 0; c < rel.schema().num_columns(); ++c) {
    ColumnStats cs;
    cs.numeric = rel.schema().column(c).type != ValueType::kString;
    if (cs.numeric) {
      std::vector<double> values;
      values.reserve(rows.size());
      for (int64_t r : rows) values.push_back(rel.GetDouble(r, c));
      cs.histogram = Histogram::Build(values, kHistogramBins);
      cs.min = cs.histogram.total_count() ? cs.histogram.min() : 0.0;
      cs.max = cs.histogram.total_count() ? cs.histogram.max() : 0.0;
    }
    // One sort of the sample's keys gives the top value's exact frequency
    // and the distinct estimate.
    const std::vector<KeyCount> counts = CountKeys(SampleKeys(rel, c, rows));
    int64_t top = 0;
    for (const KeyCount& kc : counts) top = std::max(top, kc.count);
    cs.top_frequency = rows.empty() ? 0.0 : static_cast<double>(top) / n;
    // Scale the sample's distinct estimate up to the logical cardinality:
    // if the sample saw nearly all-distinct values, assume the column is
    // key-like; otherwise keep the sample estimate (value-domain bound).
    double d = KmvDistinct(counts);
    if (n > 0 && d > 0.9 * n) {
      d = d / n * static_cast<double>(stats.logical_rows);
    }
    cs.distinct = std::max(1.0, d);
    stats.columns.push_back(std::move(cs));
  }
  return stats;
}

}  // namespace mrtheta
