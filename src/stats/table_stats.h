#ifndef MRTHETA_STATS_TABLE_STATS_H_
#define MRTHETA_STATS_TABLE_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/relation/relation.h"
#include "src/stats/histogram.h"

namespace mrtheta {

/// Summary statistics for one column, built from a sample at load time.
struct ColumnStats {
  double min = 0.0;
  double max = 0.0;
  /// Distinct values: the sample's KMV estimate (KmvDistinct), scaled to
  /// the logical cardinality when the sample is nearly all distinct. At
  /// least 1, also for an empty relation.
  double distinct = 0.0;
  /// Frequency of the most common value in the sample, counted exactly (0
  /// for an empty relation). Drives the planner's skew-handling decision
  /// (docs/SKEW.md): a uniform column has top_frequency ≈ 1/distinct, a
  /// Zipfian one is orders of magnitude above it.
  double top_frequency = 0.0;
  bool numeric = true;
  Histogram histogram;    ///< Empty for string columns.
};

/// \brief Per-table statistics: logical cardinality plus per-column stats.
///
/// This is the index/statistics structure the paper builds during its data
/// "uploading" step (Sec. 6.3, Fig. 11) and later uses for selectivity
/// estimation and (key,value) partition guidance.
struct TableStats {
  int64_t logical_rows = 0;
  int64_t logical_bytes = 0;
  int64_t avg_row_bytes = 0;
  std::vector<ColumnStats> columns;

  const ColumnStats& column(int i) const { return columns[i]; }
};

/// Rows every statistics sample reservoir-samples (the whole relation when
/// it is smaller), and the sampling seed: BuildTableStats, the planner's
/// filter selectivity and the Hilbert builder's skew detection all draw
/// their samples with these.
inline constexpr int64_t kStatsSampleRows = 4096;
inline constexpr uint64_t kStatsSampleSeed = 0x5eed;

/// Sample share at which a key counts as heavy (docs/SKEW.md): the planner
/// flags a Hilbert job for skew handling when a column's top_frequency
/// exceeds it, and the Hilbert builder makes every key whose share of an
/// input's sample reaches it a heavy candidate.
inline constexpr double kHeavyKeyFrequency = 0.02;

/// Builds TableStats from a relation by reservoir-sampling kStatsSampleRows
/// rows. Cardinalities are taken from the relation's *logical* sizes, so the
/// stats describe the represented on-cluster data.
TableStats BuildTableStats(const Relation& rel);

/// Reservoir-samples `k` row indices (uniform, deterministic for a seed).
std::vector<int64_t> ReservoirSampleRows(int64_t num_rows, int64_t k,
                                         uint64_t seed);

/// One distinct key of a sample and how often the sample holds it.
struct KeyCount {
  uint64_t key = 0;
  int64_t count = 0;
};

/// Sorts `keys`, one per sampled cell, and returns each distinct key once
/// with its count, ascending by key: the sample's exact frequencies.
std::vector<KeyCount> CountKeys(std::vector<uint64_t> keys);

/// KMV distinct-value estimate with k = 256 over the keys of `counts`:
/// their number when fewer than k; otherwise (k - 1) / u, where u is the
/// k-th smallest Mix64 image of a key divided by UINT64_MAX.
double KmvDistinct(std::span<const KeyCount> counts);

}  // namespace mrtheta

#endif  // MRTHETA_STATS_TABLE_STATS_H_
