#include "src/workload/mobile.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/rng.h"

namespace mrtheta {

namespace {

// Samples a begin time (seconds in day) from the diurnal pattern: a
// 24-hour-periodic intensity with a morning and an evening peak.
int64_t SampleBeginTime(Rng& rng) {
  // Rejection sampling against intensity(h) in [0, 1].
  for (;;) {
    const double h = rng.UniformDouble() * 24.0;
    const double intensity =
        0.15 +
        0.55 * std::exp(-0.5 * std::pow((h - 11.0) / 3.0, 2.0)) +
        0.45 * std::exp(-0.5 * std::pow((h - 19.5) / 2.5, 2.0));
    if (rng.UniformDouble() < intensity) {
      return static_cast<int64_t>(h * 3600.0);
    }
  }
}

}  // namespace

RelationPtr GenerateMobileCalls(const MobileDataOptions& options) {
  Schema schema({{"id", ValueType::kInt64},
                 {"d", ValueType::kInt64},
                 {"bt", ValueType::kInt64},
                 {"l", ValueType::kInt64},
                 {"bsc", ValueType::kInt64}});
  auto rel = std::make_shared<Relation>("calls", schema);
  Rng rng(options.seed);
  for (int64_t i = 0; i < options.physical_rows; ++i) {
    const int64_t user = static_cast<int64_t>(
        rng.Zipf(static_cast<uint64_t>(options.num_users),
                 options.user_skew));
    const int64_t day =
        rng.UniformInt(1, options.num_days);
    const int64_t bt = SampleBeginTime(rng);
    // Call lengths: log-normal-ish, mostly short.
    const double len = std::exp(rng.Normal(4.0, 1.1));
    const int64_t l =
        std::clamp<int64_t>(static_cast<int64_t>(len), 1, 7200);
    const int64_t bsc = static_cast<int64_t>(rng.Zipf(
        static_cast<uint64_t>(options.num_stations), options.station_skew));
    rel->AppendIntRow({user, day, bt, l, bsc});
  }
  if (options.logical_bytes > 0) {
    rel->set_logical_rows(options.logical_bytes /
                          schema.avg_row_bytes());
  }
  return rel;
}

RelationPtr GenerateMobileCallsInstance(const MobileDataOptions& options,
                                        int instance) {
  MobileDataOptions per_instance = options;
  per_instance.seed =
      options.seed + 0x9e3779b9ULL * static_cast<uint64_t>(instance + 1);
  return GenerateMobileCalls(per_instance);
}

QueryBuilder MobileQueryBuilder(int which, const MobileDataOptions& options) {
  QueryBuilder b;
  if (which < 1 || which > 4) return b;  // Build reports the failure
  if (which <= 2) {
    b.From("t1", GenerateMobileCallsInstance(options, 0))
        .From("t2", GenerateMobileCallsInstance(options, 1))
        .From("t3", GenerateMobileCallsInstance(options, 2))
        .Where(Col("t1.bt") <= Col("t2.bt"))
        .Where(Col("t1.l") >= Col("t2.l"))
        .Where(which == 1 ? Col("t2.bsc") == Col("t3.bsc")
                          : Col("t2.bsc") != Col("t3.bsc"))
        .Where(Col("t2.d") == Col("t3.d"))
        .Select("t3.id");
  } else {
    b.From("t1", GenerateMobileCallsInstance(options, 0))
        .From("t2", GenerateMobileCallsInstance(options, 1))
        .From("t3", GenerateMobileCallsInstance(options, 2))
        .From("t4", GenerateMobileCallsInstance(options, 3))
        .Where(Col("t1.d") < Col("t2.d"))
        .Where(Col("t2.d") < Col("t3.d"))
        .Where(Col("t1.d") + 3 > Col("t3.d"))
        .Where(which == 3 ? Col("t1.bsc") == Col("t4.bsc")
                          : Col("t1.bsc") != Col("t4.bsc"))
        .Select("t1.id");
  }
  return b;
}

}  // namespace mrtheta
