#ifndef MRTHETA_WORKLOAD_MOBILE_H_
#define MRTHETA_WORKLOAD_MOBILE_H_

#include <cstdint>

#include "src/api/query_builder.h"
#include "src/common/status.h"
#include "src/core/query.h"
#include "src/relation/relation.h"

namespace mrtheta {

/// \brief Generator for the paper's real-world mobile data set (Sec. 6.1):
/// phone-call records with schema
///   id   — caller id
///   d    — date (day number within the collection window)
///   bt   — begin time (seconds within the day)
///   l    — call length (seconds)
///   bsc  — base station code
///
/// The generator reproduces the two properties the paper's own scaling
/// procedure preserves: a diurnal begin-time pattern (24-hour periodic) and
/// Zipf-skewed station/user popularity.
struct MobileDataOptions {
  /// Physical tuples materialized (what executors join).
  int64_t physical_rows = 20000;
  /// Logical on-cluster data volume this relation represents, in bytes
  /// (the paper's 20 GB / 100 GB / 500 GB axis). 0 = physical only.
  int64_t logical_bytes = 0;
  int num_days = 61;
  int num_stations = 2000;
  int64_t num_users = 200000;
  /// Zipf exponents for user and station popularity.
  double user_skew = 0.8;
  double station_skew = 0.4;
  uint64_t seed = 2008;
};

/// Generates the call-record relation.
RelationPtr GenerateMobileCalls(const MobileDataOptions& options);

/// Generates the `instance`-th independent physical sample of the same
/// logical call table. Self-join queries bind each alias (t1, t2, ...) to a
/// distinct instance: a single shared sample would over-represent the
/// self-pair diagonal by N/n relative to the logical data.
RelationPtr GenerateMobileCallsInstance(const MobileDataOptions& options,
                                        int instance);

/// \brief Builder spec of mobile benchmark query Q1..Q4 (Sec. 6.3.1) over
/// the call table (self-joined as aliases t1, t2, ...):
///
///  Q1: concurrent calls at the same station
///      t1.bt<=t2.bt, t1.l>=t2.l, t2.bsc=t3.bsc, t2.d=t3.d
///  Q2: concurrent calls at different stations
///      t1.bt<=t2.bt, t1.l>=t2.l, t2.bsc<>t3.bsc, t2.d=t3.d
///  Q3: calls handled by the same station 3 days in a row
///      t1.d<t2.d, t2.d<t3.d, t1.d+3>t3.d, t1.bsc=t4.bsc
///  Q4: calls handled by different stations 3 days in a row
///      t1.d<t2.d, t2.d<t3.d, t1.d+3>t3.d, t1.bsc<>t4.bsc
///
/// Each alias is bound to an independent sample instance of the call table
/// (see GenerateMobileCallsInstance). Callers can extend the spec (extra
/// Where/Select/Filter clauses) before Build. An out-of-range `which`
/// yields a builder whose Build fails.
QueryBuilder MobileQueryBuilder(int which, const MobileDataOptions& options);

}  // namespace mrtheta

#endif  // MRTHETA_WORKLOAD_MOBILE_H_
