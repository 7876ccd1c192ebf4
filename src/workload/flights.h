#ifndef MRTHETA_WORKLOAD_FLIGHTS_H_
#define MRTHETA_WORKLOAD_FLIGHTS_H_

#include <cstdint>
#include <vector>

#include "src/api/query_builder.h"
#include "src/common/status.h"
#include "src/core/query.h"
#include "src/relation/relation.h"

namespace mrtheta {

/// \brief The paper's motivating scenario (Sec. 2.2): flight tables
/// FI_{i,i+1}(no, dt, at) between consecutive cities of an itinerary, and a
/// chain theta-join finding all travel plans whose stay-over at city i+1
/// falls inside [l1, l2].
struct FlightLegOptions {
  int64_t physical_rows = 2000;
  int64_t logical_rows = 0;  ///< 0 = physical
  /// Departure times span this many days (minutes resolution).
  int num_days = 7;
  /// Flight duration range in minutes.
  int min_duration = 45;
  int max_duration = 360;
  uint64_t seed = 7;
};

/// Stay-over window at a city, in minutes.
struct StayOver {
  int64_t min_minutes = 60;
  int64_t max_minutes = 6 * 60;
};

/// Generates one leg table FI_{i,i+1} with columns no, dt, at (minutes).
RelationPtr GenerateFlightLeg(int leg_index, const FlightLegOptions& options);

/// Builder spec of the itinerary query over `legs.size()` legs (aliases
/// f0, f1, ...) with the given stay-over windows
/// (`stays.size() == legs.size() - 1`):
///   FI_i.at + stay[i].min < FI_{i+1}.dt  and
///   FI_{i+1}.dt < FI_i.at + stay[i].max.
/// Mismatched leg/stay counts, and a single leg (a query needs two
/// relations), yield a builder whose Build fails.
QueryBuilder ItineraryQueryBuilder(const std::vector<RelationPtr>& legs,
                                   const std::vector<StayOver>& stays);

}  // namespace mrtheta

#endif  // MRTHETA_WORKLOAD_FLIGHTS_H_
