#include "src/workload/flights.h"

#include <memory>

#include "src/common/rng.h"

namespace mrtheta {

RelationPtr GenerateFlightLeg(int leg_index,
                              const FlightLegOptions& options) {
  Schema schema({{"no", ValueType::kInt64},
                 {"dt", ValueType::kInt64},
                 {"at", ValueType::kInt64}});
  auto rel = std::make_shared<Relation>(
      "FI_" + std::to_string(leg_index) + "_" +
          std::to_string(leg_index + 1),
      schema);
  Rng rng(options.seed + static_cast<uint64_t>(leg_index) * 0x9e37);
  const int64_t horizon = static_cast<int64_t>(options.num_days) * 24 * 60;
  for (int64_t i = 0; i < options.physical_rows; ++i) {
    const int64_t dt = rng.UniformInt(0, horizon - 1);
    const int64_t at =
        dt + rng.UniformInt(options.min_duration, options.max_duration);
    rel->AppendIntRow({leg_index * 100000 + i, dt, at});
  }
  if (options.logical_rows > 0) rel->set_logical_rows(options.logical_rows);
  return rel;
}

QueryBuilder ItineraryQueryBuilder(const std::vector<RelationPtr>& legs,
                                   const std::vector<StayOver>& stays) {
  QueryBuilder b;
  if (stays.size() + 1 != legs.size()) return b;  // Build reports failure
  for (size_t i = 0; i < legs.size(); ++i) {
    b.From("f" + std::to_string(i), legs[i]);
  }
  for (size_t i = 0; i + 1 < legs.size(); ++i) {
    const std::string at = "f" + std::to_string(i) + ".at";
    const std::string dt = "f" + std::to_string(i + 1) + ".dt";
    // FI_i.at + stay.min < FI_{i+1}.dt
    b.Where(Col(at) + static_cast<double>(stays[i].min_minutes) < Col(dt));
    // FI_{i+1}.dt < FI_i.at + stay.max  ⇔  FI_i.at + stay.max > FI_{i+1}.dt
    b.Where(Col(at) + static_cast<double>(stays[i].max_minutes) > Col(dt));
  }
  for (size_t i = 0; i < legs.size(); ++i) {
    b.Select("f" + std::to_string(i) + ".no");
  }
  return b;
}

}  // namespace mrtheta
