// The paper's motivating scenario (Sec. 2.2): find all travel plans along
// a city sequence where each stay-over falls inside a time window — a
// chain theta-join with band predicates, evaluated in ONE MapReduce job
// through the ThetaEngine session API.

#include <cstdio>

#include "src/api/theta_engine.h"
#include "src/workload/flights.h"

using namespace mrtheta;  // NOLINT: example brevity

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  ThetaEngine engine;

  // Itinerary over four cities = three flight-leg tables, each
  // representing ~4 GB of flight records.
  FlightLegOptions leg_options;
  leg_options.physical_rows = 800;
  leg_options.logical_rows = 4LL * kGiB / 28;
  std::vector<RelationPtr> legs = {GenerateFlightLeg(0, leg_options),
                                   GenerateFlightLeg(1, leg_options),
                                   GenerateFlightLeg(2, leg_options)};
  // Stay-overs: 1-4 h at city 1, 2-6 h at city 2.
  const std::vector<StayOver> stays = {StayOver{60, 240},
                                       StayOver{120, 360}};
  const auto query = ItineraryQueryBuilder(legs, stays).Build();
  if (!query.ok()) {
    std::printf("query: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n\n", query->ToString().c_str());

  const auto plan = engine.PlanQuery(*query);
  if (!plan.ok()) return 1;
  std::printf("%s\n", plan->ToString().c_str());

  const auto result = engine.ExecutePlan(*query, *plan);
  if (!result.ok()) {
    std::printf("execute: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("valid travel plans (physical sample): %lld\n",
              static_cast<long long>(result->num_rows()));
  std::printf("simulated makespan: %s\n",
              FormatSimTime(result->makespan()).c_str());
  // Show a few itineraries: flight numbers per leg.
  const int64_t show = std::min<int64_t>(5, result->rows().num_rows());
  for (int64_t r = 0; r < show; ++r) {
    std::printf("  plan %lld:", static_cast<long long>(r));
    for (int c = 0; c < result->num_columns(); ++c) {
      std::printf(" %s", result->Get(r, c).ToString().c_str());
    }
    std::printf("\n");
  }
  return 0;
}
