// Ablation: evaluating an inequality chain with one Hilbert MRJ vs a
// cascade of pair-wise 1-Bucket-Theta jobs, sweeping chain length — the
// paper's core observation that single-job evaluation wins when cascades
// must materialize expansive theta intermediates.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/workload/flights.h"

using namespace mrtheta;  // NOLINT

int main() {
  bench::Harness harness(96);
  std::printf(
      "Ablation: single Hilbert MRJ vs pairwise cascade on inequality\n"
      "chains (flight itineraries, 1.5 GB per leg)\n\n");
  TablePrinter table({"chain length", "ours (s)", "hive-cascade (s)",
                      "cascade/ours"});

  for (int legs = 2; legs <= 4; ++legs) {
    FlightLegOptions options;
    options.physical_rows = 450;
    options.logical_rows = static_cast<int64_t>(1.5 * kGiB) /
                           28;  // ~1.5 GB per leg table
    std::vector<RelationPtr> tables;
    for (int i = 0; i < legs; ++i) {
      tables.push_back(GenerateFlightLeg(i, options));
    }
    std::vector<StayOver> stays(legs - 1, StayOver{45, 6 * 60});
    const auto query = ItineraryQueryBuilder(tables, stays).Build();
    if (!query.ok()) return 1;

    const auto ours = bench::RunSystem("ours", *query, harness);
    const auto hive = bench::RunSystem("hive", *query, harness);
    if (!ours.ok() || !hive.ok()) {
      std::fprintf(stderr, "run failed\n");
      return 1;
    }
    table.AddRow({TablePrinter::Int(legs),
                  TablePrinter::Num(ours->seconds, 1),
                  TablePrinter::Num(hive->seconds, 1),
                  TablePrinter::Num(hive->seconds / ours->seconds, 2)});
  }
  table.Print(std::cout);
  std::printf(
      "\nInequality-only chains have no equality keys: the cascade's\n"
      "1-Bucket-Theta steps materialize band-join intermediates that the\n"
      "single Hilbert job never writes.\n");
  return 0;
}
