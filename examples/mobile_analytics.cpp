// Mobile-network analytics: the paper's four benchmark queries over the
// call-record data set, comparing our planner with the three baselines on
// one volume — a miniature of the Fig. 9 experiment. One ThetaEngine
// session plans and executes all four queries (and the baseline plans),
// amortizing calibration across them.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/api/theta_engine.h"
#include "src/baselines/baseline_planners.h"
#include "src/common/table_printer.h"
#include "src/exec/join_side.h"
#include "src/workload/mobile.h"

using namespace mrtheta;  // NOLINT: example brevity

// Order-independent fingerprint of a result's rid rows: the sum of one
// hash per row, so plans that emit the same rows in another order agree.
uint64_t RowsFingerprint(const QueryResult& result) {
  const Relation& ids = *result.execution().result_ids;
  const std::vector<int>& bases = result.execution().covered_bases;
  uint64_t sum = 0;
  for (int64_t r = 0; r < ids.num_rows(); ++r) {
    uint64_t h = 0;
    for (int c = 0; c < ids.schema().num_columns(); ++c) {
      h = MixHash(h + static_cast<uint64_t>(bases[c]),
                  static_cast<uint64_t>(ids.GetInt(r, c)));
    }
    sum += h;
  }
  return sum;
}

int main() {
  ThetaEngine engine;

  TablePrinter table({"query", "ours (s)", "ysmart (s)", "hive (s)",
                      "pig (s)", "result rows", "plan"});
  for (int qid = 1; qid <= 4; ++qid) {
    MobileDataOptions options;
    options.physical_rows = qid <= 2 ? 900 : 350;
    options.logical_bytes = 20 * kGiB;
    const auto query = MobileQueryBuilder(qid, options).Build();
    if (!query.ok()) return 1;

    std::vector<double> seconds;
    std::vector<int64_t> rows;
    std::vector<uint64_t> fingerprints;
    std::string strategy;
    auto run = [&](StatusOr<QueryPlan> plan) {
      if (!plan.ok()) {
        std::printf("plan failed: %s\n", plan.status().ToString().c_str());
        std::exit(1);
      }
      const auto result = engine.ExecutePlan(*query, *plan);
      if (!result.ok()) {
        std::printf("execute failed: %s\n",
                    result.status().ToString().c_str());
        std::exit(1);
      }
      seconds.push_back(result->simulated_seconds());
      rows.push_back(result->num_rows());
      fingerprints.push_back(RowsFingerprint(*result));
      if (strategy.empty()) {
        strategy = plan->strategy + "/" +
                   std::to_string(plan->jobs.size()) + "job";
      }
    };
    run(engine.PlanQuery(*query));
    run(PlanYSmartStyle(*query, engine.cluster()));
    run(PlanHiveStyle(*query, engine.cluster()));
    run(PlanPigStyle(*query, engine.cluster()));
    for (size_t i = 1; i < rows.size(); ++i) {
      if (rows[i] != rows[0] || fingerprints[i] != fingerprints[0]) {
        std::printf("Q%d: system %zu returned %lld rows (fingerprint %016llx), "
                    "ours %lld (%016llx)\n",
                    qid, i, static_cast<long long>(rows[i]),
                    static_cast<unsigned long long>(fingerprints[i]),
                    static_cast<long long>(rows[0]),
                    static_cast<unsigned long long>(fingerprints[0]));
        return 1;
      }
    }

    table.AddRow({"Q" + std::to_string(qid),
                  TablePrinter::Num(seconds[0], 1),
                  TablePrinter::Num(seconds[1], 1),
                  TablePrinter::Num(seconds[2], 1),
                  TablePrinter::Num(seconds[3], 1),
                  TablePrinter::Int(rows[0]), strategy});
  }
  std::printf("Mobile benchmark queries at 20 GB, kP <= 96\n\n");
  table.Print(std::cout);
  std::printf(
      "\nAll four systems returned the same rows (count and an "
      "order-independent\nfingerprint); the simulated times differ because "
      "of plan structure,\nreducer counts and SerDe costs.\n");
  return 0;
}
