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
#include "src/workload/mobile.h"

using namespace mrtheta;  // NOLINT: example brevity

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
    int64_t rows = 0;
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
      rows = result->num_rows();
      if (strategy.empty()) {
        strategy = plan->strategy + "/" +
                   std::to_string(plan->jobs.size()) + "job";
      }
    };
    run(engine.PlanQuery(*query));
    run(PlanYSmartStyle(*query, engine.cluster()));
    run(PlanHiveStyle(*query, engine.cluster()));
    run(PlanPigStyle(*query, engine.cluster()));

    table.AddRow({"Q" + std::to_string(qid),
                  TablePrinter::Num(seconds[0], 1),
                  TablePrinter::Num(seconds[1], 1),
                  TablePrinter::Num(seconds[2], 1),
                  TablePrinter::Num(seconds[3], 1),
                  TablePrinter::Int(rows), strategy});
  }
  std::printf("Mobile benchmark queries at 20 GB, kP <= 96\n\n");
  table.Print(std::cout);
  std::printf(
      "\nAll four systems compute identical results; the simulated times\n"
      "differ because of plan structure, reducer counts and SerDe costs.\n");
  return 0;
}
