// Table 2: mobile benchmark query statistics — relation count, inequality
// functions, join-condition count and measured result selectivity.

#include <cstdio>
#include <iostream>
#include <set>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/workload/mobile.h"

using namespace mrtheta;  // NOLINT

int main() {
  bench::Harness harness(96);
  std::printf("Table 2: mobile benchmark query statistics (20 GB)\n\n");
  TablePrinter table({"Q", "Relations", "Inequality Func.", "Join Cnt.",
                      "Result Sel."});
  for (int qid = 1; qid <= 4; ++qid) {
    MobileDataOptions options;
    options.physical_rows = qid <= 2 ? 900 : 350;
    options.logical_bytes = 20 * kGiB;
    const auto query = MobileQueryBuilder(qid, options).Build();
    if (!query.ok()) return 1;
    std::set<std::string> ops;
    for (const auto& c : query->conditions()) {
      if (IsInequality(c.op)) ops.insert(ThetaOpName(c.op));
    }
    std::string opstr = "{";
    for (const auto& o : ops) {
      if (opstr.size() > 1) opstr += ",";
      opstr += o;
    }
    opstr += "}";
    const auto run = bench::RunSystem("ours", *query, harness);
    if (!run.ok()) return 1;
    char sel[32];
    std::snprintf(sel, sizeof(sel), "%.3g", run->result_selectivity);
    table.AddRow({"Q" + std::to_string(qid),
                  std::to_string(query->num_relations()), opstr,
                  std::to_string(query->num_conditions()), sel});
  }
  table.Print(std::cout);
  std::printf(
      "\nNote: Result Sel. = logical result rows / cross product of the\n"
      "logical input cardinalities (see EXPERIMENTS.md for the comparison\n"
      "with the paper's reported values).\n");
  return 0;
}
