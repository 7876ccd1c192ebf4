// Table 3: TPC-H benchmark query statistics for the amended Q7/Q17/Q18/Q21.

#include <cstdio>
#include <iostream>
#include <set>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/workload/tpch.h"

using namespace mrtheta;  // NOLINT

int main() {
  bench::Harness harness(96);
  std::printf("Table 3: TPC-H query statistics (SF 200)\n\n");
  TablePrinter table({"Q", "Relations", "Inequality Func.", "Join Cnt.",
                      "Result Sel."});
  TpchOptions options;
  options.scale_factor = 200;
  options.physical_lineitem_rows = 4000;
  const TpchData db = GenerateTpch(options);
  for (int qid : {7, 17, 18, 21}) {
    const auto query = TpchQueryBuilder(qid, db).Build();
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
  return 0;
}
