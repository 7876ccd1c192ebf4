#include "bench/mobile_suite.h"

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace mrtheta::bench {

int RunMobileSuite(int kp) {
  Harness harness(kp);
  std::printf("Mobile benchmark queries (Sec. 6.3.1), kP <= %d\n", kp);
  std::printf("cluster: %s\n\n", harness.cluster.config().ToString().c_str());
  for (int qid = 1; qid <= 4; ++qid) {
    TablePrinter table({"volume", "ours (s)", "ysmart (s)", "hive (s)",
                        "pig (s)", "hive/ours"});
    for (int64_t gb : {20, 100, 500}) {
      MobileDataOptions options;
      // Physical sample sizes chosen so the expansive <>-queries stay
      // materializable; logical volume drives the simulated clock.
      options.physical_rows = qid <= 2 ? 900 : 350;
      options.logical_bytes = gb * kGiB;
      StatusOr<Query> query = MobileQueryBuilder(qid, options).Build();
      if (!query.ok()) {
        std::fprintf(stderr, "query build failed\n");
        return 1;
      }
      const auto results = RunAllSystems(*query, harness);
      table.AddRow({std::to_string(gb) + "GB",
                    TablePrinter::Num(results[0].seconds, 1),
                    TablePrinter::Num(results[1].seconds, 1),
                    TablePrinter::Num(results[2].seconds, 1),
                    TablePrinter::Num(results[3].seconds, 1),
                    TablePrinter::Num(
                        results[2].seconds / results[0].seconds, 2)});
    }
    std::printf("Q%d:\n", qid);
    table.Print(std::cout);
    std::printf("\n");
  }
  return 0;
}

int RunTpchSuite(int kp) {
  Harness harness(kp);
  std::printf("TPC-H benchmark queries (Sec. 6.3.2, amended), kP <= %d\n",
              kp);
  std::printf("cluster: %s\n\n", harness.cluster.config().ToString().c_str());
  for (int qid : {7, 17, 18, 21}) {
    TablePrinter table({"volume", "ours (s)", "ysmart (s)", "hive (s)",
                        "pig (s)", "hive/ours"});
    for (int sf : {200, 500, 1000}) {
      TpchOptions options;
      options.scale_factor = sf;
      options.physical_lineitem_rows = 4000;
      const TpchData db = GenerateTpch(options);
      StatusOr<Query> query = TpchQueryBuilder(qid, db).Build();
      if (!query.ok()) {
        std::fprintf(stderr, "query build failed\n");
        return 1;
      }
      const auto results = RunAllSystems(*query, harness);
      table.AddRow({std::to_string(sf) + "GB",
                    TablePrinter::Num(results[0].seconds, 1),
                    TablePrinter::Num(results[1].seconds, 1),
                    TablePrinter::Num(results[2].seconds, 1),
                    TablePrinter::Num(results[3].seconds, 1),
                    TablePrinter::Num(
                        results[2].seconds / results[0].seconds, 2)});
    }
    std::printf("Q%d:\n", qid);
    table.Print(std::cout);
    std::printf("\n");
  }
  return 0;
}

}  // namespace mrtheta::bench
