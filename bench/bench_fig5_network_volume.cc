// Fig. 5: how the network volume (tuple replicas shipped to reducers)
// grows as a 3-relation cube is split into more Hilbert segments, plus
// Table 1 (the simulated cluster's Hadoop parameter set) and the
// column-pruning view of the same volume: replicas are tuples, the bytes
// behind them are the payload width, and early projection shrinks that
// width per relation (docs/EXECUTOR.md "Column pruning").

#include <cstdio>
#include <iostream>

#include "src/common/table_printer.h"
#include "src/core/column_pruning.h"
#include "src/hilbert/hilbert.h"
#include "src/mapreduce/cluster_config.h"
#include "src/workload/tpch.h"

using namespace mrtheta;  // NOLINT

int main() {
  // ---- Table 1 ----
  ClusterConfig cfg;
  std::printf("Table 1: simulated Hadoop parameter configuration\n\n");
  TablePrinter t1({"Parameter Name", "Set"});
  t1.AddRow({"fs.blocksize", FormatBytes(cfg.block_size)});
  t1.AddRow({"io.sort.mb", FormatBytes(cfg.io_sort_bytes)});
  t1.AddRow({"io.sort.spill.percentage",
             TablePrinter::Num(cfg.io_sort_spill_percent, 2)});
  t1.AddRow({"dfs.replication", TablePrinter::Int(cfg.replication)});
  t1.AddRow({"read rate (TestDFSIO)",
             TablePrinter::Num(cfg.disk_read_mb_per_sec, 2) + " MB/s"});
  t1.AddRow({"write rate (TestDFSIO)",
             TablePrinter::Num(cfg.disk_write_mb_per_sec, 2) + " MB/s"});
  t1.Print(std::cout);

  // ---- Fig. 5 ----
  std::printf("\nFig. 5: network volume vs reduce tasks (|Ri|=|Rj|=|Rk|=n)\n\n");
  const auto curve = HilbertCurve::Create(3, 3);
  if (!curve.ok()) return 1;
  const int64_t n = 1 << 12;
  TablePrinter table({"reduce tasks", "replicas shipped", "x cross (1 task)"});
  for (int k : {1, 2, 4, 8, 16, 32, 64}) {
    const auto coverage = SegmentCoverage::Build(*curve, k);
    if (!coverage.ok()) return 1;
    int64_t total = 0;
    for (int d = 0; d < 3; ++d) {
      total += coverage->ReplicasForUniformRelation(d, n);
    }
    table.AddRow({TablePrinter::Int(k), TablePrinter::Int(total),
                  TablePrinter::Num(static_cast<double>(total) / (3 * n),
                                    2)});
  }
  table.Print(std::cout);
  std::printf(
      "\nThe 1-task row ships each tuple once (|Ri|+|Rj|+|Rk|); volume\n"
      "grows ~k^(2/3) with the segment count, as Eq. (9) predicts.\n");

  // ---- Fig. 5b: the byte view under column pruning (TPC-H Q17) ----
  // Replicas count tuples; the shuffle pays replicas x payload width.
  // Early projection prunes each relation to the columns its pending
  // conditions and the projection touch, shrinking every row of Fig. 5
  // by the same per-relation factor.
  std::printf(
      "\nFig. 5b: shuffle payload width, full vs pruned (TPC-H Q17)\n\n");
  TpchOptions tpch_options;
  tpch_options.physical_lineitem_rows = 256;  // widths only — tiny sample
  const TpchData db = GenerateTpch(tpch_options);
  const auto q17 = TpchQueryBuilder(17, db).Build();
  if (!q17.ok()) return 1;
  const char* aliases[] = {"l1 (lineitem)", "p (part)", "l2 (lineitem)"};
  std::vector<int> all_thetas;
  for (const JoinCondition& c : q17->conditions()) all_thetas.push_back(c.id);
  TablePrinter t5b({"relation", "full row B", "pruned row B", "kept cols",
                    "reduction"});
  double full_total = 0.0;
  double pruned_total = 0.0;
  for (int r = 0; r < q17->num_relations(); ++r) {
    const Schema& schema = q17->relations()[r]->schema();
    const std::vector<int> cols =
        RequiredColumnsForBase(*q17, r, all_thetas);
    const int64_t full = schema.avg_row_bytes();
    const int64_t pruned = PrunedRowBytes(schema, cols);
    const double rows =
        static_cast<double>(q17->relations()[r]->logical_rows());
    full_total += rows * static_cast<double>(full);
    pruned_total += rows * static_cast<double>(pruned);
    t5b.AddRow({aliases[r], TablePrinter::Int(full),
                TablePrinter::Int(pruned),
                TablePrinter::Int(static_cast<int64_t>(cols.size())) + "/" +
                    TablePrinter::Int(schema.num_columns()),
                TablePrinter::Num(100.0 * (1.0 - static_cast<double>(pruned) /
                                                     static_cast<double>(full)),
                                  1) + "%"});
  }
  t5b.Print(std::cout);
  std::printf(
      "\nEvery Fig. 5 volume scales by the pruned/full byte ratio: %.1f%%\n"
      "of the full-width shuffle (row-weighted) survives pruning.\n",
      100.0 * pruned_total / full_total);
  return 0;
}
