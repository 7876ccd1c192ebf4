// Result checks shared by the tests that execute whole plans. A projected
// query's last job writes the projection and builds no rid table, so a
// test that checks rid rows runs the same plan on Query::WithoutOutputs()
// and holds the projected rows to NaiveProjection of that run.

#ifndef MRTHETA_TESTS_RESULT_CHECKS_H_
#define MRTHETA_TESTS_RESULT_CHECKS_H_

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/executor.h"

namespace mrtheta {

/// The result table of an execution: the projection of a projected query,
/// otherwise the rid table.
inline const Relation& ResultRows(const ExecutionResult& result) {
  return result.projected != nullptr ? *result.projected
                                     : *result.result_ids;
}

/// The projection `query` declares, gathered cell by cell through the rid
/// table of `ids`, a run of the same plan on query.WithoutOutputs(): what
/// the last job's projection must equal, name, schema, row order and
/// logical rows included.
inline Relation NaiveProjection(const Query& query,
                                const ExecutionResult& ids) {
  std::vector<ColumnDef> cols;
  std::vector<int> rid_columns;
  for (const OutputColumn& out : query.outputs()) {
    const ColumnDef& src =
        query.relations()[out.base]->schema().column(out.column);
    cols.emplace_back("R" + std::to_string(out.base) + "." + src.name,
                      src.type, src.avg_width);
    const auto it = std::find(ids.covered_bases.begin(),
                              ids.covered_bases.end(), out.base);
    EXPECT_NE(it, ids.covered_bases.end());
    rid_columns.push_back(static_cast<int>(it - ids.covered_bases.begin()));
  }
  Relation projected("projection", Schema(std::move(cols)));
  for (int64_t r = 0; r < ids.result_ids->num_rows(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < query.outputs().size(); ++c) {
      const OutputColumn& out = query.outputs()[c];
      row.push_back(query.relations()[out.base]->Get(
          ids.result_ids->GetInt(r, rid_columns[c]), out.column));
    }
    EXPECT_TRUE(projected.AppendRow(row).ok());
  }
  return projected;
}

/// Byte identity: the same name, column names, types and widths, physical
/// and logical rows, and every cell in row order (doubles bit for bit).
inline ::testing::AssertionResult SameRelation(const Relation& a,
                                               const Relation& b) {
  if (a.name() != b.name()) {
    return ::testing::AssertionFailure()
           << "name " << a.name() << " vs " << b.name();
  }
  if (a.num_rows() != b.num_rows() || a.logical_rows() != b.logical_rows()) {
    return ::testing::AssertionFailure()
           << "rows " << a.num_rows() << " (logical " << a.logical_rows()
           << ") vs " << b.num_rows() << " (logical " << b.logical_rows()
           << ")";
  }
  if (a.schema().num_columns() != b.schema().num_columns()) {
    return ::testing::AssertionFailure() << "column count differs";
  }
  for (int c = 0; c < a.schema().num_columns(); ++c) {
    const ColumnDef& x = a.schema().column(c);
    const ColumnDef& y = b.schema().column(c);
    if (x.name != y.name || x.type != y.type || x.avg_width != y.avg_width) {
      return ::testing::AssertionFailure()
             << "column " << c << ": " << x.name << " vs " << y.name;
    }
    bool same = false;
    switch (x.type) {
      case ValueType::kInt64:
        same = *a.TryColumn<int64_t>(c) == *b.TryColumn<int64_t>(c);
        break;
      case ValueType::kDouble:
        same = a.num_rows() == 0 ||
               std::memcmp(a.TryColumn<double>(c)->data(),
                           b.TryColumn<double>(c)->data(),
                           static_cast<size_t>(a.num_rows()) *
                               sizeof(double)) == 0;
        break;
      case ValueType::kString:
        same = *a.TryColumn<std::string>(c) == *b.TryColumn<std::string>(c);
        break;
    }
    if (!same) {
      return ::testing::AssertionFailure()
             << "cells of column " << c << " (" << x.name << ") differ";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace mrtheta

#endif  // MRTHETA_TESTS_RESULT_CHECKS_H_
