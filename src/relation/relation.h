#ifndef MRTHETA_RELATION_RELATION_H_
#define MRTHETA_RELATION_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/common/status.h"
#include "src/relation/schema.h"
#include "src/relation/value.h"

namespace mrtheta {

/// \brief Columnar in-memory relation.
///
/// Two sizes coexist on purpose:
///  - the *physical* row count: tuples actually materialized in memory and
///    joined by the executors (laptop scale);
///  - the *logical* row count: the on-cluster cardinality this relation
///    represents in an experiment (e.g. "500 GB of call records").
///
/// Executors compute exact answers over physical rows; the simulator and the
/// cost model consume logical sizes. By default logical == physical, so
/// small programs need not care. Experiments call `set_logical_rows()` after
/// generating a representative sample.
class Relation {
 public:
  /// Storage of one column: the vector type matching its ValueType
  /// (alternatives in ValueType order).
  using ColumnData = std::variant<std::vector<int64_t>, std::vector<double>,
                                  std::vector<std::string>>;

  Relation() = default;
  Relation(std::string name, Schema schema);

  /// Builds a relation that adopts `columns` as its storage, without a
  /// copy: one column per schema column, storage matching the column's
  /// type, all of one length. `logical_rows` < 0 keeps logical ==
  /// physical. The build is one mutation batch, so it draws exactly one
  /// generation, where appending the same rows one by one draws one per
  /// row.
  static StatusOr<Relation> FromColumns(std::string name, Schema schema,
                                        std::vector<ColumnData> columns,
                                        int64_t logical_rows = -1);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  int64_t num_rows() const { return num_rows_; }

  /// Logical (represented) cardinality; >= 0. Defaults to num_rows().
  int64_t logical_rows() const {
    return logical_rows_ >= 0 ? logical_rows_ : num_rows_;
  }
  void set_logical_rows(int64_t rows) {
    logical_rows_ = rows;
    Touch();
  }

  /// Content-state identifier: drawn from a process-wide monotonic counter
  /// at construction and re-drawn after every mutation (appends, SetCell,
  /// set_logical_rows). Two observations of the same generation on the
  /// same object therefore saw identical content, and no two distinct
  /// content states — even across objects whose addresses the allocator
  /// recycled — ever share a (pointer, generation) pair. Copies keep the
  /// source's generation on purpose: they hold the same content, so
  /// derived artifacts (cached statistics) remain valid for them.
  uint64_t generation() const { return generation_; }

  /// Logical serialized size in bytes = logical_rows * avg_row_bytes.
  int64_t logical_bytes() const {
    return logical_rows() * schema_.avg_row_bytes();
  }
  /// Physical serialized size in bytes (what executors actually move).
  int64_t physical_bytes() const {
    return num_rows_ * schema_.avg_row_bytes();
  }

  /// Appends one row; the value count and types must match the schema
  /// (checked in debug builds; Status on arity mismatch).
  Status AppendRow(const std::vector<Value>& row);

  /// Typed fast-path appenders for generators (all-int64 schemas).
  void AppendIntRow(const std::vector<int64_t>& row);

  /// Appends every row of `other` (column-at-a-time, no Value boxing).
  /// Column count and types must match this relation's schema.
  Status AppendRows(const Relation& other);

  /// Overwrites one cell in place; the value's type must match the column
  /// (row/col bounds and type checked). In-place mutation bumps
  /// generation() so cached derived state (e.g. a session's statistics)
  /// can detect it even though num_rows() is unchanged.
  Status SetCell(int64_t row, int col, const Value& v);

  /// Cell accessors.
  Value Get(int64_t row, int col) const;
  int64_t GetInt(int64_t row, int col) const {
    return std::get<std::vector<int64_t>>(cols_[col])[row];
  }
  double GetDouble(int64_t row, int col) const;
  const std::string& GetString(int64_t row, int col) const {
    return std::get<std::vector<std::string>>(cols_[col])[row];
  }

  /// Raw columnar access: the backing vector of column `col` when its
  /// storage type is T, nullptr otherwise. The pointer stays valid for the
  /// relation's lifetime (columns are never reallocated after reads begin,
  /// but callers must not hold it across appends).
  template <typename T>
  const std::vector<T>* TryColumn(int col) const {
    return std::get_if<std::vector<T>>(&cols_[col]);
  }

  /// Returns a relation with the same schema containing the given rows.
  Relation Slice(const std::vector<int64_t>& row_indices) const;

  /// Renders up to `limit` rows for debugging.
  std::string ToString(int64_t limit = 10) const;

 private:
  /// Next value of the process-wide generation counter (atomic).
  static uint64_t NextGeneration();
  void Touch() { generation_ = NextGeneration(); }

  std::string name_;
  Schema schema_;
  std::vector<ColumnData> cols_;
  int64_t num_rows_ = 0;
  int64_t logical_rows_ = -1;
  uint64_t generation_ = NextGeneration();
};

/// Shared-ownership handle used across the planner/executor pipeline.
using RelationPtr = std::shared_ptr<const Relation>;

}  // namespace mrtheta

#endif  // MRTHETA_RELATION_RELATION_H_
