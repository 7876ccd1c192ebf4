#include "src/relation/relation.h"

#include "src/common/status.h"

#include <atomic>

namespace mrtheta {

uint64_t Relation::NextGeneration() {
  // Starts at 1 so 0 can act as a "never observed" sentinel in caches.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Relation::Relation(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  cols_.reserve(schema_.num_columns());
  for (const auto& c : schema_.columns()) {
    switch (c.type) {
      case ValueType::kInt64:
        cols_.emplace_back(std::vector<int64_t>{});
        break;
      case ValueType::kDouble:
        cols_.emplace_back(std::vector<double>{});
        break;
      case ValueType::kString:
        cols_.emplace_back(std::vector<std::string>{});
        break;
    }
  }
}

StatusOr<Relation> Relation::FromColumns(std::string name, Schema schema,
                                         std::vector<ColumnData> columns,
                                         int64_t logical_rows) {
  if (static_cast<int>(columns.size()) != schema.num_columns()) {
    return Status::InvalidArgument(
        "FromColumns: " + std::to_string(columns.size()) +
        " columns for schema arity " + std::to_string(schema.num_columns()));
  }
  int64_t rows = 0;
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (static_cast<int>(columns[c].index()) !=
        static_cast<int>(schema.column(c).type)) {
      return Status::InvalidArgument("FromColumns: type mismatch in column " +
                                     std::to_string(c));
    }
    const int64_t size = static_cast<int64_t>(std::visit(
        [](const auto& v) { return v.size(); }, columns[c]));
    if (c > 0 && size != rows) {
      return Status::InvalidArgument("FromColumns: column " +
                                     std::to_string(c) + " has " +
                                     std::to_string(size) + " rows, not " +
                                     std::to_string(rows));
    }
    rows = size;
  }
  Relation out;  // draws the relation's one generation
  out.name_ = std::move(name);
  out.schema_ = std::move(schema);
  out.cols_ = std::move(columns);
  out.num_rows_ = rows;
  out.logical_rows_ = logical_rows;
  return out;
}

Status Relation::AppendRow(const std::vector<Value>& row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " != schema arity " +
                                   std::to_string(schema_.num_columns()));
  }
  for (int c = 0; c < schema_.num_columns(); ++c) {
    switch (schema_.column(c).type) {
      case ValueType::kInt64:
        std::get<std::vector<int64_t>>(cols_[c]).push_back(row[c].AsInt());
        break;
      case ValueType::kDouble:
        std::get<std::vector<double>>(cols_[c]).push_back(row[c].AsDouble());
        break;
      case ValueType::kString:
        std::get<std::vector<std::string>>(cols_[c]).push_back(
            row[c].AsString());
        break;
    }
  }
  ++num_rows_;
  Touch();
  return Status::OK();
}

void Relation::AppendIntRow(const std::vector<int64_t>& row) {
  MRTHETA_DCHECK(static_cast<int>(row.size()) == schema_.num_columns());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    std::get<std::vector<int64_t>>(cols_[c]).push_back(row[c]);
  }
  ++num_rows_;
  Touch();
}

Status Relation::AppendRows(const Relation& other) {
  if (other.schema_.num_columns() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "AppendRows arity mismatch: " +
        std::to_string(other.schema_.num_columns()) + " vs " +
        std::to_string(schema_.num_columns()));
  }
  for (int c = 0; c < schema_.num_columns(); ++c) {
    if (other.schema_.column(c).type != schema_.column(c).type) {
      return Status::InvalidArgument("AppendRows type mismatch in column " +
                                     std::to_string(c));
    }
  }
  // Column-at-a-time bulk append: no per-cell Value boxing. Self-append
  // would read a vector while inserting into it (UB); double via a copy.
  if (&other == this) {
    const Relation copy = other;
    return AppendRows(copy);
  }
  for (int c = 0; c < schema_.num_columns(); ++c) {
    std::visit(
        [&](const auto& src) {
          auto& dst = std::get<std::decay_t<decltype(src)>>(cols_[c]);
          dst.insert(dst.end(), src.begin(), src.end());
        },
        other.cols_[c]);
  }
  num_rows_ += other.num_rows_;
  Touch();
  return Status::OK();
}

Status Relation::SetCell(int64_t row, int col, const Value& v) {
  if (col < 0 || col >= schema_.num_columns()) {
    return Status::OutOfRange("SetCell column out of range");
  }
  if (row < 0 || row >= num_rows_) {
    return Status::OutOfRange("SetCell row out of range");
  }
  const ValueType type = schema_.column(col).type;
  const bool compatible =
      (type == ValueType::kString && v.type() == ValueType::kString) ||
      (type == ValueType::kDouble && v.is_numeric()) ||
      (type == ValueType::kInt64 && v.type() == ValueType::kInt64);
  if (!compatible) {
    return Status::InvalidArgument("SetCell value type mismatch in column " +
                                   std::to_string(col));
  }
  switch (type) {
    case ValueType::kInt64:
      std::get<std::vector<int64_t>>(cols_[col])[row] = v.AsInt();
      break;
    case ValueType::kDouble:
      std::get<std::vector<double>>(cols_[col])[row] = v.AsDouble();
      break;
    case ValueType::kString:
      std::get<std::vector<std::string>>(cols_[col])[row] = v.AsString();
      break;
  }
  Touch();
  return Status::OK();
}

Value Relation::Get(int64_t row, int col) const {
  switch (schema_.column(col).type) {
    case ValueType::kInt64:
      return Value(GetInt(row, col));
    case ValueType::kDouble:
      return Value(std::get<std::vector<double>>(cols_[col])[row]);
    case ValueType::kString:
      return Value(GetString(row, col));
  }
  return Value();
}

double Relation::GetDouble(int64_t row, int col) const {
  if (schema_.column(col).type == ValueType::kInt64) {
    return static_cast<double>(GetInt(row, col));
  }
  return std::get<std::vector<double>>(cols_[col])[row];
}

Relation Relation::Slice(const std::vector<int64_t>& row_indices) const {
  Relation out(name_, schema_);
  // Column-at-a-time gather: no per-cell Value boxing.
  for (int c = 0; c < schema_.num_columns(); ++c) {
    std::visit(
        [&](const auto& src) {
          auto& dst = std::get<std::decay_t<decltype(src)>>(out.cols_[c]);
          dst.reserve(row_indices.size());
          for (int64_t r : row_indices) dst.push_back(src[r]);
        },
        cols_[c]);
  }
  out.num_rows_ = static_cast<int64_t>(row_indices.size());
  return out;
}

std::string Relation::ToString(int64_t limit) const {
  std::string out = name_ + "(" + schema_.ToString() + "), " +
                    std::to_string(num_rows_) + " rows\n";
  const int64_t n = std::min<int64_t>(limit, num_rows_);
  for (int64_t r = 0; r < n; ++r) {
    out += "  ";
    for (int c = 0; c < schema_.num_columns(); ++c) {
      if (c) out += " | ";
      out += Get(r, c).ToString();
    }
    out += "\n";
  }
  if (n < num_rows_) out += "  ...\n";
  return out;
}

}  // namespace mrtheta
