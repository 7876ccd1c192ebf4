#include "src/exec/join_side.h"

#include "src/common/status.h"
#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <cmath>
#include <variant>

namespace mrtheta {

std::shared_ptr<const CompiledRowFilter> CompiledRowFilter::CompileFor(
    int base, const std::vector<SelectionFilter>& filters,
    const RelationPtr& rel) {
  auto compiled = std::make_shared<CompiledRowFilter>();
  for (const SelectionFilter& f : filters) {
    if (f.col.relation != base) continue;
    const ColumnDef& def = rel->schema().column(f.col.column);
    // Typed fast paths: the variant dispatch happens once per filter, not
    // once per row. Integral-valued double literals (the QueryBuilder DSL
    // wraps every numeric literal as a double) fold onto the int64 path.
    const bool integral_literal =
        f.literal.type() == ValueType::kInt64 ||
        (f.literal.type() == ValueType::kDouble &&
         std::abs(f.literal.AsDouble()) < 9.0e15 &&  // exact int64 range
         static_cast<double>(static_cast<int64_t>(f.literal.AsDouble())) ==
             f.literal.AsDouble());
    if (def.type == ValueType::kInt64 && integral_literal &&
        std::abs(f.offset) < 9.0e15 &&
        f.offset == static_cast<int64_t>(f.offset)) {
      const int64_t* data = rel->TryColumn<int64_t>(f.col.column)->data();
      const int64_t lit = f.literal.type() == ValueType::kInt64
                              ? f.literal.AsInt()
                              : static_cast<int64_t>(f.literal.AsDouble());
      const int64_t off = static_cast<int64_t>(f.offset);
      const ThetaOp op = f.op;
      compiled->preds_.push_back([data, lit, off, op](int64_t row) {
        return EvalThetaInt(data[row], op, lit, off);
      });
    } else if (def.type != ValueType::kString) {
      const Relation* r = rel.get();
      const int col = f.col.column;
      const double lit = f.literal.AsDouble();
      const double off = f.offset;
      const ThetaOp op = f.op;
      compiled->preds_.push_back([r, col, lit, off, op](int64_t row) {
        return EvalThetaDouble(r->GetDouble(row, col), op, lit, off);
      });
    } else {
      const Relation* r = rel.get();
      const SelectionFilter filter = f;
      compiled->preds_.push_back([r, filter](int64_t row) {
        return filter.Eval(r->Get(row, filter.col.column));
      });
    }
  }
  if (compiled->preds_.empty()) return nullptr;
  compiled->pinned_ = rel;
  return compiled;
}

JoinSide JoinSide::ForBase(RelationPtr rel, int base_index) {
  JoinSide side;
  side.scale = rel->num_rows() > 0
                   ? static_cast<double>(rel->logical_rows()) /
                         static_cast<double>(rel->num_rows())
                   : 1.0;
  side.data = std::move(rel);
  side.bases = {base_index};
  side.is_base = true;
  return side;
}

JoinSide JoinSide::ForIntermediate(RelationPtr rel, std::vector<int> bases) {
  JoinSide side;
  side.scale = rel->num_rows() > 0
                   ? static_cast<double>(rel->logical_rows()) /
                         static_cast<double>(rel->num_rows())
                   : 1.0;
  side.data = std::move(rel);
  side.bases = std::move(bases);
  side.is_base = false;
  return side;
}

int64_t JoinSide::BaseRow(int64_t row, int base) const {
  if (is_base) {
    MRTHETA_DCHECK(base == bases[0]);
    return row;
  }
  const auto it = std::find(bases.begin(), bases.end(), base);
  MRTHETA_DCHECK(it != bases.end());
  const int col = static_cast<int>(it - bases.begin());
  return data->GetInt(row, col);
}

bool JoinSide::Covers(int base) const {
  return std::find(bases.begin(), bases.end(), base) != bases.end();
}

Schema MakeIntermediateSchema(
    const std::vector<int>& bases,
    const std::vector<RelationPtr>& base_relations,
    const std::vector<RequiredColumns>& required) {
  std::vector<ColumnDef> cols;
  cols.reserve(bases.size());
  for (int b : bases) {
    const Schema& schema = base_relations[b]->schema();
    const RequiredColumns* rc = FindRequired(required, b);
    const int width = static_cast<int>(
        rc != nullptr ? PrunedRowBytes(schema, rc->columns)
                      : schema.avg_row_bytes());
    cols.emplace_back("rid_" + std::to_string(b), ValueType::kInt64, width);
  }
  return Schema(std::move(cols));
}

int64_t SideShuffleBytes(const JoinSide& side,
                         const std::vector<JoinCondition>& conditions,
                         const std::vector<RequiredColumns>& required,
                         const std::vector<RelationPtr>& base_relations) {
  if (!side.is_base || required.empty()) {
    return side.data->schema().avg_row_bytes();
  }
  const int base = side.bases[0];
  // Downstream requirement ∪ this job's own condition columns on the base.
  std::vector<int> cols;
  if (const RequiredColumns* rc = FindRequired(required, base)) {
    cols = rc->columns;
  }
  for (const JoinCondition& cond : conditions) {
    for (const ColumnRef& ref : {cond.lhs, cond.rhs}) {
      if (ref.relation == base) cols.push_back(ref.column);
    }
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return PrunedRowBytes(base_relations[base]->schema(), cols);
}

const int64_t* RidColumnFor(const JoinSide& side, int base) {
  if (side.is_base) {
    MRTHETA_CHECK(base == side.bases[0]);
    return nullptr;
  }
  const auto it = std::find(side.bases.begin(), side.bases.end(), base);
  MRTHETA_CHECK(it != side.bases.end());
  return side.data
      ->TryColumn<int64_t>(static_cast<int>(it - side.bases.begin()))
      ->data();
}

std::vector<RidSource> ResolveRidSources(const std::vector<int>& output_bases,
                                         const std::vector<JoinSide>& inputs) {
  std::vector<RidSource> sources;
  sources.reserve(output_bases.size());
  for (int base : output_bases) {
    const auto it = std::find_if(
        inputs.begin(), inputs.end(),
        [base](const JoinSide& side) { return side.Covers(base); });
    MRTHETA_CHECK(it != inputs.end() && "output base not covered");
    sources.push_back({static_cast<int>(it - inputs.begin()),
                       RidColumnFor(*it, base)});
  }
  return sources;
}

namespace {
template <typename T>
Relation::ColumnData ReservedColumn(int64_t rows) {
  std::vector<T> column;
  column.reserve(static_cast<size_t>(rows));
  return column;
}
}  // namespace

StatusOr<Relation> ProjectResult(
    const Relation& intermediate, const std::vector<int>& covered_bases,
    const std::vector<RelationPtr>& base_relations,
    const std::vector<OutputColumn>& outputs, ThreadPool& pool) {
  std::vector<ColumnDef> cols;
  for (const OutputColumn& out : outputs) {
    if (std::find(covered_bases.begin(), covered_bases.end(), out.base) ==
        covered_bases.end()) {
      return Status::InvalidArgument(
          "projection references base not covered by result");
    }
    const ColumnDef& src =
        base_relations[out.base]->schema().column(out.column);
    cols.emplace_back("R" + std::to_string(out.base) + "." + src.name,
                      src.type, src.avg_width);
  }
  // Column-at-a-time gather through the rid columns into exactly sized
  // typed columns: no per-cell Value boxing. The columns are reserved here
  // so their blocks come from this thread's malloc arena; the gather, where
  // their pages fault in, runs as one task per column.
  const int64_t rows = intermediate.num_rows();
  std::vector<Relation::ColumnData> data;
  data.reserve(outputs.size());
  for (const OutputColumn& out : outputs) {
    switch (base_relations[out.base]->schema().column(out.column).type) {
      case ValueType::kInt64:
        data.push_back(ReservedColumn<int64_t>(rows));
        break;
      case ValueType::kDouble:
        data.push_back(ReservedColumn<double>(rows));
        break;
      case ValueType::kString:
        data.push_back(ReservedColumn<std::string>(rows));
        break;
    }
  }
  auto gather = [&](int64_t i) {
    const OutputColumn& out = outputs[i];
    const auto it =
        std::find(covered_bases.begin(), covered_bases.end(), out.base);
    const int64_t* rid =
        intermediate
            .TryColumn<int64_t>(static_cast<int>(it - covered_bases.begin()))
            ->data();
    std::visit(
        [&](auto& dst) {
          using T = typename std::decay_t<decltype(dst)>::value_type;
          const T* src =
              base_relations[out.base]->TryColumn<T>(out.column)->data();
          // Within the reservation, so it sizes without allocating.
          dst.resize(static_cast<size_t>(rows));
          T* cells = dst.data();
          for (int64_t r = 0; r < rows; ++r) cells[r] = src[rid[r]];
        },
        data[i]);
  };
  pool.ParallelFor(static_cast<int64_t>(outputs.size()), gather);
  return Relation::FromColumns("projection", Schema(std::move(cols)),
                               std::move(data));
}

ColumnDistinct EstimateDistinct(const Relation& rel, int column,
                                int64_t max_rows) {
  ColumnDistinct out;
  const int64_t n = std::min<int64_t>(rel.num_rows(), max_rows);
  if (n == 0) return out;
  std::vector<uint64_t> hashes;
  hashes.reserve(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    // int64 values are counted exactly: HashValue merges those past 2^53
    // that round to one double.
    const Value v = rel.Get(r, column);
    hashes.push_back(v.type() == ValueType::kInt64
                         ? MixHash(0x1234, static_cast<uint64_t>(v.AsInt()))
                         : HashValue(v));
  }
  std::sort(hashes.begin(), hashes.end());
  const int64_t d =
      std::unique(hashes.begin(), hashes.end()) - hashes.begin();
  out.physical = static_cast<double>(d);
  // Extrapolate physical distinct to full physical cardinality (linear in
  // the key-like regime, saturating otherwise).
  if (rel.num_rows() > n && d > static_cast<int64_t>(0.9 * n)) {
    out.physical *= static_cast<double>(rel.num_rows()) / n;
  }
  const bool key_like = d > static_cast<int64_t>(0.9 * n);
  out.logical = key_like ? out.physical *
                               static_cast<double>(rel.logical_rows()) /
                               static_cast<double>(rel.num_rows())
                         : out.physical;
  return out;
}

uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // Numbers hash by their value as a double, the domain in which an
      // int64 and a double key compare, so cross-type equi joins partition
      // consistently. Above 2^53 several int64 values share one double and
      // so one hash: a collision, which the reducers' condition checks
      // resolve. Integral values hash like the int64 they equal.
      const double d = v.AsDouble();
      if (d >= -0x1p63 && d < 0x1p63) {
        const int64_t as_int = static_cast<int64_t>(d);
        if (static_cast<double>(as_int) == d) {
          return MixHash(0x1234, static_cast<uint64_t>(as_int));
        }
      }
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return MixHash(0x5678, bits);
    }
    case ValueType::kString: {
      uint64_t h = 1469598103934665603ULL;
      for (unsigned char c : v.AsString()) {
        h ^= c;
        h *= 1099511628211ULL;
      }
      return MixHash(0x9abc, h);
    }
  }
  return 0;
}

}  // namespace mrtheta
