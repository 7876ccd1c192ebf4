#include "src/core/query.h"

#include <cmath>
#include <cstdio>

namespace mrtheta {

namespace {

// The single rule set for a condition's endpoints, shared by AddCondition
// (at insertion) and Validate (the authoritative pre-execution gate):
// in-range distinct relations, in-range columns, type-compatible sides,
// offsets only on numeric comparisons and never NaN.
Status CheckCondition(const std::vector<RelationPtr>& relations,
                      const JoinCondition& cond) {
  const int num_relations = static_cast<int>(relations.size());
  for (const ColumnRef& ref : {cond.lhs, cond.rhs}) {
    if (ref.relation < 0 || ref.relation >= num_relations) {
      return Status::InvalidArgument(
          "condition relation index out of range");
    }
    const Schema& schema = relations[ref.relation]->schema();
    if (ref.column < 0 || ref.column >= schema.num_columns()) {
      return Status::OutOfRange(
          "condition column index out of range for relation " +
          relations[ref.relation]->name());
    }
  }
  if (cond.lhs.relation == cond.rhs.relation) {
    return Status::InvalidArgument(
        "conditions must connect two distinct query relations "
        "(add the relation twice for a self-join)");
  }
  const ValueType ta =
      relations[cond.lhs.relation]->schema().column(cond.lhs.column).type;
  const ValueType tb =
      relations[cond.rhs.relation]->schema().column(cond.rhs.column).type;
  if ((ta == ValueType::kString) != (tb == ValueType::kString)) {
    return Status::InvalidArgument("condition compares string with numeric");
  }
  if (ta == ValueType::kString && cond.offset != 0.0) {
    return Status::InvalidArgument("offset not supported on string columns");
  }
  // A NaN offset orders against nothing, and the histogram estimator would
  // turn it into a bin index. Infinite offsets are legal.
  if (std::isnan(cond.offset)) {
    return Status::InvalidArgument("condition offset is NaN");
  }
  return Status::OK();
}

// Shared rule set for a selection filter, applied by AddFilter (at
// insertion) and Validate (the authoritative pre-execution gate).
Status CheckFilter(const std::vector<RelationPtr>& relations,
                   const SelectionFilter& filter) {
  const int num_relations = static_cast<int>(relations.size());
  if (filter.col.relation < 0 || filter.col.relation >= num_relations) {
    return Status::InvalidArgument("filter relation index out of range");
  }
  const Schema& schema = relations[filter.col.relation]->schema();
  if (filter.col.column < 0 || filter.col.column >= schema.num_columns()) {
    return Status::OutOfRange(
        "filter column index out of range for relation " +
        relations[filter.col.relation]->name());
  }
  const bool col_is_string =
      schema.column(filter.col.column).type == ValueType::kString;
  const bool lit_is_string = filter.literal.type() == ValueType::kString;
  if (col_is_string != lit_is_string) {
    return Status::InvalidArgument(
        "filter compares string with numeric: " + filter.ToString());
  }
  if (col_is_string &&
      (filter.offset != 0.0 ||
       (filter.op != ThetaOp::kEq && filter.op != ThetaOp::kNe))) {
    return Status::InvalidArgument(
        "string filters support only offset-free = / <>: " +
        filter.ToString());
  }
  return Status::OK();
}

}  // namespace

int Query::AddRelation(RelationPtr relation) {
  relations_.push_back(std::move(relation));
  return num_relations() - 1;
}

StatusOr<int> Query::AddCondition(int rel_a, const std::string& col_a,
                                  ThetaOp op, int rel_b,
                                  const std::string& col_b, double offset) {
  if (rel_a < 0 || rel_a >= num_relations() || rel_b < 0 ||
      rel_b >= num_relations()) {
    return Status::InvalidArgument("condition relation index out of range");
  }
  StatusOr<int> ca = relations_[rel_a]->schema().FindColumn(col_a);
  if (!ca.ok()) return ca.status();
  StatusOr<int> cb = relations_[rel_b]->schema().FindColumn(col_b);
  if (!cb.ok()) return cb.status();
  JoinCondition cond;
  cond.lhs = {rel_a, *ca};
  cond.op = op;
  cond.rhs = {rel_b, *cb};
  cond.offset = offset;
  cond.id = num_conditions();
  MRTHETA_RETURN_IF_ERROR(CheckCondition(relations_, cond));
  conditions_.push_back(cond);
  return cond.id;
}

Status Query::AddOutput(int rel, const std::string& col) {
  if (rel < 0 || rel >= num_relations()) {
    return Status::InvalidArgument("output relation index out of range");
  }
  StatusOr<int> c = relations_[rel]->schema().FindColumn(col);
  if (!c.ok()) return c.status();
  outputs_.push_back({rel, *c});
  return Status::OK();
}

Status Query::AddFilter(int rel, const std::string& col, ThetaOp op,
                        Value literal, double offset) {
  if (rel < 0 || rel >= num_relations()) {
    return Status::InvalidArgument("filter relation index out of range");
  }
  StatusOr<int> c = relations_[rel]->schema().FindColumn(col);
  if (!c.ok()) return c.status();
  SelectionFilter filter;
  filter.col = {rel, *c};
  filter.op = op;
  filter.literal = std::move(literal);
  filter.offset = offset;
  MRTHETA_RETURN_IF_ERROR(CheckFilter(relations_, filter));
  filters_.push_back(std::move(filter));
  return Status::OK();
}

uint32_t Query::AllConditionsMask() const {
  uint32_t mask = 0;
  for (const auto& cond : conditions_) mask |= 1u << cond.id;
  return mask;
}

std::vector<JoinCondition> Query::ConditionsById(
    const std::vector<int>& thetas) const {
  std::vector<JoinCondition> out;
  out.reserve(thetas.size());
  for (int id : thetas) out.push_back(conditions_[id]);
  return out;
}

StatusOr<JoinGraph> Query::BuildJoinGraph() const {
  JoinGraph graph(num_relations());
  for (const JoinCondition& cond : conditions_) {
    MRTHETA_RETURN_IF_ERROR(
        graph.AddEdge(cond.lhs.relation, cond.rhs.relation, cond.id));
  }
  return graph;
}

Status Query::Validate() const {
  if (num_relations() < 2) {
    return Status::FailedPrecondition("query needs at least two relations");
  }
  if (num_conditions() < 1) {
    return Status::FailedPrecondition("query needs at least one condition");
  }
  if (num_conditions() > 20) {
    return Status::InvalidArgument("at most 20 join conditions supported");
  }
  // Re-check every condition with the same rule set AddCondition applies
  // at insertion: Validate is the authoritative gate before execution.
  for (const JoinCondition& cond : conditions_) {
    MRTHETA_RETURN_IF_ERROR(CheckCondition(relations_, cond));
  }
  for (const OutputColumn& out : outputs_) {
    if (out.base < 0 || out.base >= num_relations() || out.column < 0 ||
        out.column >=
            relations_[out.base]->schema().num_columns()) {
      return Status::OutOfRange("output column out of range");
    }
  }
  for (const SelectionFilter& filter : filters_) {
    MRTHETA_RETURN_IF_ERROR(CheckFilter(relations_, filter));
  }
  StatusOr<JoinGraph> graph = BuildJoinGraph();
  if (!graph.ok()) return graph.status();
  if (!graph->IsConnected()) {
    return Status::FailedPrecondition(
        "join graph must be connected (no cross products)");
  }
  return Status::OK();
}

std::string Query::StructureKey() const {
  // %.17g round-trips every double, so distinct offsets/literals can never
  // collide into one key.
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::string key = "r" + std::to_string(num_relations());
  for (const JoinCondition& cond : conditions_) {
    key += ";c" + std::to_string(cond.lhs.relation) + "." +
           std::to_string(cond.lhs.column) + ThetaOpName(cond.op) +
           std::to_string(cond.rhs.relation) + "." +
           std::to_string(cond.rhs.column) + "+" + num(cond.offset);
  }
  for (const SelectionFilter& filter : filters_) {
    key += ";f" + std::to_string(filter.col.relation) + "." +
           std::to_string(filter.col.column) + ThetaOpName(filter.op) +
           filter.literal.ToString() + "+" + num(filter.offset);
  }
  for (const OutputColumn& out : outputs_) {
    key += ";o" + std::to_string(out.base) + "." + std::to_string(out.column);
  }
  return key;
}

std::string Query::ToString() const {
  std::string out = "Query over " + std::to_string(num_relations()) +
                    " relations:";
  for (const auto& cond : conditions_) {
    out += "\n  θ" + std::to_string(cond.id) + ": " + cond.ToString();
  }
  for (const auto& filter : filters_) {
    out += "\n  σ: " + filter.ToString();
  }
  return out;
}

}  // namespace mrtheta
