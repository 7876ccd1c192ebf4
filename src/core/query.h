#ifndef MRTHETA_CORE_QUERY_H_
#define MRTHETA_CORE_QUERY_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/join_side.h"
#include "src/graph/join_graph.h"
#include "src/relation/predicate.h"
#include "src/relation/relation.h"

namespace mrtheta {

/// \brief An N-join query: relations, theta conditions, and the projected
/// output columns (Section 3's Q over R1..Rm with θ1..θn).
///
/// Typical use:
///   Query q;
///   int t1 = q.AddRelation(calls);
///   int t2 = q.AddRelation(calls);
///   q.AddCondition(t1, "bt", ThetaOp::kLe, t2, "bt");
///   q.AddOutput(t2, "id");
class Query {
 public:
  /// Registers a relation; returns its query index. The same RelationPtr
  /// may be added multiple times (self-joins get distinct indices).
  int AddRelation(RelationPtr relation);

  /// Adds condition (a.col_a + offset) op (b.col_b); returns the θ id.
  StatusOr<int> AddCondition(int rel_a, const std::string& col_a, ThetaOp op,
                             int rel_b, const std::string& col_b,
                             double offset = 0.0);

  /// Adds an output column rel.col to the projection.
  Status AddOutput(int rel, const std::string& col);

  /// Adds a single-relation selection σ: (rel.col + offset) op literal.
  /// Executors push it below the first shuffle (map-side evaluation on the
  /// base relation); the planner discounts the relation's effective
  /// cardinality by the estimated selectivity. String columns support only
  /// offset-free = / <> against a string literal.
  Status AddFilter(int rel, const std::string& col, ThetaOp op, Value literal,
                   double offset = 0.0);

  int num_relations() const { return static_cast<int>(relations_.size()); }
  int num_conditions() const { return static_cast<int>(conditions_.size()); }
  const std::vector<RelationPtr>& relations() const { return relations_; }
  const std::vector<JoinCondition>& conditions() const { return conditions_; }
  const std::vector<OutputColumn>& outputs() const { return outputs_; }
  const std::vector<SelectionFilter>& filters() const { return filters_; }

  /// This query without its output columns: on the same plan, it yields
  /// the rid table (ExecutionResult::result_ids) behind the projection.
  Query WithoutOutputs() const {
    Query copy = *this;
    copy.outputs_.clear();
    return copy;
  }

  /// Bitmask over all condition ids (the set-cover universe).
  uint32_t AllConditionsMask() const;

  /// Conditions whose ids are in `thetas`.
  std::vector<JoinCondition> ConditionsById(
      const std::vector<int>& thetas) const;

  /// The join graph G_J (Definition 1): one edge per condition.
  StatusOr<JoinGraph> BuildJoinGraph() const;

  /// Checks structural validity: >=2 relations, >=1 condition, connected
  /// join graph, in-range and type-compatible condition endpoints.
  Status Validate() const;

  /// Canonical serialization of the query's *structure*: relation count
  /// plus every condition, filter and output with index-based endpoints,
  /// operators and offsets — everything the planner's choice depends on
  /// except the input data itself. Two queries built by the same clause
  /// sequence over any relations share the key; it deliberately excludes
  /// relation identity/content, which the ThetaEngine plan cache adds via
  /// Relation::generation() (docs/API.md "Serving").
  std::string StructureKey() const;

  std::string ToString() const;

 private:
  std::vector<RelationPtr> relations_;
  std::vector<JoinCondition> conditions_;
  std::vector<OutputColumn> outputs_;
  std::vector<SelectionFilter> filters_;
};

}  // namespace mrtheta

#endif  // MRTHETA_CORE_QUERY_H_
