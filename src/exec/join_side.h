#ifndef MRTHETA_EXEC_JOIN_SIDE_H_
#define MRTHETA_EXEC_JOIN_SIDE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/relation/predicate.h"
#include "src/relation/relation.h"

namespace mrtheta {

class ThreadPool;

// RequiredColumns / PrunedRowBytes / FindRequired — the column-pruning
// payload descriptors the builders consume — live in relation/schema.h so
// the plan layer can name them without depending on the exec layer.

/// \brief Map-side selection filter bound to one input side: the compiled
/// conjunction of a query's single-relation predicates on that side's base
/// relation, evaluated per base row before any shuffle emit (selection
/// pushdown). Builders drop rows failing Passes() in their map functions.
class CompiledRowFilter {
 public:
  /// Compiles the subset of `filters` on relation `base` against `rel`
  /// (which must outlive the filter). Returns nullptr when none apply.
  static std::shared_ptr<const CompiledRowFilter> CompileFor(
      int base, const std::vector<SelectionFilter>& filters,
      const RelationPtr& rel);

  bool Passes(int64_t row) const {
    for (const auto& pred : preds_) {
      if (!pred(row)) return false;
    }
    return true;
  }

  int num_predicates() const { return static_cast<int>(preds_.size()); }

 private:
  std::vector<std::function<bool(int64_t)>> preds_;
  RelationPtr pinned_;  ///< keeps the filtered relation alive
};

/// \brief One input of a join job: either a base relation of the query or
/// an intermediate result (a relation of "rid_<base>" columns produced by a
/// previous job).
///
/// Intermediate rows reference base tuples by *physical row index*, so any
/// downstream operator can resolve actual column values through the query's
/// base-relation list. Width accounting of intermediates uses materialized
/// widths (the bytes a real MapReduce job would spill), pruned to the
/// columns later jobs still need (docs/EXECUTOR.md, "Column pruning").
struct JoinSide {
  RelationPtr data;
  /// Query-level indices of the base relations this side covers, in the
  /// column order of `data` when `is_base` is false.
  std::vector<int> bases;
  bool is_base = true;
  /// logical rows / physical rows for this side.
  double scale = 1.0;
  /// Map-side selection (base sides only): rows failing the filter are
  /// dropped before any shuffle emit. Null = no selection.
  std::shared_ptr<const CompiledRowFilter> filter;

  /// True when `row` passes this side's selection (always true without one).
  bool PassesFilter(int64_t row) const {
    return filter == nullptr || filter->Passes(row);
  }

  /// Makes a side for a base relation with query index `base_index`.
  static JoinSide ForBase(RelationPtr rel, int base_index);
  /// Makes a side for an intermediate result covering `bases`.
  static JoinSide ForIntermediate(RelationPtr rel, std::vector<int> bases);

  /// Physical row of base relation `base` referenced by this side's `row`.
  int64_t BaseRow(int64_t row, int base) const;

  /// True when this side covers query base `base`.
  bool Covers(int base) const;
};

/// Builds the schema of an intermediate result covering `bases` (ascending
/// query order): one int64 "rid_<b>" column per base, with avg_width set to
/// the bytes the intermediate materializes for that base — the full base
/// row width by default, or the pruned payload (PrunedRowBytes of the
/// base's RequiredColumns entry) when `required` is non-empty.
Schema MakeIntermediateSchema(const std::vector<int>& bases,
                              const std::vector<RelationPtr>& base_relations,
                              const std::vector<RequiredColumns>& required =
                                  {});

/// Shuffle payload bytes of one record of `side` in a job evaluating
/// `conditions`: intermediate sides ship their (already pruned) schema row;
/// base sides ship the pruned base row covering this job's own condition
/// columns plus everything `required` says must survive downstream — or the
/// full base row when `required` is empty (pruning off).
int64_t SideShuffleBytes(const JoinSide& side,
                         const std::vector<JoinCondition>& conditions,
                         const std::vector<RequiredColumns>& required,
                         const std::vector<RelationPtr>& base_relations);

/// Raw pointer into `side`'s rid column for base `base` (nullptr when the
/// side is that base relation itself: rid == row). The side must cover
/// `base`. Join kernels use this to resolve side rows to base rows without
/// the per-call search of JoinSide::BaseRow; `side.data` must outlive the
/// pointer.
const int64_t* RidColumnFor(const JoinSide& side, int base);

/// Where one column of a join job's rid-table output comes from: the
/// position of the input covering its base, and that input's rid column
/// for the base (null when the input is the base itself: rid == row).
struct RidSource {
  int input = 0;
  const int64_t* rid = nullptr;

  int64_t BaseRow(int64_t row) const {
    return rid != nullptr ? rid[row] : row;
  }
};

/// Resolves each of `output_bases` to the first of `inputs` covering it,
/// once per job, so reducers emit rid rows without a per-row search. Every
/// base must be covered by some input.
std::vector<RidSource> ResolveRidSources(const std::vector<int>& output_bases,
                                         const std::vector<JoinSide>& inputs);

/// Projects an intermediate result to output columns: for each
/// (base, column) pair, emits the referenced base value. The intermediate
/// must cover every requested base.
///
/// Every output column is reserved on the calling thread, as
/// FinishJobOutput does, and one task per column on `pool` gathers it
/// through its rid column. The result does not depend on the pool's width.
struct OutputColumn {
  int base = 0;
  int column = 0;
};
StatusOr<Relation> ProjectResult(
    const Relation& intermediate, const std::vector<int>& covered_bases,
    const std::vector<RelationPtr>& base_relations,
    const std::vector<OutputColumn>& outputs, ThreadPool& pool);

/// Physical and extrapolated-logical distinct counts of a column: a column
/// whose sample is nearly all-distinct is key-like, so its logical distinct
/// count tracks the relation's logical cardinality.
struct ColumnDistinct {
  double physical = 1.0;
  double logical = 1.0;
};

/// Estimates ColumnDistinct by exact counting over (up to `max_rows`)
/// physical rows; a column whose sample is >90% distinct is treated as
/// key-like and extrapolated to the relation's logical cardinality.
ColumnDistinct EstimateDistinct(const Relation& rel, int column,
                                int64_t max_rows = 65536);

/// Deterministic 64-bit mix used for global-ID assignment and hash keys.
uint64_t MixHash(uint64_t a, uint64_t b);

/// Hash of a Value, for equi-join partition keys. Numbers hash by their
/// value as a double, the domain in which int64 and double keys compare,
/// so an int64 key and the double it equals share a partition. Past 2^53
/// neighbouring int64 keys therefore share one hash (docs/EXECUTOR.md).
uint64_t HashValue(const Value& v);

}  // namespace mrtheta

#endif  // MRTHETA_EXEC_JOIN_SIDE_H_
