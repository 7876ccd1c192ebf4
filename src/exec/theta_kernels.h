#ifndef MRTHETA_EXEC_THETA_KERNELS_H_
#define MRTHETA_EXEC_THETA_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/exec/join_side.h"
#include "src/mapreduce/job.h"
#include "src/relation/column_view.h"
#include "src/relation/predicate.h"
#include "src/relation/relation.h"

namespace mrtheta {

/// Which inner-loop implementation a join job's reduce side runs on.
enum class JoinKernel {
  kGeneric,    ///< nested loop over compiled predicates
  kSortTheta,  ///< candidates sorted on a per-depth composite key
};

const char* JoinKernelName(JoinKernel kernel);

/// Per-job kernel selection directive, threaded from the executor into the
/// job builders. kAuto indexes every depth that has an indexable condition.
enum class KernelPolicy {
  kAuto,
  kGenericOnly,
};

/// Index gate of the pairwise reducers: below this many candidate pairs a
/// reduce group runs the nested loop even when its depth has an index
/// (sorting tiny groups costs more than it saves). A constant because
/// sweeping it from 1 to 2^62 moved neither the simulated makespan nor the
/// wall time of the TPC-H Q17 cascade beyond noise.
inline constexpr int64_t kSortKernelMinPairs = 256;

/// One join condition bound to a job's inputs: type dispatch, covering
/// input positions and rid resolution fixed once at build time.
struct BoundCondition {
  JoinCondition cond;
  CompiledPredicate pred;
  int lhs_input = 0;  ///< input position covering the lhs / rhs endpoint
  int rhs_input = 0;
  /// Input row -> base row of the lhs / rhs endpoint (null = identity).
  const int64_t* lhs_rid = nullptr;
  const int64_t* rhs_rid = nullptr;

  int64_t LhsBaseRow(int64_t row) const {
    return lhs_rid != nullptr ? lhs_rid[row] : row;
  }
  int64_t RhsBaseRow(int64_t row) const {
    return rhs_rid != nullptr ? rhs_rid[row] : row;
  }
  /// `lrow` / `rrow` are rows of the covering inputs.
  bool Eval(int64_t lrow, int64_t rrow) const {
    return pred.Eval(LhsBaseRow(lrow), RhsBaseRow(rrow));
  }
};

/// One indexed condition of a depth, and whether the depth's input holds
/// its lhs endpoint (the other endpoint is bound at an earlier depth).
struct IndexTerm {
  BoundCondition bc;
  bool cur_is_lhs = false;

  int other_input() const { return cur_is_lhs ? bc.rhs_input : bc.lhs_input; }
  /// The endpoint column on the depth's own input.
  ColumnRef cur_column() const {
    return cur_is_lhs ? bc.cond.lhs : bc.cond.rhs;
  }
  /// True when the condition holds for the smallest values of the depth's
  /// column and fails from some value on; false when it holds from some
  /// value on. Only meaningful for <, <=, >, >=.
  bool HoldsOnPrefix() const {
    const ThetaOp op = bc.cond.op;
    const bool less = op == ThetaOp::kLt || op == ThetaOp::kLe;
    return cur_is_lhs == less;
  }
};

/// How one depth's candidates are indexed, resolved once per job. Each
/// reduce group sorts the depth's candidates on a composite key: every
/// numeric equality against an earlier input, then the range column. A
/// lookup is one equal-range search on the equalities plus one partition
/// point per range condition on that column.
///
/// The depth's conditions split three ways. The index decides `eq` and
/// `range`: they hold on every candidate a lookup returns, so they are not
/// evaluated again. `filters` are compared per candidate on key arrays, and
/// `residuals` with BoundCondition::Eval. A plan without `eq` or `range`
/// terms is inactive and empty: its depth runs the nested loop.
struct DepthIndexPlan {
  std::vector<IndexTerm> eq;
  /// Every range condition on the range column with a finite offset.
  std::vector<IndexTerm> range;
  /// Numeric conditions against one earlier input that the index does not
  /// decide: a range on another column, <>, or an infinite offset.
  std::vector<IndexTerm> filters;
  /// String conditions and conditions within the depth's own input.
  std::vector<BoundCondition> residuals;
  /// The range column's base cells (the one matching its type is valid when
  /// `range` is non-empty), and the depth input's rid column for its base.
  ColumnView<int64_t> range_i64;
  ColumnView<double> range_f64;
  const int64_t* range_rid = nullptr;
  /// The earlier input every `eq` and `range` term reads, or -1 when they
  /// read several. Then a lookup depends only on that input's bound record,
  /// and each reduce group searches once per such record instead of once
  /// per prefix.
  int key_input = -1;

  bool active() const { return !eq.empty() || !range.empty(); }
  int width() const {
    return static_cast<int>(eq.size()) + (range.empty() ? 0 : 1);
  }
};

/// A join job's reduce-side plan, built once per job and read by every
/// reduce group. Input j of the job is depth j of the ComponentJoiner.
struct JoinKernelPlan {
  /// conditions_at_depth[j]: the conditions decidable once inputs 0..j are
  /// bound (and not before).
  std::vector<std::vector<BoundCondition>> conditions_at_depth;
  /// Per depth; depth 0 and every depth under KernelPolicy::kGenericOnly
  /// stay inactive and scan all of their candidates.
  std::vector<DepthIndexPlan> index_plans;

  /// kSortTheta when some depth has an index.
  JoinKernel kernel() const;
};

/// Binds each of `conditions` to the inputs covering its endpoints, buckets
/// it at the deeper of the two, and under KernelPolicy::kAuto plans each
/// depth's index (docs/EXECUTOR.md, "The join kernel"). Every endpoint must
/// be covered by one of `inputs`. The plan reads the columns of
/// `base_relations` and `inputs` in place: both must outlive it.
JoinKernelPlan BuildJoinKernelPlan(
    const std::vector<JoinCondition>& conditions,
    const std::vector<JoinSide>& inputs,
    const std::vector<RelationPtr>& base_relations, KernelPolicy policy);

/// Which combinations a Hilbert curve segment's reduce task owns
/// (docs/EXECUTOR.md, "Ownership"): those whose cell its segment holds.
/// A record's rec_id is its slice along its input's dimension.
struct CellOwnership {
  /// Row-major cell -> owning segment (SegmentCoverage::cell_segments()).
  std::span<const int32_t> owner;
  int32_t task = 0;
  /// Per depth: the table stride of the dimension that depth binds first,
  /// or 0 when an earlier depth binds its dimension.
  std::span<const uint64_t> stride;
};

/// \brief Backtracking join over one reduce group's records, input d at
/// depth d. Depth 0, and every depth without an active index plan, visits
/// each of its records and checks every condition of the depth. A depth
/// with an index visits only the candidates its index returns for the
/// bound prefix: it compares its filter terms on per-entry key arrays,
/// checks its residuals, and never re-checks what the index decided. When
/// the next depth's index is keyed on this depth, a candidate whose
/// memoized next range is empty is counted as a call of the next depth and
/// skipped, without being bound.
///
/// With a CellOwnership the last depth binds only owned candidates. If it
/// binds a new dimension, a branch-free pass over its candidates' slices
/// keeps the owned ones; if not, the prefix's cell is the combination's,
/// and it is tested once on entering the depth. Nothing above the last
/// depth is pruned, so calls() does not change.
class ComponentJoiner {
 public:
  /// `plan`, `ctx` and `ownership` (null: every combination is owned) must
  /// outlive the joiner.
  ComponentJoiner(const JoinKernelPlan& plan, const ReduceContext& ctx,
                  const CellOwnership* ownership = nullptr);

  /// Calls `sink(recs)` for each combination that satisfies every
  /// condition, where recs[d] is its record of input d. Combinations come
  /// in depth-first order: input 0 in arrival order, each deeper input in
  /// its index order (arrival order where it has no index).
  template <typename Sink>
  void Run(Sink&& sink) {
    if (Prepare()) Recurse(0, sink);
  }

  /// Prefixes of the last Run that reached `depth`: the Recurse(depth)
  /// invocations, plus the look-ahead's skipped candidates, each of which
  /// stands for one invocation that would have visited nothing. Every
  /// kernel policy counts the same prefixes, because the prefixes that
  /// reach a depth are the join's own partial results.
  double calls(int depth) const { return calls_[depth]; }

 private:
  using Range = std::pair<uint32_t, uint32_t>;  // positions [lo, hi)

  // One depth's candidates sorted on its plan's composite key, built per
  // reduce group.
  struct DepthIndex {
    static constexpr uint32_t kUnsearched = ~uint32_t{0};
    // One filter term's depth-side key per entry, in the predicate's domain
    // (offset folded in); the array of the term's domain is filled.
    struct FilterKeys {
      std::vector<int64_t> i64;
      std::vector<double> f64;
    };

    std::vector<uint64_t> keys;  // DepthIndexPlan::width() images per entry
    std::vector<const MapOutputRecord*> recs;  // into ReduceContext::records
    // With a key input: the range found for each of its records, by the
    // record's position in that depth's visit order.
    std::vector<Range> found;
    std::vector<FilterKeys> filter_keys;  // per DepthIndexPlan::filters
    // With ownership, on a last depth that binds a new dimension: each
    // entry's slice (its record's rec_id).
    std::vector<uint32_t> slices;
    // The positions of the current lookup that pass every filter term and,
    // with slices, the ownership test.
    std::vector<uint32_t> selection;
  };

  int num_inputs() const { return static_cast<int>(calls_.size()); }
  // Builds the indexes; false when some input is empty (no results).
  bool Prepare();
  void BuildIndex(int depth);
  // Candidate positions of index_[depth] for the bound prefix. Inline:
  // Recurse calls it once per prefix reaching an indexed depth.
  Range Lookup(int depth) {
    const int key_input = plan_.index_plans[depth].key_input;
    if (key_input < 0) return Search(depth);
    Range& found = index_[depth].found[pos_[key_input]];
    if (found.first == DepthIndex::kUnsearched) found = Search(depth);
    return found;
  }
  Range Search(int depth);
  // Writes the positions of `range` that pass every filter term of
  // `depth` to index_[depth].selection and returns their count.
  size_t Filter(int depth, Range range);
  // Keeps, of the `n` candidates of `range` (the selection's first `n`
  // when `selected`), those whose cell `cell` + slice * `stride` the task
  // owns; writes them to index_[depth].selection and returns their count.
  size_t SelectOwned(int depth, Range range, size_t n, bool selected,
                     size_t cell, size_t stride);
  // The slices of bound depths [0, depth) placed in the cell table.
  size_t PrefixCell(int depth) const {
    size_t cell = 0;
    for (int d = 0; d < depth; ++d) {
      cell += static_cast<size_t>(recs_[d]->rec_id) * own_->stride[d];
    }
    return cell;
  }
  bool Owns(size_t cell) const { return own_->owner[cell] == own_->task; }

  void Bind(int depth, size_t pos, const MapOutputRecord* rec) {
    pos_[depth] = pos;
    rows_[depth] = rec->row;
    recs_[depth] = rec;
  }
  bool Holds(const std::vector<BoundCondition>& conditions) const {
    for (const BoundCondition& bc : conditions) {
      if (!bc.Eval(rows_[bc.lhs_input], rows_[bc.rhs_input])) return false;
    }
    return true;
  }
  // Continues from a bound record of `depth` that passed its conditions.
  template <typename Sink>
  void Descend(int depth, Sink& sink) {
    if (depth + 1 < num_inputs()) {
      Recurse(depth + 1, sink);
    } else {
      sink(std::span<const MapOutputRecord* const>(recs_));
    }
  }

  template <typename Sink>
  void Recurse(int depth, Sink& sink) {
    calls_[depth] += 1.0;
    // Ownership at the last depth: the prefix's cell, and the stride of
    // the dimension this depth completes (0: the prefix's cell is whole).
    const bool owning = own_ != nullptr && depth + 1 == num_inputs();
    const size_t cell = owning ? PrefixCell(depth) : 0;
    const size_t stride = owning ? own_->stride[depth] : 0;
    if (owning && stride == 0 && !Owns(cell)) return;
    const DepthIndexPlan& plan = plan_.index_plans[depth];
    if (depth == 0 || !plan.active()) {
      const std::span<const MapOutputRecord> recs = ctx_.records(depth);
      for (size_t i = 0; i < recs.size(); ++i) {
        if (stride != 0 &&
            !Owns(cell + static_cast<size_t>(recs[i].rec_id) * stride)) {
          continue;
        }
        Bind(depth, i, &recs[i]);
        if (Holds(plan_.conditions_at_depth[depth])) Descend(depth, sink);
      }
      return;
    }
    const Range range = Lookup(depth);
    const std::span<const MapOutputRecord* const> recs = index_[depth].recs;
    // Look-ahead: the next depth's range depends only on this depth's
    // record, and its memo is indexed by this depth's positions.
    const bool look_ahead = depth + 1 < num_inputs() &&
                            plan_.index_plans[depth + 1].key_input == depth;
    const std::span<Range> next =
        look_ahead ? std::span<Range>(index_[depth + 1].found)
                   : std::span<Range>();
    // The candidates are [lo, hi), or the positions of it that pass every
    // filter term and the ownership test.
    const bool filtered = !plan.filters.empty();
    size_t n = filtered ? Filter(depth, range) : range.second - range.first;
    if (stride != 0) n = SelectOwned(depth, range, n, filtered, cell, stride);
    const bool selected = filtered || stride != 0;
    const std::span<const uint32_t> selection = index_[depth].selection;
    uint64_t skipped = 0;
    for (size_t k = 0; k < n; ++k) {
      const size_t i = selected ? selection[k] : range.first + k;
      if (!plan.residuals.empty()) {
        rows_[depth] = recs[i]->row;
        if (!Holds(plan.residuals)) continue;
      }
      if (look_ahead) {
        Range& found = next[i];
        if (found.first == DepthIndex::kUnsearched) {
          rows_[depth] = recs[i]->row;
          found = Search(depth + 1);
        }
        if (found.first == found.second) {
          ++skipped;
          continue;
        }
      }
      Bind(depth, i, recs[i]);
      Descend(depth, sink);
    }
    // Integral counts: adding them at once is exact (below 2^53).
    if (look_ahead) calls_[depth + 1] += static_cast<double>(skipped);
  }

  const JoinKernelPlan& plan_;
  const ReduceContext& ctx_;
  const CellOwnership* own_;
  std::vector<size_t> pos_;  // visit-order position of each bound record
  std::vector<int64_t> rows_;
  std::vector<const MapOutputRecord*> recs_;
  std::vector<double> calls_;      // prefixes that reached each depth
  std::vector<DepthIndex> index_;  // per depth; built by Prepare
  std::vector<uint64_t> target_;   // Search's equality key scratch
};

}  // namespace mrtheta

#endif  // MRTHETA_EXEC_THETA_KERNELS_H_
