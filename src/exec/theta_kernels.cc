#include "src/exec/theta_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <ranges>
#include <span>
#include <type_traits>
#include <vector>

namespace mrtheta {

const char* JoinKernelName(JoinKernel kernel) {
  switch (kernel) {
    case JoinKernel::kGeneric:
      return "generic";
    case JoinKernel::kSortTheta:
      return "sort-theta";
  }
  return "?";
}

JoinKernel JoinKernelPlan::kernel() const {
  const bool any_index =
      std::any_of(index_plans.begin(), index_plans.end(),
                  [](const DepthIndexPlan& plan) { return plan.active(); });
  return any_index ? JoinKernel::kSortTheta : JoinKernel::kGeneric;
}

namespace {

// The index plan of `depth` >= 1 from the conditions it decides.
DepthIndexPlan PlanDepthIndex(int depth,
                              const std::vector<BoundCondition>& conditions,
                              const JoinSide& input,
                              const std::vector<RelationPtr>& base_relations) {
  DepthIndexPlan plan;
  // Numeric range conditions against an earlier input with a finite
  // offset, and their columns on this depth's input in condition order,
  // for the range choice.
  std::vector<IndexTerm> range_terms;
  std::vector<ColumnRef> range_cols;
  for (const BoundCondition& bc : conditions) {
    if (bc.lhs_input == bc.rhs_input ||
        bc.pred.domain() == CompiledPredicate::Domain::kString) {
      plan.residuals.push_back(bc);
      continue;
    }
    const IndexTerm term{bc, bc.lhs_input == depth};
    if (bc.cond.op == ThetaOp::kEq) {
      plan.eq.push_back(term);
      continue;
    }
    // Neither <> nor an infinite offset is monotone in the column (cur +
    // ±inf is NaN at the opposite infinity), so no search decides them.
    if (bc.cond.op == ThetaOp::kNe || !std::isfinite(bc.cond.offset)) {
      plan.filters.push_back(term);
      continue;
    }
    const ColumnRef cur = term.cur_column();
    if (std::find(range_cols.begin(), range_cols.end(), cur) ==
        range_cols.end()) {
      range_cols.push_back(cur);
    }
    range_terms.push_back(term);
  }
  if (!range_cols.empty()) {
    // The range column: the one whose base column has the most distinct
    // values (first in condition order on ties).
    ColumnRef range_col = range_cols[0];
    if (range_cols.size() > 1) {
      double best = -1.0;
      for (const ColumnRef& col : range_cols) {
        const double distinct =
            EstimateDistinct(*base_relations[col.relation], col.column)
                .physical;
        if (distinct > best) {
          best = distinct;
          range_col = col;
        }
      }
    }
    for (const IndexTerm& term : range_terms) {
      (term.cur_column() == range_col ? plan.range : plan.filters)
          .push_back(term);
    }
    const Relation& base = *base_relations[range_col.relation];
    if (base.schema().column(range_col.column).type == ValueType::kInt64) {
      plan.range_i64 = ColumnView<int64_t>::Of(base, range_col.column);
    } else {
      plan.range_f64 = ColumnView<double>::Of(base, range_col.column);
    }
    plan.range_rid = RidColumnFor(input, range_col.relation);
  }
  const int first = !plan.eq.empty()      ? plan.eq[0].other_input()
                    : !plan.range.empty() ? plan.range[0].other_input()
                                          : -1;
  auto reads_first = [first](const IndexTerm& term) {
    return term.other_input() == first;
  };
  if (std::all_of(plan.eq.begin(), plan.eq.end(), reads_first) &&
      std::all_of(plan.range.begin(), plan.range.end(), reads_first)) {
    plan.key_input = first;
  }
  return plan.active() ? plan : DepthIndexPlan{};
}

// Key images for the composite sort. Both are bijective on their domain,
// so sorting and comparing images is exact: no value is rounded.
// Equality image: equal images <=> equal keys (the two zeros share one
// image). Range image: unsigned order == numeric order.
uint64_t EqualityImage(double key) {
  return key == 0.0 ? 0 : std::bit_cast<uint64_t>(key);
}
uint64_t OrderedImage(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}
uint64_t OrderedImage(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

// The key of one endpoint of `bc` in the predicate's domain T (int64_t or
// double): LhsKey (offset folded in) or RhsKey of `row`, a row of the input
// covering the endpoint. Comparing two such keys with the condition's
// operator is the comparison CompiledPredicate::Eval makes.
template <typename T>
T EndpointKey(const BoundCondition& bc, bool lhs, int64_t row) {
  const CompiledPredicate& p = bc.pred;
  if constexpr (std::is_same_v<T, int64_t>) {
    return lhs ? p.LhsKeyInt(bc.LhsBaseRow(row))
               : p.RhsKeyInt(bc.RhsBaseRow(row));
  } else {
    return lhs ? p.LhsKeyDouble(bc.LhsBaseRow(row))
               : p.RhsKeyDouble(bc.RhsBaseRow(row));
  }
}

// The key of one endpoint of an equality condition as an equality image.
// NaN keys, which equal nothing, report false.
bool EqualityKey(const BoundCondition& bc, bool lhs, int64_t row,
                 uint64_t* image) {
  if (bc.pred.domain() == CompiledPredicate::Domain::kInt64) {
    *image = static_cast<uint64_t>(EndpointKey<int64_t>(bc, lhs, row));
    return true;
  }
  const double key = EndpointKey<double>(bc, lhs, row);
  *image = EqualityImage(key);
  return key == key;
}

// The depth-side key of filter term `term` for each of `recs`.
template <typename T>
void FillKeys(const IndexTerm& term,
              std::span<const MapOutputRecord* const> recs,
              std::vector<T>& keys) {
  keys.resize(recs.size());
  for (size_t j = 0; j < recs.size(); ++j) {
    keys[j] = EndpointKey<T>(term.bc, term.cur_is_lhs, recs[j]->row);
  }
}

// One filter pass: keeps the positions p with cmp(keys[p], other), reading
// positions lo, lo+1, ... on the first pass and sel[0..n) after it, and
// writes the kept ones to the front of `sel`. Branch-free, because about
// half of the candidates fail a filter term.
template <bool kFirst, typename T, typename Cmp>
size_t SelectPass(std::span<const T> keys, T other, Cmp cmp, size_t lo,
                  size_t n, std::span<uint32_t> sel) {
  size_t kept = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t p = kFirst ? static_cast<uint32_t>(lo + k) : sel[k];
    sel[kept] = p;
    kept += cmp(keys[p], other) ? 1 : 0;
  }
  return kept;
}

// SelectPass with the operator resolved once: `keys[p] op other`.
template <typename T>
size_t Select(std::span<const T> keys, T other, ThetaOp op, bool first,
              size_t lo, size_t n, std::span<uint32_t> sel) {
  auto pass = [&](auto cmp) {
    return first ? SelectPass<true>(keys, other, cmp, lo, n, sel)
                 : SelectPass<false>(keys, other, cmp, lo, n, sel);
  };
  switch (op) {
    case ThetaOp::kLt:
      return pass(std::less<T>());
    case ThetaOp::kLe:
      return pass(std::less_equal<T>());
    case ThetaOp::kEq:
      return pass(std::equal_to<T>());
    case ThetaOp::kGe:
      return pass(std::greater_equal<T>());
    case ThetaOp::kGt:
      return pass(std::greater<T>());
    case ThetaOp::kNe:
      return pass(std::not_equal_to<T>());
  }
  return 0;
}

// One ownership pass: keeps the positions p whose cell, `cell` +
// slices[p] * `stride`, the task owns, reading and writing positions as
// SelectPass does. Branch-free for the same reason: on flights_chain3 about
// a third of the candidates belong to another task.
template <bool kFirst>
size_t OwnedPass(const CellOwnership& own, size_t cell, size_t stride,
                 std::span<const uint32_t> slices, size_t lo, size_t n,
                 std::span<uint32_t> sel) {
  const std::span<const int32_t> owner = own.owner;
  const int32_t task = own.task;
  size_t kept = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t p = kFirst ? static_cast<uint32_t>(lo + k) : sel[k];
    sel[kept] = p;
    kept += owner[cell + slices[p] * stride] == task ? 1 : 0;
  }
  return kept;
}

// Index of the first position in [lo, hi) where `pred` fails; `pred` must
// hold on a prefix of the range.
template <typename Pred>
size_t PartitionPoint(size_t lo, size_t hi, Pred pred) {
  const auto positions = std::views::iota(lo, hi);
  return lo + static_cast<size_t>(
                  std::ranges::partition_point(positions, pred) -
                  positions.begin());
}

}  // namespace

JoinKernelPlan BuildJoinKernelPlan(
    const std::vector<JoinCondition>& conditions,
    const std::vector<JoinSide>& inputs,
    const std::vector<RelationPtr>& base_relations, KernelPolicy policy) {
  const int num_inputs = static_cast<int>(inputs.size());
  JoinKernelPlan plan;
  plan.conditions_at_depth.resize(num_inputs);
  for (const JoinCondition& cond : conditions) {
    BoundCondition bc;
    bc.cond = cond;
    bc.pred = CompiledPredicate::Compile(
        cond, *base_relations[cond.lhs.relation],
        *base_relations[cond.rhs.relation]);
    for (int i = 0; i < num_inputs; ++i) {
      if (inputs[i].Covers(cond.lhs.relation)) bc.lhs_input = i;
      if (inputs[i].Covers(cond.rhs.relation)) bc.rhs_input = i;
    }
    bc.lhs_rid = RidColumnFor(inputs[bc.lhs_input], cond.lhs.relation);
    bc.rhs_rid = RidColumnFor(inputs[bc.rhs_input], cond.rhs.relation);
    const int depth = std::max(bc.lhs_input, bc.rhs_input);
    plan.conditions_at_depth[depth].push_back(bc);
  }
  plan.index_plans.resize(num_inputs);
  for (int d = 1; d < num_inputs && policy == KernelPolicy::kAuto; ++d) {
    plan.index_plans[d] = PlanDepthIndex(d, plan.conditions_at_depth[d],
                                         inputs[d], base_relations);
  }
  return plan;
}

ComponentJoiner::ComponentJoiner(const JoinKernelPlan& plan,
                                 const ReduceContext& ctx,
                                 const CellOwnership* ownership)
    : plan_(plan), ctx_(ctx), own_(ownership) {
  const size_t n = plan.conditions_at_depth.size();
  pos_.resize(n);
  rows_.resize(n);
  recs_.resize(n);
  calls_.assign(n, 0.0);
}

bool ComponentJoiner::Prepare() {
  // Empty input => no results in this component.
  for (int d = 0; d < num_inputs(); ++d) {
    if (ctx_.records(d).empty()) return false;
  }
  index_.resize(num_inputs());
  for (int d = 1; d < num_inputs(); ++d) {
    if (plan_.index_plans[d].active()) BuildIndex(d);
  }
  return true;
}

void ComponentJoiner::BuildIndex(int depth) {
  const DepthIndexPlan& plan = plan_.index_plans[depth];
  const std::span<const MapOutputRecord> recs = ctx_.records(depth);
  const int w = plan.width();
  // Unsorted images; a candidate whose key is NaN can satisfy no indexed
  // condition and is left out.
  std::vector<uint64_t> images(recs.size() * w);
  std::vector<char> keep(recs.size(), 1);
  for (size_t i = 0; i < recs.size(); ++i) {
    for (size_t k = 0; k < plan.eq.size(); ++k) {
      if (!EqualityKey(plan.eq[k].bc, plan.eq[k].cur_is_lhs, recs[i].row,
                       &images[i * w + k])) {
        keep[i] = 0;
      }
    }
  }
  if (!plan.range.empty()) {
    // Typed columnar extraction: one type dispatch per depth.
    auto fill = [&](const auto& view) {
      for (size_t i = 0; i < recs.size(); ++i) {
        const int64_t row = recs[i].row;
        const auto v =
            view[plan.range_rid != nullptr ? plan.range_rid[row] : row];
        images[i * w + w - 1] = OrderedImage(v);
        if (v != v) keep[i] = 0;
      }
    };
    if (plan.range_i64.valid()) {
      fill(plan.range_i64);
    } else {
      fill(plan.range_f64);
    }
  }
  std::vector<uint32_t> order;
  order.reserve(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    if (keep[i]) order.push_back(static_cast<uint32_t>(i));
  }
  // Ties keep arrival order, so the visit order is fully determined.
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint64_t* ka = images.data() + size_t{a} * w;
    const uint64_t* kb = images.data() + size_t{b} * w;
    for (int k = 0; k < w; ++k) {
      if (ka[k] != kb[k]) return ka[k] < kb[k];
    }
    return a < b;
  });
  DepthIndex& index = index_[depth];
  index.keys.resize(order.size() * w);
  index.recs.resize(order.size());
  for (size_t j = 0; j < order.size(); ++j) {
    std::copy_n(images.data() + size_t{order[j]} * w, w,
                index.keys.data() + j * w);
    index.recs[j] = &recs[order[j]];
  }
  if (plan.key_input >= 0) {
    index.found.assign(ctx_.records(plan.key_input).size(),
                       {DepthIndex::kUnsearched, 0});
  }
  index.filter_keys.resize(plan.filters.size());
  for (size_t f = 0; f < plan.filters.size(); ++f) {
    const IndexTerm& term = plan.filters[f];
    if (term.bc.pred.domain() == CompiledPredicate::Domain::kInt64) {
      FillKeys(term, index.recs, index.filter_keys[f].i64);
    } else {
      FillKeys(term, index.recs, index.filter_keys[f].f64);
    }
  }
  const bool select_owned = own_ != nullptr &&
                            depth + 1 == num_inputs() &&
                            own_->stride[depth] != 0;
  if (select_owned) {
    index.slices.resize(index.recs.size());
    for (size_t j = 0; j < index.recs.size(); ++j) {
      index.slices[j] = static_cast<uint32_t>(index.recs[j]->rec_id);
    }
  }
  if (!plan.filters.empty() || select_owned) {
    index.selection.resize(index.recs.size());
  }
}

ComponentJoiner::Range ComponentJoiner::Search(int depth) {
  const DepthIndexPlan& plan = plan_.index_plans[depth];
  const DepthIndex& index = index_[depth];
  size_t lo = 0;
  size_t hi = index.recs.size();
  if (!plan.eq.empty()) {
    const size_t k = plan.eq.size();
    target_.resize(k);
    uint64_t* t = target_.data();
    for (size_t c = 0; c < k; ++c) {
      const IndexTerm& term = plan.eq[c];
      if (!EqualityKey(term.bc, !term.cur_is_lhs, rows_[term.other_input()],
                       t + c)) {
        return {0, 0};
      }
    }
    const int w = plan.width();
    auto prefix = [&](size_t j) { return index.keys.data() + j * w; };
    lo = PartitionPoint(lo, hi, [&](size_t j) {
      return std::lexicographical_compare(prefix(j), prefix(j) + k, t,
                                          t + k);
    });
    hi = PartitionPoint(lo, hi, [&](size_t j) {
      return !std::lexicographical_compare(t, t + k, prefix(j),
                                           prefix(j) + k);
    });
  }
  // Within one equality group the candidates ascend in the range column,
  // and each range condition's own comparison is monotone in it (its
  // offset is finite, so cur + offset is never NaN).
  for (const IndexTerm& term : plan.range) {
    if (lo >= hi) break;
    const BoundCondition& bc = term.bc;
    const int64_t other = rows_[term.other_input()];
    auto holds = [&](size_t j) {
      const int64_t cur = index.recs[j]->row;
      return term.cur_is_lhs ? bc.Eval(cur, other) : bc.Eval(other, cur);
    };
    if (term.HoldsOnPrefix()) {
      hi = PartitionPoint(lo, hi, holds);
    } else {
      lo = PartitionPoint(lo, hi, [&](size_t j) { return !holds(j); });
    }
  }
  return {static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)};
}

size_t ComponentJoiner::Filter(int depth, Range range) {
  const DepthIndexPlan& plan = plan_.index_plans[depth];
  DepthIndex& index = index_[depth];
  const std::span<uint32_t> sel = index.selection;
  size_t n = range.second - range.first;
  for (size_t f = 0; f < plan.filters.size() && n > 0; ++f) {
    const IndexTerm& term = plan.filters[f];
    // The condition compares lhs op rhs; with this depth's input on the
    // rhs, the scan's `cur op' other` needs the flipped operator.
    const ThetaOp op =
        term.cur_is_lhs ? term.bc.cond.op : FlipOp(term.bc.cond.op);
    const int64_t row = rows_[term.other_input()];
    const bool other_lhs = !term.cur_is_lhs;
    const bool first = f == 0;
    if (term.bc.pred.domain() == CompiledPredicate::Domain::kInt64) {
      n = Select<int64_t>(index.filter_keys[f].i64,
                          EndpointKey<int64_t>(term.bc, other_lhs, row), op,
                          first, range.first, n, sel);
    } else {
      n = Select<double>(index.filter_keys[f].f64,
                         EndpointKey<double>(term.bc, other_lhs, row), op,
                         first, range.first, n, sel);
    }
  }
  return n;
}

size_t ComponentJoiner::SelectOwned(int depth, Range range, size_t n,
                                    bool selected, size_t cell,
                                    size_t stride) {
  DepthIndex& index = index_[depth];
  const std::span<uint32_t> sel = index.selection;
  return selected ? OwnedPass<false>(*own_, cell, stride, index.slices,
                                     range.first, n, sel)
                  : OwnedPass<true>(*own_, cell, stride, index.slices,
                                    range.first, n, sel);
}

}  // namespace mrtheta
