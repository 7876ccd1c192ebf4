#include "src/exec/hilbert_join.h"

#include "src/common/status.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <ranges>
#include <set>
#include <tuple>
#include <unordered_map>

#include "src/exec/theta_kernels.h"
#include "src/relation/column_view.h"
#include "src/stats/table_stats.h"

namespace mrtheta {

DimensionGrouping ComputeDimensionGrouping(
    const std::vector<std::vector<int>>& input_bases,
    const std::vector<JoinCondition>& conditions) {
  const int n = static_cast<int>(input_bases.size());
  DimensionGrouping g;
  g.dim_of_input.assign(n, -1);
  g.key_of_input.assign(n, ColumnRef{-1, -1});

  // Precomputed base -> covering input map (replaces the O(inputs x bases)
  // scan per condition endpoint).
  int max_base = -1;
  for (const std::vector<int>& bases : input_bases) {
    for (int base : bases) max_base = std::max(max_base, base);
  }
  std::vector<int> covering(max_base + 1, -1);
  for (int i = 0; i < n; ++i) {
    for (int base : input_bases[i]) covering[base] = i;
  }
  auto input_covering = [&](int base) {
    return base >= 0 && base <= max_base ? covering[base] : -1;
  };

  // Endpoints of offset-free equality conditions, interned for union-find.
  using EndPoint = std::tuple<int, int, int>;  // input, base relation, column
  std::vector<EndPoint> eps;
  std::map<EndPoint, int> ep_id;
  std::vector<int> parent;
  auto intern = [&](const EndPoint& ep) {
    auto [it, inserted] = ep_id.try_emplace(ep, static_cast<int>(eps.size()));
    if (inserted) {
      eps.push_back(ep);
      parent.push_back(it->second);
    }
    return it->second;
  };
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  for (const JoinCondition& cond : conditions) {
    if (cond.op != ThetaOp::kEq || cond.offset != 0.0) continue;
    const int li = input_covering(cond.lhs.relation);
    const int ri = input_covering(cond.rhs.relation);
    if (li < 0 || ri < 0 || li == ri) continue;
    const int a = intern({li, cond.lhs.relation, cond.lhs.column});
    const int b = intern({ri, cond.rhs.relation, cond.rhs.column});
    parent[find(a)] = find(b);
  }

  // Equivalence classes, largest (by distinct inputs) first.
  std::map<int, std::vector<int>> classes;
  for (int e = 0; e < static_cast<int>(eps.size()); ++e) {
    classes[find(e)].push_back(e);
  }
  std::vector<std::vector<int>> sorted_classes;
  for (auto& [root, members] : classes) sorted_classes.push_back(members);
  auto distinct_inputs = [&](const std::vector<int>& members) {
    std::set<int> ins;
    for (int e : members) ins.insert(std::get<0>(eps[e]));
    return ins;
  };
  std::sort(sorted_classes.begin(), sorted_classes.end(),
            [&](const auto& a, const auto& b) {
              return distinct_inputs(a).size() > distinct_inputs(b).size();
            });

  for (const auto& members : sorted_classes) {
    // Fuse the class's still-unassigned inputs into one hash dimension.
    std::vector<int> unassigned;
    for (int in : distinct_inputs(members)) {
      if (g.dim_of_input[in] < 0) unassigned.push_back(in);
    }
    if (unassigned.size() < 2) continue;
    const int dim = g.num_dims++;
    for (int in : unassigned) {
      g.dim_of_input[in] = dim;
      for (int e : members) {
        if (std::get<0>(eps[e]) == in) {
          g.key_of_input[in] = {std::get<1>(eps[e]), std::get<2>(eps[e])};
          break;
        }
      }
    }
  }
  // Remaining inputs get their own random-global-ID dimension.
  for (int i = 0; i < n; ++i) {
    if (g.dim_of_input[i] < 0) g.dim_of_input[i] = g.num_dims++;
  }
  return g;
}

namespace {

// Grid resolution: target curve cells per reduce segment, and the cap on
// total grid bits (the coverage walk is O(2^bits)).
constexpr int kCellsPerSegment = 64;
constexpr int kMaxGridBits = 18;

// One join condition bound to the job's inputs: type dispatch, covering
// input positions and rid resolution fixed once at build time.
struct HilbertBoundCondition {
  JoinCondition cond;
  CompiledPredicate pred;
  int lhs_input = 0;  // input position covering the lhs / rhs endpoint
  int rhs_input = 0;
  const int64_t* lhs_rid = nullptr;  // input row -> base row (null = identity)
  const int64_t* rhs_rid = nullptr;

  int64_t LhsBaseRow(int64_t row) const {
    return lhs_rid != nullptr ? lhs_rid[row] : row;
  }
  int64_t RhsBaseRow(int64_t row) const {
    return rhs_rid != nullptr ? rhs_rid[row] : row;
  }
  // `lrow` / `rrow` are rows of the covering inputs.
  bool Eval(int64_t lrow, int64_t rrow) const {
    return pred.Eval(LhsBaseRow(lrow), RhsBaseRow(rrow));
  }
};

// One indexed condition of a depth, and whether the depth's input holds
// its lhs endpoint (the other endpoint is bound at an earlier depth).
struct IndexTerm {
  const HilbertBoundCondition* bc = nullptr;  // in conditions_at_depth
  bool cur_is_lhs = false;

  int other_input() const {
    return cur_is_lhs ? bc->rhs_input : bc->lhs_input;
  }
  // The endpoint column on the depth's own input.
  ColumnRef cur_column() const {
    return cur_is_lhs ? bc->cond.lhs : bc->cond.rhs;
  }

  // True when the condition holds for the smallest values of the depth's
  // column and fails from some value on; false when it holds from some
  // value on. Only meaningful for <, <=, >, >=.
  bool HoldsOnPrefix() const {
    const ThetaOp op = bc->cond.op;
    const bool less = op == ThetaOp::kLt || op == ThetaOp::kLe;
    return cur_is_lhs == less;
  }
};

// How one depth's candidates are indexed, resolved once per job. Each
// reduce group sorts the depth's candidates on a composite key: every
// numeric equality against an earlier input, then the range column. A
// lookup is one equal-range search on the equalities plus one partition
// point per range condition on that column.
struct DepthIndexPlan {
  std::vector<IndexTerm> eq;
  // Every range condition on range_col with a finite offset.
  std::vector<IndexTerm> range;
  ColumnRef range_col = {-1, -1};
  ValueType range_type = ValueType::kInt64;
  const int64_t* range_rid = nullptr;  // depth input row -> range_col row
  // The earlier input every term reads, or -1 when they read several. Then
  // a lookup depends only on that input's bound record, and each reduce
  // group searches once per such record instead of once per prefix.
  int key_input = -1;

  bool active() const { return !eq.empty() || !range.empty(); }
  int width() const {
    return static_cast<int>(eq.size()) + (range.empty() ? 0 : 1);
  }
};

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

// The key of one endpoint of an equality condition, in the predicate's own
// domain (LhsKey folds the offset in, as SortJoinRowSets keys do), as an
// equality image. NaN keys, which equal nothing, report false.
bool EqualityKey(const HilbertBoundCondition& bc, bool lhs, int64_t row,
                 uint64_t* image) {
  const CompiledPredicate& p = bc.pred;
  if (p.domain() == CompiledPredicate::Domain::kInt64) {
    *image = static_cast<uint64_t>(lhs ? p.LhsKeyInt(bc.LhsBaseRow(row))
                                       : p.RhsKeyInt(bc.RhsBaseRow(row)));
    return true;
  }
  const double key = lhs ? p.LhsKeyDouble(bc.LhsBaseRow(row))
                         : p.RhsKeyDouble(bc.RhsBaseRow(row));
  *image = EqualityImage(key);
  return key == key;
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

// Shared state captured by the map and reduce closures.
struct HilbertJobState {
  HilbertCurve curve;
  std::shared_ptr<const SegmentCoverage> coverage = nullptr;
  DimensionGrouping grouping = {};
  std::vector<int64_t> logical_rows = {};   // per input
  std::vector<double> scales = {};          // per input
  std::vector<RelationPtr> base_relations = {};
  std::vector<JoinSide> inputs = {};
  std::vector<int> output_bases = {};
  std::vector<RidSource> output_sources = {};  // per output base
  std::vector<int> dim_representative = {};  // dim -> lowest input index
  // conditions_at_depth[j] = conditions decidable once inputs 0..j are
  // assigned (and not before).
  std::vector<std::vector<HilbertBoundCondition>> conditions_at_depth = {};
  // Per depth; depth 0 and every depth under KernelPolicy::kGenericOnly
  // stay inactive and scan all of their candidates.
  std::vector<DepthIndexPlan> index_plans = {};
  uint64_t seed = 0;
  // ---- Skew handling (docs/SKEW.md) ----
  // Reduce tasks [0, residual_tasks) are Hilbert curve segments; tasks
  // [residual_tasks, residual_tasks + Σ group sizes) are per-heavy-value
  // grids that absorb the skewed slices of `skew_dim`.
  int residual_tasks = 0;
  int skew_dim = -1;
  std::vector<HeavyGroup> heavy_groups = {};
  // heavy_strides[g][axis]: grid stride of the group's task layout.
  std::vector<std::vector<int>> heavy_strides = {};
  std::unordered_map<uint64_t, int> heavy_index = {};  // key hash -> group

  // Hash of the tuple's fused-dimension join key (requires
  // key_of_input[tag] to be set).
  uint64_t FusedKeyHash(int tag, int64_t row) const {
    const ColumnRef key = grouping.key_of_input[tag];
    const Relation& base = *base_relations[key.relation];
    const int64_t base_row = inputs[tag].BaseRow(row, key.relation);
    return HashValue(base.Get(base_row, key.column));
  }

  // Grid slice of one tuple along its input's dimension: hash of the
  // equality key for fused dimensions, random-global-ID position otherwise.
  uint32_t SliceOfInput(int tag, int64_t row) const {
    const uint64_t side = curve.side();
    if (grouping.key_of_input[tag].relation >= 0) {
      return static_cast<uint32_t>(FusedKeyHash(tag, row) % side);
    }
    const uint64_t gid =
        MixHash(seed + static_cast<uint64_t>(tag) * 0x9e37u,
                static_cast<uint64_t>(row)) %
        static_cast<uint64_t>(logical_rows[tag]);
    return static_cast<uint32_t>(gid * side /
                                 static_cast<uint64_t>(logical_rows[tag]));
  }

  // Emits the tuple to its share of heavy group `g`: the tuple is split
  // along its own axis (deterministic bucket of its row id) and broadcast
  // across every other axis, so each combination of the group's sub-matrix
  // materializes in exactly one grid task.
  void EmitToGroup(int g, int tag, int64_t row, uint32_t slice,
                   MapEmitter& out) const {
    const HeavyGroup& group = heavy_groups[g];
    const int share = group.shares[tag];
    const int bucket =
        share == 1
            ? 0
            : static_cast<int>(
                  MixHash(seed + 0x5c3bu + static_cast<uint64_t>(tag) * 0x9e37u,
                          static_cast<uint64_t>(row)) %
                  static_cast<uint64_t>(share));
    const std::vector<int>& stride = heavy_strides[g];
    for (int t = 0; t < group.num_tasks; ++t) {
      if ((t / stride[tag]) % share != bucket) continue;
      out.Emit(group.first_task + t, tag, row, slice);
    }
  }
};

// One depth's candidates sorted on its plan's composite key, built per
// reduce group.
struct DepthIndex {
  static constexpr uint32_t kUnsearched = ~uint32_t{0};

  std::vector<uint64_t> keys;  // DepthIndexPlan::width() images per entry
  std::vector<const MapOutputRecord*> recs;
  // With a key input: the [lo, hi) found for each of its records, by the
  // record's position in that depth's visit order.
  std::vector<std::pair<uint32_t, uint32_t>> found;
};

// Backtracking join over one component's records. A depth with an active
// index plan visits only the candidates its index returns for the bound
// prefix; every condition of the depth is still checked per candidate.
class ComponentJoiner {
 public:
  ComponentJoiner(const HilbertJobState& state, const ReduceContext& ctx,
                  ReduceCollector& out)
      : state_(state),
        ctx_(ctx),
        out_(out),
        // Heavy-grid tasks own every combination they can assemble (the
        // map-side split/broadcast already made combinations unique), so
        // the curve ownership check is skipped there.
        heavy_(ctx.key >= static_cast<int64_t>(state.residual_tasks)) {
    const int dims = static_cast<int>(state_.inputs.size());
    pos_.resize(dims);
    rows_.resize(dims);
    slices_.resize(dims);
    calls_.assign(dims, 0.0);
    row_.resize(state_.output_sources.size());
  }

  void Run() {
    const int num_inputs = static_cast<int>(state_.inputs.size());
    // Empty input => no results in this component.
    for (int d = 0; d < num_inputs; ++d) {
      if (ctx_.records(d).empty()) {
        ChargeComparisons();
        return;
      }
    }
    index_.resize(num_inputs);
    for (int d = 1; d < num_inputs; ++d) {
      if (state_.index_plans[d].active()) BuildIndex(d);
    }
    Recurse(0);
    ChargeComparisons();
  }

 private:
  void BuildIndex(int depth) {
    const DepthIndexPlan& plan = state_.index_plans[depth];
    const std::vector<const MapOutputRecord*>& recs = ctx_.records(depth);
    const int w = plan.width();
    // Unsorted images; a candidate whose key is NaN can satisfy no indexed
    // condition and is left out.
    std::vector<uint64_t> images(recs.size() * w);
    std::vector<char> keep(recs.size(), 1);
    for (size_t i = 0; i < recs.size(); ++i) {
      for (size_t k = 0; k < plan.eq.size(); ++k) {
        if (!EqualityKey(*plan.eq[k].bc, plan.eq[k].cur_is_lhs, recs[i]->row,
                         &images[i * w + k])) {
          keep[i] = 0;
        }
      }
    }
    if (!plan.range.empty()) {
      // Typed columnar extraction: one type dispatch per depth.
      auto fill = [&](const auto& view) {
        for (size_t i = 0; i < recs.size(); ++i) {
          const int64_t row = recs[i]->row;
          const auto v =
              view[plan.range_rid != nullptr ? plan.range_rid[row] : row];
          images[i * w + w - 1] = OrderedImage(v);
          if (v != v) keep[i] = 0;
        }
      };
      const Relation& base = *state_.base_relations[plan.range_col.relation];
      if (plan.range_type == ValueType::kInt64) {
        fill(ColumnView<int64_t>::Of(base, plan.range_col.column));
      } else {
        fill(ColumnView<double>::Of(base, plan.range_col.column));
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
      index.recs[j] = recs[order[j]];
    }
    if (plan.key_input >= 0) {
      index.found.assign(ctx_.records(plan.key_input).size(),
                         {DepthIndex::kUnsearched, 0});
    }
  }

  // Candidate positions [lo, hi) of index_[depth] for the bound prefix.
  std::pair<size_t, size_t> Lookup(int depth) {
    const int key_input = state_.index_plans[depth].key_input;
    if (key_input < 0) return Search(depth);
    std::pair<uint32_t, uint32_t>& found = index_[depth].found[pos_[key_input]];
    if (found.first == DepthIndex::kUnsearched) {
      const auto [lo, hi] = Search(depth);
      found = {static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)};
    }
    return found;
  }

  std::pair<size_t, size_t> Search(int depth) {
    const DepthIndexPlan& plan = state_.index_plans[depth];
    const DepthIndex& index = index_[depth];
    size_t lo = 0;
    size_t hi = index.recs.size();
    if (!plan.eq.empty()) {
      const size_t k = plan.eq.size();
      target_.resize(k);
      uint64_t* t = target_.data();
      for (size_t c = 0; c < k; ++c) {
        const IndexTerm& term = plan.eq[c];
        if (!EqualityKey(*term.bc, !term.cur_is_lhs,
                         rows_[term.other_input()], t + c)) {
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
      const HilbertBoundCondition& bc = *term.bc;
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
    return {lo, hi};
  }

  void Recurse(int depth) {
    const int num_inputs = static_cast<int>(state_.inputs.size());
    calls_[depth] += 1.0;
    const bool indexed = depth > 0 && state_.index_plans[depth].active();
    size_t lo = 0;
    size_t hi = ctx_.records(depth).size();
    if (indexed) std::tie(lo, hi) = Lookup(depth);
    for (size_t i = lo; i < hi; ++i) {
      const MapOutputRecord* rec = indexed ? index_[depth].recs[i]
                                           : ctx_.records(depth)[i];
      pos_[depth] = i;
      rows_[depth] = rec->row;
      slices_[depth] = static_cast<uint32_t>(rec->rec_id);
      bool pass = true;
      for (const HilbertBoundCondition& bc :
           state_.conditions_at_depth[depth]) {
        if (!bc.Eval(rows_[bc.lhs_input], rows_[bc.rhs_input])) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      if (depth + 1 < num_inputs) {
        Recurse(depth + 1);
        continue;
      }
      if (!heavy_ && !OwnsCell()) continue;
      EmitRow();
    }
  }

  // Exactly-once ownership: the combination's cell must lie in this
  // component's curve range. Inputs sharing a fused dimension have equal
  // slices in any valid combination (their equality conditions held).
  bool OwnsCell() const {
    const int dims = state_.grouping.num_dims;
    uint32_t coords[16];
    for (int d = 0; d < dims; ++d) {
      coords[d] = slices_[state_.dim_representative[d]];
    }
    return state_.coverage->SegmentOfCell(
               std::span<const uint32_t>(coords, dims)) ==
           static_cast<int>(ctx_.key);
  }

  void EmitRow() {
    for (size_t j = 0; j < row_.size(); ++j) {
      const RidSource& src = state_.output_sources[j];
      row_[j] = src.BaseRow(rows_[src.input]);
    }
    out_.Emit(row_);
  }

  // Kernel-independent charge: the candidates the generic loop visits,
  // |R_0| + Σ_{d≥1} calls(d)·|R_d|. Every kernel makes the same calls,
  // because the prefixes that reach a depth are the join's own partial
  // results, so indexing changes this process's wall clock, not the
  // modeled cluster's.
  void ChargeComparisons() {
    // β frame: comparison work scales linearly with the represented
    // volume, like every other extrapolated quantity.
    double max_scale = 1.0;
    for (double s : state_.scales) max_scale = std::max(max_scale, s);
    double total = 0.0;
    for (int d = 0; d < static_cast<int>(calls_.size()); ++d) {
      total += calls_[d] * static_cast<double>(ctx_.records(d).size());
    }
    out_.AddComparisons(total * max_scale);
  }

  const HilbertJobState& state_;
  const ReduceContext& ctx_;
  ReduceCollector& out_;
  const bool heavy_;
  std::vector<size_t> pos_;  // visit-order position of each bound record
  std::vector<int64_t> rows_;
  std::vector<uint32_t> slices_;
  std::vector<double> calls_;      // Recurse(d) invocations per depth
  std::vector<int64_t> row_;       // output rid row scratch
  std::vector<DepthIndex> index_;  // per depth; built by Run
  std::vector<uint64_t> target_;   // Search's equality key scratch
};

}  // namespace

StatusOr<MapReduceJobSpec> BuildHilbertJoinJob(const MultiwayJoinJobSpec& spec,
                                               HilbertJoinPlanInfo* info) {
  const int num_inputs = static_cast<int>(spec.inputs.size());
  if (num_inputs < 2 || num_inputs > 16) {
    return Status::InvalidArgument("hilbert join needs 2..16 inputs");
  }
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  // Every condition endpoint must be covered by exactly one input.
  for (const JoinCondition& cond : spec.conditions) {
    for (int base : {cond.lhs.relation, cond.rhs.relation}) {
      int covering = 0;
      for (const JoinSide& side : spec.inputs) {
        if (side.Covers(base)) ++covering;
      }
      if (covering != 1) {
        return Status::InvalidArgument(
            "condition " + cond.ToString() +
            " endpoint covered by " + std::to_string(covering) +
            " inputs (expected exactly 1)");
      }
    }
  }

  std::vector<std::vector<int>> input_bases;
  input_bases.reserve(spec.inputs.size());
  for (const JoinSide& side : spec.inputs) input_bases.push_back(side.bases);
  DimensionGrouping grouping =
      ComputeDimensionGrouping(input_bases, spec.conditions);

  // ---- Skew detection and heavy/residual task split (docs/SKEW.md) ----
  // Fused dimensions hash the join key, so a heavy-hitter key collapses a
  // large fraction of its inputs into one slice; every segment covering
  // that slice inherits the whole pile no matter how the curve is cut. The
  // detector finds such keys per fused dimension; the assigner carves
  // per-key reducer grids out of the task budget for the worst dimension.
  // Shuffle payload width per input: pruned for base sides when the spec
  // carries a required-column analysis; intermediates are already pruned by
  // their producer's output schema. Drives the job inputs' record widths
  // and the skew detection volumes alike.
  std::vector<int64_t> shuffle_bytes(num_inputs, 0);
  for (int i = 0; i < num_inputs; ++i) {
    shuffle_bytes[i] = SideShuffleBytes(spec.inputs[i], spec.conditions,
                                        spec.output_columns,
                                        spec.base_relations);
  }
  SkewAssignment skew;
  skew.residual_tasks = spec.num_reduce_tasks;
  int skew_dim = -1;
  // Per heavy value: per-input key frequency (1.0 for non-fused inputs),
  // for the map_emits_per_row hint below.
  std::map<uint64_t, std::vector<double>> heavy_freq;
  std::vector<double> input_volume(num_inputs, 0.0);
  if (spec.skew_handling != SkewHandling::kOff &&
      spec.num_reduce_tasks >= 4) {
    // Task-budget volumes for the heavy/residual split. A side with a
    // map-side selection only ships its passing fraction, so volumes are
    // scaled by a sampled pass rate — otherwise a selective filter would
    // earn reducer grids for bytes that never arrive. Computed only here:
    // nothing outside the skew decision reads input_volume.
    for (int i = 0; i < num_inputs; ++i) {
      const JoinSide& side = spec.inputs[i];
      double pass_frac = 1.0;
      if (side.filter != nullptr && side.data->num_rows() > 0) {
        int64_t passing = 0;
        const std::vector<int64_t> sample = ReservoirSampleRows(
            side.data->num_rows(), kStatsSampleRows,
            kStatsSampleSeed + 0x8a1eu + static_cast<uint64_t>(i));
        for (int64_t r : sample) passing += side.filter->Passes(r) ? 1 : 0;
        pass_frac = static_cast<double>(passing) /
                    static_cast<double>(sample.size());
      }
      input_volume[i] = static_cast<double>(side.data->num_rows()) *
                        static_cast<double>(shuffle_bytes[i]) * side.scale *
                        pass_frac;
    }
    double best_signal = 0.0;
    std::vector<SkewCandidate> best_candidates;
    std::map<uint64_t, std::vector<double>> best_freq;
    for (int d = 0; d < grouping.num_dims; ++d) {
      std::vector<int> dim_inputs;
      for (int i = 0; i < num_inputs; ++i) {
        if (grouping.dim_of_input[i] == d &&
            grouping.key_of_input[i].relation >= 0) {
          dim_inputs.push_back(i);
        }
      }
      if (dim_inputs.size() < 2) continue;
      // Exact key-hash frequencies of each covering input's sample
      // (ordered map: candidate order must be deterministic).
      std::map<uint64_t, std::vector<double>> freq;
      for (size_t k = 0; k < dim_inputs.size(); ++k) {
        const int i = dim_inputs[k];
        const JoinSide& side = spec.inputs[i];
        const ColumnRef key = grouping.key_of_input[i];
        const Relation& base = *spec.base_relations[key.relation];
        std::vector<uint64_t> keys;
        for (int64_t r : ReservoirSampleRows(
                 side.data->num_rows(), kStatsSampleRows,
                 kStatsSampleSeed + static_cast<uint64_t>(i))) {
          // Sample the post-selection distribution: a key whose tuples
          // the map-side filter drops must not earn a heavy-value grid
          // (the grid would starve the residual tasks for nothing).
          if (!side.PassesFilter(r)) continue;
          keys.push_back(HashValue(
              base.Get(side.BaseRow(r, key.relation), key.column)));
        }
        const double total = static_cast<double>(keys.size());
        for (const KeyCount& kc : CountKeys(std::move(keys))) {
          const double f = static_cast<double>(kc.count) / total;
          // A key below kHeavyKeyFrequency cannot dominate a reducer at
          // realistic task budgets, and splitting quasi-uniform keys (e.g.
          // a day column's 1/61 shares) costs broadcast volume for no
          // balance win.
          if (f < kHeavyKeyFrequency) continue;
          auto [it, inserted] = freq.try_emplace(
              kc.key, std::vector<double>(dim_inputs.size(), 0.0));
          it->second[k] = f;
        }
      }
      std::vector<SkewCandidate> candidates;
      std::map<uint64_t, std::vector<double>> candidate_freq;
      double signal = 0.0;
      for (const auto& [hash, fractions] : freq) {
        SkewCandidate c;
        c.key_hash = hash;
        c.axis_bytes = input_volume;  // non-fused axes span everything
        std::vector<double> per_input(num_inputs, 1.0);
        for (size_t k = 0; k < dim_inputs.size(); ++k) {
          const int i = dim_inputs[k];
          c.axis_bytes[i] = fractions[k] * input_volume[i];
          c.skew_dim_bytes += c.axis_bytes[i];
          per_input[i] = fractions[k];
        }
        signal = std::max(signal, c.skew_dim_bytes);
        candidate_freq.emplace(hash, std::move(per_input));
        candidates.push_back(std::move(c));
      }
      if (signal > best_signal) {
        best_signal = signal;
        best_candidates = std::move(candidates);
        best_freq = std::move(candidate_freq);
        skew_dim = d;
      }
    }
    if (skew_dim >= 0) {
      double total_volume = 0.0;
      for (double v : input_volume) total_volume += v;
      skew = PlanSkewAssignment(std::move(best_candidates), total_volume,
                                spec.num_reduce_tasks);
      if (skew.enabled()) {
        heavy_freq = std::move(best_freq);
      } else {
        skew_dim = -1;
      }
    }
  }

  const int dims = grouping.num_dims;
  const int order = ChooseGridOrder(dims, skew.residual_tasks,
                                    kCellsPerSegment, kMaxGridBits);
  StatusOr<HilbertCurve> curve = HilbertCurve::Create(dims, order);
  if (!curve.ok()) return curve.status();

  auto state = std::make_shared<HilbertJobState>(HilbertJobState{
      .curve = *curve,
      .grouping = grouping,
      .base_relations = spec.base_relations,
      .inputs = spec.inputs,
      .seed = spec.seed});

  const int kr = static_cast<int>(std::min<uint64_t>(
      static_cast<uint64_t>(skew.residual_tasks), curve->num_cells()));
  StatusOr<SegmentCoverage> coverage = SegmentCoverage::Build(*curve, kr);
  if (!coverage.ok()) return coverage.status();
  state->coverage =
      std::make_shared<const SegmentCoverage>(*std::move(coverage));

  // Heavy grids live after the (possibly cell-clamped) residual segments.
  skew.residual_tasks = kr;
  {
    int next_task = kr;
    for (HeavyGroup& g : skew.groups) {
      g.first_task = next_task;
      next_task += g.num_tasks;
    }
  }
  state->residual_tasks = kr;
  state->skew_dim = skew_dim;
  state->heavy_groups = skew.groups;
  state->heavy_strides.reserve(skew.groups.size());
  for (size_t g = 0; g < skew.groups.size(); ++g) {
    const std::vector<int>& shares = skew.groups[g].shares;
    std::vector<int> stride(shares.size(), 1);
    for (int i = static_cast<int>(shares.size()) - 2; i >= 0; --i) {
      stride[i] = stride[i + 1] * shares[i + 1];
    }
    state->heavy_strides.push_back(std::move(stride));
    state->heavy_index.emplace(skew.groups[g].key_hash,
                               static_cast<int>(g));
  }

  for (int i = 0; i < num_inputs; ++i) {
    const JoinSide& side = spec.inputs[i];
    state->logical_rows.push_back(
        std::max<int64_t>(1, side.data->logical_rows()));
    state->scales.push_back(side.scale);
  }
  state->dim_representative.assign(dims, -1);
  for (int i = 0; i < num_inputs; ++i) {
    const int d = grouping.dim_of_input[i];
    if (state->dim_representative[d] < 0) state->dim_representative[d] = i;
  }

  // Output bases: ascending union of input coverage.
  std::set<int> base_set;
  for (const JoinSide& side : spec.inputs) {
    base_set.insert(side.bases.begin(), side.bases.end());
  }
  state->output_bases.assign(base_set.begin(), base_set.end());
  state->output_sources = ResolveRidSources(state->output_bases, spec.inputs);

  // Bucket conditions by the deepest input they touch, binding type
  // dispatch and row resolution once per condition.
  state->conditions_at_depth.resize(num_inputs);
  for (const JoinCondition& cond : spec.conditions) {
    HilbertBoundCondition bc;
    bc.cond = cond;
    bc.pred = CompiledPredicate::Compile(
        cond, *spec.base_relations[cond.lhs.relation],
        *spec.base_relations[cond.rhs.relation]);
    int depth = 0;
    for (int i = 0; i < num_inputs; ++i) {
      if (spec.inputs[i].Covers(cond.lhs.relation)) bc.lhs_input = i;
      if (spec.inputs[i].Covers(cond.rhs.relation)) bc.rhs_input = i;
    }
    depth = std::max(bc.lhs_input, bc.rhs_input);
    bc.lhs_rid = RidColumnFor(spec.inputs[bc.lhs_input], cond.lhs.relation);
    bc.rhs_rid = RidColumnFor(spec.inputs[bc.rhs_input], cond.rhs.relation);
    state->conditions_at_depth[depth].push_back(bc);
  }

  // One index plan per depth (DepthIndexPlan). The job reports the
  // sort-theta kernel when some depth has one.
  state->index_plans.resize(num_inputs);
  bool any_index = false;
  for (int d = 1; d < num_inputs && spec.kernel_policy == KernelPolicy::kAuto;
       ++d) {
    DepthIndexPlan& plan = state->index_plans[d];
    // Numeric, non-<> conditions against an earlier input; their columns
    // on this depth's input, in condition order, for the range choice.
    std::vector<IndexTerm> range_terms;
    std::vector<ColumnRef> range_cols;
    for (const HilbertBoundCondition& bc : state->conditions_at_depth[d]) {
      if (bc.lhs_input == bc.rhs_input || bc.cond.op == ThetaOp::kNe ||
          bc.pred.domain() == CompiledPredicate::Domain::kString) {
        continue;
      }
      const IndexTerm term{&bc, bc.lhs_input == d};
      if (bc.cond.op == ThetaOp::kEq) {
        plan.eq.push_back(term);
        continue;
      }
      // cur + ±inf is NaN at the opposite infinity, so the comparison is
      // not monotone in the column; such a condition is only checked per
      // candidate.
      if (!std::isfinite(bc.cond.offset)) continue;
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
      plan.range_col = range_cols[0];
      if (range_cols.size() > 1) {
        double best = -1.0;
        for (const ColumnRef& col : range_cols) {
          const double distinct =
              EstimateDistinct(*spec.base_relations[col.relation], col.column)
                  .physical;
          if (distinct > best) {
            best = distinct;
            plan.range_col = col;
          }
        }
      }
      for (const IndexTerm& term : range_terms) {
        if (term.cur_column() == plan.range_col) plan.range.push_back(term);
      }
      plan.range_type = spec.base_relations[plan.range_col.relation]
                            ->schema()
                            .column(plan.range_col.column)
                            .type;
      plan.range_rid =
          RidColumnFor(spec.inputs[d], plan.range_col.relation);
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
    any_index = any_index || plan.active();
  }

  MapReduceJobSpec job;
  job.name = spec.name;
  for (int i = 0; i < num_inputs; ++i) {
    job.inputs.push_back(
        {spec.inputs[i].data, spec.inputs[i].scale, shuffle_bytes[i]});
  }
  job.num_reduce_tasks = kr + skew.heavy_tasks;
  job.partition = [](int64_t key, int n) {
    return static_cast<int>(key % n);
  };
  job.output_schema = MakeIntermediateSchema(
      state->output_bases, spec.base_relations, spec.output_columns);
  job.output_name = spec.name + ".out";
  job.kernel = JoinKernelName(any_index ? JoinKernel::kSortTheta
                                        : JoinKernel::kGeneric);
  // β-extrapolation (the paper's Eq. 5 output model): results scale
  // linearly with the represented data volume.
  double row_scale = 1.0;
  for (const JoinSide& side : spec.inputs) {
    row_scale = std::max(row_scale, side.scale);
  }
  job.output_row_scale = row_scale;

  // Emitter capacity hint: a tuple in slice s is emitted once per segment
  // covering s along its dimension, so the expected emits per row is the
  // mean coverage — Σ_seg c(R_i) / side (uniform-slice approximation) —
  // plus the expected heavy-grid fan-out (a tuple reaches
  // num_tasks / shares[i] tasks of each group it participates in).
  job.map_emits_per_row.reserve(num_inputs);
  for (int i = 0; i < num_inputs; ++i) {
    const int dim = grouping.dim_of_input[i];
    int64_t total_coverage = 0;
    for (int seg = 0; seg < state->coverage->num_segments(); ++seg) {
      total_coverage += state->coverage->CoverageCount(seg, dim);
    }
    double emits = static_cast<double>(total_coverage) /
                   static_cast<double>(state->curve.side());
    for (const HeavyGroup& g : skew.groups) {
      const auto it = heavy_freq.find(g.key_hash);
      const double participation =
          it != heavy_freq.end() ? it->second[i] : 1.0;
      emits += participation *
               static_cast<double>(g.num_tasks / g.shares[i]);
    }
    job.map_emits_per_row.push_back(emits);
  }

  job.map = [state](int tag, const Relation& rel, int64_t row,
                    MapEmitter& out) {
    (void)rel;
    // Selection pushdown: filtered rows never reach any reducer.
    if (!state->inputs[tag].PassesFilter(row)) return;
    const int dim = state->grouping.dim_of_input[tag];
    uint32_t slice;
    if (state->grouping.key_of_input[tag].relation >= 0) {
      // Fused input: one key fetch + hash serves both the slice and the
      // heavy lookup.
      const uint64_t hash = state->FusedKeyHash(tag, row);
      slice = static_cast<uint32_t>(hash % state->curve.side());
      if (dim == state->skew_dim && !state->heavy_groups.empty()) {
        // Heavy tuples leave the residual matrix entirely: their only
        // join partners on this dimension share the key, and those all
        // meet inside the value's grid.
        const auto it = state->heavy_index.find(hash);
        if (it != state->heavy_index.end()) {
          state->EmitToGroup(it->second, tag, row, slice, out);
          return;
        }
      }
    } else {
      slice = state->SliceOfInput(tag, row);
    }
    if (dim != state->skew_dim && !state->heavy_groups.empty()) {
      // The heavy regions span this dimension end to end, so every tuple
      // participates in every grid (split along its own axis).
      for (int g = 0; g < static_cast<int>(state->heavy_groups.size());
           ++g) {
        state->EmitToGroup(g, tag, row, slice, out);
      }
    }
    for (int seg : state->coverage->SegmentsForSlice(dim, slice)) {
      out.Emit(seg, tag, row, slice);
    }
  };

  job.reduce = [state](const ReduceContext& ctx, ReduceCollector& out) {
    ComponentJoiner joiner(*state, ctx, out);
    joiner.Run();
  };

  if (info != nullptr) {
    info->grid_order = order;
    info->effective_reduce_tasks = kr + skew.heavy_tasks;
    info->coverage = state->coverage;
    info->grouping = state->grouping;
    info->output_bases = state->output_bases;
    info->skew = skew;
    info->skew_dim = skew_dim;
  }
  return job;
}

}  // namespace mrtheta
