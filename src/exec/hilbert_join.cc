#include "src/exec/hilbert_join.h"

#include "src/common/status.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <unordered_map>

#include "src/exec/theta_kernels.h"
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
  // Per input: the cell-table stride of its dimension when it is the
  // lowest input on it, else 0 (CellOwnership::stride).
  std::vector<uint64_t> depth_stride = {};
  JoinKernelPlan kernel_plan = {};
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

  // Joins one reduce task's component. A curve segment's task binds only
  // the combinations whose cell it owns, so each result appears once.
  // Heavy-grid tasks own every combination they can assemble (the map-side
  // split/broadcast already made combinations unique) and pass no
  // ownership.
  void JoinComponent(const ReduceContext& ctx, ReduceCollector& out) const {
    const bool heavy = ctx.key >= static_cast<int64_t>(residual_tasks);
    const CellOwnership ownership{coverage->cell_segments(),
                                  static_cast<int32_t>(ctx.key), depth_stride};
    std::vector<int64_t> row(output_sources.size());
    ComponentJoiner joiner(kernel_plan, ctx, heavy ? nullptr : &ownership);
    joiner.Run([&](std::span<const MapOutputRecord* const> recs) {
      for (size_t j = 0; j < row.size(); ++j) {
        const RidSource& src = output_sources[j];
        row[j] = src.BaseRow(recs[src.input]->row);
      }
      out.Emit(row);
    });
    // Kernel-independent charge: the candidates the generic loop visits,
    // |R_0| + Σ_{d≥1} calls(d)·|R_d|. Indexing changes this process's wall
    // clock, not the modeled cluster's. β frame: comparison work scales
    // linearly with the represented volume, like every other extrapolated
    // quantity.
    double max_scale = 1.0;
    for (double s : scales) max_scale = std::max(max_scale, s);
    double total = 0.0;
    for (int d = 0; d < static_cast<int>(inputs.size()); ++d) {
      total += joiner.calls(d) * static_cast<double>(ctx.records(d).size());
    }
    out.AddComparisons(total * max_scale);
  }
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
  StatusOr<std::shared_ptr<const SegmentCoverage>> coverage =
      SharedSegmentCoverage(*curve, kr);
  if (!coverage.ok()) return coverage.status();
  state->coverage = *std::move(coverage);

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
  // Inputs sharing a fused dimension have equal slices in any valid
  // combination (their equality conditions held), so the lowest input on
  // a dimension places it in the row-major cell table.
  std::vector<bool> dim_bound(dims, false);
  for (int i = 0; i < num_inputs; ++i) {
    const int d = grouping.dim_of_input[i];
    uint64_t stride = 0;
    if (!dim_bound[d]) {
      dim_bound[d] = true;
      stride = 1;
      for (int e = d + 1; e < dims; ++e) stride *= curve->side();
    }
    state->depth_stride.push_back(stride);
  }

  // Output bases: ascending union of input coverage.
  std::set<int> base_set;
  for (const JoinSide& side : spec.inputs) {
    base_set.insert(side.bases.begin(), side.bases.end());
  }
  state->output_bases.assign(base_set.begin(), base_set.end());
  state->output_sources = ResolveRidSources(state->output_bases, spec.inputs);

  // Reduce-side kernel: conditions bound to the inputs, bucketed by depth,
  // and each depth's index plan.
  state->kernel_plan = BuildJoinKernelPlan(
      spec.conditions, spec.inputs, spec.base_relations, spec.kernel_policy);

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
  job.kernel = JoinKernelName(state->kernel_plan.kernel());
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
    state->JoinComponent(ctx, out);
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
