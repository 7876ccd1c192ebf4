#include "src/exec/pairwise_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <span>

namespace mrtheta {

namespace {

// State shared by both pairwise variants.
struct PairwiseState {
  JoinSide left;
  JoinSide right;
  std::vector<RelationPtr> base_relations;
  // Every condition decided at depth 1; the left side is input 0.
  JoinKernelPlan kernel_plan;
  std::vector<int> output_bases;
  std::vector<RidSource> output_sources;  // per output base; input 0 = left

  // Every condition has one endpoint on each side (MakeState).
  bool Matches(int64_t lrow, int64_t rrow) const {
    for (const BoundCondition& bc : kernel_plan.conditions_at_depth[1]) {
      const bool lhs_left = bc.lhs_input == 0;
      if (!bc.Eval(lhs_left ? lrow : rrow, lhs_left ? rrow : lrow)) {
        return false;
      }
    }
    return true;
  }

  // `row` is the group's scratch rid row (one cell per output base).
  void EmitPair(int64_t lrow, int64_t rrow, std::vector<int64_t>& row,
                ReduceCollector& out) const {
    for (size_t j = 0; j < output_sources.size(); ++j) {
      const RidSource& src = output_sources[j];
      row[j] = src.BaseRow(src.input == 0 ? lrow : rrow);
    }
    out.Emit(row);
  }

  // Joins one reduce group: the shared joiner when depth 1 has an index and
  // the group is large enough to pay for sorting it, else the nested loop.
  // AddComparisons charging is kernel-independent: the simulated cluster's
  // CPU model prices the |L|x|R| work a real reducer would do, not this
  // process's wall clock.
  void JoinGroup(const ReduceContext& ctx, ReduceCollector& out) const {
    const std::span<const MapOutputRecord> lrecs = ctx.records(0);
    const std::span<const MapOutputRecord> rrecs = ctx.records(1);
    const int64_t pairs = static_cast<int64_t>(lrecs.size()) *
                          static_cast<int64_t>(rrecs.size());
    if (pairs == 0) return;
    std::vector<int64_t> row(output_sources.size());
    if (kernel_plan.index_plans[1].active() && pairs >= kSortKernelMinPairs) {
      ComponentJoiner joiner(kernel_plan, ctx);
      joiner.Run([&](std::span<const MapOutputRecord* const> recs) {
        EmitPair(recs[0]->row, recs[1]->row, row, out);
      });
      return;
    }
    for (const MapOutputRecord& l : lrecs) {
      for (const MapOutputRecord& r : rrecs) {
        if (Matches(l.row, r.row)) EmitPair(l.row, r.row, row, out);
      }
    }
  }
};

StatusOr<std::shared_ptr<PairwiseState>> MakeState(
    const PairwiseJoinJobSpec& spec) {
  for (const JoinCondition& cond : spec.conditions) {
    // Each endpoint on exactly one side, the two on different sides.
    const bool l_on_left = spec.left.Covers(cond.lhs.relation);
    const bool l_on_right = spec.right.Covers(cond.lhs.relation);
    const bool r_on_left = spec.left.Covers(cond.rhs.relation);
    const bool r_on_right = spec.right.Covers(cond.rhs.relation);
    if (l_on_left == l_on_right || r_on_left == r_on_right ||
        l_on_left == r_on_left) {
      return Status::InvalidArgument("condition " + cond.ToString() +
                                     " does not connect the two sides");
    }
  }
  auto state = std::make_shared<PairwiseState>();
  state->left = spec.left;
  state->right = spec.right;
  state->base_relations = spec.base_relations;
  state->kernel_plan =
      BuildJoinKernelPlan(spec.conditions, {spec.left, spec.right},
                          spec.base_relations, spec.kernel_policy);
  std::set<int> bases(spec.left.bases.begin(), spec.left.bases.end());
  bases.insert(spec.right.bases.begin(), spec.right.bases.end());
  state->output_bases.assign(bases.begin(), bases.end());
  state->output_sources =
      ResolveRidSources(state->output_bases, {spec.left, spec.right});
  return state;
}

MapReduceJobSpec MakeJobShell(const PairwiseJoinJobSpec& spec,
                              const PairwiseState& state) {
  MapReduceJobSpec job;
  job.name = spec.name;
  job.inputs.push_back(
      {spec.left.data, spec.left.scale,
       SideShuffleBytes(spec.left, spec.conditions, spec.output_columns,
                        spec.base_relations)});
  job.inputs.push_back(
      {spec.right.data, spec.right.scale,
       SideShuffleBytes(spec.right, spec.conditions, spec.output_columns,
                        spec.base_relations)});
  job.num_reduce_tasks = spec.num_reduce_tasks;
  job.output_schema = MakeIntermediateSchema(
      state.output_bases, spec.base_relations, spec.output_columns);
  job.output_name = spec.name + ".out";
  // β-extrapolation (the paper's Eq. 5 output model): results scale
  // *linearly* with the represented data volume; the physical sample fixes
  // the output/input ratio β.
  job.output_row_scale = std::max(spec.left.scale, spec.right.scale);
  job.kernel = JoinKernelName(state.kernel_plan.kernel());
  // Emitter capacity hint: one record per row unless the variant overrides
  // it with its replication factors (1-Bucket-Theta's bands).
  job.map_emits_per_row = {1.0, 1.0};
  return job;
}

}  // namespace

StatusOr<MapReduceJobSpec> BuildEquiJoinJob(const PairwiseJoinJobSpec& spec) {
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  StatusOr<std::shared_ptr<PairwiseState>> state_or = MakeState(spec);
  if (!state_or.ok()) return state_or.status();
  std::shared_ptr<PairwiseState> state = *state_or;

  // Find the shuffle-key condition: an equality with zero offset.
  int key_cond = -1;
  for (int i = 0; i < static_cast<int>(spec.conditions.size()); ++i) {
    if (spec.conditions[i].op == ThetaOp::kEq &&
        spec.conditions[i].offset == 0.0) {
      key_cond = i;
      break;
    }
  }
  if (key_cond < 0) {
    return Status::FailedPrecondition(
        "equi-join job requires at least one offset-free '=' condition");
  }
  const JoinCondition key = spec.conditions[key_cond];

  MapReduceJobSpec job = MakeJobShell(spec, *state);
  job.map = [state, key](int tag, const Relation& rel, int64_t row,
                         MapEmitter& out) {
    (void)rel;
    const JoinSide& side = tag == 0 ? state->left : state->right;
    // Selection pushdown: filtered rows never reach any reducer.
    if (!side.PassesFilter(row)) return;
    const ColumnRef ref =
        side.Covers(key.lhs.relation) ? key.lhs : key.rhs;
    const int64_t base_row = side.BaseRow(row, ref.relation);
    const Value v =
        state->base_relations[ref.relation]->Get(base_row, ref.column);
    out.Emit(static_cast<int64_t>(HashValue(v)), tag, row, /*rec_id=*/row);
  };
  job.reduce = [state](const ReduceContext& ctx, ReduceCollector& out) {
    out.AddComparisons(static_cast<double>(ctx.records(0).size()) *
                       static_cast<double>(ctx.records(1).size()) *
                       std::max(state->left.scale, state->right.scale));
    // Hash groups may contain collisions; both paths decide every
    // condition on the keys themselves.
    state->JoinGroup(ctx, out);
  };
  return job;
}

BucketGrid ChooseBucketGrid(double left_rows, double right_rows,
                            int num_reduce_tasks) {
  BucketGrid best;
  best.replicas = std::numeric_limits<double>::infinity();
  for (int rows = 1; rows <= num_reduce_tasks; ++rows) {
    const int cols = num_reduce_tasks / rows;
    if (rows * cols > num_reduce_tasks || cols < 1) continue;
    const double replicas = left_rows * cols + right_rows * rows;
    // Tie-break toward more buckets (parallelism), then squarer shapes.
    const bool better =
        replicas < best.replicas ||
        (replicas == best.replicas &&
         (rows * cols > best.rows * best.cols ||
          (rows * cols == best.rows * best.cols &&
           std::abs(rows - cols) < std::abs(best.rows - best.cols))));
    if (better) {
      best.replicas = replicas;
      best.rows = rows;
      best.cols = cols;
    }
  }
  return best;
}

StatusOr<MapReduceJobSpec> BuildOneBucketThetaJob(
    const PairwiseJoinJobSpec& spec) {
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  StatusOr<std::shared_ptr<PairwiseState>> state_or = MakeState(spec);
  if (!state_or.ok()) return state_or.status();
  std::shared_ptr<PairwiseState> state = *state_or;

  const double l_rows =
      static_cast<double>(std::max<int64_t>(1, spec.left.data->logical_rows()));
  const double r_rows = static_cast<double>(
      std::max<int64_t>(1, spec.right.data->logical_rows()));
  const BucketGrid grid =
      ChooseBucketGrid(l_rows, r_rows, spec.num_reduce_tasks);
  const uint64_t seed = spec.seed;

  MapReduceJobSpec job = MakeJobShell(spec, *state);
  job.num_reduce_tasks = grid.rows * grid.cols;
  // Left rows replicate across a row band (cols emits), right rows down a
  // column band (rows emits).
  job.map_emits_per_row = {static_cast<double>(grid.cols),
                           static_cast<double>(grid.rows)};
  job.partition = [](int64_t key, int n) {
    return static_cast<int>(key % n);
  };
  const int grid_rows = grid.rows;
  const int grid_cols = grid.cols;
  job.map = [state, grid_rows, grid_cols, seed](int tag, const Relation& rel,
                                                int64_t row, MapEmitter& out) {
    (void)rel;
    // Selection pushdown: filtered rows never reach any reducer.
    if (!(tag == 0 ? state->left : state->right).PassesFilter(row)) return;
    if (tag == 0) {
      const int band = static_cast<int>(
          MixHash(seed, static_cast<uint64_t>(row)) %
          static_cast<uint64_t>(grid_rows));
      for (int c = 0; c < grid_cols; ++c) {
        out.Emit(static_cast<int64_t>(band) * grid_cols + c, tag, row, row);
      }
    } else {
      const int band = static_cast<int>(
          MixHash(seed + 1, static_cast<uint64_t>(row)) %
          static_cast<uint64_t>(grid_cols));
      for (int r = 0; r < grid_rows; ++r) {
        out.Emit(static_cast<int64_t>(r) * grid_cols + band, tag, row, row);
      }
    }
  };
  job.reduce = [state](const ReduceContext& ctx, ReduceCollector& out) {
    out.AddComparisons(static_cast<double>(ctx.records(0).size()) *
                       static_cast<double>(ctx.records(1).size()) *
                       std::max(state->left.scale, state->right.scale));
    state->JoinGroup(ctx, out);
  };
  return job;
}

}  // namespace mrtheta
