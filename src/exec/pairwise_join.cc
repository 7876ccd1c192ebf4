#include "src/exec/pairwise_join.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

namespace mrtheta {

namespace {

// State shared by both pairwise variants.
struct PairwiseState {
  // One condition, oriented so its lhs endpoint is covered by the left
  // side, with type dispatch and row resolution bound once per job.
  struct BoundCondition {
    JoinCondition cond;
    CompiledPredicate pred;
    const int64_t* lhs_rid = nullptr;  // left row -> lhs base row
    const int64_t* rhs_rid = nullptr;  // right row -> rhs base row

    int64_t LhsBaseRow(int64_t lrow) const {
      return lhs_rid != nullptr ? lhs_rid[lrow] : lrow;
    }
    int64_t RhsBaseRow(int64_t rrow) const {
      return rhs_rid != nullptr ? rhs_rid[rrow] : rrow;
    }
    bool Eval(int64_t lrow, int64_t rrow) const {
      return pred.Eval(LhsBaseRow(lrow), RhsBaseRow(rrow));
    }
  };

  JoinSide left;
  JoinSide right;
  std::vector<RelationPtr> base_relations;
  std::vector<BoundCondition> bound;
  /// Index into `bound` of the sort-kernel driver, -1 => generic loop.
  int sort_driver = -1;
  std::vector<int> output_bases;
  std::vector<RidSource> output_sources;  // per output base; input 0 = left

  bool Matches(int64_t lrow, int64_t rrow) const {
    for (const BoundCondition& bc : bound) {
      if (!bc.Eval(lrow, rrow)) return false;
    }
    return true;
  }

  // All conditions except the sort driver (already enforced by the kernel's
  // key ranges).
  bool MatchesResidual(int64_t lrow, int64_t rrow) const {
    for (int i = 0; i < static_cast<int>(bound.size()); ++i) {
      if (i == sort_driver) continue;
      if (!bound[i].Eval(lrow, rrow)) return false;
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

  // Joins one reduce group, dispatching between the sort-based kernel and
  // the generic nested loop. AddComparisons charging is kernel-independent:
  // the simulated cluster's CPU model prices the |L|x|R| work a real
  // reducer would do, not this process's wall clock.
  void JoinGroup(const std::vector<const MapOutputRecord*>& lrecs,
                 const std::vector<const MapOutputRecord*>& rrecs,
                 ReduceCollector& out) const {
    const int64_t pairs = static_cast<int64_t>(lrecs.size()) *
                          static_cast<int64_t>(rrecs.size());
    std::vector<int64_t> row(output_sources.size());
    if (sort_driver >= 0 && pairs >= kSortKernelMinPairs) {
      const BoundCondition& drv = bound[sort_driver];
      std::vector<int64_t> lrows, rrows;
      lrows.reserve(lrecs.size());
      rrows.reserve(rrecs.size());
      for (const MapOutputRecord* l : lrecs) {
        lrows.push_back(drv.LhsBaseRow(l->row));
      }
      for (const MapOutputRecord* r : rrecs) {
        rrows.push_back(drv.RhsBaseRow(r->row));
      }
      SortJoinRowSets(drv.cond, *base_relations[drv.cond.lhs.relation],
                      lrows, *base_relations[drv.cond.rhs.relation], rrows,
                      [&](int32_t lpos, int32_t rpos) {
                        const int64_t lrow = lrecs[lpos]->row;
                        const int64_t rrow = rrecs[rpos]->row;
                        if (MatchesResidual(lrow, rrow)) {
                          EmitPair(lrow, rrow, row, out);
                        }
                      });
      return;
    }
    for (const MapOutputRecord* l : lrecs) {
      for (const MapOutputRecord* r : rrecs) {
        if (Matches(l->row, r->row)) {
          EmitPair(l->row, r->row, row, out);
        }
      }
    }
  }
};

StatusOr<std::shared_ptr<PairwiseState>> MakeState(
    const PairwiseJoinJobSpec& spec) {
  for (const JoinCondition& cond : spec.conditions) {
    const bool l_on_left = spec.left.Covers(cond.lhs.relation);
    const bool l_on_right = spec.right.Covers(cond.lhs.relation);
    const bool r_on_left = spec.left.Covers(cond.rhs.relation);
    const bool r_on_right = spec.right.Covers(cond.rhs.relation);
    if (!((l_on_left && r_on_right) || (l_on_right && r_on_left))) {
      return Status::InvalidArgument("condition " + cond.ToString() +
                                     " does not connect the two sides");
    }
  }
  auto state = std::make_shared<PairwiseState>();
  state->left = spec.left;
  state->right = spec.right;
  state->base_relations = spec.base_relations;
  for (const JoinCondition& cond : spec.conditions) {
    const JoinCondition oc =
        spec.left.Covers(cond.lhs.relation) ? cond
                                            : cond.OrientedFor(
                                                  cond.rhs.relation);
    PairwiseState::BoundCondition bc;
    bc.cond = oc;
    bc.pred = CompiledPredicate::Compile(
        oc, *spec.base_relations[oc.lhs.relation],
        *spec.base_relations[oc.rhs.relation]);
    bc.lhs_rid = RidColumnFor(spec.left, oc.lhs.relation);
    bc.rhs_rid = RidColumnFor(spec.right, oc.rhs.relation);
    state->bound.push_back(bc);
  }
  if (spec.kernel_policy == KernelPolicy::kAuto) {
    // Orienting a condition keeps its kind (`<>`, `=` or a range), so the
    // index is the same in `bound`.
    state->sort_driver = ChooseSortDriver(spec.conditions);
  }
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
  job.kernel = JoinKernelName(state.sort_driver >= 0
                                  ? JoinKernel::kSortTheta
                                  : JoinKernel::kGeneric);
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
    const auto& lrecs = ctx.records(0);
    const auto& rrecs = ctx.records(1);
    out.AddComparisons(static_cast<double>(lrecs.size()) *
                       static_cast<double>(rrecs.size()) *
                       std::max(state->left.scale, state->right.scale));
    // Conditions re-checked in full: hash groups may contain collisions.
    state->JoinGroup(lrecs, rrecs, out);
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
    const auto& lrecs = ctx.records(0);
    const auto& rrecs = ctx.records(1);
    out.AddComparisons(static_cast<double>(lrecs.size()) *
                       static_cast<double>(rrecs.size()) *
                       std::max(state->left.scale, state->right.scale));
    state->JoinGroup(lrecs, rrecs, out);
  };
  return job;
}

}  // namespace mrtheta
