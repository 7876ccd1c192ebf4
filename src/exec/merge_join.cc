#include "src/exec/merge_join.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <set>

namespace mrtheta {

std::vector<int> SharedBases(const JoinSide& a, const JoinSide& b) {
  std::vector<int> shared;
  for (int base : a.bases) {
    if (b.Covers(base)) shared.push_back(base);
  }
  std::sort(shared.begin(), shared.end());
  return shared;
}

namespace {

struct MergeState {
  JoinSide left;
  JoinSide right;
  std::vector<int> shared;
  // Columnar rid views of the shared bases, one per side (aligned with
  // `shared`); resolved once per job instead of once per record.
  std::vector<const int64_t*> left_rids;
  std::vector<const int64_t*> right_rids;
  std::vector<int> output_bases;
  std::vector<RidSource> output_sources;  // per output base; input 0 = left

  int64_t LeftRid(size_t k, int64_t row) const {
    return left_rids[k] != nullptr ? left_rids[k][row] : row;
  }
  int64_t RightRid(size_t k, int64_t row) const {
    return right_rids[k] != nullptr ? right_rids[k][row] : row;
  }

  uint64_t KeyOf(int tag, int64_t row) const {
    uint64_t h = 0x517cc1b727220a95ULL;
    for (size_t k = 0; k < shared.size(); ++k) {
      h = MixHash(h, static_cast<uint64_t>(tag == 0 ? LeftRid(k, row)
                                                    : RightRid(k, row)));
    }
    return h;
  }

  bool RidsMatch(int64_t lrow, int64_t rrow) const {
    for (size_t k = 0; k < shared.size(); ++k) {
      if (LeftRid(k, lrow) != RightRid(k, rrow)) return false;
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

  // A reduce group is one hash of the shared rids, so unless two rid
  // tuples collide every pair in it matches: the nested loop is the join.
  void JoinGroup(const std::vector<const MapOutputRecord*>& lrecs,
                 const std::vector<const MapOutputRecord*>& rrecs,
                 ReduceCollector& out) const {
    std::vector<int64_t> row(output_sources.size());
    for (const MapOutputRecord* lrec : lrecs) {
      for (const MapOutputRecord* rrec : rrecs) {
        if (!RidsMatch(lrec->row, rrec->row)) continue;
        EmitPair(lrec->row, rrec->row, row, out);
      }
    }
  }
};

}  // namespace

StatusOr<MapReduceJobSpec> BuildMergeJob(const MergeJobSpec& spec) {
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  auto state = std::make_shared<MergeState>();
  state->left = spec.left;
  state->right = spec.right;
  state->shared = SharedBases(spec.left, spec.right);
  if (state->shared.empty()) {
    return Status::FailedPrecondition(
        "merge requires the sides to share at least one relation");
  }
  for (int base : state->shared) {
    state->left_rids.push_back(RidColumnFor(spec.left, base));
    state->right_rids.push_back(RidColumnFor(spec.right, base));
  }
  std::set<int> bases(spec.left.bases.begin(), spec.left.bases.end());
  bases.insert(spec.right.bases.begin(), spec.right.bases.end());
  state->output_bases.assign(bases.begin(), bases.end());
  state->output_sources =
      ResolveRidSources(state->output_bases, {spec.left, spec.right});
  MapReduceJobSpec job;
  job.name = spec.name;
  // Merge inputs ship only record IDs: 8 bytes per covered relation.
  job.inputs.push_back({spec.left.data, spec.left.scale,
                        8 * static_cast<int64_t>(spec.left.bases.size())});
  job.inputs.push_back({spec.right.data, spec.right.scale,
                        8 * static_cast<int64_t>(spec.right.bases.size())});
  job.num_reduce_tasks = spec.num_reduce_tasks;
  job.output_schema = MakeIntermediateSchema(
      state->output_bases, spec.base_relations, spec.output_columns);
  job.output_name = spec.name + ".out";
  // A merged row pairs one left row with one right row agreeing on the
  // shared rids; in expectation the logical count scales like an equi-join
  // on a key: left.scale * right.scale overcounts matches lost to sampling
  // both sides, so use the max (the dominating side's scale).
  job.output_row_scale = std::max(spec.left.scale, spec.right.scale);

  job.map_emits_per_row = {1.0, 1.0};  // merge maps emit exactly once

  job.map = [state](int tag, const Relation& rel, int64_t row,
                    MapEmitter& out) {
    (void)rel;
    // Merge inputs are normally intermediates (already filtered by their
    // producers); the check is a no-op then but keeps base sides correct.
    if (!(tag == 0 ? state->left : state->right).PassesFilter(row)) return;
    out.Emit(static_cast<int64_t>(state->KeyOf(tag, row)), tag, row, row);
  };
  job.reduce = [state](const ReduceContext& ctx, ReduceCollector& out) {
    const auto& lrecs = ctx.records(0);
    const auto& rrecs = ctx.records(1);
    out.AddComparisons(static_cast<double>(lrecs.size()) *
                       static_cast<double>(rrecs.size()));
    state->JoinGroup(lrecs, rrecs, out);
  };
  return job;
}

}  // namespace mrtheta
