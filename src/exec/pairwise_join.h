#ifndef MRTHETA_EXEC_PAIRWISE_JOIN_H_
#define MRTHETA_EXEC_PAIRWISE_JOIN_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/join_side.h"
#include "src/exec/theta_kernels.h"
#include "src/mapreduce/job.h"

namespace mrtheta {

/// \brief Specification of a pair-wise join job (the building block of the
/// Hive/Pig/YSmart-style cascades).
struct PairwiseJoinJobSpec {
  std::string name = "pairwise-join";
  JoinSide left;
  JoinSide right;
  std::vector<RelationPtr> base_relations;
  /// Conditions connecting left and right (query base indices).
  std::vector<JoinCondition> conditions;
  int num_reduce_tasks = 1;
  uint64_t seed = 42;
  /// Reduce-side kernel selection: kAuto indexes the right side's
  /// candidates on every condition (JoinKernelPlan) in reduce groups of at
  /// least kSortKernelMinPairs pairs; kGenericOnly forces the nested loop.
  KernelPolicy kernel_policy = KernelPolicy::kAuto;
  /// Required-column analysis for this job (PlanJob::output_columns): when
  /// non-empty, the output intermediate takes pruned per-base widths and
  /// base sides ship pruned map payloads. Empty = full-width accounting.
  std::vector<RequiredColumns> output_columns;
};

/// \brief Repartition equi-join: requires at least one `=` condition whose
/// endpoints land on opposite sides; that condition's value is the shuffle
/// key; remaining conditions are filtered reduce-side.
StatusOr<MapReduceJobSpec> BuildEquiJoinJob(const PairwiseJoinJobSpec& spec);

/// \brief 1-Bucket-Theta (Okcan & Riedewald, SIGMOD'11 — the paper's [25]):
/// partitions the |L|×|R| cross-product matrix into a c_r × c_c grid of
/// near-square buckets (c_r·c_c = reduce tasks, shaped to minimize
/// replication). Left tuples replicate across a row band, right tuples down
/// a column band; each (l, r) pair meets in exactly one bucket, so theta
/// conditions of any form are evaluated exactly once.
StatusOr<MapReduceJobSpec> BuildOneBucketThetaJob(
    const PairwiseJoinJobSpec& spec);

/// The (rows, cols) bucket grid 1-Bucket-Theta uses for the given logical
/// cardinalities and reduce count (exposed for tests/benches).
struct BucketGrid {
  int rows = 1;
  int cols = 1;
  /// Total tuple replicas shipped: |L|·cols + |R|·rows.
  double replicas = 0.0;
};
BucketGrid ChooseBucketGrid(double left_rows, double right_rows,
                            int num_reduce_tasks);

}  // namespace mrtheta

#endif  // MRTHETA_EXEC_PAIRWISE_JOIN_H_
