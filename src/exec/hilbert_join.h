#ifndef MRTHETA_EXEC_HILBERT_JOIN_H_
#define MRTHETA_EXEC_HILBERT_JOIN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/join_side.h"
#include "src/exec/theta_kernels.h"
#include "src/hilbert/hilbert.h"
#include "src/mapreduce/job.h"
#include "src/sched/skew_assigner.h"

namespace mrtheta {

/// \brief Specification of a chain multi-way theta-join evaluated in one
/// MapReduce job via Hilbert-curve partitioning — the paper's Algorithm 1.
struct MultiwayJoinJobSpec {
  std::string name = "hilbert-join";
  /// The join's inputs in trail order; their distinct count is the
  /// dimensionality of the partition hyper-cube S.
  std::vector<JoinSide> inputs;
  /// All base relations of the query (value resolution).
  std::vector<RelationPtr> base_relations;
  /// Conditions over query base indices; every referenced base must be
  /// covered by exactly one input.
  std::vector<JoinCondition> conditions;
  int num_reduce_tasks = 1;
  uint64_t seed = 42;
  /// Reduce-side kernel selection: kAuto indexes each depth's candidates
  /// on all of its conditions against earlier inputs (docs/EXECUTOR.md);
  /// kGenericOnly forces the plain backtracking loop (differential
  /// baselines).
  KernelPolicy kernel_policy = KernelPolicy::kAuto;
  /// Skew handling (docs/SKEW.md): kOff keeps the pure Hilbert assignment;
  /// kAuto / kForce both run heavy-hitter detection here (the per-plan-job
  /// distinction is applied by the executor before this spec is built) and
  /// carve per-heavy-value reducer grids out of the task budget. The join
  /// result is identical either way; only the reducer decomposition (and
  /// hence per-task input sizes) changes.
  SkewHandling skew_handling = SkewHandling::kOff;
  /// Required-column analysis for this job (PlanJob::output_columns): per
  /// covered base, the columns the output must carry. When non-empty, the
  /// output intermediate takes pruned per-base widths and base inputs ship
  /// pruned map payloads (their condition columns plus this set). Empty =
  /// full-width accounting.
  std::vector<RequiredColumns> output_columns;
};

/// \brief Equality-aware dimension grouping of a multi-way join's inputs.
///
/// Inputs connected by offset-free equality conditions can share one
/// hyper-cube dimension whose coordinate is a hash of the join-key value
/// (the Afrati–Ullman style share for equi conditions): matching tuples
/// co-locate by construction and are never replicated along that axis.
/// Fewer dimensions means a smaller duplication exponent (Eq. 9).
struct DimensionGrouping {
  int num_dims = 0;
  /// input index -> dimension index in [0, num_dims).
  std::vector<int> dim_of_input;
  /// Per input: the (base relation, column) hashed for the coordinate, or
  /// {-1, -1} when the input keeps a random-global-ID coordinate.
  std::vector<ColumnRef> key_of_input;
};

/// Computes the grouping for inputs covering `input_bases[i]` under
/// `conditions`. Each equality equivalence class becomes one dimension
/// (largest classes first); unaffected inputs keep their own dimension.
DimensionGrouping ComputeDimensionGrouping(
    const std::vector<std::vector<int>>& input_bases,
    const std::vector<JoinCondition>& conditions);

/// Planning artifacts exposed for tests, benches and the plan explorer.
struct HilbertJoinPlanInfo {
  int grid_order = 0;
  /// Total reduce tasks: residual Hilbert segments + heavy-value grids.
  int effective_reduce_tasks = 0;
  std::shared_ptr<const SegmentCoverage> coverage;
  DimensionGrouping grouping;
  /// Query base indices covered by the job output, ascending — the column
  /// order of the output intermediate.
  std::vector<int> output_bases;
  /// The heavy/residual reducer decomposition (groups empty when skew
  /// handling is off or nothing qualified as heavy).
  SkewAssignment skew;
  /// Hyper-cube dimension whose join-key skew the groups absorb, or -1.
  int skew_dim = -1;
};

/// \brief Builds the (key,value) mapping of Algorithm 1:
///
///  Map: assign each tuple a random global ID in [0, |R_i|), map the ID to
///  its grid slice along dimension i, and emit the tuple to every curve
///  segment (reduce component) whose dimension-i coverage contains the
///  slice.
///
///  Reduce: backtracking join over the component's tuples in trail order
///  with early condition pruning; the last depth binds only combinations
///  whose cell's curve position belongs to this component, which makes
///  results exactly-once across reducers. Under KernelPolicy::kAuto each
///  depth visits only the candidates its composite-key index returns for
///  the bound prefix.
StatusOr<MapReduceJobSpec> BuildHilbertJoinJob(const MultiwayJoinJobSpec& spec,
                                               HilbertJoinPlanInfo* info =
                                                   nullptr);

}  // namespace mrtheta

#endif  // MRTHETA_EXEC_HILBERT_JOIN_H_
