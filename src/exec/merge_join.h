#ifndef MRTHETA_EXEC_MERGE_JOIN_H_
#define MRTHETA_EXEC_MERGE_JOIN_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/join_side.h"
#include "src/mapreduce/job.h"

namespace mrtheta {

/// \brief The merge step of Section 4.2 / Fig. 4: combines the outputs of
/// two MRJs that share at least one input relation, joining on the shared
/// relations' record IDs ("the merge operation only has output keys or data
/// IDs involved, therefore it can be done very efficiently").
struct MergeJobSpec {
  std::string name = "merge";
  JoinSide left;   ///< an intermediate result
  JoinSide right;  ///< an intermediate result
  std::vector<RelationPtr> base_relations;
  int num_reduce_tasks = 1;
  /// Required-column analysis for this job (PlanJob::output_columns): when
  /// non-empty, the output intermediate takes pruned per-base widths (the
  /// merge shuffle itself already ships only record IDs).
  std::vector<RequiredColumns> output_columns;
};

/// Builds the merge MRJ: shuffle key = hash of the shared relations' rids;
/// reduce verifies rid equality and emits the union of covered relations.
/// Fails when the sides share no base relation.
StatusOr<MapReduceJobSpec> BuildMergeJob(const MergeJobSpec& spec);

/// The shared base relations of two sides (ascending), empty if disjoint.
std::vector<int> SharedBases(const JoinSide& a, const JoinSide& b);

}  // namespace mrtheta

#endif  // MRTHETA_EXEC_MERGE_JOIN_H_
