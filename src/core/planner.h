#ifndef MRTHETA_CORE_PLANNER_H_
#define MRTHETA_CORE_PLANNER_H_

#include <vector>

#include "src/common/status.h"
#include "src/core/plan.h"
#include "src/core/query.h"
#include "src/cost/cost_model.h"
#include "src/mapreduce/sim_cluster.h"
#include "src/stats/table_stats.h"

namespace mrtheta {

/// \brief The paper's optimizer: builds G'_JP (Algorithm 2), selects T by
/// greedy weighted set cover, schedules T's MRJs plus the merge steps on kP
/// processing units with the malleable scheduler, and returns the plan with
/// the smallest estimated makespan.
///
/// Every plan carries its required-column analysis (docs/EXECUTOR.md
/// "Column pruning"): each job is annotated with the minimal per-base
/// column sets (PlanJob::output_columns), and the cost model prices
/// shuffles and intermediates at the pruned widths, so kR selection and
/// makespan estimates react to thinner tuples.
class Planner {
 public:
  /// `cluster` must outlive the planner. `params` come from
  /// CalibrateCostModel (or tests' hand-built values).
  Planner(const SimCluster* cluster, CostModelParams params);

  /// Plans `query`. Also considers the single-MRJ evaluation of the whole
  /// query when a full-cover trail exists, per the paper's observation that
  /// one job sometimes beats any cascade.
  StatusOr<QueryPlan> Plan(const Query& query) const;

  /// Session entry point (ThetaEngine): plans with caller-provided
  /// per-relation statistics, aligned with query.relations(). The stats
  /// must come from CollectStats/CollectStatsForRelation (possibly cached
  /// across queries); planning is then byte-identical to Plan(query).
  StatusOr<QueryPlan> Plan(const Query& query,
                           const std::vector<TableStats>& stats) const;

  /// Per-relation statistics as the planner computes them.
  std::vector<TableStats> CollectStats(const Query& query) const;

  /// Statistics for one relation, exactly as CollectStats computes them —
  /// the hook a session (ThetaEngine) uses to cache stats per relation
  /// identity and amortize collection across queries.
  TableStats CollectStatsForRelation(const Relation& rel) const;

  const CostModelParams& params() const { return params_; }

 private:
  StatusOr<QueryPlan> BuildPlanFromSelection(
      const Query& query, const std::vector<TableStats>& stats,
      const std::vector<JobCandidate>& candidates,
      const std::vector<int>& selection) const;
  /// A sequential pair-wise cascade (equality steps first) — the
  /// traditional decomposition the paper's Sec. 3.2 principle compares
  /// against; considered as a plan alternative alongside T + merges.
  StatusOr<QueryPlan> BuildCascadePlan(
      const Query& query, const std::vector<TableStats>& stats) const;

  const SimCluster* cluster_;
  CostModelParams params_;
};

}  // namespace mrtheta

#endif  // MRTHETA_CORE_PLANNER_H_
