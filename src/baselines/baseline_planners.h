#ifndef MRTHETA_BASELINES_BASELINE_PLANNERS_H_
#define MRTHETA_BASELINES_BASELINE_PLANNERS_H_

#include "src/common/status.h"
#include "src/core/plan.h"
#include "src/core/query.h"
#include "src/mapreduce/sim_cluster.h"

namespace mrtheta {

/// \brief Competitor planner models (Sec. 6.3 / Sec. 7). All three compile
/// the query into a cascade of pair-wise join MRJs executed by the same
/// Executor, so differences in runtime isolate the *planning* behaviour:
///
///  - Hive-style: left-deep cascade, equality joins first (hash joins),
///    inequality joins as 1-Bucket-Theta cross jobs, and "always try to
///    employ as many Reduce tasks as possible" (kR = kP regardless of
///    resource pressure).
///  - Pig-style: joins strictly in the order conditions were written;
///    Pig's default parallelism heuristic (one reducer per GB of input,
///    capped by the cluster).
///  - YSmart-style: Hive's execution machinery plus (a) selectivity-aware
///    join ordering and (b) the common-MapReduce-framework optimization —
///    repeated scans of a base relation already read by an earlier job of
///    the same query are served by one shared scan (input-correlation
///    merging), modeled as a scan-bytes discount.
StatusOr<QueryPlan> PlanHiveStyle(const Query& query,
                                  const SimCluster& cluster);

StatusOr<QueryPlan> PlanPigStyle(const Query& query,
                                 const SimCluster& cluster);

StatusOr<QueryPlan> PlanYSmartStyle(const Query& query,
                                    const SimCluster& cluster);

}  // namespace mrtheta

#endif  // MRTHETA_BASELINES_BASELINE_PLANNERS_H_
