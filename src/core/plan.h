#ifndef MRTHETA_CORE_PLAN_H_
#define MRTHETA_CORE_PLAN_H_

#include <string>
#include <vector>

#include "src/graph/join_path_graph.h"
#include "src/relation/schema.h"

namespace mrtheta {

/// What a plan job is.
enum class PlanJobKind {
  kHilbertJoin,   ///< Algorithm 1: multi-way chain theta-join, one MRJ
  kEquiJoin,      ///< repartition equi-join (baselines)
  kThetaPair,     ///< 1-Bucket-Theta pair-wise join (baselines)
  kMerge,         ///< rid-based merge of two intermediate results
};

const char* PlanJobKindName(PlanJobKind kind);

/// One input of a plan job: either a query base relation or the output of
/// an earlier plan job. Exactly one of the fields is >= 0.
struct PlanInput {
  int base = -1;
  int job = -1;

  static PlanInput Base(int b) { return {b, -1}; }
  static PlanInput Job(int j) { return {-1, j}; }
  bool is_base() const { return base >= 0; }
};

/// One scheduled MapReduce job of a query plan.
struct PlanJob {
  PlanJobKind kind = PlanJobKind::kHilbertJoin;
  std::string name;
  std::vector<PlanInput> inputs;
  /// θ ids this job evaluates (empty for merges).
  std::vector<int> thetas;
  /// RN(MRJ): reduce tasks chosen by the kP-aware scheduler.
  int num_reduce_tasks = 1;
  /// Bytes of repeated base-relation scans discounted by shared-scan
  /// optimization (YSmart-style planner only).
  int64_t scan_discount_bytes = 0;
  /// Hive/Pig-style jobs pay text-SerDe costs (see ClusterConfig).
  bool text_serde = false;
  /// Planner-detected join-key skew: when true (and the executor allows
  /// it), the job builder splits heavy-hitter regions across dedicated
  /// reducer grids (docs/SKEW.md). Set for Hilbert jobs whose equality
  /// columns show a heavy top value in the collected statistics.
  bool skew_handling = false;
  /// Required-column analysis (AnnotateRequiredColumns, docs/EXECUTOR.md
  /// "Column pruning"): per covered base (ascending), the minimal column
  /// set this job's output must carry for the conditions its descendants
  /// still evaluate plus the query's projection. Empty = unannotated: the
  /// executor accounts full-width base rows, byte-identical to the
  /// pre-pruning behaviour.
  std::vector<RequiredColumns> output_columns;
  /// Cost-model estimates (seconds) and schedule placement.
  double est_seconds = 0.0;
  double est_start = 0.0;
  double est_finish = 0.0;
};

/// \brief A complete execution plan P for a set T of MRJs (Section 3).
struct QueryPlan {
  std::vector<PlanJob> jobs;  ///< topologically ordered
  double est_makespan_sec = 0.0;
  std::string strategy;  ///< planner that produced it (for reports)
  /// The pruned join-path graph the planner searched (empty for baselines).
  std::vector<JobCandidate> candidates;
  JoinPathGraphStats gjp_stats;

  std::string ToString() const;
};

}  // namespace mrtheta

#endif  // MRTHETA_CORE_PLAN_H_
