#include "src/baselines/baseline_planners.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "src/core/column_pruning.h"
#include "src/stats/selectivity.h"
#include "src/stats/table_stats.h"

namespace mrtheta {

namespace {

// Strategy hook: given the joined base set and the candidate conditions
// that connect it to a new base (or any condition for the first step),
// return the index (into `query.conditions()`) to join on next.
using PickFn = std::function<int(const std::set<int>& joined,
                                 const std::vector<int>& candidates)>;

// Reduce-count hook: given the estimated logical input bytes of the step.
using ReducersFn = std::function<int(double input_bytes)>;

bool HasOffsetFreeEq(const Query& query, const std::vector<int>& thetas) {
  for (int t : thetas) {
    const JoinCondition& c = query.conditions()[t];
    if (c.op == ThetaOp::kEq && c.offset == 0.0) return true;
  }
  return false;
}

// Builds a left-deep pairwise cascade. Conditions between the new relation
// and *any* already-joined relation are bundled into the joining step, so
// cycle-closing conditions are never left dangling.
StatusOr<QueryPlan> BuildCascade(const Query& query, const PickFn& pick,
                                 const ReducersFn& reducers,
                                 bool shared_scans, bool text_serde,
                                 const std::string& strategy) {
  MRTHETA_RETURN_IF_ERROR(query.Validate());
  QueryPlan plan;
  plan.strategy = strategy;

  std::set<int> joined;
  std::set<int> scanned;
  std::vector<bool> used(query.num_conditions(), false);
  int prev_job = -1;

  auto base_bytes = [&](int b) {
    return static_cast<double>(query.relations()[b]->logical_bytes());
  };

  while (true) {
    // Candidates: unused conditions; before the first join any condition
    // qualifies, afterwards one endpoint must be joined and one not.
    std::vector<int> candidates;
    for (int t = 0; t < query.num_conditions(); ++t) {
      if (used[t]) continue;
      const JoinCondition& c = query.conditions()[t];
      const bool l_in = joined.count(c.lhs.relation) > 0;
      const bool r_in = joined.count(c.rhs.relation) > 0;
      if (joined.empty() || (l_in != r_in)) candidates.push_back(t);
    }
    if (candidates.empty()) break;
    const int chosen = pick(joined, candidates);
    const JoinCondition& c = query.conditions()[chosen];

    PlanJob job;
    double input_bytes = 0.0;
    if (joined.empty()) {
      // First step: base × base.
      job.inputs.push_back(PlanInput::Base(c.lhs.relation));
      job.inputs.push_back(PlanInput::Base(c.rhs.relation));
      joined.insert(c.lhs.relation);
      joined.insert(c.rhs.relation);
      input_bytes =
          base_bytes(c.lhs.relation) + base_bytes(c.rhs.relation);
      if (shared_scans) {
        scanned.insert(c.lhs.relation);
        scanned.insert(c.rhs.relation);
      }
      // Bundle every condition between the two relations.
      for (int t = 0; t < query.num_conditions(); ++t) {
        if (used[t]) continue;
        const JoinCondition& o = query.conditions()[t];
        if (joined.count(o.lhs.relation) && joined.count(o.rhs.relation)) {
          job.thetas.push_back(t);
          used[t] = true;
        }
      }
    } else {
      const int new_base = joined.count(c.lhs.relation)
                               ? c.rhs.relation
                               : c.lhs.relation;
      job.inputs.push_back(PlanInput::Job(prev_job));
      job.inputs.push_back(PlanInput::Base(new_base));
      // Intermediate size is unknown at plan time; approximate it by the
      // largest base joined so far (what Pig's 1-reducer-per-GB heuristic
      // would see).
      double joined_max = 0.0;
      for (int b : joined) joined_max = std::max(joined_max, base_bytes(b));
      input_bytes = base_bytes(new_base) + joined_max;
      if (shared_scans && scanned.count(new_base)) {
        job.scan_discount_bytes =
            static_cast<int64_t>(base_bytes(new_base));
      }
      if (shared_scans) scanned.insert(new_base);
      joined.insert(new_base);
      for (int t = 0; t < query.num_conditions(); ++t) {
        if (used[t]) continue;
        const JoinCondition& o = query.conditions()[t];
        if ((o.lhs.relation == new_base &&
             joined.count(o.rhs.relation)) ||
            (o.rhs.relation == new_base &&
             joined.count(o.lhs.relation))) {
          job.thetas.push_back(t);
          used[t] = true;
        }
      }
    }

    job.kind = HasOffsetFreeEq(query, job.thetas) ? PlanJobKind::kEquiJoin
                                                  : PlanJobKind::kThetaPair;
    job.name = strategy + "-step" + std::to_string(plan.jobs.size());
    job.num_reduce_tasks = std::max(1, reducers(input_bytes));
    job.text_serde = text_serde;
    plan.jobs.push_back(std::move(job));
    prev_job = static_cast<int>(plan.jobs.size()) - 1;
  }

  if (static_cast<int>(joined.size()) != query.num_relations()) {
    return Status::Internal("cascade failed to join all relations");
  }
  // Hive/Pig/YSmart all project early (column pruning is a stock rewrite
  // in each); annotating the baselines keeps the planner comparison about
  // *planning*, with every compared system shipping equally thin tuples.
  AnnotateRequiredColumns(query, &plan);
  return plan;
}

}  // namespace

StatusOr<QueryPlan> PlanHiveStyle(const Query& query,
                                  const SimCluster& cluster) {
  const int kp = cluster.config().num_workers;
  PickFn pick = [&query](const std::set<int>&,
                         const std::vector<int>& candidates) {
    // Equality joins first (hash-join friendly), otherwise written order.
    for (int t : candidates) {
      const JoinCondition& c = query.conditions()[t];
      if (c.op == ThetaOp::kEq && c.offset == 0.0) return t;
    }
    return candidates.front();
  };
  // Hive: always max reducers.
  ReducersFn reducers = [kp](double) { return kp; };
  return BuildCascade(query, pick, reducers, /*shared_scans=*/false,
                      /*text_serde=*/true, "hive");
}

StatusOr<QueryPlan> PlanPigStyle(const Query& query,
                                 const SimCluster& cluster) {
  const int kp = cluster.config().num_workers;
  // Any sane Pig script joins on equality keys first and applies theta
  // filters afterwards, like the Hive translation; Pig differs in its
  // default parallelism: one reducer per GB of input, capped.
  PickFn pick = [&query](const std::set<int>&,
                         const std::vector<int>& candidates) {
    for (int t : candidates) {
      const JoinCondition& c = query.conditions()[t];
      if (c.op == ThetaOp::kEq && c.offset == 0.0) return t;
    }
    return candidates.front();
  };
  ReducersFn reducers = [kp](double input_bytes) {
    const int by_size = static_cast<int>(
        std::ceil(input_bytes / static_cast<double>(kGiB)));
    return std::clamp(by_size, 1, kp);
  };
  return BuildCascade(query, pick, reducers, /*shared_scans=*/false,
                      /*text_serde=*/true, "pig");
}

StatusOr<QueryPlan> PlanYSmartStyle(const Query& query,
                                    const SimCluster& cluster) {
  const int kp = cluster.config().num_workers;
  // Statistics for selectivity-aware ordering.
  std::vector<TableStats> stats;
  stats.reserve(query.num_relations());
  for (const RelationPtr& rel : query.relations()) {
    stats.push_back(BuildTableStats(*rel));
  }
  PickFn pick = [&query, &stats](const std::set<int>&,
                                 const std::vector<int>& candidates) {
    // Most selective condition first (smallest estimated selectivity).
    int best = candidates.front();
    double best_sel = std::numeric_limits<double>::infinity();
    for (int t : candidates) {
      const JoinCondition& c = query.conditions()[t];
      const double sel = EstimateThetaSelectivity(
          stats[c.lhs.relation].column(c.lhs.column),
          stats[c.rhs.relation].column(c.rhs.column), c.op, c.offset);
      if (sel < best_sel) {
        best_sel = sel;
        best = t;
      }
    }
    return best;
  };
  ReducersFn reducers = [kp](double) { return kp; };
  return BuildCascade(query, pick, reducers, /*shared_scans=*/true,
                      /*text_serde=*/false, "ysmart");
}

}  // namespace mrtheta
