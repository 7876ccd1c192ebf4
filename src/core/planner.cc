#include "src/core/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "src/core/column_pruning.h"
#include "src/cost/kr_chooser.h"
#include "src/obs/trace.h"
#include "src/exec/hilbert_join.h"
#include "src/hilbert/hilbert.h"
#include "src/sched/malleable.h"
#include "src/sched/set_cover.h"
#include "src/stats/selectivity.h"

namespace mrtheta {

namespace {

// Planned map-shuffle width of base relation `r` read at the bottom of a
// plan (every condition on it still pending): the pruned base row when
// pruning is on, else the full row. Mirrors the executors'
// SideShuffleBytes for base sides.
int64_t PlannedInputWidth(const Query& query, int r, bool prune) {
  const Schema& schema = query.relations()[r]->schema();
  if (!prune) return schema.avg_row_bytes();
  return PrunedRowBytes(
      schema, RequiredColumnsForBase(query, r,
                                     PendingThetas(query, /*applied_mask=*/0)));
}

// Planned materialized width of base `r` in an intermediate produced after
// `applied` conditions: columns of the still-pending conditions plus the
// projection. Mirrors MakeIntermediateSchema under AnnotateRequiredColumns.
int64_t PlannedOutputWidth(const Query& query, int r,
                           const std::vector<int>& applied, bool prune) {
  const Schema& schema = query.relations()[r]->schema();
  if (!prune) return schema.avg_row_bytes();
  uint32_t applied_mask = 0;
  for (int t : applied) applied_mask |= 1u << t;
  return PrunedRowBytes(
      schema, RequiredColumnsForBase(query, r,
                                     PendingThetas(query, applied_mask)));
}

}  // namespace

Planner::Planner(const SimCluster* cluster, CostModelParams params,
                 PlannerOptions options)
    : cluster_(cluster), params_(std::move(params)), options_(options) {}

int Planner::MaxReduceTasks() const {
  const int kp = cluster_->config().num_workers;
  return options_.max_reduce_tasks > 0
             ? std::min(options_.max_reduce_tasks, kp)
             : kp;
}

TableStats Planner::CollectStatsForRelation(const Relation& rel) const {
  TraceSpan span("collect-stats", "planner");
  if (span.enabled()) span.Arg("relation", rel.name());
  StatsOptions so = options_.stats;
  so.seed = options_.seed;
  TableStats ts = BuildTableStats(rel, so);
  // The planner's output estimates live in the β frame:
  // selectivities describe the *physical sample*, so key-like columns
  // must not be extrapolated past the sample's domain here.
  for (ColumnStats& cs : ts.columns) {
    cs.distinct = std::min(
        cs.distinct,
        static_cast<double>(std::max<int64_t>(1, rel.num_rows())));
  }
  return ts;
}

std::vector<TableStats> Planner::CollectStats(const Query& query) const {
  std::vector<TableStats> stats;
  stats.reserve(query.num_relations());
  for (const RelationPtr& rel : query.relations()) {
    stats.push_back(CollectStatsForRelation(*rel));
  }
  return stats;
}

namespace {

// A 2-relation candidate with an offset-free equality evaluates as a
// repartition equi-join: the key is the shuffle key, no tuple duplication.
bool IsEquiPair(const Query& query, const std::vector<int>& relations,
                const std::vector<int>& thetas) {
  if (relations.size() != 2) return false;
  for (int t : thetas) {
    const JoinCondition& c = query.conditions()[t];
    if (c.op == ThetaOp::kEq && c.offset == 0.0) return true;
  }
  return false;
}

// The part of a Hilbert chain-join candidate's cost-model profile that does
// not depend on its reduce-task count. Only the duplication factor does, so
// a kR sweep builds the shape once and finishes it per k (FinishCandidate).
struct CandidateShape {
  /// Fused dimensionality: the d of Eq. 9's duplication factor.
  int num_dims = 1;
  double input_bytes = 0.0;  ///< SI
  /// Shuffled / scanned bytes (pruned payload over full rows), capped at 1.
  double shuffle_ratio = 1.0;
  double output_bytes = 0.0;
  double sigma_frac = 0.0;
  /// Per trail step j >= 1: surviving prefix rows × the rows of relation j.
  std::vector<double> step_products;
};

// Shape of a Hilbert chain-join over `relations` (trail order) evaluating
// `thetas`.
CandidateShape ShapeCandidate(const Query& query,
                              const std::vector<TableStats>& stats,
                              const std::vector<int>& relations,
                              const std::vector<int>& thetas,
                              const PlannerOptions& options) {
  CandidateShape shape;
  const int d = static_cast<int>(relations.size());
  // Duplication follows the *fused* dimensionality: relations connected by
  // equality share a hash dimension and are not replicated along it
  // (Eq. 9 with d = number of dimension groups).
  const std::vector<JoinCondition> conds = query.ConditionsById(thetas);
  std::vector<std::vector<int>> input_bases;
  input_bases.reserve(relations.size());
  for (int r : relations) input_bases.push_back({r});
  const DimensionGrouping grouping =
      ComputeDimensionGrouping(input_bases, conds);
  shape.num_dims = grouping.num_dims;

  const bool prune = options.enable_column_pruning;
  double si = 0.0;
  double out_row_bytes = 0.0;
  double pruned_in = 0.0;
  for (int r : relations) {
    si += static_cast<double>(stats[r].logical_bytes);
    out_row_bytes += static_cast<double>(
        PlannedOutputWidth(query, r, thetas, prune));
    pruned_in += static_cast<double>(stats[r].logical_rows) *
                 static_cast<double>(PlannedInputWidth(query, r, prune));
  }
  // A candidate covering every condition produces the final result, which
  // is written in the query's projected width (see Executor).
  if (static_cast<int>(thetas.size()) == query.num_conditions() &&
      !query.outputs().empty()) {
    out_row_bytes = 4.0;
    for (const OutputColumn& out : query.outputs()) {
      out_row_bytes +=
          query.relations()[out.base]->schema().column(out.column).avg_width;
    }
  }
  shape.input_bytes = si;
  // Maps read full rows (SI) but shuffle only the pruned payload: α shrinks
  // by the pruned/full byte ratio so the modeled map-output and reduce-input
  // volumes track the executors' thinner tuples.
  shape.shuffle_ratio = si > 0.0 ? std::min(1.0, pruned_in / si) : 1.0;

  std::vector<const TableStats*> stat_ptrs;
  stat_ptrs.reserve(stats.size());
  for (const TableStats& ts : stats) stat_ptrs.push_back(&ts);
  // β-extrapolated output estimate, mirroring the executors: the physical
  // sample fixes the joint-selectivity shape; results scale linearly with
  // the represented volume.
  const double sel = EstimateConjunctionSelectivity(conds, stat_ptrs);
  double phys_cross = 1.0;
  double max_scale = 1.0;
  for (int r : relations) {
    const Relation& rel = *query.relations()[r];
    phys_cross *= static_cast<double>(std::max<int64_t>(1, rel.num_rows()));
    if (rel.num_rows() > 0) {
      max_scale = std::max(
          max_scale, static_cast<double>(rel.logical_rows()) /
                         static_cast<double>(rel.num_rows()));
    }
  }
  const double out_rows = sel * phys_cross * max_scale;
  shape.output_bytes = out_rows * out_row_bytes;

  // Hash partitioning (equi pairs and fused hash dimensions) inherits key
  // skew; pure Hilbert dimensions balance by construction (Theorem 2).
  const bool hash_partitioned =
      IsEquiPair(query, relations, thetas) || grouping.num_dims < d;
  shape.sigma_frac = hash_partitioned ? 3.0 * options.hilbert_sigma_frac
                                      : options.hilbert_sigma_frac;

  // Trail-order backtracking work estimate: each surviving prefix scans the
  // next relation's local (per-component) portion.
  std::set<int> placed = {relations[0]};
  double prefix_rows =
      static_cast<double>(std::max<int64_t>(1, stats[relations[0]].logical_rows));
  shape.step_products.reserve(relations.size());
  for (int j = 1; j < d; ++j) {
    const int r = relations[j];
    const double r_rows =
        static_cast<double>(std::max<int64_t>(1, stats[r].logical_rows));
    shape.step_products.push_back(prefix_rows * r_rows);
    double step_sel = 1.0;
    for (const JoinCondition& cond : conds) {
      const bool touches_r =
          cond.lhs.relation == r || cond.rhs.relation == r;
      const int other =
          cond.lhs.relation == r ? cond.rhs.relation : cond.lhs.relation;
      if (touches_r && placed.count(other)) {
        step_sel *= EstimateThetaSelectivity(
            stats[cond.lhs.relation].column(cond.lhs.column),
            stats[cond.rhs.relation].column(cond.rhs.column), cond.op,
            cond.offset);
      }
    }
    prefix_rows = std::max(1.0, prefix_rows * r_rows * step_sel);
    placed.insert(r);
  }
  return shape;
}

// Cost-model profile of `shape` with kr reduce tasks: the duplication
// factor scales α, the reduce-input σ and the comparison count.
JobProfile FinishCandidate(const CandidateShape& shape, int kr) {
  const double dup = ApproxDuplicationFactor(shape.num_dims, kr);
  JobProfile profile;
  profile.num_reduce_tasks = kr;
  profile.input_bytes = shape.input_bytes;
  profile.alpha = dup * shape.shuffle_ratio;
  profile.output_bytes = shape.output_bytes;
  profile.sigma_reduce_bytes =
      shape.sigma_frac * (profile.alpha * shape.input_bytes / kr);
  double comps = 0.0;
  for (double product : shape.step_products) comps += product * dup;
  profile.comparisons_total = comps;
  return profile;
}

// Profile of a merge step joining two intermediates on shared rids.
JobProfile MergeProfile(double left_rows, int left_bases, double right_rows,
                        int right_bases, double out_bytes, int kr) {
  JobProfile p;
  p.num_reduce_tasks = kr;
  p.input_bytes = left_rows * 8.0 * left_bases + right_rows * 8.0 *
                                                     right_bases;
  p.alpha = 1.0;
  p.output_bytes = out_bytes;
  p.sigma_reduce_bytes = 0.05 * p.alpha * p.input_bytes / kr;
  p.comparisons_total = left_rows + right_rows;
  return p;
}

}  // namespace

StatusOr<QueryPlan> Planner::BuildPlanFromSelection(
    const Query& query, const std::vector<TableStats>& stats,
    const std::vector<JobCandidate>& candidates,
    const std::vector<int>& selection) const {
  const int kp = cluster_->config().num_workers;
  const int kr_max = MaxReduceTasks();

  std::vector<const TableStats*> stat_ptrs;
  for (const TableStats& ts : stats) stat_ptrs.push_back(&ts);

  // β-extrapolated output rows of a join over `rels` under `ths`
  // (mirrors the executors' output_row_scale rule).
  auto beta_rows = [&](const std::vector<int>& rels,
                       const std::vector<int>& ths) {
    const double sel =
        EstimateConjunctionSelectivity(query.ConditionsById(ths), stat_ptrs);
    double phys_cross = 1.0;
    double max_scale = 1.0;
    for (int r : rels) {
      const Relation& rel = *query.relations()[r];
      phys_cross *=
          static_cast<double>(std::max<int64_t>(1, rel.num_rows()));
      if (rel.num_rows() > 0) {
        max_scale = std::max(
            max_scale, static_cast<double>(rel.logical_rows()) /
                           static_cast<double>(rel.num_rows()));
      }
    }
    return sel * phys_cross * max_scale;
  };

  QueryPlan plan;
  std::vector<MalleableJob> sched_jobs;

  // Join jobs from the selected candidates.
  struct NodeInfo {
    std::set<int> bases;
    double est_rows = 0.0;
    std::vector<int> thetas;
  };
  std::vector<NodeInfo> info;
  for (int sel : selection) {
    const JobCandidate& cand = candidates[sel];
    PlanJob job;
    job.kind = IsEquiPair(query, cand.relations, cand.thetas)
                   ? PlanJobKind::kEquiJoin
                   : PlanJobKind::kHilbertJoin;
    job.name = "join-" + std::to_string(plan.jobs.size());
    for (int r : cand.relations) job.inputs.push_back(PlanInput::Base(r));
    job.thetas = cand.thetas;
    // Skew flag (docs/SKEW.md): a Hilbert job hashes offset-free equality
    // keys into shared grid slices, so a heavy top value in either
    // endpoint column concentrates load on the reducers covering its
    // slice. A column is skewed when its top value is both non-trivial in
    // absolute terms and far above the column's uniform share 1/distinct
    // (a uniform low-cardinality column has a large top frequency but no
    // hitter to split). The executor's skew_handling option decides
    // whether the builder acts on the flag.
    if (job.kind == PlanJobKind::kHilbertJoin) {
      auto skewed = [&](const ColumnRef& ref) {
        const ColumnStats& cs = stats[ref.relation].column(ref.column);
        return cs.top_frequency > options_.skew_top_frequency &&
               cs.top_frequency * std::max(1.0, cs.distinct) > 3.0;
      };
      for (int t : cand.thetas) {
        const JoinCondition& c = query.conditions()[t];
        if (c.op != ThetaOp::kEq || c.offset != 0.0) continue;
        if (skewed(c.lhs) || skewed(c.rhs)) {
          job.skew_handling = true;
          break;
        }
      }
    }
    plan.jobs.push_back(job);

    NodeInfo ni;
    ni.bases.insert(cand.relations.begin(), cand.relations.end());
    ni.est_rows = beta_rows(cand.relations, cand.thetas);
    ni.thetas = cand.thetas;
    info.push_back(std::move(ni));

    MalleableJob mj;
    mj.time_for_slots = [this, kp,
                         shape = ShapeCandidate(query, stats, cand.relations,
                                                cand.thetas, options_)](int k) {
      return PredictJobTime(params_, cluster_->config(),
                            FinishCandidate(shape, k), kp)
          .total;
    };
    mj.max_slots = kr_max;
    sched_jobs.push_back(std::move(mj));
  }

  // Merge chain: greedily fold in jobs sharing at least one relation.
  std::vector<int> remaining(selection.size());
  for (size_t i = 0; i < selection.size(); ++i) remaining[i] = static_cast<int>(i);
  // Seed with the job covering the most conditions (cheapest merges later).
  std::sort(remaining.begin(), remaining.end(), [&](int a, int b) {
    return info[a].thetas.size() > info[b].thetas.size();
  });
  int current = remaining.front();
  remaining.erase(remaining.begin());
  std::set<int> acc_bases = info[current].bases;
  std::vector<int> acc_thetas = info[current].thetas;
  double acc_rows = info[current].est_rows;
  int current_job_index = current;

  while (!remaining.empty()) {
    // Pick the first remaining job sharing a base with the accumulation.
    auto it = std::find_if(remaining.begin(), remaining.end(), [&](int j) {
      for (int b : info[j].bases) {
        if (acc_bases.count(b)) return true;
      }
      return false;
    });
    if (it == remaining.end()) {
      return Status::Internal(
          "selected jobs do not overlap; merge chain impossible");
    }
    const int next = *it;
    remaining.erase(it);

    PlanJob merge;
    merge.kind = PlanJobKind::kMerge;
    merge.name = "merge-" + std::to_string(plan.jobs.size());
    merge.inputs.push_back(PlanInput::Job(current_job_index));
    merge.inputs.push_back(PlanInput::Job(next));
    plan.jobs.push_back(merge);

    // Merged estimates: union of conditions over union of bases.
    std::set<int> union_bases = acc_bases;
    union_bases.insert(info[next].bases.begin(), info[next].bases.end());
    std::vector<int> union_thetas = acc_thetas;
    for (int t : info[next].thetas) {
      if (std::find(union_thetas.begin(), union_thetas.end(), t) ==
          union_thetas.end()) {
        union_thetas.push_back(t);
      }
    }
    // Output rows: joint β-extrapolated estimate over the union.
    const std::vector<int> union_rels(union_bases.begin(),
                                      union_bases.end());
    const double union_rows = beta_rows(union_rels, union_thetas);

    double out_row_bytes = 0.0;
    for (int b : union_bases) {
      out_row_bytes += static_cast<double>(PlannedOutputWidth(
          query, b, union_thetas, options_.enable_column_pruning));
    }
    const double l_rows = acc_rows;
    const int l_bases = static_cast<int>(acc_bases.size());
    const double r_rows = info[next].est_rows;
    const int r_bases = static_cast<int>(info[next].bases.size());
    MalleableJob mj;
    mj.time_for_slots = [this, l_rows, l_bases, r_rows, r_bases, union_rows,
                         out_row_bytes, kp](int k) {
      const JobProfile p = MergeProfile(l_rows, l_bases, r_rows, r_bases,
                                        union_rows * out_row_bytes, k);
      return PredictJobTime(params_, cluster_->config(), p, kp).total;
    };
    mj.max_slots = kr_max;
    mj.deps = {current_job_index, next};
    sched_jobs.push_back(std::move(mj));
    // NodeInfo for the merge node (so later merges can reference it).
    NodeInfo merged;
    merged.bases = union_bases;
    merged.est_rows = union_rows;
    merged.thetas = union_thetas;
    info.push_back(std::move(merged));

    current_job_index = static_cast<int>(plan.jobs.size()) - 1;
    acc_bases = info.back().bases;
    acc_thetas = info.back().thetas;
    acc_rows = info.back().est_rows;
  }

  // Schedule everything on kP units.
  StatusOr<ScheduleResult> sched = ScheduleMalleable(sched_jobs, kp);
  if (!sched.ok()) return sched.status();
  for (size_t i = 0; i < plan.jobs.size(); ++i) {
    plan.jobs[i].num_reduce_tasks = sched->jobs[i].slots;
    plan.jobs[i].est_start = sched->jobs[i].start;
    plan.jobs[i].est_finish = sched->jobs[i].finish;
    plan.jobs[i].est_seconds = sched->jobs[i].finish - sched->jobs[i].start;
  }
  plan.est_makespan_sec = sched->makespan;
  if (options_.enable_column_pruning) AnnotateRequiredColumns(query, &plan);
  return plan;
}

StatusOr<QueryPlan> Planner::BuildCascadePlan(
    const Query& query, const std::vector<TableStats>& stats) const {
  const int kp = cluster_->config().num_workers;
  const int kr_max = MaxReduceTasks();

  QueryPlan plan;
  plan.strategy = "mrtheta-cascade";
  std::set<int> joined;
  std::vector<bool> used(query.num_conditions(), false);
  std::vector<int> acc_thetas;
  double prev_out_bytes = 0.0;
  double makespan = 0.0;
  int prev_job = -1;

  std::vector<const TableStats*> stat_ptrs;
  for (const TableStats& ts : stats) stat_ptrs.push_back(&ts);

  while (true) {
    // Next condition: equality-first among those connecting a new base.
    int chosen = -1;
    for (int pass = 0; pass < 2 && chosen < 0; ++pass) {
      for (int t = 0; t < query.num_conditions(); ++t) {
        if (used[t]) continue;
        const JoinCondition& c = query.conditions()[t];
        const bool l_in = joined.count(c.lhs.relation) > 0;
        const bool r_in = joined.count(c.rhs.relation) > 0;
        if (!(joined.empty() || (l_in != r_in))) continue;
        if (pass == 0 && !(c.op == ThetaOp::kEq && c.offset == 0.0)) {
          continue;
        }
        chosen = t;
        break;
      }
    }
    if (chosen < 0) break;
    const JoinCondition& c = query.conditions()[chosen];

    const bool prune = options_.enable_column_pruning;
    PlanJob job;
    double base_in = 0.0;
    double pruned_base_in = 0.0;  // shuffle payload of the base inputs
    auto add_base_in = [&](int r) {
      base_in += static_cast<double>(stats[r].logical_bytes);
      pruned_base_in += static_cast<double>(stats[r].logical_rows) *
                        static_cast<double>(PlannedInputWidth(query, r, prune));
    };
    if (joined.empty()) {
      job.inputs = {PlanInput::Base(c.lhs.relation),
                    PlanInput::Base(c.rhs.relation)};
      joined.insert(c.lhs.relation);
      joined.insert(c.rhs.relation);
      add_base_in(c.lhs.relation);
      add_base_in(c.rhs.relation);
    } else {
      const int new_base = joined.count(c.lhs.relation) ? c.rhs.relation
                                                        : c.lhs.relation;
      job.inputs = {PlanInput::Job(prev_job), PlanInput::Base(new_base)};
      joined.insert(new_base);
      add_base_in(new_base);
    }
    // Bundle every now-internal condition.
    for (int t = 0; t < query.num_conditions(); ++t) {
      if (used[t]) continue;
      const JoinCondition& o = query.conditions()[t];
      if (joined.count(o.lhs.relation) && joined.count(o.rhs.relation)) {
        job.thetas.push_back(t);
        used[t] = true;
      }
    }
    bool has_eq = false;
    for (int t : job.thetas) {
      const JoinCondition& o = query.conditions()[t];
      has_eq |= o.op == ThetaOp::kEq && o.offset == 0.0;
    }
    job.kind = has_eq ? PlanJobKind::kEquiJoin : PlanJobKind::kThetaPair;
    job.name = "cascade-" + std::to_string(plan.jobs.size());
    acc_thetas.insert(acc_thetas.end(), job.thetas.begin(),
                      job.thetas.end());

    // Step cost: scan prev intermediate + new base, β-framed output.
    const std::vector<int> covered(joined.begin(), joined.end());
    const double sel = EstimateConjunctionSelectivity(
        query.ConditionsById(acc_thetas), stat_ptrs);
    double phys_cross = 1.0, max_scale = 1.0, row_bytes = 0.0;
    for (int r : covered) {
      const Relation& rel = *query.relations()[r];
      phys_cross *=
          static_cast<double>(std::max<int64_t>(1, rel.num_rows()));
      row_bytes += static_cast<double>(
          PlannedOutputWidth(query, r, acc_thetas, prune));
      if (rel.num_rows() > 0) {
        max_scale = std::max(
            max_scale, static_cast<double>(rel.logical_rows()) /
                           static_cast<double>(rel.num_rows()));
      }
    }
    const double out_bytes = sel * phys_cross * max_scale * row_bytes;
    // Maps scan full base rows but shuffle pruned payloads; the previous
    // intermediate is already pruned (its out_bytes used pruned widths).
    const double in_bytes = base_in + prev_out_bytes;
    const double shuffle_in = pruned_base_in + prev_out_bytes;
    const double alpha_scale =
        in_bytes > 0.0 ? std::min(1.0, shuffle_in / in_bytes) : 1.0;
    auto profile_for = [&](int k) {
      JobProfile p;
      p.input_bytes = base_in + prev_out_bytes;
      p.alpha =
          (has_eq ? 1.0 : ApproxDuplicationFactor(2, k)) * alpha_scale;
      p.output_bytes = out_bytes;
      p.sigma_reduce_bytes =
          3.0 * options_.hilbert_sigma_frac * p.alpha * p.input_bytes / k;
      p.num_reduce_tasks = k;
      return p;
    };
    const KrChoice kr =
        ChooseKrByCost(params_, cluster_->config(), profile_for, kr_max, kp);
    job.num_reduce_tasks = kr.kr;
    job.est_seconds =
        PredictJobTime(params_, cluster_->config(), profile_for(kr.kr), kp)
            .total;
    job.est_start = makespan;
    makespan += job.est_seconds;
    job.est_finish = makespan;
    prev_out_bytes = out_bytes;
    prev_job = static_cast<int>(plan.jobs.size());
    plan.jobs.push_back(std::move(job));
  }
  if (static_cast<int>(joined.size()) != query.num_relations()) {
    return Status::Internal("cascade could not join all relations");
  }
  plan.est_makespan_sec = makespan;
  if (options_.enable_column_pruning) AnnotateRequiredColumns(query, &plan);
  return plan;
}

StatusOr<QueryPlan> Planner::Plan(const Query& query) const {
  // The stats overload validates; collecting stats first for an invalid
  // query is harmless.
  return Plan(query, CollectStats(query));
}

StatusOr<QueryPlan> Planner::Plan(const Query& query,
                                  const std::vector<TableStats>& raw_stats)
    const {
  MRTHETA_TRACE_SCOPE("plan", "planner");
  MRTHETA_RETURN_IF_ERROR(query.Validate());
  if (static_cast<int>(raw_stats.size()) != query.num_relations()) {
    return Status::InvalidArgument(
        "stats must have one entry per query relation");
  }
  // Selection pushdown discount: a filtered relation contributes only its
  // passing fraction to every downstream volume, so plan with effective
  // cardinalities. Cached per-relation stats stay filter-agnostic — the
  // discount is applied here per query.
  std::vector<TableStats> filtered_stats;
  const std::vector<TableStats>& stats = [&]() -> const std::vector<TableStats>& {
    if (query.filters().empty()) return raw_stats;
    filtered_stats = raw_stats;
    for (int r = 0; r < query.num_relations(); ++r) {
      const double sel = EstimateFilterSelectivity(
          *query.relations()[r], r, query.filters(),
          options_.stats.sample_size, options_.seed);
      if (sel >= 1.0) continue;
      TableStats& ts = filtered_stats[r];
      ts.logical_rows = std::max<int64_t>(
          1, static_cast<int64_t>(static_cast<double>(ts.logical_rows) * sel));
      ts.logical_bytes = std::max<int64_t>(
          ts.avg_row_bytes,
          static_cast<int64_t>(static_cast<double>(ts.logical_bytes) * sel));
    }
    return filtered_stats;
  }();
  StatusOr<JoinGraph> graph = query.BuildJoinGraph();
  if (!graph.ok()) return graph.status();

  const int kp = cluster_->config().num_workers;
  const int kr_max = MaxReduceTasks();

  // Cost oracle for Algorithm 2: w(e') is the predicted time at the kR
  // minimizing it, s(e') that kR.
  CandidateCostFn cost_fn = [&](const std::vector<int>& thetas,
                                const std::vector<int>& relations) {
    const CandidateShape shape =
        ShapeCandidate(query, stats, relations, thetas, options_);
    const int kr = ChooseKrByCost(
                       params_, cluster_->config(),
                       [&](int k) { return FinishCandidate(shape, k); },
                       kr_max, kp)
                       .kr;
    CandidateCost out;
    out.weight = PredictJobTime(params_, cluster_->config(),
                                FinishCandidate(shape, kr), kp)
                     .total;
    out.schedule_slots = kr;
    return out;
  };

  JoinPathGraphOptions gjp_options;
  gjp_options.enable_pruning = options_.enable_pruning;
  JoinPathGraphStats gjp_stats;
  StatusOr<std::vector<JobCandidate>> candidates =
      BuildJoinPathGraph(*graph, cost_fn, gjp_options, &gjp_stats);
  if (!candidates.ok()) return candidates.status();

  // T selection: greedy weighted set cover over the condition universe.
  std::vector<WeightedSet> sets;
  sets.reserve(candidates->size());
  for (const JobCandidate& cand : *candidates) {
    sets.push_back({cand.theta_mask, cand.weight});
  }
  const uint32_t universe = query.AllConditionsMask();
  StatusOr<std::vector<int>> cover = GreedyWeightedSetCover(sets, universe);
  if (!cover.ok()) return cover.status();

  StatusOr<QueryPlan> best =
      BuildPlanFromSelection(query, stats, *candidates, *cover);
  if (!best.ok()) return best.status();
  best->strategy = "mrtheta";

  // Also consider the cheapest single candidate covering everything.
  int full = -1;
  for (int i = 0; i < static_cast<int>(candidates->size()); ++i) {
    if (((*candidates)[i].theta_mask & universe) == universe) {
      if (full < 0 ||
          (*candidates)[i].weight < (*candidates)[full].weight) {
        full = i;
      }
    }
  }
  if (full < 0 && query.num_relations() <= 16) {
    // Lemma 2 drops every superset of a dropped trail, so one dominated
    // pair-subset can transitively erase all full-cover trails — even
    // though the one-job evaluation is not dominated once merge steps are
    // priced in. Keep the paper's "single MRJ sometimes beats any
    // cascade" alternative alive by synthesizing the full-cover candidate
    // directly (relations in condition first-visit order).
    JobCandidate synth;
    synth.theta_mask = universe;
    for (const JoinCondition& cond : query.conditions()) {
      synth.thetas.push_back(cond.id);
      for (int r : {cond.lhs.relation, cond.rhs.relation}) {
        if (std::find(synth.relations.begin(), synth.relations.end(), r) ==
            synth.relations.end()) {
          synth.relations.push_back(r);
        }
      }
    }
    const CandidateCost cost = cost_fn(synth.thetas, synth.relations);
    synth.weight = cost.weight;
    synth.schedule_slots = cost.schedule_slots;
    full = static_cast<int>(candidates->size());
    candidates->push_back(std::move(synth));
  }
  if (full >= 0 &&
      (cover->size() != 1 || (*cover)[0] != full)) {
    StatusOr<QueryPlan> single =
        BuildPlanFromSelection(query, stats, *candidates, {full});
    if (single.ok() && single->est_makespan_sec < best->est_makespan_sec) {
      best = std::move(single);
      best->strategy = "mrtheta-single-mrj";
    }
  }

  // ...and the sequential pair-wise cascade (the traditional decomposition
  // of Sec. 3.2's principle: if separate evaluation plus recombination is
  // estimated cheaper, prefer it).
  StatusOr<QueryPlan> cascade = BuildCascadePlan(query, stats);
  if (cascade.ok() && cascade->est_makespan_sec < best->est_makespan_sec) {
    best = std::move(cascade);
  }

  best->candidates = *std::move(candidates);
  best->gjp_stats = gjp_stats;
  return best;
}

}  // namespace mrtheta
