#include "src/core/executor.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "src/exec/hilbert_join.h"
#include "src/exec/merge_join.h"
#include "src/exec/pairwise_join.h"
#include "src/mem/memory_budget.h"
#include "src/mem/spill.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/runtime/dag_scheduler.h"
#include "src/runtime/parallel_job_runner.h"
#include "src/runtime/thread_pool.h"

namespace mrtheta {

namespace {

// Resolves one plan input into a JoinSide. Base inputs carry the query's
// single-relation selections as a compiled map-side filter (selection
// pushdown below the first shuffle).
StatusOr<JoinSide> ResolveInput(const Query& query,
                                const std::vector<JobExecution>& done,
                                const PlanInput& input) {
  if (input.is_base()) {
    if (input.base >= query.num_relations()) {
      return Status::InvalidArgument("plan input base out of range");
    }
    JoinSide side =
        JoinSide::ForBase(query.relations()[input.base], input.base);
    side.filter = CompiledRowFilter::CompileFor(
        input.base, query.filters(), query.relations()[input.base]);
    return side;
  }
  if (input.job < 0 || input.job >= static_cast<int>(done.size()) ||
      done[input.job].output == nullptr) {
    return Status::InvalidArgument(
        "plan input references a job that has not run (plans must be in "
        "topological order)");
  }
  return JoinSide::ForIntermediate(done[input.job].output,
                                   done[input.job].covered_bases);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

StatusOr<ExecutionResult> Executor::Execute(const Query& query,
                                            const QueryPlan& plan,
                                            uint64_t seed,
                                            ThreadPool* pool) const {
  const int num_threads = std::max(1, options_.num_threads);
  if (pool != nullptr && pool->num_threads() <= num_threads) {
    return RunOn(*pool, query, plan, seed);
  }
  // A cap below a shared pool's width must bound *intra-job* map and reduce
  // fan-out too, not just the DAG concurrency — split planning and
  // ParallelFor both follow the pool — so run on a pool of exactly the
  // capped width.
  ThreadPool own(num_threads);
  return RunOn(own, query, plan, seed);
}

StatusOr<ExecutionResult> Executor::RunOn(ThreadPool& pool,
                                          const Query& query,
                                          const QueryPlan& plan,
                                          uint64_t seed) const {
  MRTHETA_RETURN_IF_ERROR(query.Validate());
  MRTHETA_RETURN_IF_ERROR(options_.fault_plan.Validate());
  MRTHETA_RETURN_IF_ERROR(options_.retry.Validate());
  MRTHETA_RETURN_IF_ERROR(options_.speculation.Validate());
  if (options_.mem_budget_bytes < 0) {
    return Status::InvalidArgument("mem_budget_bytes must be >= 0");
  }
  if (plan.jobs.empty()) {
    return Status::InvalidArgument("plan has no jobs");
  }
  const int num_jobs = static_cast<int>(plan.jobs.size());

  // Dependency edges: plan jobs reference earlier jobs' outputs. A forward
  // or out-of-range reference is the "not topological" error the body would
  // otherwise hit racily.
  std::vector<std::vector<int>> deps(num_jobs);
  for (int i = 0; i < num_jobs; ++i) {
    for (const PlanInput& in : plan.jobs[i].inputs) {
      if (in.is_base()) continue;
      if (in.job < 0 || in.job >= i) {
        return Status::InvalidArgument(
            "plan input references a job that has not run (plans must be in "
            "topological order)");
      }
      deps[i].push_back(in.job);
    }
  }

  ExecutionResult result;
  result.jobs.resize(num_jobs);
  std::vector<SimJobSpec> sim_jobs(num_jobs);
  // Thread budget: the pool owns num_threads - 1 workers; each in-flight
  // DAG job adds one coordinating thread that spends its time claiming
  // tasks inside ParallelFor (caller participation — the property that
  // makes nested fan-out deadlock-free). Sustained compute threads are
  // therefore ~num_threads; the worst case (every job simultaneously
  // between its phases, replaying its shuffle byte sums) is transient.
  // See docs/RUNTIME.md.
  const int num_threads = pool.num_threads();

  // Fault-tolerance machinery (docs/RUNTIME.md "Fault tolerance"). The
  // plan-level token chains to the caller's (ThetaEngine::Submit) token;
  // it is cancelled on the first real job failure so in-flight sibling
  // jobs stop at their next task boundary instead of finishing doomed
  // work.
  const bool chaos = options_.fault_plan.enabled();
  const FaultInjector injector(options_.fault_plan);
  CancellationToken plan_cancel(options_.cancel_token);

  // Memory budget (docs/MEMORY.md): an explicit option wins; 0 inherits the
  // process-wide limit ($MRTHETA_MEM_BUDGET). The spill directory lives on
  // this stack frame, so its destructor sweeps every spill file on success,
  // failure and cancellation alike; it is created lazily, so unbudgeted and
  // never-spilling runs touch the filesystem not at all.
  const int64_t mem_budget = options_.mem_budget_bytes > 0
                                 ? options_.mem_budget_bytes
                                 : MemoryBudget::Global().limit_bytes();
  const bool budgeted = mem_budget > 0;
  SpillDirectory spill_dir;

  // Fault accounting must survive *failed* executions too — a run that
  // exhausted its retries or was cancelled mid-flight still injected
  // faults and wasted attempt seconds, and the session metrics
  // (ExecutorOptions::fault_report) need to see them even though no
  // ExecutionResult is returned. Each finished job merges its report into
  // this plan-level accumulator (NOT read back from `result`, which the
  // success path moves out of before scope exit), and a scope guard
  // publishes it on every return path; by destructor time all job bodies
  // have joined (RunDag completes before returning), so the read is
  // race-free.
  Mutex plan_faults_mu;
  FaultReport plan_faults;
  struct FaultPublisher {
    const FaultReport& faults;
    FaultReport* out;
    ~FaultPublisher() {
      if (out != nullptr) out->Merge(faults);
    }
  } fault_publisher{plan_faults, options_.fault_report};

  // Runs plan job `i`; deps are complete when the DAG scheduler calls this,
  // and it writes only slot `i` of result.jobs / sim_jobs.
  auto run_job_body = [&](int i) -> Status {
    if (plan_cancel.cancelled()) {
      return Status::Cancelled("plan job " + std::to_string(i) +
                               " cancelled before start");
    }
    const PlanJob& pj = plan.jobs[i];
    TraceSpan job_span("plan-job", "executor");
    job_span.Arg("index", static_cast<int64_t>(i))
        .Arg("kind", PlanJobKindName(pj.kind));
    // Resolve inputs.
    std::vector<JoinSide> sides;
    std::vector<int> dep_jobs;
    for (const PlanInput& in : pj.inputs) {
      StatusOr<JoinSide> side = ResolveInput(query, result.jobs, in);
      if (!side.ok()) return side.status();
      sides.push_back(*std::move(side));
      if (!in.is_base()) dep_jobs.push_back(in.job);
    }

    // Build the MapReduce job.
    StatusOr<MapReduceJobSpec> spec = Status::Internal("unset");
    HilbertJoinPlanInfo hilbert_info;
    switch (pj.kind) {
      case PlanJobKind::kHilbertJoin: {
        MultiwayJoinJobSpec mw;
        mw.name = pj.name.empty() ? "hilbert-join" : pj.name;
        mw.inputs = sides;
        mw.base_relations = query.relations();
        mw.conditions = query.ConditionsById(pj.thetas);
        mw.num_reduce_tasks = pj.num_reduce_tasks;
        mw.seed = seed + i * 7919;
        // kAuto defers to the planner's per-job skew flag; the builder
        // only ever sees on/off.
        const bool skew_on =
            options_.skew_handling == SkewHandling::kForce ||
            (options_.skew_handling == SkewHandling::kAuto &&
             pj.skew_handling);
        mw.skew_handling =
            skew_on ? SkewHandling::kForce : SkewHandling::kOff;
        mw.output_columns = pj.output_columns;
        spec = BuildHilbertJoinJob(mw, &hilbert_info);
        break;
      }
      case PlanJobKind::kEquiJoin:
      case PlanJobKind::kThetaPair: {
        if (sides.size() != 2) {
          return Status::InvalidArgument("pairwise job needs two inputs");
        }
        PairwiseJoinJobSpec pw;
        pw.name = pj.name.empty() ? "pairwise-join" : pj.name;
        pw.left = sides[0];
        pw.right = sides[1];
        pw.base_relations = query.relations();
        pw.conditions = query.ConditionsById(pj.thetas);
        pw.num_reduce_tasks = pj.num_reduce_tasks;
        pw.seed = seed + i * 7919;
        pw.output_columns = pj.output_columns;
        spec = pj.kind == PlanJobKind::kEquiJoin ? BuildEquiJoinJob(pw)
                                                 : BuildOneBucketThetaJob(pw);
        break;
      }
      case PlanJobKind::kMerge: {
        if (sides.size() != 2) {
          return Status::InvalidArgument("merge job needs two inputs");
        }
        MergeJobSpec mg;
        mg.name = pj.name.empty() ? "merge" : pj.name;
        mg.left = sides[0];
        mg.right = sides[1];
        mg.base_relations = query.relations();
        mg.num_reduce_tasks = pj.num_reduce_tasks;
        mg.output_columns = pj.output_columns;
        spec = BuildMergeJob(mg);
        break;
      }
    }
    if (!spec.ok()) return spec.status();
    spec->text_serde = pj.text_serde;
    if (pj.map_side_combine) spec->combine = MakeDedupCombiner();
    job_span.Arg("job", spec->name);

    const auto job_start = std::chrono::steady_clock::now();
    FaultReport job_faults;
    ParallelRunnerOptions popts;
    if (chaos) {
      popts.injector = &injector;
      popts.retry = options_.retry;
      popts.speculation = options_.speculation;
    }
    popts.cancel = &plan_cancel;
    popts.fault_report = &job_faults;
    if (budgeted) {
      popts.mem_budget_bytes = mem_budget;
      popts.spill_dir = &spill_dir;
    }
    StatusOr<PhysicalJobResult> phys = RunJobParallel(*spec, pool, popts);
    // Keep the fault accounting even when the job failed: the runner
    // published everything it injected/retried into job_faults, and the
    // plan-level FaultPublisher reads it from this slot.
    result.jobs[i].faults = job_faults;
    if (!phys.ok()) return phys.status();

    JobExecution& exec = result.jobs[i];
    exec.name = spec->name;
    exec.input_jobs = dep_jobs;
    exec.kind = pj.kind;
    exec.reduce_tasks = spec->num_reduce_tasks;
    exec.kernel = spec->kernel;
    exec.metrics = phys->metrics;
    exec.spill_bytes = phys->spill_bytes;
    exec.spill_files = phys->spill_files;
    exec.wall_seconds = SecondsSince(job_start);
    if (pj.kind == PlanJobKind::kHilbertJoin) {
      exec.skew_residual_tasks = hilbert_info.skew.residual_tasks;
      exec.skew_heavy_tasks = hilbert_info.skew.heavy_tasks;
      exec.skew_heavy_groups =
          static_cast<int>(hilbert_info.skew.groups.size());
    }
    exec.output = phys->output;
    // Covered bases = union of the inputs' coverage.
    std::set<int> bases;
    for (const JoinSide& side : sides) {
      bases.insert(side.bases.begin(), side.bases.end());
    }
    exec.covered_bases.assign(bases.begin(), bases.end());

    // Shared-scan discount (YSmart-style plans): repeated scans of a base
    // relation are served by one physical scan.
    if (pj.scan_discount_bytes > 0) {
      exec.metrics.input_bytes_logical =
          std::max<int64_t>(cluster_->config().block_size,
                            exec.metrics.input_bytes_logical -
                                pj.scan_discount_bytes);
    }

    // The final job writes the query's *projection*, not materialized
    // intermediate rows — every compared system benefits identically.
    if (i + 1 == num_jobs && !query.outputs().empty()) {
      int64_t projected_width = 4;  // record framing
      for (const OutputColumn& out : query.outputs()) {
        projected_width += query.relations()[out.base]
                               ->schema()
                               .column(out.column)
                               .avg_width;
      }
      exec.metrics.output_bytes_logical = static_cast<int64_t>(
          std::min(exec.metrics.output_rows_logical *
                       static_cast<double>(projected_width),
                   9.0e18));
    }

    sim_jobs[i] = cluster_->BuildSimJob(*spec, exec.metrics, dep_jobs);
    return Status::OK();
  };
  // A real (non-cancellation) failure cancels the in-flight siblings; the
  // DAG scheduler then reports the lowest-index non-cancelled failure.
  auto run_job = [&](int i) -> Status {
    Status s = run_job_body(i);
    {
      MutexLock lock(&plan_faults_mu);
      plan_faults.Merge(result.jobs[i].faults);
    }
    if (!s.ok() && !s.IsCancelled()) plan_cancel.Cancel();
    return s;
  };

  const auto plan_start = std::chrono::steady_clock::now();
  // Jobs with disjoint deps overlap; map/reduce tasks within each job share
  // the pool. At one thread RunDag runs the lowest-index ready job first,
  // which is plan order because every dep points backward.
  MRTHETA_RETURN_IF_ERROR(RunDag(deps, num_threads, run_job));
  result.measured_seconds = SecondsSince(plan_start);
  for (const JobExecution& exec : result.jobs) {
    result.sim_shuffle_bytes += exec.metrics.map_output_bytes_logical;
    result.fault_report.Merge(exec.faults);
    result.spill_bytes += exec.spill_bytes;
    result.spill_files += exec.spill_files;
  }
  result.peak_mem_bytes = MemoryBudget::Global().peak_bytes();

  // Replay the DAG through the discrete-event engine.
  StatusOr<SimReport> report = RunSimulation(cluster_->config(), sim_jobs);
  if (!report.ok()) return report.status();
  result.makespan = report->makespan;
  for (int i = 0; i < num_jobs; ++i) {
    result.jobs[i].timing = report->jobs[i];
  }

  // Final result: the last job's output.
  const JobExecution& last = result.jobs.back();
  result.result_ids = last.output;
  result.covered_bases = last.covered_bases;

  double cross = 1.0;
  for (const RelationPtr& rel : query.relations()) {
    cross *= static_cast<double>(std::max<int64_t>(1, rel->logical_rows()));
  }
  result.result_selectivity =
      static_cast<double>(last.output->logical_rows()) / cross;

  if (!query.outputs().empty()) {
    TraceSpan project_span("project", "executor");
    if (project_span.enabled()) {
      project_span.Arg("rows", last.output->num_rows());
    }
    StatusOr<Relation> projected =
        ProjectResult(*last.output, last.covered_bases, query.relations(),
                      query.outputs(), pool);
    if (!projected.ok()) return projected.status();
    result.projected = std::make_shared<Relation>(*std::move(projected));
  }
  return result;
}

QueryProfile QueryResult::profile() const {
  QueryProfile profile = BuildQueryProfile(execution_);
  profile.plan_cache_hit = plan_cache_hit_;
  return profile;
}

}  // namespace mrtheta
