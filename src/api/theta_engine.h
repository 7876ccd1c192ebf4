#ifndef MRTHETA_API_THETA_ENGINE_H_
#define MRTHETA_API_THETA_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/api/engine_options.h"
#include "src/api/query_builder.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cost/calibration.h"
#include "src/mapreduce/sim_cluster.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/runtime/thread_pool.h"

namespace mrtheta {

/// What Explain returns: the chosen plan plus the statistics it was
/// planned with (cached per relation across the session).
struct PlanReport {
  QueryPlan plan;
  std::vector<TableStats> stats;

  std::string ToString() const;
};

/// Counters of the shared work a session amortizes. api_test pins the
/// caching contract on these: three Executes of one query cost exactly one
/// calibration and one stats build per distinct relation.
///
/// This struct is a *view*: the source of truth is the engine's
/// MetricsRegistry (metrics_registry()), which additionally carries
/// labeled per-phase retry counters and an execution-latency histogram;
/// metrics() assembles the struct from the registry for ergonomic access.
struct EngineMetrics {
  int64_t calibrations = 0;      ///< cost-model calibration campaigns run
  int64_t stats_builds = 0;      ///< per-relation TableStats computed
  int64_t stats_cache_hits = 0;  ///< per-relation TableStats reused
  int64_t stats_evictions = 0;   ///< cache entries dropped (expired relation)
  int64_t plans = 0;             ///< planner invocations (plan-cache misses)
  int64_t executions = 0;        ///< plans executed successfully
  int64_t failed_executions = 0;  ///< plans that returned a non-OK Status
  // Serving-layer accounting (docs/API.md "Serving"); the admission
  // counters stay zero with max_inflight_queries == 0.
  int64_t plan_cache_hits = 0;    ///< executions that skipped planning+stats
  int64_t plan_cache_misses = 0;  ///< lookups that fell through to the planner
  int64_t plan_cache_evictions = 0;  ///< LRU shapes dropped at capacity
  int64_t admission_rejections = 0;  ///< Submits refused (queue depth)
  // Fault-tolerance accounting summed over the session's executions
  // (docs/RUNTIME.md "Fault tolerance"); all zero without a FaultPlan.
  int64_t injected_faults = 0;       ///< faults the FaultPlan fired
  int64_t task_retries = 0;          ///< failed task attempts retried
  int64_t speculative_launches = 0;  ///< straggler re-executions launched
  double wasted_task_seconds = 0.0;  ///< time in never-committed attempts
  // Memory accounting (docs/MEMORY.md); spill counters stay zero without
  // a memory budget.
  int64_t spill_bytes = 0;     ///< shuffle bytes spilled to disk
  int64_t spill_files = 0;     ///< spill files created
  int64_t peak_mem_bytes = 0;  ///< budget high-water mark (last execution)
};

/// \brief The session facade over the paper's whole pipeline: statistics →
/// cost calibration → join-path graph → set cover → malleable schedule →
/// MapReduce execution, behind one object constructed once per session.
///
/// A ThetaEngine owns the simulated cluster, the runtime thread pool
/// (sized to options().executor.num_threads), the lazily-run cost-model
/// calibration, and a per-relation statistics cache keyed by relation
/// identity and validated by Relation::generation() (any mutation — growth
/// or in-place edits — forces a rebuild; entries for freed relations are
/// evicted) — the one-time "uploading" work of Sec. 6.3 is paid on the
/// first query and amortized across the rest of the session. On top of the
/// stats cache sits an LRU *plan* cache keyed by canonical query structure
/// + input generations, through which Execute, Submit, Explain and
/// PlanQuery all resolve their plans, so a repeated query shape skips
/// planning entirely; and an admission policy bounding concurrent Submits
/// (docs/API.md "Serving"; EngineOptions serving knobs).
///
/// Thread safety: all entry points may be called concurrently. Submit
/// returns a future and runs the query on its own coordination thread
/// (reused by later Submits once the query has ended);
/// map/reduce tasks of concurrent submissions share the engine's pool, so
/// independent plans overlap. Determinism: with the same options and
/// execution_seed, Execute and Submit produce byte-identical results at
/// every thread count and under any submission interleaving
/// (docs/API.md).
class ThetaEngine {
 public:
  /// Entries of the session plan cache; least recently used shapes are
  /// evicted beyond it.
  static constexpr int kPlanCacheCapacity = 64;

  explicit ThetaEngine(EngineOptions options = {});
  /// Blocks until every in-flight Submit has finished, then joins the
  /// coordination threads.
  ~ThetaEngine();

  ThetaEngine(const ThetaEngine&) = delete;
  ThetaEngine& operator=(const ThetaEngine&) = delete;

  const EngineOptions& options() const { return options_; }
  const SimCluster& cluster() const { return cluster_; }

  /// The cost-model calibration report (Sec. 6.2), running the probe
  /// campaign on first use and caching it for the session.
  StatusOr<CalibrationReport> Calibration();

  /// Plans `query` with session-cached calibration and statistics.
  StatusOr<QueryPlan> PlanQuery(const Query& query);

  /// Plans `query` and reports the choice without executing anything.
  StatusOr<PlanReport> Explain(const Query& query);

  /// Plans and executes `query` on the engine's runtime. The result's
  /// profile() is its per-job execution profile (src/obs/profile.h).
  StatusOr<QueryResult> Execute(const Query& query);
  /// Builds, plans and executes the builder's query.
  StatusOr<QueryResult> Execute(const QueryBuilder& builder);

  /// Asynchronous Execute for concurrent multi-query sessions: returns
  /// immediately; the execution overlaps with other submissions on the
  /// engine's shared pool. Unlike std::async, discarding the future does
  /// NOT block — the query keeps running and the engine's destructor
  /// waits for it, so the engine must outlive the session's submissions
  /// (which it does by construction).
  ///
  /// With max_inflight_queries > 0, Submit is admission-controlled: the
  /// admit/queue/reject decision is taken synchronously in the caller's
  /// thread — at most max_inflight_queries submissions execute, the next
  /// max_queue_depth wait FIFO (queue time lands in the
  /// engine_queue_wait_seconds histogram and an "admission-wait" span),
  /// and beyond that the returned future is already resolved with
  /// kResourceExhausted. CancelInflight also cancels queued submissions.
  std::future<StatusOr<QueryResult>> Submit(Query query);
  std::future<StatusOr<QueryResult>> Submit(const QueryBuilder& builder);

  /// Cancels every in-flight Submit: each submission carries a
  /// CancellationToken that its execution honors at job and task
  /// boundaries (and inside interruptible waits), so cancelled
  /// submissions resolve their futures promptly with kCancelled instead
  /// of running their remaining plan jobs. Queries submitted after this
  /// call are unaffected. Safe to call concurrently with anything,
  /// including itself.
  void CancelInflight();

  /// Executes a caller-provided plan (a baseline planner's, or a plan from
  /// Explain) with the engine's executor options and seed.
  StatusOr<QueryResult> ExecutePlan(const Query& query, const QueryPlan& plan);
  /// Same, with per-call executor options (thread sweeps, skew modes) and
  /// seed. The effective thread count is capped by the
  /// engine pool, i.e. min(executor_options.num_threads,
  /// options().executor.num_threads).
  StatusOr<QueryResult> ExecutePlan(const Query& query, const QueryPlan& plan,
                                    const ExecutorOptions& executor_options,
                                    uint64_t seed);

  EngineMetrics metrics() const;

  /// The session's metric store (docs/OBSERVABILITY.md): every
  /// EngineMetrics counter under an "engine_" prefix, labeled per-phase
  /// retry counters (engine_task_retries{phase="map"|"reduce"}), the
  /// wasted-attempt-seconds gauge, and an engine_execution_seconds
  /// histogram (p50/p95/p99 across the session's successful executions).
  /// Snapshot with SnapshotText/SnapshotJson or dump via --metrics-out.
  MetricsRegistry& metrics_registry() const { return registry_; }

 private:
  /// A plan resolved for execution: through the plan cache or a fresh
  /// planner run.
  struct PlannedQuery {
    std::shared_ptr<const QueryPlan> plan;
    std::vector<TableStats> stats;  ///< statistics the plan was chosen with
    bool cache_hit = false;         ///< planning + stats were skipped
  };

  /// Validates options and runs calibration once; caller holds mu_.
  Status EnsureReadyLocked() MRTHETA_REQUIRES(mu_);
  /// Validates `query` and resolves its plan: a plan-cache hit returns the
  /// cached plan + stats without touching the planner; a miss collects
  /// stats, plans, and inserts into the LRU cache (all under one mu_ hold,
  /// so concurrent submissions of one new shape plan it exactly once).
  StatusOr<PlannedQuery> PlanForExecution(const Query& query);
  /// Inserts a freshly planned shape, evicting LRU entries beyond
  /// kPlanCacheCapacity; caller holds mu_.
  void InsertPlanLocked(const std::string& key,
                        std::shared_ptr<const QueryPlan> plan,
                        std::vector<TableStats> stats) MRTHETA_REQUIRES(mu_);
  /// Resolves the plan through the cache and executes it with engine
  /// executor options (`token` wired in, per_query_threads cap applied),
  /// stamping the result's plan_cache_hit. The body of Execute and of
  /// every Submit task; `token` is null for Execute.
  StatusOr<QueryResult> ExecuteCancellable(const Query& query,
                                           const CancellationToken* token);
  /// Body of one coordination thread: runs queued Submit tasks one at a
  /// time until the engine is destroyed.
  void CoordinationLoop();
  /// Blocks until this ticket reaches the queue front with a free slot (or
  /// its token is cancelled); records the queue wait on admission.
  Status WaitForAdmission(uint64_t ticket, const CancellationToken* token);
  /// Frees one admission slot and wakes the queue front.
  void ReleaseAdmission();
  /// Session statistics for the query's relations, cached by relation
  /// identity; caller holds mu_.
  std::vector<TableStats> StatsForLocked(const Query& query)
      MRTHETA_REQUIRES(mu_);
  /// Adds one execution's fault accounting to the registry (total and
  /// per-phase retry counters, wasted-seconds gauge). Called on every
  /// ExecutePlan exit path — success, failure and cancellation alike.
  void AddFaultReportToRegistry(const FaultReport& report) const;

  const EngineOptions options_;
  SimCluster cluster_;
  ThreadPool pool_;

  mutable Mutex mu_;
  bool initialized_ MRTHETA_GUARDED_BY(mu_) = false;
  Status init_status_ MRTHETA_GUARDED_BY(mu_);
  std::unique_ptr<CalibrationReport> calibration_ MRTHETA_GUARDED_BY(mu_);
  /// Created once under mu_; all planner calls happen under mu_ too.
  std::unique_ptr<Planner> planner_ MRTHETA_GUARDED_BY(mu_);
  /// One cached per-relation statistics entry, keyed by relation address
  /// and validated by Relation::generation() — a process-wide monotonic
  /// counter re-drawn on every mutation. An entry is served only when the
  /// relation is still alive (weak_ptr) AND its generation matches the one
  /// observed at build time, so neither an in-place mutation at the same
  /// cardinality nor a freed relation's recycled address can ever alias a
  /// stale entry (the old (pointer, row-count) key did both). Entries are
  /// not pinned: expired ones are evicted on the next lookup pass.
  struct CachedStats {
    std::weak_ptr<const Relation> alive;
    uint64_t generation = 0;
    TableStats stats;
  };
  std::unordered_map<const Relation*, CachedStats> stats_cache_
      MRTHETA_GUARDED_BY(mu_);
  /// The session plan cache (docs/API.md "Serving"): key =
  /// Query::StructureKey() + the generation of every input in query-index
  /// order. Generations are drawn from a never-reused process-wide counter,
  /// so a key match alone proves the cached plan was chosen for exactly
  /// this structure over exactly this content — mutation invalidates by
  /// key mismatch, and dropping the relation merely strands an entry until
  /// LRU eviction (the cache stores plans and stats *values*, never
  /// relation pointers, so a stranded entry can go stale but never dangle
  /// or be wrongly served). Entries hold the stats the plan was chosen
  /// with, so Explain reports them without a rebuild.
  struct PlanCacheEntry {
    std::shared_ptr<const QueryPlan> plan;
    std::vector<TableStats> stats;
    std::list<std::string>::iterator lru_it;  ///< position in plan_lru_
  };
  /// Front = most recent.
  std::list<std::string> plan_lru_ MRTHETA_GUARDED_BY(mu_);
  std::unordered_map<std::string, PlanCacheEntry> plan_cache_
      MRTHETA_GUARDED_BY(mu_);
  // Admission control (active when options_.max_inflight_queries > 0).
  int admitted_queries_ MRTHETA_GUARDED_BY(mu_) = 0;
  uint64_t next_ticket_ MRTHETA_GUARDED_BY(mu_) = 0;
  /// FIFO tickets.
  std::deque<uint64_t> admission_queue_ MRTHETA_GUARDED_BY(mu_);
  CondVar admission_cv_;  // slot freed / queue front moved
  /// Source of truth for all session metrics; internally synchronized
  /// (handles are lock-free), so fault accounting from executor scope
  /// guards and Submit coordination threads lands here without touching
  /// mu_ — which is what fixed the CancelInflight under-reporting bug.
  /// Mutable: reading metrics on a const engine still registers handles
  /// on first use.
  mutable MetricsRegistry registry_;
  int inflight_submissions_ MRTHETA_GUARDED_BY(mu_) = 0;
  /// One token per in-flight Submit, registered for CancelInflight. The
  /// submission's task holds its own shared_ptr, so entries here are
  /// alive by construction; each is deregistered when its submission ends.
  std::vector<std::shared_ptr<CancellationToken>> inflight_tokens_
      MRTHETA_GUARDED_BY(mu_);
  CondVar idle_cv_;  // signalled when a submission ends

  // Coordination threads. Each Submit's task runs on one of them; a thread
  // whose task has ended waits for the next instead of exiting, so
  // back-to-back Submits reuse threads (and the malloc arenas those
  // threads hold) instead of starting one per query. Joined by the
  // destructor.
  struct CoordinationTask {
    std::function<StatusOr<QueryResult>()> run;
    std::shared_ptr<std::promise<StatusOr<QueryResult>>> promise;
  };
  std::deque<CoordinationTask> coordination_queue_ MRTHETA_GUARDED_BY(mu_);
  /// Threads that will take a queued task without another wake-up: new
  /// ones and those that have finished a task. Never below the queue
  /// length, so no task waits behind a busy thread.
  int committed_coordinators_ MRTHETA_GUARDED_BY(mu_) = 0;
  bool stopping_ MRTHETA_GUARDED_BY(mu_) = false;
  std::vector<std::thread> coordinators_ MRTHETA_GUARDED_BY(mu_);
  CondVar coordination_cv_;  // a task was queued, or the engine is stopping
};

}  // namespace mrtheta

#endif  // MRTHETA_API_THETA_ENGINE_H_
