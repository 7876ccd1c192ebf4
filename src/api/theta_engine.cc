#include "src/api/theta_engine.h"

#include <algorithm>
#include <chrono>
#include <system_error>
#include <thread>

#include "src/common/units.h"
#include "src/obs/trace.h"

namespace mrtheta {

namespace {

/// Full plan-cache key: the query's canonical structure plus the
/// generation of every input in query-index order. Generations come from a
/// never-reused process-wide counter re-drawn on every mutation
/// (src/relation/relation.h), so a key match alone proves "same structure
/// over the same content" — no relation pointers needed, and a mutated
/// input invalidates by mismatch rather than by explicit eviction.
std::string PlanCacheKey(const Query& query) {
  std::string key = query.StructureKey();
  key += "|g";
  for (const RelationPtr& rel : query.relations()) {
    key += ":" + std::to_string(rel->generation());
  }
  return key;
}

}  // namespace

std::string PlanReport::ToString() const {
  std::string out = plan.ToString();
  out += "planned with statistics:\n";
  for (size_t i = 0; i < stats.size(); ++i) {
    out += "  R" + std::to_string(i) + ": logical " +
           FormatBytes(stats[i].logical_bytes) + " (" +
           std::to_string(stats[i].logical_rows) + " rows, " +
           std::to_string(stats[i].columns.size()) + " columns)\n";
  }
  return out;
}

ThetaEngine::ThetaEngine(EngineOptions options)
    : options_(std::move(options)),
      cluster_(options_.cluster),
      pool_(std::max(1, options_.executor.num_threads)) {}

ThetaEngine::~ThetaEngine() {
  std::vector<std::thread> coordinators;
  {
    MutexLock lock(&mu_);
    while (inflight_submissions_ != 0) idle_cv_.Wait(&mu_);
    stopping_ = true;
    coordination_cv_.NotifyAll();
    coordinators.swap(coordinators_);
  }
  for (std::thread& t : coordinators) t.join();
}

Status ThetaEngine::EnsureReadyLocked() {
  if (initialized_) return init_status_;
  initialized_ = true;
  init_status_ = options_.Validate();
  if (!init_status_.ok()) return init_status_;
  // Calibration probes need one free map wave, so the campaign runs on a
  // throwaway cluster at calibration_workers width; the fitted parameters
  // are kP-independent (see bench/bench_util.cc's original Harness).
  ClusterConfig calibration_config = options_.cluster;
  if (options_.calibration_workers > 0) {
    calibration_config.num_workers = options_.calibration_workers;
  }
  const SimCluster calibration_cluster(calibration_config);
  StatusOr<CalibrationReport> report =
      CalibrateCostModel(calibration_cluster, options_.calibration);
  if (!report.ok()) {
    init_status_ = report.status();
    return init_status_;
  }
  registry_.GetCounter("engine_calibrations")->Increment();
  calibration_ = std::make_unique<CalibrationReport>(*std::move(report));
  planner_ = std::make_unique<Planner>(&cluster_, calibration_->params,
                                       options_.planner);
  return Status::OK();
}

std::vector<TableStats> ThetaEngine::StatsForLocked(const Query& query) {
  // Sweep entries whose relation died since the last pass: without the old
  // pinning, a dead entry's address could be handed to a future Relation,
  // and the cache must never answer for a corpse.
  for (auto it = stats_cache_.begin(); it != stats_cache_.end();) {
    if (it->second.alive.expired()) {
      it = stats_cache_.erase(it);
      registry_.GetCounter("engine_stats_evictions")->Increment();
    } else {
      ++it;
    }
  }
  std::vector<TableStats> stats;
  stats.reserve(query.relations().size());
  for (const RelationPtr& rel : query.relations()) {
    auto it = stats_cache_.find(rel.get());
    // Fresh iff the cached generation matches: Relation::generation() is
    // re-drawn from a never-reused process-wide counter on every mutation
    // (including in-place cell edits that keep num_rows constant) and at
    // construction, so a match alone proves the entry describes exactly
    // this live relation's current content — even an entry left behind by
    // a dead relation at a recycled address necessarily carries a
    // different generation. The weak_ptr exists for the sweep above, not
    // for this check.
    const bool fresh = it != stats_cache_.end() &&
                       it->second.generation == rel->generation();
    if (!fresh) {
      CachedStats entry;
      entry.alive = rel;
      entry.generation = rel->generation();
      entry.stats = planner_->CollectStatsForRelation(*rel);
      registry_.GetCounter("engine_stats_builds")->Increment();
      it = stats_cache_.insert_or_assign(rel.get(), std::move(entry)).first;
    } else {
      registry_.GetCounter("engine_stats_cache_hits")->Increment();
    }
    stats.push_back(it->second.stats);
  }
  return stats;
}

StatusOr<CalibrationReport> ThetaEngine::Calibration() {
  MutexLock lock(&mu_);
  MRTHETA_RETURN_IF_ERROR(EnsureReadyLocked());
  return *calibration_;
}

StatusOr<ThetaEngine::PlannedQuery> ThetaEngine::PlanForExecution(
    const Query& query) {
  MRTHETA_RETURN_IF_ERROR(query.Validate());
  MutexLock lock(&mu_);
  MRTHETA_RETURN_IF_ERROR(EnsureReadyLocked());
  PlannedQuery out;
  const bool cache_on = options_.plan_cache_capacity > 0;
  std::string key;
  if (cache_on) {
    key = PlanCacheKey(query);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.lru_it);
      registry_.GetCounter("engine_plan_cache_hits")->Increment();
      out.plan = it->second.plan;
      out.stats = it->second.stats;
      out.cache_hit = true;
      return out;
    }
    registry_.GetCounter("engine_plan_cache_misses")->Increment();
  }
  out.stats = StatsForLocked(query);
  StatusOr<QueryPlan> plan = planner_->Plan(query, out.stats);
  if (!plan.ok()) return plan.status();
  registry_.GetCounter("engine_plans")->Increment();
  out.plan = std::make_shared<const QueryPlan>(*std::move(plan));
  // The whole miss path — lookup, stats, plan, insert — runs under one mu_
  // hold, so N concurrent submissions of one brand-new shape cost exactly
  // one planner run and N-1 hits; hit/miss counters stay deterministic
  // under any Submit interleaving.
  if (cache_on) InsertPlanLocked(key, out.plan, out.stats);
  return out;
}

StatusOr<ThetaEngine::PlannedQuery> ThetaEngine::PlanPinnedOrExecution(
    const Query& query, const std::shared_ptr<const QueryPlan>& pinned,
    const std::string& pinned_key) {
  // A fresh pin needs no lock: the key match proves the pinned plan was
  // chosen for exactly this content, and the pin keeps it alive
  // independently of LRU eviction. A mismatch (some input mutated since
  // Prepare) falls through to the shared cache path.
  if (pinned != nullptr && PlanCacheKey(query) == pinned_key) {
    registry_.GetCounter("engine_plan_cache_hits")->Increment();
    PlannedQuery out;
    out.plan = pinned;
    out.cache_hit = true;
    return out;
  }
  return PlanForExecution(query);
}

void ThetaEngine::InsertPlanLocked(const std::string& key,
                                   std::shared_ptr<const QueryPlan> plan,
                                   std::vector<TableStats> stats) {
  plan_lru_.push_front(key);
  plan_cache_.insert_or_assign(
      key, PlanCacheEntry{std::move(plan), std::move(stats),
                          plan_lru_.begin()});
  while (static_cast<int>(plan_cache_.size()) >
         options_.plan_cache_capacity) {
    plan_cache_.erase(plan_lru_.back());
    plan_lru_.pop_back();
    registry_.GetCounter("engine_plan_cache_evictions")->Increment();
  }
}

StatusOr<QueryResult> ThetaEngine::ExecuteResolved(
    const Query& query, const PlannedQuery& planned,
    const CancellationToken* token) {
  ExecutorOptions opts = options_.executor;
  opts.cancel_token = token;
  if (options_.per_query_threads > 0) {
    opts.num_threads = std::min(opts.num_threads, options_.per_query_threads);
  }
  StatusOr<QueryResult> result =
      ExecutePlan(query, *planned.plan, opts, options_.execution_seed);
  if (result.ok()) result->set_plan_cache_hit(planned.cache_hit);
  return result;
}

StatusOr<QueryPlan> ThetaEngine::PlanQuery(const Query& query) {
  StatusOr<PlannedQuery> planned = PlanForExecution(query);
  if (!planned.ok()) return planned.status();
  return *planned->plan;
}

StatusOr<PlanReport> ThetaEngine::Explain(const Query& query) {
  StatusOr<PlannedQuery> planned = PlanForExecution(query);
  if (!planned.ok()) return planned.status();
  PlanReport report;
  report.plan = *planned->plan;
  report.stats = planned->stats;
  return report;
}

StatusOr<QueryResult> ThetaEngine::Execute(const Query& query) {
  StatusOr<PlannedQuery> planned = PlanForExecution(query);
  if (!planned.ok()) return planned.status();
  return ExecuteResolved(query, *planned, nullptr);
}

StatusOr<QueryResult> ThetaEngine::Execute(const QueryBuilder& builder) {
  StatusOr<Query> query = builder.Build();
  if (!query.ok()) return query.status();
  return Execute(*query);
}

StatusOr<QueryProfile> ThetaEngine::ExplainAnalyze(const Query& query) {
  StatusOr<QueryResult> result = Execute(query);
  if (!result.ok()) return result.status();
  return result->profile();
}

StatusOr<QueryProfile> ThetaEngine::ExplainAnalyze(
    const QueryBuilder& builder) {
  StatusOr<Query> query = builder.Build();
  if (!query.ok()) return query.status();
  return ExplainAnalyze(*query);
}

std::future<StatusOr<QueryResult>> ThetaEngine::Submit(Query query) {
  return SubmitInternal(std::move(query), nullptr, std::string());
}

std::future<StatusOr<QueryResult>> ThetaEngine::SubmitInternal(
    Query query, std::shared_ptr<const QueryPlan> pinned,
    std::string pinned_key) {
  auto promise = std::make_shared<std::promise<StatusOr<QueryResult>>>();
  std::future<StatusOr<QueryResult>> future = promise->get_future();
  // Each submission carries its own cancellation token, registered so
  // CancelInflight can stop it; the execution honors the token at job and
  // task boundaries (and in the admission wait). The thread owns a
  // shared_ptr, so the registry's entries are alive by construction.
  auto token = std::make_shared<CancellationToken>();
  // Admission decision, synchronously in the caller's thread: admit when a
  // slot is free and nobody is queued ahead (FIFO), queue up to
  // max_queue_depth, reject beyond that — a rejected future is already
  // resolved when Submit returns, so rejection behaviour is deterministic
  // regardless of coordination-thread scheduling.
  bool admitted = false;
  bool queued = false;
  uint64_t ticket = 0;
  {
    MutexLock lock(&mu_);
    if (options_.max_inflight_queries > 0) {
      if (admitted_queries_ < options_.max_inflight_queries &&
          admission_queue_.empty()) {
        ++admitted_queries_;
        admitted = true;
      } else if (static_cast<int>(admission_queue_.size()) <
                 options_.max_queue_depth) {
        ticket = next_ticket_++;
        admission_queue_.push_back(ticket);
        queued = true;
      } else {
        registry_.GetCounter("engine_admission_rejections")->Increment();
        promise->set_value(Status::ResourceExhausted(
            "Submit rejected: max_inflight_queries=" +
            std::to_string(options_.max_inflight_queries) +
            " queries in flight and the admission queue is full "
            "(max_queue_depth=" + std::to_string(options_.max_queue_depth) +
            ")"));
        return future;
      }
    }
    ++inflight_submissions_;
    inflight_tokens_.push_back(token);
  }
  auto deregister = [this, raw = token.get()] {
    MutexLock lock(&mu_);
    --inflight_submissions_;
    for (auto it = inflight_tokens_.begin(); it != inflight_tokens_.end();
         ++it) {
      if (it->get() == raw) {
        inflight_tokens_.erase(it);
        break;
      }
    }
    idle_cv_.NotifyAll();
  };
  // A coordination thread, not std::async: the returned future must not
  // block on destruction. The task releases its admission slot and
  // deregisters before the thread resolves the promise, so the
  // destructor's drain keeps `this` alive for the whole Execute.
  CoordinationTask task{
      [this, token, deregister, admitted, queued, ticket,
       q = std::move(query), pinned = std::move(pinned),
       key = std::move(pinned_key)]() -> StatusOr<QueryResult> {
        bool holds_slot = admitted;
        StatusOr<QueryResult> result = [&]() -> StatusOr<QueryResult> {
          TraceSpan span("submit", "engine");
          if (queued) {
            Status admit = WaitForAdmission(ticket, token.get());
            if (!admit.ok()) return admit;
            holds_slot = true;
          }
          return ExecuteCancellable(q, pinned, key, token.get());
        }();
        if (holds_slot) ReleaseAdmission();
        deregister();
        return result;
      },
      promise};
  std::string spawn_error;
  {
    MutexLock lock(&mu_);
    coordination_queue_.push_back(std::move(task));
    // Every queued task has a committed thread: an idle one, or a new one.
    if (committed_coordinators_ >=
        static_cast<int>(coordination_queue_.size())) {
      coordination_cv_.NotifyOne();
      return future;
    }
    try {
      coordinators_.emplace_back([this] { CoordinationLoop(); });
      ++committed_coordinators_;
      return future;
    } catch (const std::system_error& e) {
      coordination_queue_.pop_back();
      spawn_error = e.what();
    }
  }
  // Thread exhaustion: undo the admission and in-flight bookkeeping (or
  // the destructor's drain would wait forever) and fail the submission.
  if (admitted) ReleaseAdmission();
  if (queued) {
    MutexLock lock(&mu_);
    for (auto it = admission_queue_.begin(); it != admission_queue_.end();
         ++it) {
      if (*it == ticket) {
        admission_queue_.erase(it);
        break;
      }
    }
    admission_cv_.NotifyAll();
  }
  deregister();
  promise->set_value(Status::ResourceExhausted(
      "Submit could not start a coordination thread: " + spawn_error));
  return future;
}

void ThetaEngine::CoordinationLoop() {
  while (true) {
    CoordinationTask task;
    {
      MutexLock lock(&mu_);
      while (coordination_queue_.empty() && !stopping_) {
        coordination_cv_.Wait(&mu_);
      }
      if (coordination_queue_.empty()) return;  // engine destroyed
      task = std::move(coordination_queue_.front());
      coordination_queue_.pop_front();
      --committed_coordinators_;
    }
    StatusOr<QueryResult> result = task.run();
    {
      // Commit to the next task before the caller sees this result, so
      // the caller's next Submit finds this thread instead of starting
      // another one.
      MutexLock lock(&mu_);
      ++committed_coordinators_;
    }
    task.promise->set_value(std::move(result));
  }
}

Status ThetaEngine::WaitForAdmission(uint64_t ticket,
                                     const CancellationToken* token) {
  TraceSpan span("admission-wait", "engine");
  const auto start = std::chrono::steady_clock::now();
  mu_.Lock();
  while (!((token != nullptr && token->cancelled()) ||
           (admitted_queries_ < options_.max_inflight_queries &&
            !admission_queue_.empty() &&
            admission_queue_.front() == ticket))) {
    admission_cv_.Wait(&mu_);
  }
  if (token != nullptr && token->cancelled()) {
    for (auto it = admission_queue_.begin(); it != admission_queue_.end();
         ++it) {
      if (*it == ticket) {
        admission_queue_.erase(it);
        break;
      }
    }
    // The queue front may have changed; wake the remaining waiters.
    admission_cv_.NotifyAll();
    mu_.Unlock();
    return Status::Cancelled(
        "submission cancelled while queued for admission");
  }
  admission_queue_.pop_front();
  ++admitted_queries_;
  // With max_inflight_queries > 1, further slots may be free for the new
  // queue front.
  admission_cv_.NotifyAll();
  mu_.Unlock();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  span.Arg("waited_seconds", waited);
  registry_.GetHistogram("engine_queue_wait_seconds", {}, 1e-6)
      ->Record(waited);
  return Status::OK();
}

void ThetaEngine::ReleaseAdmission() {
  MutexLock lock(&mu_);
  --admitted_queries_;
  admission_cv_.NotifyAll();
}

void ThetaEngine::CancelInflight() {
  MutexLock lock(&mu_);
  for (const std::shared_ptr<CancellationToken>& token : inflight_tokens_) {
    token->Cancel();
  }
  // Queued submissions wait on admission_cv_ with a cancellation check in
  // the predicate; wake them so they resolve promptly with kCancelled.
  admission_cv_.NotifyAll();
}

StatusOr<QueryResult> ThetaEngine::ExecuteCancellable(
    const Query& query, const std::shared_ptr<const QueryPlan>& pinned,
    const std::string& pinned_key, const CancellationToken* token) {
  StatusOr<PlannedQuery> planned =
      PlanPinnedOrExecution(query, pinned, pinned_key);
  if (!planned.ok()) return planned.status();
  return ExecuteResolved(query, *planned, token);
}

std::future<StatusOr<QueryResult>> ThetaEngine::Submit(
    const QueryBuilder& builder) {
  StatusOr<Query> query = builder.Build();
  if (!query.ok()) {
    std::promise<StatusOr<QueryResult>> failed;
    failed.set_value(query.status());
    return failed.get_future();
  }
  return Submit(*std::move(query));
}

StatusOr<PreparedQuery> ThetaEngine::Prepare(const Query& query) {
  StatusOr<PlannedQuery> planned = PlanForExecution(query);
  if (!planned.ok()) return planned.status();
  PreparedQuery prepared;
  prepared.engine_ = this;
  prepared.query_ = query;
  prepared.plan_ = planned->plan;
  prepared.cache_key_ = PlanCacheKey(query);
  return prepared;
}

StatusOr<PreparedQuery> ThetaEngine::Prepare(const QueryBuilder& builder) {
  StatusOr<Query> query = builder.Build();
  if (!query.ok()) return query.status();
  return Prepare(*query);
}

StatusOr<QueryResult> PreparedQuery::Execute() const {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition(
        "PreparedQuery is empty (default-constructed); obtain one from "
        "ThetaEngine::Prepare");
  }
  StatusOr<ThetaEngine::PlannedQuery> planned =
      engine_->PlanPinnedOrExecution(query_, plan_, cache_key_);
  if (!planned.ok()) return planned.status();
  return engine_->ExecuteResolved(query_, *planned, nullptr);
}

std::future<StatusOr<QueryResult>> PreparedQuery::Submit() const {
  if (engine_ == nullptr) {
    std::promise<StatusOr<QueryResult>> failed;
    failed.set_value(Status::FailedPrecondition(
        "PreparedQuery is empty (default-constructed); obtain one from "
        "ThetaEngine::Prepare"));
    return failed.get_future();
  }
  return engine_->SubmitInternal(query_, plan_, cache_key_);
}

StatusOr<QueryProfile> PreparedQuery::ExplainAnalyze() const {
  StatusOr<QueryResult> result = Execute();
  if (!result.ok()) return result.status();
  return result->profile();
}

StatusOr<QueryResult> ThetaEngine::ExecutePlan(const Query& query,
                                               const QueryPlan& plan) {
  return ExecutePlan(query, plan, options_.executor,
                     options_.execution_seed);
}

StatusOr<QueryResult> ThetaEngine::ExecutePlan(
    const Query& query, const QueryPlan& plan,
    const ExecutorOptions& executor_options, uint64_t seed) {
  // Executing a caller-provided plan needs no calibration — only valid
  // options. This keeps baseline-plan execution possible on a cold engine.
  MRTHETA_RETURN_IF_ERROR(options_.Validate());
  TraceSpan span("execute", "engine");
  // Collect the fault accounting through the executor's out-param rather
  // than from ExecutionResult::fault_report: the out-param is published on
  // *every* exit path, so failed and cancelled executions (which return no
  // result at all) still report the faults they absorbed — previously
  // those were silently dropped and the session counters under-reported.
  FaultReport fault_report;
  ExecutorOptions opts = executor_options;
  opts.fault_report = &fault_report;
  // Session memory budget (docs/MEMORY.md): an explicit per-call value
  // wins; otherwise the engine option applies (and 0 falls through to the
  // $MRTHETA_MEM_BUDGET process default inside the executor).
  if (opts.mem_budget_bytes == 0) {
    opts.mem_budget_bytes = options_.mem_budget_bytes;
  }
  const Executor executor(&cluster_, opts);
  StatusOr<ExecutionResult> result =
      executor.Execute(query, plan, seed, &pool_);
  AddFaultReportToRegistry(fault_report);
  if (executor_options.fault_report != nullptr) {
    executor_options.fault_report->Merge(fault_report);
  }
  if (!result.ok()) {
    registry_.GetCounter("engine_failed_executions")->Increment();
    return result.status();
  }
  registry_.GetCounter("engine_executions")->Increment();
  registry_.GetHistogram("engine_execution_seconds", {}, 1e-6)
      ->Record(result->measured_seconds);
  registry_.GetCounter("engine_spill_bytes")->Add(result->spill_bytes);
  registry_.GetCounter("engine_spill_files")->Add(result->spill_files);
  registry_.GetGauge("engine_peak_mem_bytes")->Set(result->peak_mem_bytes);
  return QueryResult(*std::move(result));
}

void ThetaEngine::AddFaultReportToRegistry(const FaultReport& report) const {
  registry_.GetCounter("engine_injected_faults")->Add(report.injected_faults);
  registry_.GetCounter("engine_task_retries")->Add(report.task_retries);
  registry_.GetCounter("engine_task_retries", {{"phase", "map"}})
      ->Add(report.map_task_retries);
  registry_.GetCounter("engine_task_retries", {{"phase", "reduce"}})
      ->Add(report.reduce_task_retries);
  registry_.GetCounter("engine_speculative_launches")
      ->Add(report.speculative_launches);
  registry_.GetGauge("engine_wasted_task_seconds")
      ->Add(report.wasted_task_seconds);
}

EngineMetrics ThetaEngine::metrics() const {
  EngineMetrics m;
  m.calibrations = registry_.GetCounter("engine_calibrations")->value();
  m.stats_builds = registry_.GetCounter("engine_stats_builds")->value();
  m.stats_cache_hits =
      registry_.GetCounter("engine_stats_cache_hits")->value();
  m.stats_evictions = registry_.GetCounter("engine_stats_evictions")->value();
  m.plans = registry_.GetCounter("engine_plans")->value();
  m.plan_cache_hits =
      registry_.GetCounter("engine_plan_cache_hits")->value();
  m.plan_cache_misses =
      registry_.GetCounter("engine_plan_cache_misses")->value();
  m.plan_cache_evictions =
      registry_.GetCounter("engine_plan_cache_evictions")->value();
  m.admission_rejections =
      registry_.GetCounter("engine_admission_rejections")->value();
  m.executions = registry_.GetCounter("engine_executions")->value();
  m.failed_executions =
      registry_.GetCounter("engine_failed_executions")->value();
  m.injected_faults = registry_.GetCounter("engine_injected_faults")->value();
  m.task_retries = registry_.GetCounter("engine_task_retries")->value();
  m.speculative_launches =
      registry_.GetCounter("engine_speculative_launches")->value();
  m.wasted_task_seconds =
      registry_.GetGauge("engine_wasted_task_seconds")->value();
  m.spill_bytes = registry_.GetCounter("engine_spill_bytes")->value();
  m.spill_files = registry_.GetCounter("engine_spill_files")->value();
  m.peak_mem_bytes = static_cast<int64_t>(
      registry_.GetGauge("engine_peak_mem_bytes")->value());
  return m;
}

}  // namespace mrtheta
