// Session-API tests: the ThetaEngine facade must be byte-identical to the
// hand-wired cluster/calibrate/plan/execute pipeline it replaces, amortize
// calibration and statistics across queries, and serve concurrent Submits
// with the same answers as sequential execution. Plus QueryBuilder
// lowering/error-reporting and EngineOptions validation.

#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/api/theta_engine.h"
#include "src/common/rng.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cost/calibration.h"
#include "src/exec/naive_join.h"
#include "src/obs/trace.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace mrtheta {
namespace {

// The legacy pipeline the facade replaces, exactly as quickstart.cpp and
// the benches used to wire it: default cluster, fresh calibration, fresh
// planner stats, sequential executor, seed 42.
StatusOr<ExecutionResult> RunLegacyPipeline(const Query& query) {
  SimCluster cluster{ClusterConfig{}};
  StatusOr<CalibrationReport> calib = CalibrateCostModel(cluster);
  if (!calib.ok()) return calib.status();
  Planner planner(&cluster, calib->params);
  StatusOr<QueryPlan> plan = planner.Plan(query);
  if (!plan.ok()) return plan.status();
  Executor executor(&cluster);
  return executor.Execute(query, *plan, /*seed=*/42);
}

void ExpectIdenticalRows(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns());
  int64_t mismatches = 0;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.schema().num_columns(); ++c) {
      mismatches += a.GetInt(r, c) != b.GetInt(r, c);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Facade results must be byte-identical to the legacy pipeline: same rows
// in the same order, same simulated makespan, same per-job measurements.
void CheckFacadeMatchesLegacy(const Query& query) {
  const StatusOr<ExecutionResult> legacy = RunLegacyPipeline(query);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  ThetaEngine engine;
  const StatusOr<QueryResult> facade = engine.Execute(query);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();

  EXPECT_EQ(facade->makespan(), legacy->makespan);
  EXPECT_EQ(facade->selectivity(), legacy->result_selectivity);
  ExpectIdenticalRows(*facade->execution().result_ids, *legacy->result_ids);
  ASSERT_EQ(facade->jobs().size(), legacy->jobs.size());
  for (size_t i = 0; i < legacy->jobs.size(); ++i) {
    const JobExecution& fj = facade->jobs()[i];
    const JobExecution& lj = legacy->jobs[i];
    EXPECT_EQ(fj.name, lj.name);
    EXPECT_EQ(fj.kernel, lj.kernel);
    EXPECT_EQ(fj.reduce_tasks, lj.reduce_tasks);
    EXPECT_EQ(fj.metrics.input_bytes_logical, lj.metrics.input_bytes_logical);
    EXPECT_EQ(fj.metrics.map_output_bytes_logical,
              lj.metrics.map_output_bytes_logical);
    EXPECT_EQ(fj.metrics.output_rows_logical, lj.metrics.output_rows_logical);
    EXPECT_EQ(fj.timing.release, lj.timing.release);
    EXPECT_EQ(fj.timing.finish, lj.timing.finish);
  }
  if (legacy->projected != nullptr) {
    ASSERT_TRUE(facade->has_projection());
    ASSERT_EQ(facade->rows().num_rows(), legacy->projected->num_rows());
  }
}

TEST(ThetaEngineTest, MatchesLegacyPipelineOnMobile) {
  MobileDataOptions options;
  options.physical_rows = 120;
  options.logical_bytes = 4 * kGiB;
  const auto query = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(query.ok());
  CheckFacadeMatchesLegacy(*query);
}

TEST(ThetaEngineTest, MatchesLegacyPipelineOnTpch) {
  TpchOptions options;
  options.scale_factor = 50;
  options.physical_lineitem_rows = 600;
  const TpchData db = GenerateTpch(options);
  const auto query = TpchQueryBuilder(17, db).Build();
  ASSERT_TRUE(query.ok());
  CheckFacadeMatchesLegacy(*query);
}

TEST(ThetaEngineTest, MatchesLegacyPipelineOnFlights) {
  FlightLegOptions options;
  options.physical_rows = 150;
  options.logical_rows = kGiB / 28;
  std::vector<RelationPtr> legs = {GenerateFlightLeg(0, options),
                                   GenerateFlightLeg(1, options),
                                   GenerateFlightLeg(2, options)};
  const auto query = ItineraryQueryBuilder(
      legs, {StayOver{60, 240}, StayOver{120, 360}}).Build();
  ASSERT_TRUE(query.ok());
  CheckFacadeMatchesLegacy(*query);
}

TEST(ThetaEngineTest, CalibrationAndStatsComputedOnceAcrossExecutes) {
  MobileDataOptions options;
  options.physical_rows = 100;
  options.logical_bytes = 2 * kGiB;
  const auto query = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(query.ok());

  ThetaEngine engine;
  StatusOr<QueryResult> first = engine.Execute(*query);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 2; ++i) {
    const StatusOr<QueryResult> again = engine.Execute(*query);
    ASSERT_TRUE(again.ok());
    // Determinism contract: repeated Execute is byte-identical.
    EXPECT_EQ(again->makespan(), first->makespan());
    ExpectIdenticalRows(*again->execution().result_ids,
                        *first->execution().result_ids);
  }

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.calibrations, 1);
  // Q1 has three distinct relation instances; the first Execute builds
  // their stats and plans once, and both re-executions hit the plan cache
  // — skipping planning AND the stats lookup entirely.
  EXPECT_EQ(metrics.stats_builds, 3);
  EXPECT_EQ(metrics.stats_cache_hits, 0);
  EXPECT_EQ(metrics.plans, 1);
  EXPECT_EQ(metrics.plan_cache_misses, 1);
  EXPECT_EQ(metrics.plan_cache_hits, 2);
  EXPECT_EQ(metrics.executions, 3);
}

TEST(ThetaEngineTest, DisabledPlanCachePreservesLegacyCounting) {
  MobileDataOptions options;
  options.physical_rows = 100;
  options.logical_bytes = 2 * kGiB;
  const auto query = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(query.ok());

  EngineOptions engine_options;
  engine_options.plan_cache_capacity = 0;  // serving layer opt-out
  ThetaEngine engine(engine_options);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine.Execute(*query).ok());

  // Every Execute replans from (cached) stats, exactly as before the plan
  // cache existed.
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.plans, 3);
  EXPECT_EQ(metrics.plan_cache_hits, 0);
  EXPECT_EQ(metrics.plan_cache_misses, 0);
  EXPECT_EQ(metrics.stats_builds, 3);
  EXPECT_EQ(metrics.stats_cache_hits, 6);
}

TEST(ThetaEngineTest, ConcurrentSubmitsMatchSequentialExecution) {
  MobileDataOptions mobile_options;
  mobile_options.physical_rows = 100;
  mobile_options.logical_bytes = 2 * kGiB;
  const auto mobile = MobileQueryBuilder(1, mobile_options).Build();
  ASSERT_TRUE(mobile.ok());

  FlightLegOptions leg_options;
  leg_options.physical_rows = 120;
  std::vector<RelationPtr> legs = {GenerateFlightLeg(0, leg_options),
                                   GenerateFlightLeg(1, leg_options),
                                   GenerateFlightLeg(2, leg_options)};
  const auto flights =
      ItineraryQueryBuilder(legs, {StayOver{}, StayOver{}}).Build();
  ASSERT_TRUE(flights.ok());

  // Sequential reference on its own session.
  ThetaEngine sequential;
  const auto seq_mobile = sequential.Execute(*mobile);
  const auto seq_flights = sequential.Execute(*flights);
  ASSERT_TRUE(seq_mobile.ok());
  ASSERT_TRUE(seq_flights.ok());

  // Concurrent submissions on a multi-thread engine share the pool and
  // overlap; answers must not change.
  EngineOptions options;
  options.executor.num_threads = 2;
  ThetaEngine engine(options);
  std::future<StatusOr<QueryResult>> f_mobile = engine.Submit(*mobile);
  std::future<StatusOr<QueryResult>> f_flights = engine.Submit(*flights);
  const StatusOr<QueryResult> par_mobile = f_mobile.get();
  const StatusOr<QueryResult> par_flights = f_flights.get();
  ASSERT_TRUE(par_mobile.ok()) << par_mobile.status().ToString();
  ASSERT_TRUE(par_flights.ok()) << par_flights.status().ToString();

  EXPECT_EQ(par_mobile->makespan(), seq_mobile->makespan());
  EXPECT_EQ(par_flights->makespan(), seq_flights->makespan());
  ExpectIdenticalRows(*par_mobile->execution().result_ids,
                      *seq_mobile->execution().result_ids);
  ExpectIdenticalRows(*par_flights->execution().result_ids,
                      *seq_flights->execution().result_ids);
  EXPECT_EQ(engine.metrics().calibrations, 1);
}

// per_query_threads caps one execution's share of the session pool: a cap
// below the pool's width runs the plan on a private pool of exactly the
// cap (at 1, through the width-1 DAG scheduler). The cap must never change
// an answer.
TEST(ThetaEngineTest, PerQueryThreadsCapKeepsResults) {
  MobileDataOptions mobile_options;
  mobile_options.physical_rows = 1000;
  mobile_options.logical_bytes = 2 * kGiB;
  const auto mobile = MobileQueryBuilder(1, mobile_options).Build();
  ASSERT_TRUE(mobile.ok());
  TpchOptions tpch_options;
  tpch_options.scale_factor = 50;
  tpch_options.physical_lineitem_rows = 600;
  const TpchData db = GenerateTpch(tpch_options);
  const auto q17 = TpchQueryBuilder(17, db).Build();
  ASSERT_TRUE(q17.ok());
  const std::vector<const Query*> queries = {&*mobile, &*q17};

  std::vector<std::vector<QueryResult>> results;  // [cap][query]
  for (int cap : {0, 1, 2}) {
    EngineOptions options;
    options.executor.num_threads = 4;
    options.per_query_threads = cap;
    ThetaEngine engine(options);
    results.emplace_back();
    for (const Query* query : queries) {
      StatusOr<QueryResult> result = engine.Execute(*query);
      ASSERT_TRUE(result.ok()) << "cap=" << cap << ": "
                               << result.status().ToString();
      results.back().push_back(*std::move(result));
    }
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    const QueryResult& ref = results[0][q];
    ASSERT_GT(ref.num_rows(), 0) << "query " << q;
    for (int cap : {1, 2}) {
      SCOPED_TRACE("query " + std::to_string(q) + " cap " +
                   std::to_string(cap));
      const QueryResult& capped = results[cap][q];
      EXPECT_EQ(capped.makespan(), ref.makespan());
      ExpectIdenticalRows(*capped.execution().result_ids,
                          *ref.execution().result_ids);
      ExpectIdenticalRows(capped.rows(), ref.rows());
    }
  }
}

TEST(ThetaEngineTest, StatsCacheInvalidatedWhenRelationGrows) {
  auto make = [](const char* name, uint64_t seed, int rows) {
    auto rel = std::make_shared<Relation>(
        name, Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
    Rng rng(seed);
    for (int i = 0; i < rows; ++i) {
      rel->AppendIntRow({rng.UniformInt(0, 49), rng.UniformInt(0, 9)});
    }
    return rel;
  };
  // Mutable handles: queries hold shared_ptr<const Relation>, but a
  // session's caller may keep the writable owner and grow the table
  // between queries.
  std::shared_ptr<Relation> r1 = make("r1", 21, 60);
  std::shared_ptr<Relation> r2 = make("r2", 22, 60);
  QueryBuilder builder;
  builder.From("r", r1).From("s", r2).Where(Col("r.a") <= Col("s.a"));
  const auto query = builder.Build();
  ASSERT_TRUE(query.ok());

  ThetaEngine engine;
  ASSERT_TRUE(engine.Execute(*query).ok());
  EXPECT_EQ(engine.metrics().stats_builds, 2);

  // Growing a relation must invalidate its cached stats (and only its).
  Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    r1->AppendIntRow({rng.UniformInt(0, 49), rng.UniformInt(0, 9)});
  }
  const auto grown = engine.Execute(*query);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(engine.metrics().stats_builds, 3);
  EXPECT_EQ(engine.metrics().stats_cache_hits, 1);

  // The warm session must match a fresh one over the grown data.
  ThetaEngine fresh;
  const auto cold = fresh.Execute(*query);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(grown->makespan(), cold->makespan());
  ExpectIdenticalRows(*grown->execution().result_ids,
                      *cold->execution().result_ids);
}

TEST(ThetaEngineTest, StatsCacheDetectsInPlaceMutationAtSameCardinality) {
  // Regression for the stale-stats cache bug: the old cache key was
  // (Relation*, num_rows, logical_rows), so a relation mutated IN PLACE —
  // same row count, different content — kept serving its old statistics.
  // The generation-counter key must rebuild instead.
  auto r1 = std::make_shared<Relation>(
      "r1", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  auto r2 = std::make_shared<Relation>(
      "r2", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  Rng rng(31);
  for (int i = 0; i < 80; ++i) {
    r1->AppendIntRow({rng.UniformInt(0, 9), rng.UniformInt(0, 9)});
    r2->AppendIntRow({rng.UniformInt(0, 9), rng.UniformInt(0, 9)});
  }
  QueryBuilder builder;
  builder.From("r", r1).From("s", r2).Where(Col("r.a") <= Col("s.a"));
  const auto query = builder.Build();
  ASSERT_TRUE(query.ok());

  ThetaEngine engine;
  const auto before = engine.Explain(*query);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(engine.metrics().stats_builds, 2);

  // Shift every r1.a far outside its old [0, 9] domain — cardinality
  // unchanged, content (and any honest ColumnStats) completely different.
  const int64_t rows_before = r1->num_rows();
  for (int64_t row = 0; row < r1->num_rows(); ++row) {
    ASSERT_TRUE(
        r1->SetCell(row, 0, Value(r1->GetInt(row, 0) + 1000)).ok());
  }
  ASSERT_EQ(r1->num_rows(), rows_before);
  ASSERT_EQ(r1->logical_rows(), rows_before);

  const auto after = engine.Explain(*query);
  ASSERT_TRUE(after.ok());
  // r1's stats were rebuilt (not served stale); r2's entry still hits.
  EXPECT_EQ(engine.metrics().stats_builds, 3);
  EXPECT_EQ(engine.metrics().stats_cache_hits, 1);
  // The fresh stats must actually see the shifted domain.
  EXPECT_GE(after->stats[0].column(0).min, 1000.0);
  EXPECT_LT(before->stats[0].column(0).max, 1000.0);

  // And the warm session plans exactly like a cold one over the new data.
  ThetaEngine fresh;
  const auto cold = fresh.Explain(*query);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(after->plan.ToString(), cold->plan.ToString());
}

TEST(ThetaEngineTest, StatsCacheEvictsExpiredRelations) {
  auto keep = std::make_shared<Relation>(
      "keep", Schema({{"a", ValueType::kInt64}}));
  Rng rng(33);
  for (int i = 0; i < 50; ++i) keep->AppendIntRow({rng.UniformInt(0, 9)});

  ThetaEngine engine;
  {
    auto dying = std::make_shared<Relation>(
        "dying", Schema({{"a", ValueType::kInt64}}));
    for (int i = 0; i < 50; ++i) dying->AppendIntRow({rng.UniformInt(0, 9)});
    QueryBuilder b;
    b.From("k", keep).From("d", dying).Where(Col("k.a") <= Col("d.a"));
    const auto q = b.Build();
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.Explain(*q).ok());
    EXPECT_EQ(engine.metrics().stats_builds, 2);
  }  // `dying` destroyed: the engine must not keep it alive (no pin) and
     // must drop its entry so a recycled address can never alias it.

  QueryBuilder b2;
  b2.From("k1", keep).From("k2", keep).Where(Col("k1.a") <= Col("k2.a"));
  const auto q2 = b2.Build();
  ASSERT_TRUE(q2.ok());
  ASSERT_TRUE(engine.Explain(*q2).ok());
  EXPECT_EQ(engine.metrics().stats_evictions, 1);
  // `keep` was served from cache (self-join: both aliases share the entry).
  EXPECT_EQ(engine.metrics().stats_builds, 2);
}

// ---- Plan cache & serving ----

TEST(PlanCacheTest, InvalidatedByInPlaceMutationAndGrowth) {
  auto r1 = std::make_shared<Relation>(
      "r1", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  auto r2 = std::make_shared<Relation>(
      "r2", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  Rng rng(51);
  for (int i = 0; i < 80; ++i) {
    r1->AppendIntRow({rng.UniformInt(0, 9), rng.UniformInt(0, 9)});
    r2->AppendIntRow({rng.UniformInt(0, 9), rng.UniformInt(0, 9)});
  }
  QueryBuilder builder;
  builder.From("r", r1).From("s", r2).Where(Col("r.a") <= Col("s.a"));
  const auto query = builder.Build();
  ASSERT_TRUE(query.ok());

  ThetaEngine engine;
  ASSERT_TRUE(engine.Execute(*query).ok());
  ASSERT_TRUE(engine.Execute(*query).ok());
  EXPECT_EQ(engine.metrics().plan_cache_hits, 1);

  // In-place edit at unchanged cardinality: the generation in the cache
  // key moves, so the stale plan must NOT be served.
  for (int64_t row = 0; row < r1->num_rows(); ++row) {
    ASSERT_TRUE(r1->SetCell(row, 0, Value(r1->GetInt(row, 0) + 1000)).ok());
  }
  const auto after_edit = engine.Execute(*query);
  ASSERT_TRUE(after_edit.ok());
  EXPECT_EQ(engine.metrics().plan_cache_misses, 2);
  EXPECT_EQ(engine.metrics().plans, 2);
  // The replan really recollected stats for the mutated input.
  EXPECT_EQ(engine.metrics().stats_builds, 3);

  // Growth invalidates too, and the warm engine matches a cold one.
  Rng grow(52);
  for (int i = 0; i < 40; ++i) {
    r2->AppendIntRow({grow.UniformInt(0, 9), grow.UniformInt(0, 9)});
  }
  const auto grown = engine.Execute(*query);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(engine.metrics().plan_cache_misses, 3);
  ThetaEngine fresh;
  const auto cold = fresh.Execute(*query);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(grown->makespan(), cold->makespan());
  ExpectIdenticalRows(*grown->execution().result_ids,
                      *cold->execution().result_ids);
}

TEST(PlanCacheTest, LruEvictsAtCapacity) {
  MobileDataOptions options;
  options.physical_rows = 80;
  const auto q1 = MobileQueryBuilder(1, options).Build();
  options.physical_rows = 90;  // distinct inputs -> distinct cache key
  const auto q1_other = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q1_other.ok());

  EngineOptions engine_options;
  engine_options.plan_cache_capacity = 1;
  ThetaEngine engine(engine_options);
  ASSERT_TRUE(engine.Execute(*q1).ok());        // miss, cached
  ASSERT_TRUE(engine.Execute(*q1_other).ok());  // miss, evicts q1
  ASSERT_TRUE(engine.Execute(*q1).ok());        // miss again, evicts other
  ASSERT_TRUE(engine.Execute(*q1).ok());        // hit

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.plan_cache_misses, 3);
  EXPECT_EQ(metrics.plan_cache_evictions, 2);
  EXPECT_EQ(metrics.plan_cache_hits, 1);
}

TEST(PlanCacheTest, ConcurrentSubmitStormPlansOneShapeOnce) {
  MobileDataOptions options;
  options.physical_rows = 80;
  options.logical_bytes = 2 * kGiB;
  const auto query = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(query.ok());

  EngineOptions engine_options;
  engine_options.executor.num_threads = 2;
  ThetaEngine engine(engine_options);
  constexpr int kStorm = 8;
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  futures.reserve(kStorm);
  for (int i = 0; i < kStorm; ++i) futures.push_back(engine.Submit(*query));

  std::vector<StatusOr<QueryResult>> results;
  for (auto& future : futures) results.push_back(future.get());
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalRows(*result->execution().result_ids,
                        *results.front()->execution().result_ids);
  }

  // The whole miss path runs under one lock hold, so a storm of one new
  // shape plans exactly once no matter how the submissions interleave.
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.plan_cache_misses, 1);
  EXPECT_EQ(metrics.plan_cache_hits, kStorm - 1);
  EXPECT_EQ(metrics.plans, 1);
  EXPECT_EQ(metrics.executions, kStorm);
}

TEST(PreparedQueryTest, PinSkipsPlanningAndSurvivesMutation) {
  auto r1 = std::make_shared<Relation>(
      "r1", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  auto r2 = std::make_shared<Relation>(
      "r2", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  Rng rng(61);
  for (int i = 0; i < 80; ++i) {
    r1->AppendIntRow({rng.UniformInt(0, 9), rng.UniformInt(0, 9)});
    r2->AppendIntRow({rng.UniformInt(0, 9), rng.UniformInt(0, 9)});
  }
  QueryBuilder builder;
  builder.From("r", r1).From("s", r2).Where(Col("r.a") <= Col("s.a"));

  ThetaEngine engine;
  StatusOr<PreparedQuery> prepared = engine.Prepare(builder);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_FALSE(prepared->plan().jobs.empty());
  EXPECT_EQ(engine.metrics().plans, 1);

  const auto first = prepared->Execute();
  const auto second = prepared->Execute();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectIdenticalRows(*first->execution().result_ids,
                      *second->execution().result_ids);
  // Both executions reused the pin; nothing replanned.
  EXPECT_EQ(engine.metrics().plans, 1);
  EXPECT_EQ(engine.metrics().plan_cache_hits, 2);
  EXPECT_TRUE(first->plan_cache_hit());

  // Submit goes through the same pin (and the admission machinery).
  auto submitted = prepared->Submit();
  const auto async_result = submitted.get();
  ASSERT_TRUE(async_result.ok()) << async_result.status().ToString();
  ExpectIdenticalRows(*async_result->execution().result_ids,
                      *first->execution().result_ids);
  EXPECT_EQ(engine.metrics().plans, 1);

  // ExplainAnalyze reports the reuse.
  const auto profile = prepared->ExplainAnalyze();
  ASSERT_TRUE(profile.ok());
  EXPECT_TRUE(profile->plan_cache_hit);

  // Mutating an input makes the pin stale: the next Execute transparently
  // replans (never serves a wrong plan) and matches a cold engine.
  Rng grow(62);
  for (int i = 0; i < 40; ++i) {
    r1->AppendIntRow({grow.UniformInt(0, 9), grow.UniformInt(0, 9)});
  }
  const auto after = prepared->Execute();
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->plan_cache_hit());
  EXPECT_EQ(engine.metrics().plans, 2);
  ThetaEngine fresh;
  const auto query = builder.Build();
  ASSERT_TRUE(query.ok());
  const auto cold = fresh.Execute(*query);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(after->makespan(), cold->makespan());
  ExpectIdenticalRows(*after->execution().result_ids,
                      *cold->execution().result_ids);

  // A default-constructed handle fails loudly, not with a crash.
  PreparedQuery empty;
  EXPECT_EQ(empty.Execute().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(empty.Submit().get().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(empty.ExplainAnalyze().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AdmissionControlTest, RejectsBeyondQueueDepth) {
  EngineOptions options;
  options.executor.num_threads = 2;
  options.max_inflight_queries = 1;
  options.max_queue_depth = 0;  // no queue: reject the moment we're full
  // Every task's first attempt stalls, so the first submission is still
  // occupying the one slot when the second arrives.
  options.executor.fault_plan = FaultPlan{};
  options.executor.fault_plan.seed = 71;
  options.executor.fault_plan.straggler_rate = 1.0;
  options.executor.fault_plan.straggler_delay_ms = 300.0;
  options.executor.speculation.enabled = false;
  ThetaEngine engine(options);
  MobileDataOptions data;
  data.physical_rows = 80;
  data.logical_bytes = 2 * kGiB;
  const auto query = MobileQueryBuilder(1, data).Build();
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(engine.Explain(*query).ok());  // warm plan cache

  // Admission is decided synchronously in the submitter's thread, so this
  // sequence is deterministic: first admitted, second rejected.
  auto admitted = engine.Submit(*query);
  auto rejected = engine.Submit(*query);
  const auto rejected_result = rejected.get();
  ASSERT_FALSE(rejected_result.ok());
  EXPECT_EQ(rejected_result.status().code(),
            StatusCode::kResourceExhausted)
      << rejected_result.status().ToString();
  EXPECT_EQ(engine.metrics().admission_rejections, 1);

  const auto admitted_result = admitted.get();
  ASSERT_TRUE(admitted_result.ok()) << admitted_result.status().ToString();
  EXPECT_EQ(engine.metrics().admission_rejections, 1);
}

TEST(AdmissionControlTest, QueuedSubmissionsRunFifoAndRecordWait) {
  EngineOptions options;
  options.executor.num_threads = 2;
  options.max_inflight_queries = 1;
  options.max_queue_depth = 8;
  ThetaEngine engine(options);
  MobileDataOptions data;
  // Large enough that the head query still holds the slot when the third
  // Submit returns: at 80 rows it could finish first, and a free slot
  // admits without queuing.
  data.physical_rows = 1000;
  data.logical_bytes = 2 * kGiB;
  const auto query = MobileQueryBuilder(1, data).Build();
  ASSERT_TRUE(query.ok());

  const auto reference = engine.Execute(*query);
  ASSERT_TRUE(reference.ok());

  // One slot: the second and third submissions must queue, wait their
  // turn, and still produce byte-identical answers.
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(engine.Submit(*query));
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalRows(*result->execution().result_ids,
                        *reference->execution().result_ids);
  }

  EXPECT_EQ(engine.metrics().admission_rejections, 0);
  // Every queued admission records its wait in the serving histogram; at
  // least the two submissions behind the head must have queued.
  MetricHistogram* wait = engine.metrics_registry().GetHistogram(
      "engine_queue_wait_seconds", {}, 1e-6);
  EXPECT_GE(wait->count(), 2);
}

TEST(ThetaEngineTest, DiscardedSubmitFutureNeitherBlocksNorLeaks) {
  MobileDataOptions options;
  options.physical_rows = 60;
  const auto query = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(query.ok());
  {
    EngineOptions engine_options;
    engine_options.executor.num_threads = 2;
    ThetaEngine engine(engine_options);
    engine.Submit(*query);  // future discarded: must not block here
    engine.Submit(*query);
  }  // the destructor drains both in-flight submissions
  SUCCEED();
}

// A coordination thread whose query has ended takes the next Submit, so
// back-to-back Submits run on one thread (one trace track) instead of
// starting a thread each.
TEST(ThetaEngineTest, BackToBackSubmitsReuseOneCoordinationThread) {
  MobileDataOptions data;
  data.physical_rows = 60;
  const auto query = MobileQueryBuilder(1, data).Build();
  ASSERT_TRUE(query.ok());
  ThetaEngine engine;
  Tracer tracer;
  {
    TraceSession session(&tracer);
    for (int i = 0; i < 4; ++i) {
      const auto result = engine.Submit(*query).get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  int submits = 0;
  std::set<int> tracks;
  for (const TraceEvent& event : tracer.events()) {
    if (std::string(event.name) != "submit") continue;
    ++submits;
    tracks.insert(event.tid);
  }
  EXPECT_EQ(submits, 4);
  EXPECT_EQ(tracks.size(), 1u);
}

TEST(ThetaEngineTest, ExplainReportsPlanAndCachedStats) {
  MobileDataOptions options;
  options.physical_rows = 100;
  options.logical_bytes = 2 * kGiB;
  const auto query = MobileQueryBuilder(1, options).Build();
  ASSERT_TRUE(query.ok());

  ThetaEngine engine;
  const auto report = engine.Explain(*query);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->plan.jobs.empty());
  ASSERT_EQ(report->stats.size(), 3u);
  EXPECT_GT(report->stats[0].logical_rows, 0);
  EXPECT_FALSE(report->ToString().empty());
  // Explain plans but never executes.
  EXPECT_EQ(engine.metrics().plans, 1);
  EXPECT_EQ(engine.metrics().executions, 0);
}

TEST(ThetaEngineTest, InvalidOptionsSurfaceOnEveryEntryPoint) {
  EngineOptions options;
  options.executor.num_threads = 0;
  ThetaEngine engine(options);
  MobileDataOptions data;
  data.physical_rows = 50;
  const auto query = MobileQueryBuilder(1, data).Build();
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(engine.Execute(*query).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Calibration().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(EngineOptions{}.Validate().ok());
}

// ---- Fault accounting on non-OK executions ----

// Regression: the session metrics used to count faults only on the
// success path (the executor merged per-job FaultReports after the last
// job committed), so a failed or cancelled execution reported
// injected_faults == 0 even though it burned retries for seconds. The
// fix routes every exit path through ExecutorOptions::fault_report; the
// engine folds that into its registry unconditionally.
TEST(EngineMetricsTest, FaultCountersSurviveFailedExecution) {
  EngineOptions options;
  options.executor.num_threads = 2;
  options.executor.fault_plan = FaultPlan{};  // env-proof baseline
  options.executor.fault_plan.seed = 17;
  options.executor.fault_plan.map_failure_rate = 1.0;
  options.executor.retry.max_attempts = 2;
  options.executor.retry.backoff_base_ms = 0.05;
  options.executor.retry.backoff_max_ms = 0.5;
  ThetaEngine engine(options);
  MobileDataOptions data;
  data.physical_rows = 100;
  data.logical_bytes = 2 * kGiB;
  const auto query = MobileQueryBuilder(1, data).Build();
  ASSERT_TRUE(query.ok());

  const auto result = engine.Execute(*query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted)
      << result.status().ToString();

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.failed_executions, 1);
  EXPECT_EQ(metrics.executions, 0);
  EXPECT_GT(metrics.injected_faults, 0);
  EXPECT_GT(metrics.task_retries, 0);
  EXPECT_GT(metrics.wasted_task_seconds, 0.0);

  // Per-phase retry attribution (registry labels): every retry of this
  // all-map-failures plan is a map retry.
  MetricsRegistry& registry = engine.metrics_registry();
  const int64_t map_retries =
      registry.GetCounter("engine_task_retries", {{"phase", "map"}})->value();
  const int64_t reduce_retries =
      registry.GetCounter("engine_task_retries", {{"phase", "reduce"}})
          ->value();
  EXPECT_EQ(map_retries + reduce_retries, metrics.task_retries);
  EXPECT_EQ(reduce_retries, 0);
  EXPECT_GT(map_retries, 0);
}

TEST(EngineMetricsTest, FaultCountersSurviveCancelledExecution) {
  EngineOptions options;
  options.executor.num_threads = 2;
  options.executor.fault_plan = FaultPlan{};  // env-proof baseline
  // Every first attempt stalls; nothing else intervenes, so the Submit
  // below is still mid-flight when CancelInflight fires.
  options.executor.fault_plan.seed = 31;
  options.executor.fault_plan.straggler_rate = 1.0;
  options.executor.fault_plan.straggler_delay_ms = 500.0;
  options.executor.speculation.enabled = false;
  ThetaEngine engine(options);
  MobileDataOptions data;
  data.physical_rows = 100;
  data.logical_bytes = 2 * kGiB;
  const auto query = MobileQueryBuilder(1, data).Build();
  ASSERT_TRUE(query.ok());
  // Warm planning caches so the submission spends its time executing.
  ASSERT_TRUE(engine.Explain(*query).ok());

  auto future = engine.Submit(*query);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.CancelInflight();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();

  // The cancelled attempts were injected stragglers whose burned time
  // must still be accounted.
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.failed_executions, 1);
  EXPECT_GT(metrics.injected_faults, 0);
  EXPECT_GT(metrics.wasted_task_seconds, 0.0);
}

// ---- QueryBuilder ----

RelationPtr MakeRel(const char* name, uint64_t seed) {
  auto rel = std::make_shared<Relation>(
      name, Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  Rng rng(seed);
  for (int i = 0; i < 50; ++i) {
    rel->AppendIntRow({rng.UniformInt(0, 99), rng.UniformInt(0, 9)});
  }
  return rel;
}

TEST(QueryBuilderTest, LowersToTheEquivalentLegacyQuery) {
  RelationPtr r1 = MakeRel("r1", 1);
  RelationPtr r2 = MakeRel("r2", 2);

  Query legacy;
  const int a = legacy.AddRelation(r1);
  const int b = legacy.AddRelation(r2);
  ASSERT_TRUE(legacy.AddCondition(a, "a", ThetaOp::kLe, b, "a", 5.0).ok());
  ASSERT_TRUE(legacy.AddCondition(a, "b", ThetaOp::kNe, b, "b").ok());
  ASSERT_TRUE(legacy.AddOutput(b, "b").ok());

  QueryBuilder builder;
  builder.From("r", r1)
      .From("s", r2)
      .Where(Col("r.a") + 5 <= Col("s.a"))
      .Where(Col("r.b") != Col("s.b"))
      .Select("s.b");
  const StatusOr<Query> built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  ASSERT_EQ(built->num_relations(), legacy.num_relations());
  ASSERT_EQ(built->num_conditions(), legacy.num_conditions());
  for (int i = 0; i < legacy.num_conditions(); ++i) {
    const JoinCondition& lc = legacy.conditions()[i];
    const JoinCondition& bc = built->conditions()[i];
    EXPECT_EQ(bc.lhs, lc.lhs);
    EXPECT_EQ(bc.rhs, lc.rhs);
    EXPECT_EQ(bc.op, lc.op);
    EXPECT_EQ(bc.offset, lc.offset);
    EXPECT_EQ(bc.id, lc.id);
  }
  ASSERT_EQ(built->outputs().size(), legacy.outputs().size());
  EXPECT_EQ(built->outputs()[0].base, legacy.outputs()[0].base);
  EXPECT_EQ(built->outputs()[0].column, legacy.outputs()[0].column);
  EXPECT_EQ(built->ToString(), legacy.ToString());
}

TEST(QueryBuilderTest, OffsetsOnBothSidesFoldToTheLeft) {
  QueryBuilder builder;
  builder.From("r", MakeRel("r", 3))
      .From("s", MakeRel("s", 4))
      // (r.a + 7) < (s.a + 4)  ⇔  (r.a + 3) < s.a
      .Where(Col("r.a") + 7 < Col("s.a") + 4);
  const auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->conditions()[0].offset, 3.0);
  EXPECT_EQ(built->conditions()[0].op, ThetaOp::kLt);
}

TEST(QueryBuilderTest, ReportsUnknownAlias) {
  QueryBuilder builder;
  builder.From("r", MakeRel("r", 5))
      .From("s", MakeRel("s", 6))
      .Where(Col("r.a") <= Col("t.a"));
  const auto built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
  EXPECT_NE(built.status().message().find("unknown alias 't'"),
            std::string::npos);
  EXPECT_NE(built.status().message().find("r, s"), std::string::npos);
}

TEST(QueryBuilderTest, ReportsUnknownColumn) {
  QueryBuilder builder;
  builder.From("r", MakeRel("r", 7))
      .From("s", MakeRel("s", 8))
      .Where(Col("r.a") <= Col("s.zz"));
  const auto built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
  EXPECT_NE(built.status().message().find("unknown column 'zz'"),
            std::string::npos);

  QueryBuilder select_bad;
  select_bad.From("r", MakeRel("r", 9))
      .From("s", MakeRel("s", 10))
      .Where(Col("r.a") <= Col("s.a"))
      .Select("r.nope");
  EXPECT_EQ(select_bad.Build().status().code(), StatusCode::kNotFound);
}

TEST(QueryBuilderTest, ReportsDuplicateAlias) {
  QueryBuilder builder;
  builder.From("r", MakeRel("r", 11))
      .From("r", MakeRel("r2", 12))
      .Where(Col("r.a") <= Col("r.a"));
  const auto built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("duplicate alias 'r'"),
            std::string::npos);
}

TEST(QueryBuilderTest, ReportsMalformedReferenceWithItsSpelling) {
  QueryBuilder builder;
  builder.From("r", MakeRel("r", 13))
      .From("s", MakeRel("s", 14))
      .Where(Col("ra") <= Col("s.a"));
  const auto built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("'ra'"), std::string::npos);
}

TEST(QueryBuilderTest, AggregatesEveryErrorIntoOneStatus) {
  // Three independent mistakes: Build must report all of them at once,
  // numbered in clause order, carrying the first error's code — one
  // round-trip to fix a broken query spec, not three.
  QueryBuilder builder;
  builder.From("r", MakeRel("r", 19))
      .From("s", MakeRel("s", 20))
      .Where(Col("r.a") <= Col("t.a"))   // [1] unknown alias
      .Where(Col("r.zz") <= Col("s.a"))  // [2] unknown column
      .Select("ra");                     // [3] malformed reference
  const auto built = builder.Build();
  ASSERT_FALSE(built.ok());
  const std::string& message = built.status().message();
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);  // first error's
  EXPECT_NE(message.find("3 errors"), std::string::npos) << message;
  EXPECT_NE(message.find("[1]"), std::string::npos) << message;
  EXPECT_NE(message.find("unknown alias 't'"), std::string::npos) << message;
  EXPECT_NE(message.find("[2]"), std::string::npos) << message;
  EXPECT_NE(message.find("unknown column 'zz'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("[3]"), std::string::npos) << message;
  EXPECT_NE(message.find("'ra'"), std::string::npos) << message;

  // A single mistake keeps the old single-error shape.
  QueryBuilder one;
  one.From("r", MakeRel("r", 21))
      .From("s", MakeRel("s", 22))
      .Where(Col("r.a") <= Col("t.a"));
  const auto single = one.Build();
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().message().find("errors"), std::string::npos);
}

// ---- Column pruning: plan-level differential ----

// Executes the engine-planned (annotated) plan and its full-width copy at
// 1 and 4 threads: projected rows byte-identical everywhere, simulated
// shuffle/makespan strictly better with pruning, physical row counts and
// job structure untouched.
TEST(ColumnPruningPlanTest, PrunedPlanMatchesFullWidthAcrossThreads) {
  TpchOptions options;
  options.scale_factor = 50;
  options.physical_lineitem_rows = 800;
  const TpchData db = GenerateTpch(options);
  const auto query = TpchQueryBuilder(17, db).Build();
  ASSERT_TRUE(query.ok());

  EngineOptions engine_options;
  engine_options.executor.num_threads = 4;
  ThetaEngine engine(engine_options);
  const auto plan = engine.PlanQuery(*query);
  ASSERT_TRUE(plan.ok());
  // The default planner annotates every job with its required columns.
  for (const PlanJob& job : plan->jobs) {
    EXPECT_FALSE(job.output_columns.empty()) << job.name;
  }
  QueryPlan full_width = *plan;
  for (PlanJob& job : full_width.jobs) job.output_columns.clear();

  for (int threads : {1, 4}) {
    ExecutorOptions exec = engine.options().executor;
    exec.num_threads = threads;
    const auto pruned = engine.ExecutePlan(*query, *plan, exec, 42);
    const auto full = engine.ExecutePlan(*query, full_width, exec, 42);
    ASSERT_TRUE(pruned.ok());
    ASSERT_TRUE(full.ok());

    // Byte-identical projected rows (content AND order).
    ASSERT_TRUE(pruned->has_projection());
    ExpectIdenticalRows(pruned->rows(), full->rows());
    ExpectIdenticalRows(*pruned->execution().result_ids,
                        *full->execution().result_ids);

    // Identical structure and physical work, smaller simulated volumes.
    ASSERT_EQ(pruned->jobs().size(), full->jobs().size());
    for (size_t i = 0; i < full->jobs().size(); ++i) {
      const JobMeasurement& pm = pruned->jobs()[i].metrics;
      const JobMeasurement& fm = full->jobs()[i].metrics;
      // Base scans are identical; jobs reading a pruned INTERMEDIATE
      // legitimately read fewer logical bytes.
      EXPECT_LE(pm.input_bytes_logical, fm.input_bytes_logical);
      EXPECT_EQ(pm.map_output_records_physical,
                fm.map_output_records_physical);
      EXPECT_EQ(pm.output_rows_physical, fm.output_rows_physical);
      EXPECT_LE(pm.map_output_bytes_logical, fm.map_output_bytes_logical);
    }
    EXPECT_LT(pruned->sim_shuffle_bytes(), full->sim_shuffle_bytes());
    EXPECT_LE(pruned->makespan(), full->makespan());
    // The acceptance target: Q17 sheds >= 25% of its shuffle volume.
    EXPECT_LT(static_cast<double>(pruned->sim_shuffle_bytes()),
              0.75 * static_cast<double>(full->sim_shuffle_bytes()));
  }
}

// ---- Selection pushdown through the facade ----

TEST(FilterQueryTest, FilteredQueryMatchesOracleAndShrinksShuffle) {
  TpchOptions options;
  options.scale_factor = 20;
  options.physical_lineitem_rows = 600;
  const TpchData db = GenerateTpch(options);
  const auto plain = TpchQueryBuilder(17, db).Build();
  const auto filtered = BuildTpchQuery17Filtered(db, /*quantity_cap=*/20);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered->filters().size(), 2u);

  ThetaEngine engine;
  const auto plain_result = engine.Execute(*plain);
  const auto filtered_result = engine.Execute(*filtered);
  ASSERT_TRUE(plain_result.ok());
  ASSERT_TRUE(filtered_result.ok()) << filtered_result.status().ToString();

  // The filter bites and the shuffle shrinks with it.
  EXPECT_LT(filtered_result->num_rows(), plain_result->num_rows());
  EXPECT_LT(filtered_result->sim_shuffle_bytes(),
            plain_result->sim_shuffle_bytes());

  // Exact answer: the rid multiset must equal the filtered oracle's.
  std::vector<int> all_bases(filtered->num_relations());
  for (int i = 0; i < filtered->num_relations(); ++i) all_bases[i] = i;
  const auto oracle =
      NaiveMultiwayJoin(filtered->relations(), all_bases,
                        filtered->conditions(), filtered->filters());
  ASSERT_TRUE(oracle.ok());
  const Relation sorted_ids =
      SortedByRows(*filtered_result->execution().result_ids);
  ExpectIdenticalRows(sorted_ids, *oracle);
}

TEST(FilterQueryTest, FilterValidationRejectsBadShapes) {
  RelationPtr r1 = MakeRel("r1", 41);
  RelationPtr r2 = MakeRel("r2", 42);

  Query q;
  const int a = q.AddRelation(r1);
  q.AddRelation(r2);
  // Unknown column / out-of-range relation.
  EXPECT_FALSE(q.AddFilter(a, "zz", ThetaOp::kLe, Value(int64_t{3})).ok());
  EXPECT_FALSE(q.AddFilter(7, "a", ThetaOp::kLe, Value(int64_t{3})).ok());
  // String literal against a numeric column.
  EXPECT_FALSE(
      q.AddFilter(a, "a", ThetaOp::kEq, Value(std::string("x"))).ok());
  // Valid numeric filter.
  EXPECT_TRUE(q.AddFilter(a, "a", ThetaOp::kLe, Value(int64_t{3})).ok());
}

TEST(QueryBuilderTest, FilterLowersAndReportsAliasMismatch) {
  RelationPtr r1 = MakeRel("r1", 43);
  RelationPtr r2 = MakeRel("r2", 44);

  QueryBuilder good;
  good.From("r", r1)
      .From("s", r2)
      .Where(Col("r.a") <= Col("s.a"))
      .Filter("r", Col("r.b") + 1 <= 5)
      .Filter("s", Col("s.b") != 3);
  const auto built = good.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->filters().size(), 2u);
  EXPECT_EQ(built->filters()[0].col, (ColumnRef{0, 1}));
  EXPECT_EQ(built->filters()[0].op, ThetaOp::kLe);
  EXPECT_EQ(built->filters()[0].offset, 1.0);
  EXPECT_EQ(built->filters()[1].op, ThetaOp::kNe);

  // The filtered alias must own the predicate column.
  QueryBuilder mismatch;
  mismatch.From("r", r1)
      .From("s", r2)
      .Where(Col("r.a") <= Col("s.a"))
      .Filter("r", Col("s.b") <= 5);
  const auto bad = mismatch.Build();
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("'s.b'"), std::string::npos);

  // Unknown alias in the predicate surfaces with its spelling.
  QueryBuilder unknown;
  unknown.From("r", r1)
      .From("s", r2)
      .Where(Col("r.a") <= Col("s.a"))
      .Filter("t", Col("t.b") <= 5);
  EXPECT_EQ(unknown.Build().status().code(), StatusCode::kNotFound);
}

TEST(QueryBuilderTest, BuildRunsQueryValidate) {
  // A builder query with a disconnected join graph fails at Build, not at
  // plan time.
  QueryBuilder builder;
  builder.From("a", MakeRel("a", 15))
      .From("b", MakeRel("b", 16))
      .From("c", MakeRel("c", 17))
      .From("d", MakeRel("d", 18))
      .Where(Col("a.a") <= Col("b.a"))
      .Where(Col("c.a") <= Col("d.a"));
  EXPECT_EQ(builder.Build().status().code(), StatusCode::kFailedPrecondition);

  // Infinite offsets on both sides fold to a NaN band, which Build refuses
  // instead of handing it to the planner's histograms.
  const double inf = std::numeric_limits<double>::infinity();
  QueryBuilder nan_band;
  nan_band.From("a", MakeRel("a", 15))
      .From("b", MakeRel("b", 16))
      .Where(Col("a.a") + inf <= Col("b.a") + inf);
  const auto built = nan_band.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("NaN"), std::string::npos);
}

}  // namespace
}  // namespace mrtheta
