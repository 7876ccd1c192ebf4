// Observability-subsystem tests (docs/OBSERVABILITY.md): the
// MetricsRegistry primitives, the span tracer and its Chrome trace-event
// exporter, the ExplainAnalyze profile, and — the load-bearing contract —
// the tracing differential: a live TraceSession must not perturb one bit
// of a query's rows or simulated metrics, at any thread count.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/theta_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace mrtheta {
namespace {

// ---- MetricsRegistry primitives ----

TEST(MetricsRegistryTest, CountersGaugesAndStableHandles) {
  MetricsRegistry registry;
  MetricCounter* c = registry.GetCounter("requests");
  c->Increment();
  c->Add(4);
  EXPECT_EQ(c->value(), 5);
  // Same name -> same handle; the count continues.
  EXPECT_EQ(registry.GetCounter("requests"), c);
  registry.GetCounter("requests")->Increment();
  EXPECT_EQ(c->value(), 6);

  MetricGauge* g = registry.GetGauge("occupancy");
  g->Set(2.5);
  g->Add(0.5);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
}

TEST(MetricsRegistryTest, LabelsSeparateSeriesAndSortInSnapshots) {
  MetricsRegistry registry;
  registry.GetCounter("retries", {{"phase", "map"}})->Add(3);
  registry.GetCounter("retries", {{"phase", "reduce"}})->Add(4);
  // Label order must not matter for identity.
  EXPECT_EQ(registry.GetCounter("retries", {{"phase", "map"}})->value(), 3);

  const std::string text = registry.SnapshotText();
  EXPECT_NE(text.find("retries{phase=\"map\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("retries{phase=\"reduce\"} 4"), std::string::npos);
  // Sorted output: map before reduce.
  EXPECT_LT(text.find("phase=\"map\""), text.find("phase=\"reduce\""));
}

TEST(MetricsRegistryTest, HistogramQuantilesBracketTheData) {
  MetricsRegistry registry;
  MetricHistogram* h = registry.GetHistogram("latency", {}, 1e-3);
  for (int i = 1; i <= 100; ++i) h->Record(i * 0.01);  // 0.01 .. 1.00
  EXPECT_EQ(h->count(), 100);
  EXPECT_NEAR(h->sum(), 50.5, 1e-9);
  // Bucketed quantiles are approximate (power-of-two buckets): bracket
  // them within a factor of two of the exact answer.
  const double p50 = h->Quantile(0.5);
  EXPECT_GE(p50, 0.25);
  EXPECT_LE(p50, 1.0);
  const double p99 = h->Quantile(0.99);
  EXPECT_GE(p99, 0.5);
  EXPECT_LE(p99, 2.0);
  EXPECT_LE(h->Quantile(0.5), h->Quantile(0.99));
}

TEST(MetricsRegistryTest, JsonSnapshotParsesAndCarriesEverything) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Add(7);
  registry.GetGauge("b")->Set(1.5);
  registry.GetHistogram("c")->Record(0.25);
  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"a\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

// ---- Tracer / TraceSpan ----

TEST(TracerTest, DisabledSpansRecordNothingAndCostNoState) {
  ASSERT_EQ(Tracer::active(), nullptr);
  {
    TraceSpan span("map-task", "runtime");
    span.Arg("task", int64_t{3}).Flow(42);
    EXPECT_FALSE(span.enabled());
  }
  // Still no session: nothing anywhere to flush.
  EXPECT_EQ(Tracer::active(), nullptr);
}

TEST(TracerTest, SessionCapturesSpansWithArgsAndNesting) {
  Tracer tracer;
  {
    TraceSession session(&tracer);
    ASSERT_EQ(Tracer::active(), &tracer);
    {
      TraceSpan outer("reduce-phase", "runtime");
      outer.Arg("job", std::string("join-0"));
      {
        TraceSpan inner("reduce-task", "runtime");
        inner.Arg("task", int64_t{0});
      }
    }
  }
  EXPECT_EQ(Tracer::active(), nullptr);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Inner span ends (and records) first; both lie on the same thread
  // track and the outer one encloses the inner one.
  EXPECT_STREQ(events[0].name, "reduce-task");
  EXPECT_STREQ(events[1].name, "reduce-phase");
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us + 1e-6);
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].key, "job");
  EXPECT_EQ(events[1].args[0].value, "join-0");
}

TEST(TracerTest, TaskFlowIdIsStableAndDiscriminating) {
  const uint64_t a = TaskFlowId("join-0", "map", 3);
  EXPECT_EQ(a, TaskFlowId("join-0", "map", 3));
  EXPECT_NE(a, TaskFlowId("join-0", "map", 4));
  EXPECT_NE(a, TaskFlowId("join-0", "reduce", 3));
  EXPECT_NE(a, TaskFlowId("join-1", "map", 3));
  EXPECT_NE(a, 0u);
}

// Minimal structural validation of the Chrome JSON without a JSON parser:
// balanced braces, the traceEvents envelope, one thread_name metadata
// record per tid, and flow arrows only for repeated flow ids.
TEST(TracerTest, ChromeExportIsStructurallySound) {
  Tracer tracer;
  {
    TraceSession session(&tracer);
    {
      TraceSpan s1("map-task", "runtime");
      s1.Arg("task", int64_t{0}).Flow(TaskFlowId("j", "map", 0));
    }
    {
      TraceSpan s2("map-task", "runtime");  // retry of the same task
      s2.Arg("task", int64_t{0}).Arg("attempt", int64_t{1});
      s2.Flow(TaskFlowId("j", "map", 0));
    }
    { TraceSpan s3("reduce-task", "runtime"); }  // unrelated, no flow
  }
  const std::string json = tracer.ToChromeJson();

  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // The two attempts share a flow id -> one s/f pair; the lone
  // reduce-task span must not grow arrows.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
}

// ---- ExplainAnalyze / QueryProfile ----

Query SmallMobileQuery() {
  MobileDataOptions options;
  options.physical_rows = 400;
  options.logical_bytes = 2 * kGiB;
  const auto q = MobileQueryBuilder(1, options).Build();
  EXPECT_TRUE(q.ok());
  return *q;
}

// The profile is a rendering of the execution, not a re-measurement:
// every per-job figure must equal the JobExecution it came from, exactly.
TEST(ExplainAnalyzeTest, ProfileMatchesJobMeasurementsExactly) {
  ThetaEngine engine;
  const Query q = SmallMobileQuery();
  const auto result = engine.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const QueryProfile profile = result->profile();
  ASSERT_EQ(profile.jobs.size(), result->jobs().size());
  EXPECT_EQ(profile.measured_seconds, result->measured_seconds());
  EXPECT_EQ(profile.simulated_seconds, result->simulated_seconds());
  EXPECT_EQ(profile.sim_shuffle_bytes, result->sim_shuffle_bytes());
  EXPECT_EQ(profile.result_rows_physical, result->num_rows());
  EXPECT_EQ(profile.result_selectivity, result->selectivity());
  for (size_t i = 0; i < profile.jobs.size(); ++i) {
    const JobExecutionProfile& jp = profile.jobs[i];
    const JobExecution& job = result->jobs()[i];
    EXPECT_EQ(jp.index, static_cast<int>(i));
    EXPECT_EQ(jp.name, job.name);
    EXPECT_EQ(jp.kind, PlanJobKindName(job.kind));
    EXPECT_EQ(jp.kernel, job.kernel);
    EXPECT_EQ(jp.reduce_tasks, job.reduce_tasks);
    EXPECT_EQ(jp.input_jobs, job.input_jobs);
    EXPECT_EQ(jp.wall_seconds, job.wall_seconds);
    EXPECT_EQ(jp.sim_release_seconds, ToSeconds(job.timing.release));
    EXPECT_EQ(jp.sim_finish_seconds, ToSeconds(job.timing.finish));
    EXPECT_EQ(jp.input_bytes, job.metrics.input_bytes_logical);
    EXPECT_EQ(jp.shuffle_bytes, job.metrics.map_output_bytes_logical);
    EXPECT_EQ(jp.max_reduce_input_bytes, job.metrics.MaxReduceInputBytes());
    EXPECT_EQ(jp.output_rows_physical, job.metrics.output_rows_physical);
    EXPECT_EQ(jp.output_bytes, job.metrics.output_bytes_logical);
    EXPECT_EQ(jp.task_retries, job.faults.task_retries);
    EXPECT_EQ(jp.speculative_launches, job.faults.speculative_launches);
    EXPECT_EQ(jp.skew_heavy_tasks, job.skew_heavy_tasks);
  }

  // Both renderings mention every job by name and neither is empty.
  const std::string table = profile.ToTable();
  const std::string json = profile.ToJson();
  for (const JobExecutionProfile& jp : profile.jobs) {
    EXPECT_NE(table.find(jp.name), std::string::npos) << table;
    EXPECT_NE(json.find("\"" + jp.name + "\""), std::string::npos);
  }
  EXPECT_NE(table.find("total:"), std::string::npos);
}

TEST(ExplainAnalyzeTest, EngineEntryPointExecutesAndProfiles) {
  ThetaEngine engine;
  const Query q = SmallMobileQuery();
  const auto profile = engine.ExplainAnalyze(q);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_FALSE(profile->jobs.empty());
  EXPECT_GT(profile->simulated_seconds, 0.0);
  // ExplainAnalyze executes (unlike Explain).
  EXPECT_EQ(engine.metrics().executions, 1);
}

// ---- The tracing differential ----

struct RunSnapshot {
  std::string rows;
  SimTime makespan = 0;
  int64_t shuffle_bytes = 0;
  std::vector<std::string> job_metrics;
};

std::string DumpRows(const Relation& rows) {
  std::string out;
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    for (int c = 0; c < rows.schema().num_columns(); ++c) {
      out += rows.Get(r, c).ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

RunSnapshot RunOnce(const Query& q, int threads, bool traced) {
  EngineOptions options;
  options.executor.num_threads = threads;
  ThetaEngine engine(options);
  std::optional<Tracer> tracer;
  std::optional<TraceSession> session;
  if (traced) {
    tracer.emplace();
    session.emplace(&*tracer);
  }
  const auto result = engine.Execute(q);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunSnapshot snap;
  if (!result.ok()) return snap;
  snap.rows = DumpRows(result->rows());
  snap.makespan = result->makespan();
  snap.shuffle_bytes = result->sim_shuffle_bytes();
  for (const JobExecution& job : result->jobs()) {
    const JobMeasurement& m = job.metrics;
    std::string line = std::to_string(m.input_bytes_logical) + "/" +
                       std::to_string(m.map_output_bytes_logical) + "/" +
                       std::to_string(m.map_output_records_physical) + "/" +
                       std::to_string(m.output_rows_physical) + "/" +
                       std::to_string(m.output_bytes_logical) + "/r";
    for (int64_t b : m.reduce_input_bytes_logical) {
      line += ":" + std::to_string(b);
    }
    snap.job_metrics.push_back(line);
  }
  if (traced) {
    EXPECT_GT(tracer->num_events(), 0u);
  }
  return snap;
}

// Tracing only observes: with a session open, rows, simulated metrics and
// per-job measurements must be byte-identical to the untraced run — at 1
// and 4 threads, on both workloads.
TEST(TracingDifferentialTest, TracedRunIsByteIdenticalOnMobile) {
  const Query q = SmallMobileQuery();
  for (int threads : {1, 4}) {
    const RunSnapshot off = RunOnce(q, threads, false);
    const RunSnapshot on = RunOnce(q, threads, true);
    EXPECT_EQ(off.rows, on.rows) << "threads=" << threads;
    EXPECT_EQ(off.makespan, on.makespan) << "threads=" << threads;
    EXPECT_EQ(off.shuffle_bytes, on.shuffle_bytes);
    EXPECT_EQ(off.job_metrics, on.job_metrics);
    EXPECT_FALSE(off.rows.empty());
  }
}

TEST(TracingDifferentialTest, TracedRunIsByteIdenticalOnTpchQ17) {
  TpchOptions options;
  options.scale_factor = 100;
  options.physical_lineitem_rows = 1200;
  const TpchData db = GenerateTpch(options);
  const auto q17 = TpchQueryBuilder(17, db).Build();
  ASSERT_TRUE(q17.ok());
  for (int threads : {1, 4}) {
    const RunSnapshot off = RunOnce(*q17, threads, false);
    const RunSnapshot on = RunOnce(*q17, threads, true);
    EXPECT_EQ(off.rows, on.rows) << "threads=" << threads;
    EXPECT_EQ(off.makespan, on.makespan) << "threads=" << threads;
    EXPECT_EQ(off.shuffle_bytes, on.shuffle_bytes);
    EXPECT_EQ(off.job_metrics, on.job_metrics);
    EXPECT_FALSE(off.rows.empty());
  }
}

// A full engine run under a session produces spans from every layer:
// planner, engine, scheduler and runtime tasks.
TEST(TracingDifferentialTest, EngineRunEmitsSpansFromEveryLayer) {
  Tracer tracer;
  {
    TraceSession session(&tracer);
    ThetaEngine engine;
    const auto result = engine.Execute(SmallMobileQuery());
    ASSERT_TRUE(result.ok());
  }
  std::map<std::string, int> by_name;
  for (const TraceEvent& ev : tracer.events()) ++by_name[ev.name];
  for (const char* expected :
       {"calibrate", "collect-stats", "plan", "execute", "plan-job",
        "map-phase", "shuffle-merge", "reduce-phase", "reduce-task"}) {
    EXPECT_GT(by_name[expected], 0) << "missing span: " << expected;
  }
}

}  // namespace
}  // namespace mrtheta
