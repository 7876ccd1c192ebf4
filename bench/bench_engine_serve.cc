// Serving-layer benchmark (docs/API.md "Serving"): N closed-loop query
// streams submitting a mixed workload against ONE admission-controlled
// ThetaEngine, measuring end-to-end submit→resolve latency (p50/p99) and
// throughput. The engine runs with the serving knobs exercised: a warm
// plan cache (every stream query must be a hit), bounded in-flight
// queries with FIFO queueing, and a per-query thread cap so no stream
// monopolizes the shared pool.
//
// Correctness anchor: every concurrent result is fingerprint-compared
// against a sequential reference pass — "byte-identical to sequential
// execution" means content and row order both, per query. The process
// aborts on any mismatch, on an unexpected plan-cache miss, or on an
// admission rejection (the queue is sized to never reject here), so the
// deterministic counters in BENCH_serve.json are exact-gated by
// scripts/check_bench.py while the latency/throughput fields stay
// measured-but-required per the existing policy.
//
// Usage: bench_engine_serve [--trace-out=F] [--metrics-out=F] [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/theta_engine.h"
#include "src/common/flags.h"
#include "src/common/units.h"
#include "src/obs/obs_export.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace mrtheta::bench {
namespace {

constexpr int kPoolThreads = 8;
constexpr int kPerQueryThreads = 2;
constexpr int kMaxInflight = 4;
constexpr int kQueriesPerStream = 6;
constexpr int kStreamSteps[] = {4, 8};

struct Shape {
  std::string name;
  Query query;
  uint64_t fingerprint = 0;  // sequential reference
  int64_t rows = 0;
};

// The mixed serving workload: three small query shapes from three
// workloads (self-join, TPC-H cascade, flights chain). Sized for latency
// measurement — the serving layer's cost is per-query overhead, not
// kernel throughput (bench_runtime owns that).
std::vector<Shape> BuildShapes() {
  std::vector<Shape> shapes;

  MobileDataOptions mobile_options;
  mobile_options.physical_rows = 800;
  mobile_options.logical_bytes = 2 * kGiB;
  const auto mobile = MobileQueryBuilder(1, mobile_options).Build();
  if (!mobile.ok()) {
    std::fprintf(stderr, "mobile q1: %s\n",
                 mobile.status().ToString().c_str());
    std::exit(1);
  }
  shapes.push_back({"mobile_q1_800", *mobile});

  TpchOptions tpch_options;
  tpch_options.scale_factor = 100;
  tpch_options.physical_lineitem_rows = 1500;
  const TpchData db = GenerateTpch(tpch_options);
  const auto q17 = TpchQueryBuilder(17, db).Build();
  if (!q17.ok()) {
    std::fprintf(stderr, "tpch q17: %s\n", q17.status().ToString().c_str());
    std::exit(1);
  }
  shapes.push_back({"tpch_q17_1500", *q17});

  FlightLegOptions leg_options;
  leg_options.physical_rows = 400;
  std::vector<RelationPtr> legs;
  for (int i = 0; i < 3; ++i) {
    legs.push_back(GenerateFlightLeg(i, leg_options));
  }
  const auto flights =
      ItineraryQueryBuilder(legs, {StayOver{}, StayOver{}}).Build();
  if (!flights.ok()) {
    std::fprintf(stderr, "flights: %s\n",
                 flights.status().ToString().c_str());
    std::exit(1);
  }
  shapes.push_back({"flights_chain3_400", *flights});
  return shapes;
}

// One concurrency round: `streams` closed-loop submitters, each running
// kQueriesPerStream queries round-robin over the shapes (offset by stream
// index, so shapes interleave across streams). Returns the record;
// `latencies` and correctness checks happen inside.
ServeBenchRecord RunRound(ThetaEngine& engine, std::vector<Shape>& shapes,
                          int streams) {
  const EngineMetrics before = engine.metrics();
  std::vector<std::vector<double>> latencies(streams);
  std::vector<int64_t> rows_per_stream(streams, 0);
  std::vector<std::string> failures(streams);

  const auto round_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(streams);
  for (int s = 0; s < streams; ++s) {
    threads.emplace_back([s, &shapes, &engine, &latencies, &rows_per_stream,
                          &failures] {
      for (int i = 0; i < kQueriesPerStream; ++i) {
        Shape& shape = shapes[(s + i) % shapes.size()];
        const auto start = std::chrono::steady_clock::now();
        auto future = engine.Submit(shape.query);
        const StatusOr<QueryResult> result = future.get();
        latencies[s].push_back(SecondsSince(start));
        if (!result.ok()) {
          failures[s] = shape.name + ": " + result.status().ToString();
          return;
        }
        if (OrderedRowsFingerprint(result->rows()) != shape.fingerprint) {
          failures[s] = shape.name +
                        ": concurrent result differs from the sequential "
                        "reference";
          return;
        }
        rows_per_stream[s] += result->num_rows();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = SecondsSince(round_start);
  for (const std::string& failure : failures) {
    if (!failure.empty()) {
      std::fprintf(stderr, "engine_serve (%d streams): %s\n", streams,
                   failure.c_str());
      std::exit(1);
    }
  }

  const EngineMetrics after = engine.metrics();
  ServeBenchRecord rec;
  rec.workload = "engine_serve";
  rec.query = "mixed3";
  rec.streams = streams;
  rec.queries_per_stream = kQueriesPerStream;
  rec.total_queries = streams * kQueriesPerStream;
  rec.threads = kPoolThreads;
  rec.per_query_threads = kPerQueryThreads;
  rec.max_inflight_queries = kMaxInflight;
  rec.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  std::vector<double> all;
  for (const auto& per_stream : latencies) {
    all.insert(all.end(), per_stream.begin(), per_stream.end());
  }
  std::sort(all.begin(), all.end());
  rec.p50_latency_seconds = all[all.size() / 2];
  rec.p99_latency_seconds =
      all[std::min(all.size() - 1,
                   static_cast<size_t>(all.size() * 99 / 100))];
  rec.wall_seconds = wall;
  rec.throughput_qps = wall > 0.0 ? rec.total_queries / wall : 0.0;
  rec.plan_cache_hits = after.plan_cache_hits - before.plan_cache_hits;
  rec.plan_cache_misses =
      after.plan_cache_misses - before.plan_cache_misses;
  rec.admission_rejections =
      after.admission_rejections - before.admission_rejections;
  for (int64_t rows : rows_per_stream) rec.result_rows_total += rows;

  // The warm plan cache and the generous queue are part of the measured
  // configuration: a miss or a rejection means the serving layer is not
  // doing what this bench claims to measure.
  if (rec.plan_cache_hits != rec.total_queries ||
      rec.plan_cache_misses != 0) {
    std::fprintf(stderr,
                 "engine_serve (%d streams): expected %d warm cache hits, "
                 "got hits=%lld misses=%lld\n",
                 streams, rec.total_queries,
                 static_cast<long long>(rec.plan_cache_hits),
                 static_cast<long long>(rec.plan_cache_misses));
    std::exit(1);
  }
  if (rec.admission_rejections != 0) {
    std::fprintf(stderr, "engine_serve (%d streams): %lld unexpected "
                 "admission rejections\n",
                 streams,
                 static_cast<long long>(rec.admission_rejections));
    std::exit(1);
  }
  std::printf("  streams=%d  total=%3d  p50=%7.4fs  p99=%7.4fs  "
              "qps=%6.2f  wall=%6.3fs  hits=%lld\n",
              streams, rec.total_queries, rec.p50_latency_seconds,
              rec.p99_latency_seconds, rec.throughput_qps, rec.wall_seconds,
              static_cast<long long>(rec.plan_cache_hits));
  std::fflush(stdout);
  return rec;
}

int Main(int argc, char** argv) {
  const StatusOr<CommonFlags> flags =
      ParseCommonFlags(argc, argv, /*allow_threads=*/false);
  if (!flags.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--trace-out=FILE] [--metrics-out=FILE] "
                 "[output.json]\n",
                 flags.status().ToString().c_str(), argv[0]);
    return 2;
  }
  ObsExporter obs(flags->trace_out, flags->metrics_out);
  const std::string out_path =
      flags->output_path.empty() ? "BENCH_serve.json" : flags->output_path;
  WarnIfSingleHardwareThread(kPoolThreads);

  EngineOptions options;
  options.executor.num_threads = kPoolThreads;
  options.per_query_threads = kPerQueryThreads;
  options.max_inflight_queries = kMaxInflight;
  // Deep enough that the largest round (8 streams) queues but never
  // rejects: rejection behaviour is pinned by tests/api_test.cc, not here.
  options.max_queue_depth = 256;
  ThetaEngine engine(options);

  std::vector<Shape> shapes = BuildShapes();

  // Sequential reference pass: executes each shape once in this thread,
  // recording the reference fingerprints the concurrent rounds must
  // reproduce — and warming the plan cache (exactly one miss per shape).
  std::printf("sequential reference (%zu shapes):\n", shapes.size());
  for (Shape& shape : shapes) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = engine.Execute(shape.query);
    if (!result.ok()) {
      std::fprintf(stderr, "reference %s failed: %s\n", shape.name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    shape.fingerprint = OrderedRowsFingerprint(result->rows());
    shape.rows = result->num_rows();
    std::printf("  %-18s rows=%-8lld wall=%6.3fs\n", shape.name.c_str(),
                static_cast<long long>(shape.rows), SecondsSince(start));
  }
  const EngineMetrics warm = engine.metrics();
  if (warm.plan_cache_misses != static_cast<int64_t>(shapes.size())) {
    std::fprintf(stderr, "warmup: expected %zu plan-cache misses, got %lld\n",
                 shapes.size(),
                 static_cast<long long>(warm.plan_cache_misses));
    return 1;
  }

  std::vector<ServeBenchRecord> records;
  for (int streams : kStreamSteps) {
    records.push_back(RunRound(engine, shapes, streams));
  }

  const Status status = WriteServeBenchJson(out_path, records);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n", records.size(), out_path.c_str());
  if (const Status s = obs.Finish(&engine.metrics_registry()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mrtheta::bench

int main(int argc, char** argv) { return mrtheta::bench::Main(argc, argv); }
