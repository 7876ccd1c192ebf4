// theta_bench: wall-clock benchmark of the public ThetaEngine API.
//
// One process runs one workload (benchmark/README.md has the catalogue):
//   1. set-up on fresh state (input generation, engine construction,
//      Calibration(), the cold engine call of every query shape), repeated
//      at least --setup-reps times and, when that is above 1, until 2 s
//      have passed; the median is setup_s, and the first cold result of
//      each shape is the correctness reference for every later call;
//   2. an untraced timed phase of --seconds, which gives the end-to-end
//      metrics;
//   3. with --trace=1, one more set-up and a timed phase of
//      --traced-seconds under a TraceSession; the spans of that phase,
//      the engine's metrics registry and the result fields give the
//      per-layer metrics.
// The last line of stdout is one JSON object holding every number;
// benchmark/run.py turns it into the benchmark's result line.
//
// Usage: theta_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                    [--traced-seconds=S] [--setup-reps=N] [--smoke]
//                    [--trace-out=FILE]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/theta_engine.h"
#include "src/common/units.h"
#include "src/mem/memory_budget.h"
#include "src/obs/trace.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

#ifndef THETA_BENCH_BUILD_TYPE
#define THETA_BENCH_BUILD_TYPE "unknown"
#endif

namespace mrtheta::theta_bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------- flags --

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double traced_seconds = 3.0;
  int setup_reps = 3;
  bool smoke = false;
  std::string trace_out;
};

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--smoke" && eq == std::string::npos) {
      flags->smoke = true;
      continue;
    }
    if (eq == std::string::npos || value.empty()) {
      *error = "expected --flag=value, got '" + arg + "'";
      return false;
    }
    if (key == "--workload") {
      flags->workload = value;
    } else if (key == "--trace-out") {
      flags->trace_out = value;
    } else if (key == "--seed") {
      flags->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      flags->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--traced-seconds") {
      flags->traced_seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      flags->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (key == "--setup-reps") {
      flags->setup_reps = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      *error = "unknown flag '" + key + "'";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "malformed value in '" + arg + "'";
      return false;
    }
  }
  if (flags->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (!(flags->seconds >= 0.0) || !(flags->traced_seconds >= 0.0) ||
      flags->setup_reps < 1) {
    *error = "--seconds/--traced-seconds must be >= 0, --setup-reps >= 1";
    return false;
  }
  return true;
}

// ------------------------------------------------------- inputs and seeds --

// --seed=0 keeps every generator's built-in seed (the sizes in
// benchmark/README.md reproduce); any other value is mixed in.
uint64_t MixSeed(uint64_t builtin, uint64_t seed) {
  if (seed == 0) return builtin;
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return builtin ^ (z ^ (z >> 31));
}

// SplitMix64; the equi-join inputs are the benchmark's own.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t n) { return static_cast<int64_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Ordered-rows FNV-1a fingerprint: integer cells hash as whole 64-bit
// words, other cells by their text, so a multi-million-row result checks in tens of
// milliseconds.
uint64_t Fingerprint(const Relation& rows) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t h = 1469598103934665603ULL;
  const int cols = rows.schema().num_columns();
  std::vector<const std::vector<int64_t>*> ints(cols);
  for (int c = 0; c < cols; ++c) ints[c] = rows.TryColumn<int64_t>(c);
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    for (int c = 0; c < cols; ++c) {
      if (ints[c] != nullptr) {
        h = (h ^ static_cast<uint64_t>((*ints[c])[r])) * kPrime;
      } else {
        for (unsigned char ch : rows.Get(r, c).ToString()) {
          h = (h ^ ch) * kPrime;
        }
        h = (h ^ '|') * kPrime;
      }
    }
  }
  return h;
}

// ------------------------------------------------------------- workloads --

/// What every later call of a shape must reproduce exactly.
struct Reference {
  int64_t rows = 0;
  uint64_t fingerprint = 0;
  SimTime makespan = 0;
  int64_t sim_shuffle_bytes = 0;

  bool operator==(const Reference&) const = default;
};

struct Shape {
  std::string name;
  Query query;
  /// Set for shapes run through ExecutePlan with a pinned plan.
  std::optional<QueryPlan> pinned;
  Reference ref;
};

struct Bench {
  std::unique_ptr<ThetaEngine> engine;
  /// Executor options of ExecutePlan calls (pinned shapes only).
  ExecutorOptions plan_options;
  std::vector<Shape> shapes;
  /// tpch_adhoc: the inputs each op rewrites before its report.
  std::vector<std::shared_ptr<Relation>> refresh;
};

constexpr const char* kWorkloads[] = {"mobile_q1", "flights_chain3",
                                      "tpch_adhoc", "serve_mixed",
                                      "equi_spill"};
constexpr int kServeClients = 4;
constexpr int64_t kEquiBudgetBytes = 6 * kMiB;
// Small enough that the --smoke inputs spill too.
constexpr int64_t kSmokeEquiBudgetBytes = 256 * kKiB;
constexpr int kEquiReduceTasks = 128;

bool IsServe(const std::string& workload) {
  return workload == "serve_mixed";
}

struct Config {
  std::string workload;
  uint64_t seed = 0;
  bool smoke = false;
  int threads = 1;  ///< engine pool width: min(4, usable CPUs)
};

StatusOr<Shape> MobileShape(const std::string& name, int64_t rows,
                            uint64_t seed) {
  MobileDataOptions options;
  options.physical_rows = rows;
  options.logical_bytes = 2 * kGiB;
  options.seed = MixSeed(options.seed, seed);
  StatusOr<Query> query = MobileQueryBuilder(1, options).Build();
  if (!query.ok()) return query.status();
  return Shape{name, *std::move(query), std::nullopt, {}};
}

StatusOr<Shape> ChainShape(const std::string& name, int64_t rows,
                           uint64_t seed) {
  FlightLegOptions options;
  options.physical_rows = rows;
  options.seed = MixSeed(options.seed, seed);
  std::vector<RelationPtr> legs;
  for (int i = 0; i < 3; ++i) legs.push_back(GenerateFlightLeg(i, options));
  StatusOr<Query> query =
      ItineraryQueryBuilder(legs, {StayOver{}, StayOver{}}).Build();
  if (!query.ok()) return query.status();
  return Shape{name, *std::move(query), std::nullopt, {}};
}

TpchData GenerateTpchData(int64_t lineitem_rows, uint64_t seed) {
  TpchOptions options;
  options.scale_factor = 100;
  options.physical_lineitem_rows = lineitem_rows;
  options.seed = MixSeed(options.seed, seed);
  return GenerateTpch(options);
}

StatusOr<Shape> TpchShape(int which, const TpchData& data) {
  StatusOr<Query> query = TpchQueryBuilder(which, data).Build();
  if (!query.ok()) return query.status();
  return Shape{"tpch_q" + std::to_string(which), *std::move(query),
               std::nullopt, {}};
}

// Replaces every input of `data` by a mutable copy the benchmark owns
// (shared inputs stay shared), so a refresh can bump their generations.
TpchData OwnInputs(const TpchData& data,
                   std::vector<std::shared_ptr<Relation>>* owned) {
  std::map<const Relation*, std::shared_ptr<Relation>> copies;
  auto own = [&](const RelationPtr& rel) -> RelationPtr {
    auto it = copies.find(rel.get());
    if (it == copies.end()) {
      it = copies.emplace(rel.get(), std::make_shared<Relation>(*rel)).first;
      owned->push_back(it->second);
    }
    return it->second;
  };
  TpchData out;
  out.region = own(data.region);
  out.nation = own(data.nation);
  out.supplier = own(data.supplier);
  out.customer = own(data.customer);
  out.part = own(data.part);
  out.partsupp = own(data.partsupp);
  out.orders = own(data.orders);
  out.lineitem = own(data.lineitem);
  for (const RelationPtr& rel : data.lineitem_samples) {
    out.lineitem_samples.push_back(own(rel));
  }
  return out;
}

RelationPtr EquiSide(const char* name, int64_t rows, int64_t key_range,
                     uint64_t seed) {
  auto rel = std::make_shared<Relation>(
      name, Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  SplitMix rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    rel->AppendIntRow({rng.Uniform(key_range), rng.Uniform(int64_t{1} << 20)});
  }
  return rel;
}

// Generates the workload's query shapes (not yet planned or run).
StatusOr<std::vector<Shape>> GenerateShapes(
    const Config& config, std::vector<std::shared_ptr<Relation>>* refresh) {
  const bool smoke = config.smoke;
  const uint64_t seed = config.seed;
  std::vector<Shape> shapes;
  auto add = [&shapes](StatusOr<Shape> shape) -> Status {
    if (!shape.ok()) return shape.status();
    shapes.push_back(*std::move(shape));
    return Status::OK();
  };
  const std::string& w = config.workload;
  if (w == "mobile_q1") {
    MRTHETA_RETURN_IF_ERROR(
        add(MobileShape("mobile_q1", smoke ? 400 : 3000, seed)));
  } else if (w == "flights_chain3") {
    MRTHETA_RETURN_IF_ERROR(
        add(ChainShape("flights_chain3", smoke ? 300 : 1500, seed)));
  } else if (w == "tpch_adhoc") {
    const TpchData data =
        OwnInputs(GenerateTpchData(smoke ? 2000 : 20000, seed), refresh);
    for (int which : {7, 17, 21}) {
      MRTHETA_RETURN_IF_ERROR(add(TpchShape(which, data)));
    }
  } else if (w == "serve_mixed") {
    MRTHETA_RETURN_IF_ERROR(
        add(MobileShape("mobile_q1", smoke ? 200 : 800, seed)));
    MRTHETA_RETURN_IF_ERROR(
        add(TpchShape(17, GenerateTpchData(smoke ? 400 : 1500, seed))));
    MRTHETA_RETURN_IF_ERROR(
        add(ChainShape("flights_chain3", smoke ? 100 : 400, seed)));
  } else if (w == "equi_spill") {
    const int64_t rows = smoke ? 20000 : 500000;
    const int64_t keys = rows / 6;  // ~6 matches per key: ~3M result rows
    QueryBuilder builder;
    builder.From("l", EquiSide("equi_l", rows, keys, MixSeed(9101, seed)))
        .From("r", EquiSide("equi_r", rows, keys, MixSeed(9102, seed)))
        .Where(Col("l.a") == Col("r.a"))
        .Select("l.b")
        .Select("r.b");
    StatusOr<Query> query = builder.Build();
    if (!query.ok()) return query.status();
    shapes.push_back({"equi_spill", *std::move(query), std::nullopt, {}});
  } else {
    return Status::InvalidArgument("unknown workload '" + w + "'");
  }
  return shapes;
}

EngineOptions OptionsFor(const Config& config) {
  EngineOptions options;
  options.executor.num_threads = config.threads;
  // Forced off: the chaos leg's environment must never reach a timing.
  options.executor.fault_plan = FaultPlan{};
  if (IsServe(config.workload)) {
    options.max_inflight_queries = kServeClients;
    options.per_query_threads = 1;
  }
  return options;
}

/// Runtime threads one engine call of this workload may use.
int QueryThreads(const Config& config) {
  return IsServe(config.workload) ? 1 : config.threads;
}

// ---------------------------------------------------------- engine calls --

StatusOr<QueryResult> CallEngine(Bench& bench, const Shape& shape) {
  TraceSpan span("execute", "bench");
  if (shape.pinned.has_value()) {
    return bench.engine->ExecutePlan(shape.query, *shape.pinned,
                                     bench.plan_options,
                                     bench.engine->options().execution_seed);
  }
  return bench.engine->Execute(shape.query);
}

Reference ReferenceOf(const QueryResult& result) {
  return {result.num_rows(), Fingerprint(result.rows()), result.makespan(),
          result.sim_shuffle_bytes()};
}

/// Everything recorded about the engine calls of one timed phase.
struct Tally {
  std::vector<double> latencies;  ///< per op
  int64_t ops = 0;
  int64_t failed = 0;  ///< ops with an error or a mismatched result
  int64_t calls = 0;
  int64_t cache_hits = 0;
  int64_t jobs = 0;
  int64_t reduce_tasks = 0;
  int64_t output_rows = 0;  ///< Σ over jobs of physical output rows
  int64_t map_output_records = 0;
  int64_t spill_bytes = 0;
  int64_t spill_files = 0;
  int64_t peak_mem_bytes = 0;
  double physical_s = 0.0;
  double wall_s = 0.0;
  std::vector<std::string> errors;  ///< the first few

  void Error(std::string message) {
    if (errors.size() < 5) errors.push_back(std::move(message));
  }

  void Merge(const Tally& o) {
    latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
    ops += o.ops;
    failed += o.failed;
    calls += o.calls;
    cache_hits += o.cache_hits;
    jobs += o.jobs;
    reduce_tasks += o.reduce_tasks;
    output_rows += o.output_rows;
    map_output_records += o.map_output_records;
    spill_bytes += o.spill_bytes;
    spill_files += o.spill_files;
    peak_mem_bytes = std::max(peak_mem_bytes, o.peak_mem_bytes);
    physical_s += o.physical_s;
    for (const std::string& e : o.errors) Error(e);
  }

  /// Accounts one engine call and checks it against the shape's
  /// reference; false on an error or any difference.
  bool Record(const Shape& shape, const StatusOr<QueryResult>& result) {
    ++calls;
    if (!result.ok()) {
      Error(shape.name + ": " + result.status().ToString());
      return false;
    }
    const ExecutionResult& exec = result->execution();
    cache_hits += result->plan_cache_hit() ? 1 : 0;
    jobs += static_cast<int64_t>(exec.jobs.size());
    for (const JobExecution& job : exec.jobs) {
      reduce_tasks += job.reduce_tasks;
      output_rows += job.metrics.output_rows_physical;
      map_output_records += job.metrics.map_output_records_physical;
    }
    spill_bytes += exec.spill_bytes;
    spill_files += exec.spill_files;
    peak_mem_bytes = std::max(peak_mem_bytes, exec.peak_mem_bytes);
    physical_s += result->measured_seconds();
    const Reference got = ReferenceOf(*result);
    if (!(got == shape.ref)) {
      Error(shape.name + ": result differs from the cold reference (rows " +
            std::to_string(got.rows) + " vs " + std::to_string(shape.ref.rows) +
            ", makespan " + std::to_string(got.makespan) + " vs " +
            std::to_string(shape.ref.makespan) + ")");
      return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------- set-up --

/// One set-up: inputs, engine, calibration, then the cold call of each
/// shape, whose result becomes the shape's reference.
StatusOr<std::unique_ptr<Bench>> Setup(const Config& config) {
  TraceSpan setup_span("setup", "bench");
  auto bench = std::make_unique<Bench>();
  {
    TraceSpan span("generate", "bench");
    StatusOr<std::vector<Shape>> shapes =
        GenerateShapes(config, &bench->refresh);
    if (!shapes.ok()) return shapes.status();
    bench->shapes = *std::move(shapes);
  }
  {
    TraceSpan span("engine", "bench");
    bench->engine = std::make_unique<ThetaEngine>(OptionsFor(config));
  }
  {
    TraceSpan span("calibrate", "bench");
    StatusOr<CalibrationReport> calibration = bench->engine->Calibration();
    if (!calibration.ok()) return calibration.status();
  }
  if (config.workload == "equi_spill") {
    // The planner sizes the reduce fan-out for the small physical sample;
    // pin a cluster-realistic one, as bench_runtime's mem_budget does, so
    // no single reduce task holds most of the budget.
    TraceSpan span("plan", "bench");
    Shape& shape = bench->shapes.front();
    StatusOr<QueryPlan> plan = bench->engine->PlanQuery(shape.query);
    if (!plan.ok()) return plan.status();
    for (PlanJob& job : plan->jobs) job.num_reduce_tasks = kEquiReduceTasks;
    shape.pinned = *std::move(plan);
    bench->plan_options = bench->engine->options().executor;
    bench->plan_options.mem_budget_bytes =
        config.smoke ? kSmokeEquiBudgetBytes : kEquiBudgetBytes;
  }
  TraceSpan cold_span("cold-execute", "bench");
  for (Shape& shape : bench->shapes) {
    StatusOr<QueryResult> result = CallEngine(*bench, shape);
    if (!result.ok()) {
      return Status::WithCode(result.status().code(),
                              "cold " + shape.name + ": " +
                                  result.status().message());
    }
    shape.ref = ReferenceOf(*result);
  }
  return bench;
}

// ---------------------------------------------------------- timed phases --

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// Sequential closed loop: one op after another until `seconds` have
/// passed and at least `min_ops` ran. An op is a refresh (tpch_adhoc only)
/// followed by one engine call per shape; its latency excludes checking.
Tally RunSequential(Bench& bench, double seconds, int64_t min_ops) {
  Tally tally;
  const Clock::time_point start = Clock::now();
  while (tally.ops < min_ops || SecondsSince(start) < seconds) {
    MemoryBudget::Global().ResetPeak();
    bool ok = true;
    std::vector<StatusOr<QueryResult>> results;
    results.reserve(bench.shapes.size());
    const Clock::time_point op_start = Clock::now();
    {
      TraceSpan op_span("op", "bench");
      if (!bench.refresh.empty()) {
        // Rewrite cell (0,0) with its own value: the results stay the
        // same, but every input's generation moves, so the stats and plan
        // caches miss.
        TraceSpan span("refresh", "bench");
        for (const std::shared_ptr<Relation>& rel : bench.refresh) {
          const Status s = rel->SetCell(0, 0, rel->Get(0, 0));
          if (!s.ok()) {
            tally.Error("refresh: " + s.ToString());
            ok = false;
          }
        }
      }
      for (const Shape& shape : bench.shapes) {
        results.push_back(CallEngine(bench, shape));
      }
    }
    tally.latencies.push_back(SecondsSince(op_start));
    for (size_t i = 0; i < results.size(); ++i) {
      ok = tally.Record(bench.shapes[i], results[i]) && ok;
    }
    ++tally.ops;
    if (!ok) ++tally.failed;
  }
  tally.wall_s = SecondsSince(start);
  return tally;
}

/// kServeClients closed-loop clients, each Submitting round-robin over the
/// shapes (offset by client index) until `seconds` have passed; an op is
/// one Submit, timed until its future is ready.
Tally RunServe(Bench& bench, double seconds, int64_t min_ops_per_client) {
  MemoryBudget::Global().ResetPeak();
  std::vector<Tally> per_client(kServeClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kServeClients);
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&bench, &per_client, c, start, seconds,
                          min_ops_per_client] {
      Tally& tally = per_client[c];
      const size_t n = bench.shapes.size();
      for (int64_t i = 0;
           i < min_ops_per_client || SecondsSince(start) < seconds; ++i) {
        const Shape& shape = bench.shapes[(static_cast<size_t>(c) + i) % n];
        const Clock::time_point op_start = Clock::now();
        TraceSpan span("submit", "bench");
        const StatusOr<QueryResult> result =
            bench.engine->Submit(shape.query).get();
        span.End();
        tally.latencies.push_back(SecondsSince(op_start));
        ++tally.ops;
        if (!tally.Record(shape, result)) ++tally.failed;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Tally tally;
  for (const Tally& t : per_client) tally.Merge(t);
  tally.wall_s = SecondsSince(start);
  return tally;
}

Tally RunPhase(const Config& config, Bench& bench, double seconds) {
  if (IsServe(config.workload)) {
    return RunServe(bench, seconds, config.smoke ? 1 : 0);
  }
  return RunSequential(bench, seconds, config.smoke ? 1 : 3);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// --------------------------------------------------------- span analysis --

struct Span {
  std::string key;  ///< "category/name"
  std::string job;  ///< the "job" arg, if any
  double start_us = 0.0;
  double end_us = 0.0;
  int tid = 0;
  double seconds() const { return (end_us - start_us) * 1e-6; }
};

/// Spans recorded in [from_us, to_us), by "category/name".
std::map<std::string, std::vector<Span>> CollectSpans(const Tracer& tracer,
                                                      double from_us,
                                                      double to_us) {
  std::map<std::string, std::vector<Span>> by_key;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.ts_us < from_us || ev.ts_us >= to_us) continue;
    Span span;
    span.key = std::string(ev.category) + "/" + ev.name;
    span.start_us = ev.ts_us;
    span.end_us = ev.ts_us + ev.dur_us;
    span.tid = ev.tid;
    for (const TraceArg& arg : ev.args) {
      if (arg.key == "job") span.job = arg.value;
    }
    by_key[span.key].push_back(std::move(span));
  }
  return by_key;
}

/// Σ over reduce phases of the phase's slowest reduce task. A task belongs
/// to the phase of its job that contains it in time; among concurrent
/// phases of equally named jobs (serve_mixed) the one on its thread wins.
double SumOfSlowestReduceTasks(const std::vector<Span>& phases,
                               const std::vector<Span>& tasks) {
  std::map<std::pair<std::string, int>, std::vector<size_t>> by_job_tid;
  std::map<std::string, std::vector<size_t>> by_job;
  for (size_t p = 0; p < phases.size(); ++p) {
    by_job_tid[{phases[p].job, phases[p].tid}].push_back(p);
    by_job[phases[p].job].push_back(p);
  }
  auto containing = [&phases](const std::vector<size_t>* candidates,
                              const Span& task) -> const size_t* {
    if (candidates == nullptr) return nullptr;
    for (const size_t& p : *candidates) {
      // 1 µs of slack: the two timestamps come from separate clock reads.
      if (task.start_us >= phases[p].start_us &&
          task.end_us <= phases[p].end_us + 1.0) {
        return &p;
      }
    }
    return nullptr;
  };
  auto find = [](auto& map, const auto& key) {
    auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
  };
  std::vector<double> slowest(phases.size(), 0.0);
  for (const Span& task : tasks) {
    const size_t* match =
        containing(find(by_job_tid, std::make_pair(task.job, task.tid)), task);
    if (match == nullptr) match = containing(find(by_job, task.job), task);
    if (match != nullptr) {
      slowest[*match] = std::max(slowest[*match], task.seconds());
    }
  }
  double sum = 0.0;
  for (double s : slowest) sum += s;
  return sum;
}

/// Source spans this workload is expected to emit; a missing one is
/// reported as absent (its metrics then read 0 and mean nothing).
std::vector<std::string> ExpectedSpans(const Config& config) {
  std::vector<std::string> expected = {
      "planner/calibrate",    "engine/execute",      "executor/plan-job",
      "runtime/map-phase",    "runtime/shuffle-merge", "runtime/reduce-phase",
      "runtime/reduce-task"};
  // Only the parallel runner emits per-map-task spans; it runs whenever a
  // call may use more than one thread, or under a memory budget.
  if (QueryThreads(config) > 1 || config.workload == "equi_spill") {
    expected.push_back("runtime/map-task");
  }
  if (config.workload == "tpch_adhoc") {
    expected.push_back("planner/collect-stats");
    expected.push_back("planner/plan");
  }
  if (IsServe(config.workload)) expected.push_back("engine/submit");
  if (config.workload == "equi_spill") {
    expected.push_back("mem/spill-write");
    expected.push_back("mem/spill-merge");
  }
  return expected;
}

/// Engine registry counters the per-layer metrics difference across the
/// traced phase.
struct RegistrySnapshot {
  int64_t stats_builds = 0;
  int64_t plans = 0;
  int64_t task_retries = 0;
  double queue_wait_s = 0.0;
};

RegistrySnapshot Snapshot(ThetaEngine& engine) {
  MetricsRegistry& r = engine.metrics_registry();
  RegistrySnapshot s;
  s.stats_builds = r.GetCounter("engine_stats_builds")->value();
  s.plans = r.GetCounter("engine_plans")->value();
  s.task_retries = r.GetCounter("engine_task_retries")->value();
  s.queue_wait_s = r.GetHistogram("engine_queue_wait_seconds", {}, 1e-6)->sum();
  return s;
}

/// Totals of one pass over the workload's shapes, from the references
/// every call is checked against. A pass is one op, except on serve_mixed,
/// whose op is one Submit of one of its three shapes.
struct PassTotals {
  int64_t rows = 0;
  int64_t sim_shuffle_bytes = 0;
  double sim_makespan_s = 0.0;
};

PassTotals OnePass(const std::vector<Shape>& shapes) {
  PassTotals pass;
  for (const Shape& shape : shapes) {
    pass.rows += shape.ref.rows;
    pass.sim_shuffle_bytes += shape.ref.sim_shuffle_bytes;
    pass.sim_makespan_s += ToSeconds(shape.ref.makespan);
  }
  return pass;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> PerLayerMetrics(
    const Config& config, const std::map<std::string, std::vector<Span>>& spans,
    double calibrate_s, const Tally& traced, const PassTotals& pass,
    const RegistrySnapshot& before, const RegistrySnapshot& after,
    double untraced_p50) {
  auto sum = [&spans](const std::string& key) {
    double total = 0.0;
    auto it = spans.find(key);
    if (it == spans.end()) return total;
    for (const Span& s : it->second) total += s.seconds();
    return total;
  };
  auto count = [&spans](const std::string& key) {
    auto it = spans.find(key);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.size());
  };
  auto list = [&spans](const std::string& key) {
    auto it = spans.find(key);
    return it == spans.end() ? std::vector<Span>() : it->second;
  };
  const double ops = static_cast<double>(std::max<int64_t>(1, traced.ops));
  auto per_op = [ops](double v) { return v / ops; };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const double engine_execute = sum("engine/execute");
  const double admission_wait = after.queue_wait_s - before.queue_wait_s;
  const double bench_submit = sum("bench/submit");
  const double map_phase = sum("runtime/map-phase");
  const double shuffle_merge = sum("runtime/shuffle-merge");
  const double reduce_phase = sum("runtime/reduce-phase");
  const double reduce_cpu = sum("runtime/reduce-task");
  const double traced_p50 = Quantile(traced.latencies, 0.5);

  return {
      {"api.plan_resolve_s",
       per_op(sum("bench/execute") + sum("engine/submit") -
              sum("engine/admission-wait") - engine_execute),
       "s"},
      {"api.plan_cache_hit_ratio",
       ratio(static_cast<double>(traced.cache_hits),
             static_cast<double>(traced.calls)),
       "ratio"},
      {"api.admission_wait_s", per_op(admission_wait), "s"},
      {"api.submit_overhead_s",
       bench_submit > 0.0
           ? per_op(bench_submit - engine_execute - admission_wait)
           : 0.0,
       "s"},
      {"stats.collect_s", per_op(sum("planner/collect-stats")), "s"},
      {"stats.builds_per_op",
       per_op(static_cast<double>(after.stats_builds - before.stats_builds)),
       "count"},
      {"planner.plan_s", per_op(sum("planner/plan")), "s"},
      {"planner.plans_per_op",
       per_op(static_cast<double>(after.plans - before.plans)), "count"},
      {"planner.jobs", per_op(static_cast<double>(traced.jobs)), "count"},
      {"planner.reduce_tasks", per_op(static_cast<double>(traced.reduce_tasks)),
       "count"},
      {"cost.calibrate_s", calibrate_s, "s"},
      {"executor.physical_s", per_op(traced.physical_s), "s"},
      {"executor.finish_s", per_op(engine_execute - traced.physical_s), "s"},
      {"executor.job_build_s",
       per_op(sum("executor/plan-job") - map_phase - shuffle_merge -
              reduce_phase),
       "s"},
      {"runtime.map_phase_s", per_op(map_phase), "s"},
      {"runtime.shuffle_merge_s", per_op(shuffle_merge), "s"},
      {"runtime.reduce_phase_s", per_op(reduce_phase), "s"},
      {"runtime.map_task_cpu_s", per_op(sum("runtime/map-task")), "s"},
      {"runtime.reduce_task_cpu_s", per_op(reduce_cpu), "s"},
      {"runtime.reduce_task_max_s",
       per_op(SumOfSlowestReduceTasks(list("runtime/reduce-phase"),
                                      list("runtime/reduce-task"))),
       "s"},
      {"runtime.reduce_parallel_eff",
       ratio(reduce_cpu, reduce_phase * QueryThreads(config)), "ratio"},
      {"runtime.tasks_per_op",
       per_op(count("runtime/map-task") + count("runtime/reduce-task")),
       "count"},
      {"runtime.task_retries",
       static_cast<double>(after.task_retries - before.task_retries), "count"},
      {"exec.reduce_records_per_cpu_s",
       ratio(static_cast<double>(traced.map_output_records), reduce_cpu),
       "1/s"},
      {"exec.output_rows_per_cpu_s",
       ratio(static_cast<double>(traced.output_rows), reduce_cpu), "1/s"},
      {"exec.result_rows", static_cast<double>(pass.rows),
       "count"},
      {"exec.sim_shuffle_bytes",
       static_cast<double>(pass.sim_shuffle_bytes), "bytes"},
      {"exec.sim_makespan_s", pass.sim_makespan_s, "sim_s"},
      {"mem.spill_write_s", per_op(sum("mem/spill-write")), "s"},
      {"mem.spill_merge_s", per_op(sum("mem/spill-merge")), "s"},
      {"mem.spill_bytes", per_op(static_cast<double>(traced.spill_bytes)),
       "bytes"},
      {"mem.spill_files", per_op(static_cast<double>(traced.spill_files)),
       "count"},
      {"mem.peak_bytes", static_cast<double>(traced.peak_mem_bytes), "bytes"},
      {"obs.trace_overhead",
       untraced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio"},
  };
}

// ----------------------------------------------------------------- output --

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(items[i]);
  }
  return out + "]";
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "theta_bench: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr,
                 "theta_bench: %s\nusage: theta_bench --workload=NAME "
                 "[--seed=N] [--seconds=S] [--trace=0|1] "
                 "[--traced-seconds=S] [--setup-reps=N] [--smoke] "
                 "[--trace-out=FILE]\n",
                 error.c_str());
    return 2;
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                flags.workload) == std::end(kWorkloads)) {
    return Fail("unknown workload '" + flags.workload + "'");
  }
  // The CI chaos and budget legs export these; they would silently change
  // what is measured.
  for (const char* var :
       {"MRTHETA_FAULT_PLAN", "MRTHETA_MEM_BUDGET", "MRTHETA_SPILL_DIR"}) {
    if (std::getenv(var) != nullptr) {
      return Fail(std::string(var) + " is set; unset it (run.py does)");
    }
  }

  Config config;
  config.workload = flags.workload;
  config.seed = flags.seed;
  config.smoke = flags.smoke;
  const int cpus = UsableCpus();
  config.threads = std::min(4, cpus);

  // ---- set-up, repeated on fresh state ----
  // At least --setup-reps times, and until kMinSetupSeconds have passed so
  // that the median of a sub-second set-up rests on enough samples.
  constexpr double kMinSetupSeconds = 2.0;
  constexpr int kMaxSetupReps = 20;
  std::vector<double> setup_s;
  std::vector<Reference> refs;
  std::vector<std::string> errors;
  std::unique_ptr<Bench> bench;
  // Every set-up after the first must reproduce its cold results.
  auto check_refs = [&refs, &errors, &bench](const std::string& which) {
    for (size_t i = 0; i < bench->shapes.size(); ++i) {
      if (i == refs.size()) refs.push_back(bench->shapes[i].ref);
      if (!(bench->shapes[i].ref == refs[i])) {
        errors.push_back(which + ": cold " + bench->shapes[i].name +
                         " differs from the first set-up's");
      }
    }
  };
  const Clock::time_point setups_start = Clock::now();
  for (int rep = 0;
       rep < flags.setup_reps ||
       (flags.setup_reps > 1 && rep < kMaxSetupReps &&
        SecondsSince(setups_start) < kMinSetupSeconds);
       ++rep) {
    bench.reset();
    const Clock::time_point start = Clock::now();
    StatusOr<std::unique_ptr<Bench>> built = Setup(config);
    if (!built.ok()) return Fail("set-up: " + built.status().ToString());
    bench = *std::move(built);
    setup_s.push_back(SecondsSince(start));
    check_refs("set-up " + std::to_string(rep));
  }
  const double first_setup_s = SecondsSince(process_start);

  // ---- untraced timed phase ----
  double warmup_s = 0.0;
  if (IsServe(config.workload) && !config.smoke) {
    warmup_s = RunServe(*bench, 1.0, 0).wall_s;
  }
  const double cpu_before = CpuSeconds();
  const Tally timed = RunPhase(config, *bench, flags.seconds);
  const double cpu_s = CpuSeconds() - cpu_before;
  const double untraced_p50 = Quantile(timed.latencies, 0.5);
  const PassTotals pass = OnePass(bench->shapes);

  // ---- traced phase ----
  std::vector<Metric> per_layer;
  std::vector<std::string> absent;
  Tally traced;
  double traced_setup_s = 0.0;
  if (flags.trace) {
    bench.reset();
    Tracer tracer;
    double phase_from_us = 0.0;
    double phase_to_us = 0.0;
    RegistrySnapshot before;
    RegistrySnapshot after;
    {
      TraceSession session(&tracer);
      const Clock::time_point start = Clock::now();
      StatusOr<std::unique_ptr<Bench>> built = Setup(config);
      if (!built.ok()) return Fail("traced set-up: " + built.status().ToString());
      bench = *std::move(built);
      traced_setup_s = SecondsSince(start);
      check_refs("traced set-up");
      if (IsServe(config.workload) && !config.smoke) {
        RunServe(*bench, 0.5, 0);  // warm-up, outside the span window
      }
      before = Snapshot(*bench->engine);
      phase_from_us = tracer.NowMicros();
      traced = RunPhase(config, *bench, flags.traced_seconds);
      phase_to_us = tracer.NowMicros();
      after = Snapshot(*bench->engine);
      bench.reset();  // joins the engine's threads inside the session
    }
    double calibrate_s = 0.0;
    for (const auto& [key, list] : CollectSpans(tracer, 0.0, phase_from_us)) {
      if (key != "planner/calibrate") continue;
      for (const Span& s : list) calibrate_s += s.seconds();
    }
    std::map<std::string, std::vector<Span>> spans =
        CollectSpans(tracer, phase_from_us, phase_to_us);
    for (const std::string& key : ExpectedSpans(config)) {
      const bool seen = key == "planner/calibrate"
                            ? calibrate_s > 0.0
                            : spans.count(key) > 0;
      if (!seen) absent.push_back(key);
    }
    per_layer = PerLayerMetrics(config, spans, calibrate_s, traced, pass,
                                before, after, untraced_p50);
    if (!flags.trace_out.empty()) {
      const Status s = tracer.WriteChromeTrace(flags.trace_out);
      if (!s.ok()) return Fail("--trace-out: " + s.ToString());
    }
  }
  bench.reset();

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double ops = static_cast<double>(std::max<int64_t>(1, timed.ops));
  const std::vector<Metric> end_to_end = {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"latency_p50_s", untraced_p50, "s"},
      {"latency_p99_s", Quantile(timed.latencies, 0.99), "s"},
      {"throughput_ops_s", timed.wall_s > 0.0 ? timed.ops / timed.wall_s : 0.0,
       "ops/s"},
      {"cpu_s_per_op", cpu_s / ops, "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
      {"sim_makespan_s", pass.sim_makespan_s, "sim_s"},
      {"error_rate",
       static_cast<double>(timed.failed + traced.failed) /
           static_cast<double>(std::max<int64_t>(1, timed.ops + traced.ops)),
       "fraction"},
  };

  for (const std::string& e : timed.errors) errors.push_back(e);
  for (const std::string& e : traced.errors) errors.push_back(e);
  const bool correct =
      errors.empty() && timed.failed == 0 && traced.failed == 0;
  for (const std::string& e : errors) {
    std::fprintf(stderr, "theta_bench: %s\n", e.c_str());
  }
  for (const std::string& key : absent) {
    std::fprintf(stderr, "theta_bench: absent span %s\n", key.c_str());
  }

  std::string json = "{";
  json += "\"workload\": " + JsonString(config.workload);
  json += ", \"seed\": " + std::to_string(config.seed);
  json += std::string(", \"smoke\": ") + (config.smoke ? "true" : "false");
  json += ", \"threads\": " + std::to_string(config.threads);
  json += ", \"nproc\": " + std::to_string(cpus);
  json += ", \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency());
  json += ", \"compiler\": " + JsonString(Compiler());
  json += ", \"build_type\": " + JsonString(THETA_BENCH_BUILD_TYPE);
  json += std::string(", \"correct\": ") + (correct ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(timed.ops + traced.ops);
  json += ", \"failed\": " + std::to_string(timed.failed + traced.failed);
  json += ", \"ops\": {\"timed\": " + std::to_string(timed.ops) +
          ", \"traced\": " + std::to_string(traced.ops) + "}";
  json += ", \"phases_s\": {\"setup\": " + JsonNumbers(setup_s) +
          ", \"to_timed_phase\": " + JsonNumber(first_setup_s) +
          ", \"warmup\": " + JsonNumber(warmup_s) +
          ", \"timed\": " + JsonNumber(timed.wall_s) +
          ", \"traced_setup\": " + JsonNumber(traced_setup_s) +
          ", \"traced\": " + JsonNumber(traced.wall_s) + "}";
  json += ", \"end_to_end\": " + JsonMetrics(end_to_end);
  json += ", \"per_layer\": " + JsonMetrics(per_layer);
  json += ", \"absent_spans\": " + JsonList(absent);
  json += ", \"errors\": " + JsonList(errors);
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace mrtheta::theta_bench

int main(int argc, char** argv) {
  return mrtheta::theta_bench::Main(argc, argv);
}
