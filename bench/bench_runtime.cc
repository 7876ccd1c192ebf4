// Measured end-to-end runs of whole query plans on the in-process
// runtime: the TPC-H, flights and mobile workloads at 1 thread and at the
// pool width, plus the session-reuse figure (cold single-shot vs warm
// engine caches).
//
// The simulated makespan and the physical result rows are recorded as
// correctness anchors: both must be identical at both thread counts (the
// runtime's determinism contract, see docs/RUNTIME.md). The process aborts
// if they are not. Each workload writes one record, from the pool-width
// run.
//
// The whole bench drives ONE ThetaEngine session (docs/API.md): plans come
// from the engine's cached calibration/statistics, executions run on the
// engine's shared pool with per-call executor overrides.
//
// Every record carries sim_shuffle_bytes (the deterministic map→reduce
// volume, the paper's cost objective). The "prune" workload executes the
// TPC-H Q17 plan with and without its required-column annotation on the
// same engine and asserts the column-pruning contract: byte-identical
// projected rows, with pruned shuffle volume at most 75% of full-width
// (docs/EXECUTOR.md "Column pruning").
//
// Usage: bench_runtime [--trace-out=F] [--metrics-out=F] [output.json]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/theta_engine.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/mem/memory_budget.h"
#include "src/obs/obs_export.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace mrtheta::bench {
namespace {

// Pool width of the bench's one session.
constexpr int kMaxThreads = 8;

struct PlannedQuery {
  std::string workload;
  std::string name;
  Query query;
  QueryPlan plan;
};

// Runs the plan on 1 thread and at the pool width; exits unless both give
// the same rows and makespan, and records the pool-width run.
void RunAtBothWidths(const PlannedQuery& pq, ThetaEngine& engine,
                     std::vector<RuntimeBenchRecord>& records) {
  SimTime base_makespan = 0;
  int64_t base_rows = -1;
  for (int threads : {1, kMaxThreads}) {
    ExecutorOptions options = engine.options().executor;
    options.num_threads = threads;
    // peak_mem_bytes is a process-wide high-water mark; reset per run so
    // every record reports its own execution's peak (docs/MEMORY.md).
    MemoryBudget::Global().ResetPeak();
    const auto result = engine.ExecutePlan(pq.query, pq.plan, options,
                                           engine.options().execution_seed);
    if (!result.ok()) {
      std::fprintf(stderr, "%s/%s failed at %d threads: %s\n",
                   pq.workload.c_str(), pq.name.c_str(), threads,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    // Physical execution only — excludes the thread-count-invariant
    // simulation replay and final projection.
    const double wall = result->measured_seconds();
    std::printf("  %-8s %-10s threads=%d  wall=%7.3fs  rows=%lld\n",
                pq.workload.c_str(), pq.name.c_str(), threads, wall,
                static_cast<long long>(result->num_rows()));
    std::fflush(stdout);
    if (threads == 1) {
      base_makespan = result->makespan();
      base_rows = result->num_rows();
      continue;
    }
    if (result->makespan() != base_makespan ||
        result->num_rows() != base_rows) {
      std::fprintf(stderr,
                   "%s/%s: determinism violation at %d threads "
                   "(makespan %lld vs %lld, rows %lld vs %lld)\n",
                   pq.workload.c_str(), pq.name.c_str(), threads,
                   static_cast<long long>(result->makespan()),
                   static_cast<long long>(base_makespan),
                   static_cast<long long>(result->num_rows()),
                   static_cast<long long>(base_rows));
      std::exit(1);
    }
    RuntimeBenchRecord rec;
    rec.workload = pq.workload;
    rec.query = pq.name;
    rec.threads = threads;
    rec.jobs = static_cast<int>(pq.plan.jobs.size());
    rec.wall_seconds = wall;
    rec.sim_makespan_seconds = result->simulated_seconds();
    rec.sim_shuffle_bytes = result->sim_shuffle_bytes();
    rec.result_rows_physical = result->num_rows();
    rec.peak_mem_bytes = result->execution().peak_mem_bytes;
    rec.spill_bytes = result->execution().spill_bytes;
    records.push_back(rec);
  }
}

// Session-reuse figure (docs/API.md): latency of the very first query on a
// cold engine (pays calibration + statistics + planning, i.e. the legacy
// single-shot pipeline) vs the same query again with warm session caches.
// Must run before anything else touches the engine. Both records carry
// identical deterministic fields — only wall_seconds (measured; exempt
// from the CI gate) differs.
void RunEngineReuse(ThetaEngine& engine,
                    std::vector<RuntimeBenchRecord>& records) {
  MobileDataOptions options;
  options.physical_rows = 1500;
  options.logical_bytes = 2 * kGiB;
  const auto query = MobileQueryBuilder(1, options).Build();
  if (!query.ok()) std::exit(1);

  for (const char* phase : {"cold", "warm"}) {
    MemoryBudget::Global().ResetPeak();
    const auto start = std::chrono::steady_clock::now();
    const auto result = engine.Execute(*query);
    const double wall = SecondsSince(start);
    if (!result.ok()) {
      std::fprintf(stderr, "engine_reuse %s failed: %s\n", phase,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    RuntimeBenchRecord rec;
    rec.workload = "engine_reuse";
    rec.query = phase;
    rec.threads = engine.options().executor.num_threads;
    rec.jobs = static_cast<int>(result->jobs().size());
    rec.wall_seconds = wall;  // whole call: plan + execute (+ calibration)
    rec.sim_makespan_seconds = result->simulated_seconds();
    rec.sim_shuffle_bytes = result->sim_shuffle_bytes();
    rec.result_rows_physical = result->num_rows();
    rec.peak_mem_bytes = result->execution().peak_mem_bytes;
    rec.spill_bytes = result->execution().spill_bytes;
    records.push_back(rec);
    std::printf("  %-8s %-10s threads=%d  wall=%7.3fs  rows=%lld\n",
                rec.workload.c_str(), phase, rec.threads, wall,
                static_cast<long long>(rec.result_rows_physical));
    std::fflush(stdout);
  }
  const EngineMetrics metrics = engine.metrics();
  if (metrics.calibrations != 1) {
    std::fprintf(stderr, "engine_reuse: expected 1 calibration, got %lld\n",
                 static_cast<long long>(metrics.calibrations));
    std::exit(1);
  }
  // Reuse must actually happen, not just be cheap: the warm run has to
  // serve the cold run's plan from the session plan cache, i.e. the
  // planner ran exactly once and the second Execute was a cache hit.
  // (Deterministic counters, not wall-clock ratios — a warm ≈ cold figure
  // with zero hits is the regression this guards against.)
  if (metrics.plan_cache_hits < 1 || metrics.plans != 1) {
    std::fprintf(stderr,
                 "engine_reuse: warm run did not reuse the cold plan "
                 "(plan_cache_hits=%lld, plans=%lld)\n",
                 static_cast<long long>(metrics.plan_cache_hits),
                 static_cast<long long>(metrics.plans));
    std::exit(1);
  }
}

// Column-pruning ablation (docs/EXECUTOR.md): the SAME Q17 plan executed
// with its required-column annotation vs stripped to full-width. Rids,
// partitioning and row order are untouched by the annotation, so the
// projected outputs must be byte-identical while the simulated shuffle
// volume shrinks — asserted at >= 25% for this workload (lineitem carries
// 8 columns, the query touches 3).
void RunPruneComparison(const Query& query, const QueryPlan& plan,
                        ThetaEngine& engine,
                        std::vector<RuntimeBenchRecord>& records) {
  QueryPlan full_width = plan;
  for (PlanJob& job : full_width.jobs) job.output_columns.clear();

  uint64_t fingerprints[2] = {0, 0};
  const QueryPlan* variants[2] = {&plan, &full_width};
  const char* names[2] = {"q17_pruned", "q17_fullwidth"};
  int64_t shuffle[2] = {0, 0};
  for (int v = 0; v < 2; ++v) {
    MemoryBudget::Global().ResetPeak();
    const auto start = std::chrono::steady_clock::now();
    const auto result = engine.ExecutePlan(query, *variants[v]);
    if (!result.ok()) {
      std::fprintf(stderr, "prune comparison %s failed: %s\n", names[v],
                   result.status().ToString().c_str());
      std::exit(1);
    }
    fingerprints[v] = OrderedRowsFingerprint(result->rows());
    shuffle[v] = result->sim_shuffle_bytes();
    RuntimeBenchRecord rec;
    rec.workload = "prune";
    rec.query = names[v];
    rec.threads = engine.options().executor.num_threads;
    rec.jobs = static_cast<int>(plan.jobs.size());
    rec.wall_seconds = SecondsSince(start);
    rec.sim_makespan_seconds = result->simulated_seconds();
    rec.sim_shuffle_bytes = result->sim_shuffle_bytes();
    rec.result_rows_physical = result->num_rows();
    rec.peak_mem_bytes = result->execution().peak_mem_bytes;
    rec.spill_bytes = result->execution().spill_bytes;
    records.push_back(rec);
    std::printf("  %-8s %-14s shuffle=%lld B  sim=%7.1fs  rows=%lld\n",
                rec.workload.c_str(), names[v],
                static_cast<long long>(rec.sim_shuffle_bytes),
                rec.sim_makespan_seconds,
                static_cast<long long>(rec.result_rows_physical));
    std::fflush(stdout);
  }
  if (fingerprints[0] != fingerprints[1]) {
    std::fprintf(stderr,
                 "prune comparison: projected results differ "
                 "(%llx vs %llx) — pruning must not change rows\n",
                 static_cast<unsigned long long>(fingerprints[0]),
                 static_cast<unsigned long long>(fingerprints[1]));
    std::exit(1);
  }
  if (shuffle[0] > (shuffle[1] * 3) / 4) {
    std::fprintf(stderr,
                 "prune comparison: expected >= 25%% shuffle-byte drop, got "
                 "%lld (pruned) vs %lld (full-width)\n",
                 static_cast<long long>(shuffle[0]),
                 static_cast<long long>(shuffle[1]));
    std::exit(1);
  }
  std::printf("  prune    q17 shuffle drop: %.1f%%\n",
              100.0 * (1.0 - static_cast<double>(shuffle[0]) /
                                 static_cast<double>(shuffle[1])));
}

// Cost of the fault-tolerant execution path when nothing actually fails:
// the SAME Q17 plan with the chaos machinery disabled ("q17_off") vs an
// armed zero-rate FaultPlan ("q17_armed" — retry wrappers, injector
// consultation, per-task commit buffers, all live but never firing).
// Outputs and simulated metrics must be byte-identical — the process
// aborts otherwise — so both records carry the same deterministic fields
// and check_bench.py holds them to a tight per-workload tolerance
// (docs/RUNTIME.md "Fault tolerance"). The wall-clock overhead itself is
// printed but, like all measured times, exempt from the gate.
void RunFaultOverhead(const Query& query, const QueryPlan& plan,
                      ThetaEngine& engine,
                      std::vector<RuntimeBenchRecord>& records) {
  uint64_t fingerprints[2] = {0, 0};
  SimTime makespans[2] = {0, 0};
  double walls[2] = {0.0, 0.0};
  const char* names[2] = {"q17_off", "q17_armed"};
  for (int v = 0; v < 2; ++v) {
    ExecutorOptions options = engine.options().executor;
    options.num_threads = kMaxThreads;
    options.fault_plan = FaultPlan{};  // env-independent: explicit plans
    options.fault_plan.armed = v == 1;
    MemoryBudget::Global().ResetPeak();
    const auto result = engine.ExecutePlan(query, plan, options,
                                           engine.options().execution_seed);
    if (!result.ok()) {
      std::fprintf(stderr, "fault_overhead %s failed: %s\n", names[v],
                   result.status().ToString().c_str());
      std::exit(1);
    }
    fingerprints[v] = OrderedRowsFingerprint(result->rows());
    makespans[v] = result->makespan();
    walls[v] = result->measured_seconds();
    RuntimeBenchRecord rec;
    rec.workload = "fault_overhead";
    rec.query = names[v];
    rec.threads = kMaxThreads;
    rec.jobs = static_cast<int>(plan.jobs.size());
    rec.wall_seconds = walls[v];
    rec.sim_makespan_seconds = result->simulated_seconds();
    rec.sim_shuffle_bytes = result->sim_shuffle_bytes();
    rec.result_rows_physical = result->num_rows();
    rec.peak_mem_bytes = result->execution().peak_mem_bytes;
    rec.spill_bytes = result->execution().spill_bytes;
    records.push_back(rec);
    std::printf("  %-8s %-10s wall=%7.3fs  rows=%lld\n", rec.workload.c_str(),
                names[v], walls[v],
                static_cast<long long>(rec.result_rows_physical));
    std::fflush(stdout);
  }
  if (fingerprints[0] != fingerprints[1] || makespans[0] != makespans[1]) {
    std::fprintf(stderr,
                 "fault_overhead: armed zero-rate run diverged from the "
                 "plain run (fingerprint %llx vs %llx, makespan %lld vs "
                 "%lld) — the chaos path must be invisible when no fault "
                 "fires\n",
                 static_cast<unsigned long long>(fingerprints[0]),
                 static_cast<unsigned long long>(fingerprints[1]),
                 static_cast<long long>(makespans[0]),
                 static_cast<long long>(makespans[1]));
    std::exit(1);
  }
  if (walls[0] > 0.0) {
    std::printf("  fault_overhead q17 armed-path overhead: %+.1f%%\n",
                100.0 * (walls[1] / walls[0] - 1.0));
  }
}

// Cost of span tracing on a hot execution path: the SAME Q17 plan with
// tracing disabled ("q17_untraced") vs a live TraceSession collecting
// every span ("q17_traced"). Outputs and simulated metrics must be
// byte-identical — tracing only observes, it must not perturb one bit
// (docs/OBSERVABILITY.md) — and the min-of-reps wall overhead must stay
// under 3%. Both are hard failures. trace_overhead lands in both records
// so check_bench.py can refuse a BENCH file that stops emitting it.
//
// The overhead gate carries an absolute floor: on this ~40ms workload the
// true span cost is ~30us/run (95 spans x ~300ns), i.e. < 0.1% — while
// shared-runner noise on identical code paths routinely exceeds 3%
// relative (the fault_overhead pair shows it). Failing needs BOTH >3%
// relative AND >2ms absolute, which only a real per-task/per-row
// instrumentation regression can produce.
void RunTraceOverhead(const Query& query, const QueryPlan& plan,
                      ThetaEngine& engine,
                      std::vector<RuntimeBenchRecord>& records) {
  constexpr int kReps = 9;
  constexpr double kMaxOverhead = 0.03;
  constexpr double kMinAbsoluteSlowdownSeconds = 0.002;
  // A session opened by --trace-out is already measuring every variant;
  // nesting another session is not allowed, so the comparison would be
  // traced-vs-traced noise. Skip it (the flag run is for artifact export).
  if (Tracer::active() != nullptr) {
    std::printf("  trace_overhead skipped: a --trace-out session is open\n");
    return;
  }
  Tracer tracer;
  uint64_t fingerprints[2] = {0, 0};
  SimTime makespans[2] = {0, 0};
  double walls[2] = {0.0, 0.0};
  int64_t shuffle[2] = {0, 0};
  double sims[2] = {0.0, 0.0};
  int64_t rows[2] = {0, 0};
  int64_t peaks[2] = {0, 0};
  int64_t spills[2] = {0, 0};
  const char* names[2] = {"q17_untraced", "q17_traced"};
  // Variants are interleaved per rep so slow machine drift (thermal,
  // co-tenant load) hits both equally; min-of-reps then discards the
  // transient spikes that remain.
  ExecutorOptions options = engine.options().executor;
  options.num_threads = kMaxThreads;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int v = 0; v < 2; ++v) {
      std::optional<TraceSession> session;
      if (v == 1) session.emplace(&tracer);
      MemoryBudget::Global().ResetPeak();
      const auto result = engine.ExecutePlan(query, plan, options,
                                             engine.options().execution_seed);
      if (!result.ok()) {
        std::fprintf(stderr, "trace_overhead %s failed: %s\n", names[v],
                     result.status().ToString().c_str());
        std::exit(1);
      }
      if (rep == 0) {
        fingerprints[v] = OrderedRowsFingerprint(result->rows());
        makespans[v] = result->makespan();
        shuffle[v] = result->sim_shuffle_bytes();
        sims[v] = result->simulated_seconds();
        rows[v] = result->num_rows();
        peaks[v] = result->execution().peak_mem_bytes;
        spills[v] = result->execution().spill_bytes;
      }
      const double wall = result->measured_seconds();
      if (rep == 0 || wall < walls[v]) walls[v] = wall;
    }
  }
  if (fingerprints[0] != fingerprints[1] || makespans[0] != makespans[1]) {
    std::fprintf(stderr,
                 "trace_overhead: traced run diverged from the untraced run "
                 "(fingerprint %llx vs %llx, makespan %lld vs %lld) — "
                 "tracing must not perturb the execution\n",
                 static_cast<unsigned long long>(fingerprints[0]),
                 static_cast<unsigned long long>(fingerprints[1]),
                 static_cast<long long>(makespans[0]),
                 static_cast<long long>(makespans[1]));
    std::exit(1);
  }
  const double overhead =
      walls[0] > 0.0 ? walls[1] / walls[0] - 1.0 : 0.0;
  for (int v = 0; v < 2; ++v) {
    RuntimeBenchRecord rec;
    rec.workload = "trace_overhead";
    rec.query = names[v];
    rec.threads = kMaxThreads;
    rec.jobs = static_cast<int>(plan.jobs.size());
    rec.wall_seconds = walls[v];
    rec.sim_makespan_seconds = sims[v];
    rec.sim_shuffle_bytes = shuffle[v];
    rec.result_rows_physical = rows[v];
    rec.trace_overhead = overhead;
    rec.peak_mem_bytes = peaks[v];
    rec.spill_bytes = spills[v];
    records.push_back(rec);
    std::printf("  %-8s %-13s wall=%7.3fs (min of %d)  rows=%lld\n",
                rec.workload.c_str(), names[v], walls[v], kReps,
                static_cast<long long>(rec.result_rows_physical));
    std::fflush(stdout);
  }
  std::printf("  trace_overhead q17 traced-path overhead: %+.1f%% "
              "(%zu spans/run)\n",
              100.0 * overhead, tracer.num_events() / kReps);
  if (overhead > kMaxOverhead &&
      walls[1] - walls[0] > kMinAbsoluteSlowdownSeconds) {
    std::fprintf(stderr,
                 "trace_overhead: %.1f%% (%.1fms) wall overhead exceeds "
                 "the %.0f%% budget (min of %d reps)\n",
                 100.0 * overhead, 1000.0 * (walls[1] - walls[0]),
                 100.0 * kMaxOverhead, kReps);
    std::exit(1);
  }
}

// Bounded-memory shuffle figure (docs/MEMORY.md): a 40k x 40k equi-join —
// 10x the mobile q1_4k physical scale — executed unbudgeted and under a
// tight --mem-budget-style ExecutorOptions override, at 1 and 4 threads
// each. Three hard contracts, the process aborts on violation:
//
//   1. all four runs produce byte-identical projected rows and the same
//      simulated makespan (the budget is invisible to results);
//   2. every budgeted run actually spills (spill_bytes > 0) — a budget
//      the workload never reaches would gate nothing;
//   3. the budgeted peak stays within kMemPeakSlack x the budget. "Flat"
//      is 1.25x, not 1.0x: the budget is a spill trigger, so in-use
//      memory legitimately overshoots by the page/run granularity plus
//      the reduce-side merge working set before spilling catches up.
//
// The four records land in their own BENCH_mem.json; check_bench.py gates
// peak_mem_bytes and spill_bytes direction-aware against the committed
// baseline.
void RunMemBudget(ThetaEngine& engine, const std::string& out_path) {
  constexpr int64_t kMemRows = 125000;     // per side; mobile q1_4k is 4000
  constexpr int64_t kMemKeyRange = 20000;  // ~780k joined pairs
  constexpr int64_t kMemBudget = 6 * 1024 * 1024;
  constexpr double kMemPeakSlack = 1.25;

  auto make_side = [&](const char* name, uint64_t seed) {
    auto rel = std::make_shared<Relation>(
        name, Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
    Rng rng(seed);
    for (int64_t i = 0; i < kMemRows; ++i) {
      rel->AppendIntRow({static_cast<int64_t>(rng.Uniform(kMemKeyRange)),
                         static_cast<int64_t>(rng.Uniform(1 << 20))});
    }
    return rel;
  };
  QueryBuilder builder;
  builder.From("l", make_side("mem_l", 9101))
      .From("r", make_side("mem_r", 9102))
      .Where(Col("l.a") == Col("r.a"))
      .Select("l.b")
      .Select("r.b");
  const auto query = builder.Build();
  if (!query.ok()) {
    std::fprintf(stderr, "mem_budget query: %s\n",
                 query.status().ToString().c_str());
    std::exit(1);
  }
  const auto plan = engine.PlanQuery(*query);
  if (!plan.ok()) {
    std::fprintf(stderr, "mem_budget plan: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  // The planner sizes RN(MRJ) for the tiny physical sample (RN <= 4 here),
  // which makes ONE reduce task's gathered input comparable to the whole
  // budget — no budget can keep peak flat when a single indivisible task
  // needs most of it. Pin a cluster-realistic fan-out instead: with 128
  // reduce tasks each in-flight task gathers ~ shuffle_bytes / 128. The
  // other overshoot does not depend on RN: at most one partial page per
  // running map task. All four runs execute this same plan, so the
  // determinism contract is unchanged.
  QueryPlan mem_plan = *plan;
  for (PlanJob& job : mem_plan.jobs) job.num_reduce_tasks = 128;

  std::vector<MemBenchRecord> records;
  uint64_t ref_fingerprint = 0;
  SimTime ref_makespan = 0;
  for (int budgeted = 0; budgeted <= 1; ++budgeted) {
    for (int threads : {1, 4}) {
      ExecutorOptions options = engine.options().executor;
      options.num_threads = threads;
      options.mem_budget_bytes = budgeted ? kMemBudget : 0;
      MemoryBudget::Global().ResetPeak();
      const auto start = std::chrono::steady_clock::now();
      const auto result = engine.ExecutePlan(*query, mem_plan, options,
                                             engine.options().execution_seed);
      if (!result.ok()) {
        std::fprintf(stderr, "mem_budget %s/%dt failed: %s\n",
                     budgeted ? "budgeted" : "unbudgeted", threads,
                     result.status().ToString().c_str());
        std::exit(1);
      }
      const double wall = SecondsSince(start);
      const uint64_t fp = OrderedRowsFingerprint(result->rows());
      if (records.empty()) {
        ref_fingerprint = fp;
        ref_makespan = result->makespan();
      } else if (fp != ref_fingerprint || result->makespan() != ref_makespan) {
        std::fprintf(stderr,
                     "mem_budget: %s run at %d threads diverged from the "
                     "unbudgeted single-thread reference (fingerprint %llx "
                     "vs %llx, makespan %lld vs %lld) — the budget must be "
                     "invisible to results\n",
                     budgeted ? "budgeted" : "unbudgeted", threads,
                     static_cast<unsigned long long>(fp),
                     static_cast<unsigned long long>(ref_fingerprint),
                     static_cast<long long>(result->makespan()),
                     static_cast<long long>(ref_makespan));
        std::exit(1);
      }
      const ExecutionResult& exec = result->execution();
      if (budgeted) {
        if (exec.spill_bytes <= 0 || exec.spill_files <= 0) {
          std::fprintf(stderr,
                       "mem_budget: budgeted run at %d threads never "
                       "spilled (budget %lld, peak %lld) — the workload "
                       "must exceed the budget to gate anything\n",
                       threads, static_cast<long long>(kMemBudget),
                       static_cast<long long>(exec.peak_mem_bytes));
          std::exit(1);
        }
        if (static_cast<double>(exec.peak_mem_bytes) >
            kMemPeakSlack * static_cast<double>(kMemBudget)) {
          std::fprintf(stderr,
                       "mem_budget: budgeted run at %d threads peaked at "
                       "%lld bytes, over %.2fx the %lld-byte budget — "
                       "peak memory must stay flat under spilling\n",
                       threads, static_cast<long long>(exec.peak_mem_bytes),
                       kMemPeakSlack, static_cast<long long>(kMemBudget));
          std::exit(1);
        }
      }
      MemBenchRecord rec;
      rec.workload = "mem_budget";
      rec.query = "equi_125k";
      rec.mode = budgeted ? "budgeted" : "unbudgeted";
      rec.threads = threads;
      rec.mem_budget_bytes = budgeted ? kMemBudget : 0;
      rec.jobs = static_cast<int>(mem_plan.jobs.size());
      rec.wall_seconds = wall;
      rec.sim_makespan_seconds = result->simulated_seconds();
      rec.sim_shuffle_bytes = result->sim_shuffle_bytes();
      rec.result_rows_physical = result->num_rows();
      rec.spill_bytes = exec.spill_bytes;
      rec.spill_files = exec.spill_files;
      rec.peak_mem_bytes = exec.peak_mem_bytes;
      records.push_back(rec);
      std::printf("  %-8s %-10s threads=%d  wall=%7.3fs  rows=%lld  "
                  "spill=%lld B  peak=%lld B\n",
                  rec.workload.c_str(), rec.mode.c_str(), threads, wall,
                  static_cast<long long>(rec.result_rows_physical),
                  static_cast<long long>(rec.spill_bytes),
                  static_cast<long long>(rec.peak_mem_bytes));
      std::fflush(stdout);
    }
  }
  const Status status = WriteMemBenchJson(out_path, records);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu records)\n", out_path.c_str(), records.size());
}

int Main(int argc, char** argv) {
  const StatusOr<CommonFlags> flags =
      ParseCommonFlags(argc, argv, /*allow_runtime_flags=*/false);
  if (!flags.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--trace-out=FILE] "
                 "[--metrics-out=FILE] [output.json]\n",
                 flags.status().ToString().c_str(), argv[0]);
    return 2;
  }
  ObsExporter obs(flags->trace_out, flags->metrics_out);
  const std::string out_path =
      flags->output_path.empty() ? "BENCH_runtime.json" : flags->output_path;

  // The one session of this bench. Per-call overrides select 1 thread or
  // the pool width.
  EngineOptions engine_options;
  engine_options.executor.num_threads = kMaxThreads;
  ThetaEngine engine(engine_options);
  std::vector<RuntimeBenchRecord> records;

  // ---- Session reuse: cold single-shot vs warm caches (must be first,
  // while the engine is still cold) ----
  RunEngineReuse(engine, records);

  // ---- TPC-H Q17 at the 20k lineitem scale (multi-way self-join) ----
  TpchOptions tpch_options;
  tpch_options.scale_factor = 100;
  tpch_options.physical_lineitem_rows = 20000;
  const TpchData db = GenerateTpch(tpch_options);
  const auto q17 = TpchQueryBuilder(17, db).Build();
  if (!q17.ok()) {
    std::fprintf(stderr, "tpch q17: %s\n", q17.status().ToString().c_str());
    return 1;
  }
  const auto q17_plan = engine.PlanQuery(*q17);
  if (!q17_plan.ok()) return 1;
  RunAtBothWidths({"tpch", "q17_20k", *q17, *q17_plan}, engine, records);

  // ---- Column-pruning ablation on the Q17 plan ----
  RunPruneComparison(*q17, *q17_plan, engine, records);

  // ---- Flights itinerary chain (3 legs) ----
  FlightLegOptions leg_options;
  leg_options.physical_rows = 2000;
  std::vector<RelationPtr> legs;
  for (int i = 0; i < 3; ++i) legs.push_back(GenerateFlightLeg(i, leg_options));
  const auto flights =
      ItineraryQueryBuilder(legs, {StayOver{}, StayOver{}}).Build();
  if (!flights.ok()) return 1;
  const auto flights_plan = engine.PlanQuery(*flights);
  if (!flights_plan.ok()) return 1;
  RunAtBothWidths({"flights", "chain3_2k", *flights, *flights_plan}, engine,
                  records);

  // ---- Mobile Q1 (concurrent calls at the same station) ----
  MobileDataOptions mobile_options;
  mobile_options.physical_rows = 4000;
  mobile_options.logical_bytes = 2 * kGiB;
  const auto mobile = MobileQueryBuilder(1, mobile_options).Build();
  if (!mobile.ok()) return 1;
  const auto mobile_plan = engine.PlanQuery(*mobile);
  if (!mobile_plan.ok()) return 1;
  RunAtBothWidths({"mobile", "q1_4k", *mobile, *mobile_plan}, engine,
                  records);

  // ---- Fault-tolerance machinery overhead on the Q17 plan ----
  RunFaultOverhead(*q17, *q17_plan, engine, records);

  // ---- Span-tracing overhead on the Q17 plan ----
  RunTraceOverhead(*q17, *q17_plan, engine, records);

  // ---- Bounded-memory shuffle: unbudgeted vs tight budget, own file ----
  const std::string::size_type slash = out_path.find_last_of('/');
  const std::string mem_out_path =
      slash == std::string::npos
          ? std::string("BENCH_mem.json")
          : out_path.substr(0, slash + 1) + "BENCH_mem.json";
  RunMemBudget(engine, mem_out_path);

  const Status status = WriteRuntimeBenchJson(out_path, records);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records)\n", out_path.c_str(), records.size());
  if (const Status s = obs.Finish(&engine.metrics_registry()); !s.ok()) {
    std::fprintf(stderr, "observability export failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mrtheta::bench

int main(int argc, char** argv) { return mrtheta::bench::Main(argc, argv); }
