#ifndef MRTHETA_BENCH_BENCH_UTIL_H_
#define MRTHETA_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "src/api/theta_engine.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cost/cost_model.h"
#include "src/mapreduce/sim_cluster.h"

namespace mrtheta::bench {

/// One ThetaEngine session on a kP-unit cluster, calibrated eagerly.
/// Exits the process on failure (benches are top-level harnesses).
struct Harness {
  ThetaEngine engine;

  explicit Harness(int kp, int num_threads = 1);
};

/// Elapsed wall-clock seconds since `start` (bench timing boilerplate).
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Simulated seconds for one (query, planner) pair. Planner name in
/// {"ours", "ysmart", "hive", "pig"}.
struct SystemResult {
  std::string system;
  double seconds = 0.0;
  int jobs = 0;
  int64_t result_rows_physical = 0;
  double result_selectivity = 0.0;
};

/// Plans and executes `query` with all four systems on the harness's
/// cluster.
std::vector<SystemResult> RunAllSystems(const Query& query, Harness& harness,
                                        uint64_t seed = 42);

/// Runs one system only.
StatusOr<SystemResult> RunSystem(const std::string& system,
                                 const Query& query, Harness& harness,
                                 uint64_t seed = 42);

/// One machine-readable benchmark measurement. Serialized into the
/// BENCH_*.json files that track the perf trajectory across PRs.
struct KernelBenchRecord {
  std::string label;       ///< benchmark case, e.g. "lt_20000x20000"
  std::string kernel;      ///< JoinKernelName of the measured path
  int64_t left_rows = 0;
  int64_t right_rows = 0;
  int64_t wall_ns = 0;
  double tuples_per_sec = 0.0;  ///< input tuples processed per second
  int64_t output_pairs = 0;
};

/// Writes `records` to `path` as a JSON array (overwrites the file).
Status WriteBenchJson(const std::string& path,
                      const std::vector<KernelBenchRecord>& records);

/// One measured end-to-end run of a whole query plan on the in-process
/// runtime (bench_runtime / BENCH_runtime.json), with the
/// thread-count-invariant simulated makespan and result cardinality as
/// correctness anchors.
struct RuntimeBenchRecord {
  std::string workload;     ///< "tpch", "flights", "mobile", "prune", ...
  std::string query;        ///< e.g. "q17_20k"
  int threads = 1;          ///< ExecutorOptions::num_threads
  int jobs = 0;             ///< plan jobs executed
  double wall_seconds = 0.0;
  double sim_makespan_seconds = 0.0;  ///< identical at every thread count
  /// Simulated shuffle volume: Σ over plan jobs of the logical map-output
  /// bytes. Deterministic; gated direction-aware by check_bench.py. This
  /// is the quantity column pruning / selection pushdown shrink.
  int64_t sim_shuffle_bytes = 0;
  int64_t result_rows_physical = 0;
  /// Relative wall-clock cost of span tracing for this record's run:
  /// (traced - untraced) / untraced, min-of-reps. Only the trace_overhead
  /// workload measures it (docs/OBSERVABILITY.md); every other record
  /// carries 0. Always serialized — check_bench.py fails if a record
  /// stops emitting it.
  double trace_overhead = 0.0;
  /// Process-wide MemoryBudget high-water mark over this record's run
  /// (docs/MEMORY.md). Benches ResetPeak() before each measured execution.
  /// Always serialized; check_bench.py requires it on current records.
  int64_t peak_mem_bytes = 0;
  /// Shuffle bytes spilled to disk during this record's run. 0 for every
  /// unbudgeted workload (the benches run without a memory budget).
  int64_t spill_bytes = 0;
};

/// Writes `records` to `path` as a JSON array (overwrites the file).
Status WriteRuntimeBenchJson(const std::string& path,
                             const std::vector<RuntimeBenchRecord>& records);

/// One skew-handling measurement (bench_skew / BENCH_skew.json): the
/// reducer-input balance of a join with skew handling off vs on. All
/// volume fields are deterministic simulated quantities; only
/// wall_seconds varies across runners.
struct SkewBenchRecord {
  std::string workload;   ///< "mobile"
  std::string query;      ///< e.g. "station_pair_8k"
  std::string mode;       ///< "off" | "on"
  double zipf_exponent = 0.0;
  int reduce_tasks = 0;
  int residual_tasks = 0;     ///< Hilbert segments
  int heavy_tasks = 0;        ///< tasks in heavy-value grids
  int heavy_groups = 0;       ///< detected heavy values with a grid
  int64_t max_reduce_input_bytes = 0;
  double mean_reduce_input_bytes = 0.0;
  double max_mean_ratio = 1.0;
  int64_t result_rows_physical = 0;   ///< identical across modes
  double sim_makespan_seconds = 0.0;  ///< 0 for single-job records
  double wall_seconds = 0.0;          ///< measured; exempt from the CI gate
};

/// Writes `records` to `path` as a JSON array (overwrites the file).
Status WriteSkewBenchJson(const std::string& path,
                          const std::vector<SkewBenchRecord>& records);

/// One bounded-memory shuffle measurement (bench_runtime's mem_budget
/// workload / BENCH_mem.json): the same join executed unbudgeted and under
/// a tight --mem-budget, fingerprint-checked byte-identical before a
/// record is written. The budgeted records must spill (spill_bytes > 0)
/// and hold peak_mem_bytes within 1.25x the budget; both are gated
/// direction-aware by check_bench.py.
struct MemBenchRecord {
  std::string workload;  ///< "mem_budget"
  std::string query;     ///< e.g. "equi_40k"
  std::string mode;      ///< "unbudgeted" | "budgeted"
  int threads = 1;
  int64_t mem_budget_bytes = 0;  ///< 0 in unbudgeted mode
  int jobs = 0;
  double wall_seconds = 0.0;
  double sim_makespan_seconds = 0.0;  ///< identical across modes/threads
  int64_t sim_shuffle_bytes = 0;      ///< identical across modes/threads
  int64_t result_rows_physical = 0;   ///< identical across modes/threads
  int64_t spill_bytes = 0;
  int64_t spill_files = 0;
  int64_t peak_mem_bytes = 0;
};

/// Writes `records` to `path` as a JSON array (overwrites the file).
Status WriteMemBenchJson(const std::string& path,
                         const std::vector<MemBenchRecord>& records);

/// FNV-1a over every cell of `rows` *in row order* — the benches'
/// "byte-identical results" assertions mean content and order both.
uint64_t OrderedRowsFingerprint(const Relation& rows);

/// One serving-layer measurement (bench_engine_serve / BENCH_serve.json):
/// N closed-loop query streams submitting against one admission-controlled
/// engine. Latency/throughput fields are measured (exempt from the CI
/// gate but required to be emitted); the counters are deterministic and
/// gated exactly — every stream's every result is fingerprint-checked
/// against the sequential reference before a record is written.
struct ServeBenchRecord {
  std::string workload;  ///< "engine_serve"
  std::string query;     ///< query mix, e.g. "mixed3"
  int streams = 0;             ///< concurrent closed-loop submitters
  int queries_per_stream = 0;
  int total_queries = 0;       ///< streams * queries_per_stream
  int threads = 0;             ///< engine pool width
  int per_query_threads = 0;   ///< EngineOptions::per_query_threads
  int max_inflight_queries = 0;
  int hardware_threads = 0;
  double p50_latency_seconds = 0.0;  ///< submit -> future resolution
  double p99_latency_seconds = 0.0;
  double throughput_qps = 0.0;
  double wall_seconds = 0.0;         ///< whole round, first submit to last
  // Deterministic serving counters, deltas over this round's submissions.
  int64_t plan_cache_hits = 0;       ///< == total_queries once warmed
  int64_t plan_cache_misses = 0;     ///< 0 once warmed
  int64_t admission_rejections = 0;  ///< 0 (queue sized to never reject)
  int64_t result_rows_total = 0;     ///< Σ result rows over the round
};

/// Writes `records` to `path` as a JSON array (overwrites the file).
Status WriteServeBenchJson(const std::string& path,
                           const std::vector<ServeBenchRecord>& records);

}  // namespace mrtheta::bench

#endif  // MRTHETA_BENCH_BENCH_UTIL_H_
