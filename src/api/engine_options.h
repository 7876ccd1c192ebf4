#ifndef MRTHETA_API_ENGINE_OPTIONS_H_
#define MRTHETA_API_ENGINE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cost/calibration.h"
#include "src/mapreduce/cluster_config.h"

namespace mrtheta {

/// \brief The single validated options surface of a ThetaEngine session:
/// the simulated cluster, the planner knobs, the physical executor knobs
/// and the calibration campaign, merged so callers configure one struct
/// instead of wiring four objects by hand.
///
/// Every field keeps its subsystem's default, so `ThetaEngine engine;` is
/// the paper's Table 1 test bed on a one-thread runtime.
struct EngineOptions {
  /// The simulated shared-nothing cluster (kP workers, Table 1 parameters).
  ClusterConfig cluster;
  /// Optimizer knobs (Lemma 1/2 and column pruning, the reduce-task cap,
  /// the skew-flag threshold, statistics collection).
  PlannerOptions planner;
  /// Physical runtime knobs (threads, skew handling, fault injection and
  /// retries, memory budget). The engine sizes its shared thread pool to
  /// `executor.num_threads`.
  ExecutorOptions executor;
  /// Cost-model calibration campaign (Sec. 6.2 probes).
  CalibrationOptions calibration;
  /// Workers of the throwaway calibration cluster: the probe campaign
  /// needs one free map wave, and the fitted parameters are kP-independent,
  /// so calibration always runs at this width regardless of
  /// `cluster.num_workers`. 0 = use `cluster.num_workers`.
  int calibration_workers = 96;
  /// Seed of Execute/Submit runs. Same seed + same options ⇒ byte-identical
  /// results across Execute and Submit (docs/API.md determinism contract).
  uint64_t execution_seed = 42;

  // --- Serving knobs (docs/API.md "Serving") ---

  /// Capacity (entries) of the session plan cache, keyed by canonical
  /// query structure + each input's Relation::generation(). A repeated
  /// query shape skips CollectStats and Planner::Plan entirely; least
  /// recently used shapes are evicted beyond this capacity. 0 disables
  /// plan caching (every Execute re-plans, the pre-serving behaviour).
  int plan_cache_capacity = 64;
  /// Maximum Submits executing concurrently; further submissions queue
  /// FIFO up to `max_queue_depth` and then are rejected with
  /// kResourceExhausted. 0 = unbounded (no admission control, the legacy
  /// behaviour). Execute is synchronous in the caller's thread and is not
  /// admission-controlled.
  int max_inflight_queries = 0;
  /// Submissions allowed to wait for admission when `max_inflight_queries`
  /// are already running; only meaningful when admission control is on.
  int max_queue_depth = 64;
  /// Per-query cap on runtime threads under Execute/Submit, so one fat
  /// query cannot monopolize the shared pool while others are admitted.
  /// 0 = no cap (each query may use the full pool). ExecutePlan with
  /// caller-provided executor options is not capped.
  int per_query_threads = 0;
  /// Session memory budget in bytes (docs/MEMORY.md): shuffle state beyond
  /// it spills to disk and is merged back, with byte-identical results.
  /// Applied to every Execute/Submit/ExecutePlan whose executor options
  /// leave mem_budget_bytes at 0; 0 defers to executor.mem_budget_bytes
  /// and then to $MRTHETA_MEM_BUDGET (the process-wide default). The
  /// `--mem-budget` flag of the examples/benches sets this field.
  int64_t mem_budget_bytes = 0;

  /// Cross-field validation; every ThetaEngine entry point fails with this
  /// status when the options are inconsistent.
  Status Validate() const;

  std::string ToString() const;
};

}  // namespace mrtheta

#endif  // MRTHETA_API_ENGINE_OPTIONS_H_
