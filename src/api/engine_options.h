#ifndef MRTHETA_API_ENGINE_OPTIONS_H_
#define MRTHETA_API_ENGINE_OPTIONS_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/core/executor.h"
#include "src/mapreduce/cluster_config.h"

namespace mrtheta {

/// \brief The single validated options surface of a ThetaEngine session:
/// the simulated cluster and the physical executor knobs, merged so
/// callers configure one struct instead of wiring the objects by hand.
///
/// Every field keeps its subsystem's default, so `ThetaEngine engine;` is
/// the paper's Table 1 test bed on a one-thread runtime.
struct EngineOptions {
  /// The simulated shared-nothing cluster (kP workers, Table 1 parameters).
  ClusterConfig cluster;
  /// Physical runtime knobs (threads, skew handling, fault injection and
  /// retries, memory budget). The engine sizes its shared thread pool to
  /// `executor.num_threads`; `executor.mem_budget_bytes` is the session
  /// memory budget (docs/MEMORY.md).
  ExecutorOptions executor;
  /// Seed of Execute/Submit runs. Same seed + same options ⇒ byte-identical
  /// results across Execute and Submit (docs/API.md determinism contract).
  uint64_t execution_seed = 42;

  // --- Serving knobs (docs/API.md "Serving") ---

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

  /// Cross-field validation; every ThetaEngine entry point fails with this
  /// status when the options are inconsistent.
  Status Validate() const;
};

}  // namespace mrtheta

#endif  // MRTHETA_API_ENGINE_OPTIONS_H_
