#ifndef MRTHETA_COMMON_FLAGS_H_
#define MRTHETA_COMMON_FLAGS_H_

#include <string>

#include "src/common/status.h"

namespace mrtheta {

/// CLI flags shared by the binaries that parse them (docs/OBSERVABILITY.md,
/// "Binary flags").
struct CommonFlags {
  /// --threads N: threads of the in-process runtime (>= 1).
  int num_threads = 1;
  /// --trace-out=FILE: write a Chrome trace-event JSON of the run's spans
  /// (load in chrome://tracing or Perfetto — docs/OBSERVABILITY.md). Empty
  /// = tracing stays disabled.
  std::string trace_out;
  /// --metrics-out=FILE: write the session MetricsRegistry snapshot as
  /// JSON at exit. Empty = no snapshot.
  std::string metrics_out;
  /// --mem-budget SIZE: memory budget of the run (docs/MEMORY.md);
  /// shuffle state beyond it spills to disk with byte-identical results.
  /// SIZE accepts a plain byte count or K/M/G binary suffixes ("64M").
  /// 0 = unlimited (the default; $MRTHETA_MEM_BUDGET still applies).
  int64_t mem_budget_bytes = 0;
  /// The single optional positional argument (the benches' output path).
  std::string output_path;
};

/// Strict parser for the common CLI surface: `--threads N`, `--mem-budget
/// SIZE`, `--trace-out=FILE`, `--metrics-out=FILE` plus at most one
/// positional argument. Rejects what the per-binary copies it replaced
/// silently accepted: a missing value, trailing junk ("--threads 4x",
/// "--mem-budget 64Q"), non-positive counts, unknown flags, and extra
/// positionals. Binaries that fix their own thread counts and budgets (the
/// benches) pass `allow_runtime_flags = false`, so `--threads` and
/// `--mem-budget` are rejected instead of silently ignored.
StatusOr<CommonFlags> ParseCommonFlags(int argc, char** argv,
                                       bool allow_runtime_flags = true);

/// Prints a warning to stderr when `num_threads` > 1 and the host cannot
/// run them in parallel: a host *reporting* one hardware thread gets the
/// time-slicing warning, while hardware_concurrency() == 0 — which the
/// standard defines as "not computable", not as one core — gets a
/// could-not-detect note instead of being misdiagnosed as single-core.
void WarnIfSingleHardwareThread(int num_threads);

}  // namespace mrtheta

#endif  // MRTHETA_COMMON_FLAGS_H_
