#include "bench/bench_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "src/baselines/baseline_planners.h"

namespace mrtheta::bench {

namespace {

EngineOptions OptionsFor(int kp, int num_threads) {
  EngineOptions options;
  options.cluster.num_workers = kp;
  options.executor.num_threads = num_threads;
  return options;
}

}  // namespace

Harness::Harness(int kp, int num_threads)
    : engine(OptionsFor(kp, num_threads)) {
  StatusOr<CalibrationReport> report = engine.Calibration();
  if (!report.ok()) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
}

StatusOr<SystemResult> RunSystem(const std::string& system,
                                 const Query& query, Harness& harness,
                                 uint64_t seed) {
  StatusOr<QueryPlan> plan = Status::Internal("unknown system");
  if (system == "ours") {
    plan = harness.engine.PlanQuery(query);
  } else if (system == "ysmart") {
    plan = PlanYSmartStyle(query, harness.engine.cluster());
  } else if (system == "hive") {
    plan = PlanHiveStyle(query, harness.engine.cluster());
  } else if (system == "pig") {
    plan = PlanPigStyle(query, harness.engine.cluster());
  }
  if (!plan.ok()) return plan.status();
  StatusOr<QueryResult> result = harness.engine.ExecutePlan(
      query, *plan, harness.engine.options().executor, seed);
  if (!result.ok()) return result.status();
  SystemResult out;
  out.system = system;
  out.seconds = result->simulated_seconds();
  out.jobs = static_cast<int>(plan->jobs.size());
  out.result_rows_physical = result->num_rows();
  out.result_selectivity = result->selectivity();
  return out;
}

namespace {

// Writes a JSON array of pre-formatted object lines (no trailing commas).
Status WriteJsonArray(const std::string& path,
                      const std::vector<std::string>& lines) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::fprintf(f, "  %s%s\n", lines[i].c_str(),
                 i + 1 < lines.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  const bool write_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_error) {
    return Status::Internal("failed writing " + path);
  }
  return Status::OK();
}

std::string FormatLine(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

Status WriteBenchJson(const std::string& path,
                      const std::vector<KernelBenchRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const KernelBenchRecord& r : records) {
    lines.push_back(FormatLine(
        "{\"label\": \"%s\", \"kernel\": \"%s\", "
        "\"left_rows\": %lld, \"right_rows\": %lld, "
        "\"wall_ns\": %lld, \"tuples_per_sec\": %.1f, "
        "\"output_pairs\": %lld}",
        r.label.c_str(), r.kernel.c_str(),
        static_cast<long long>(r.left_rows),
        static_cast<long long>(r.right_rows),
        static_cast<long long>(r.wall_ns), r.tuples_per_sec,
        static_cast<long long>(r.output_pairs)));
  }
  return WriteJsonArray(path, lines);
}

Status WriteRuntimeBenchJson(const std::string& path,
                             const std::vector<RuntimeBenchRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const RuntimeBenchRecord& r : records) {
    lines.push_back(FormatLine(
        "{\"workload\": \"%s\", \"query\": \"%s\", "
        "\"threads\": %d, "
        "\"jobs\": %d, \"wall_seconds\": %.6f, "
        "\"sim_makespan_seconds\": %.3f, "
        "\"sim_shuffle_bytes\": %lld, "
        "\"result_rows_physical\": %lld, "
        "\"trace_overhead\": %.4f, "
        "\"peak_mem_bytes\": %lld, \"spill_bytes\": %lld}",
        r.workload.c_str(), r.query.c_str(), r.threads,
        r.jobs, r.wall_seconds, r.sim_makespan_seconds,
        static_cast<long long>(r.sim_shuffle_bytes),
        static_cast<long long>(r.result_rows_physical), r.trace_overhead,
        static_cast<long long>(r.peak_mem_bytes),
        static_cast<long long>(r.spill_bytes)));
  }
  return WriteJsonArray(path, lines);
}

Status WriteMemBenchJson(const std::string& path,
                         const std::vector<MemBenchRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const MemBenchRecord& r : records) {
    lines.push_back(FormatLine(
        "{\"workload\": \"%s\", \"query\": \"%s\", \"mode\": \"%s\", "
        "\"threads\": %d, \"mem_budget_bytes\": %lld, "
        "\"jobs\": %d, \"wall_seconds\": %.6f, "
        "\"sim_makespan_seconds\": %.3f, "
        "\"sim_shuffle_bytes\": %lld, "
        "\"result_rows_physical\": %lld, "
        "\"spill_bytes\": %lld, \"spill_files\": %lld, "
        "\"peak_mem_bytes\": %lld}",
        r.workload.c_str(), r.query.c_str(), r.mode.c_str(), r.threads,
        static_cast<long long>(r.mem_budget_bytes), r.jobs, r.wall_seconds,
        r.sim_makespan_seconds, static_cast<long long>(r.sim_shuffle_bytes),
        static_cast<long long>(r.result_rows_physical),
        static_cast<long long>(r.spill_bytes),
        static_cast<long long>(r.spill_files),
        static_cast<long long>(r.peak_mem_bytes)));
  }
  return WriteJsonArray(path, lines);
}

uint64_t OrderedRowsFingerprint(const Relation& rows) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= '|';
    h *= 1099511628211ULL;
  };
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    for (int c = 0; c < rows.schema().num_columns(); ++c) {
      mix(rows.Get(r, c).ToString());
    }
  }
  return h;
}

Status WriteServeBenchJson(const std::string& path,
                           const std::vector<ServeBenchRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const ServeBenchRecord& r : records) {
    lines.push_back(FormatLine(
        "{\"workload\": \"%s\", \"query\": \"%s\", "
        "\"streams\": %d, \"queries_per_stream\": %d, "
        "\"total_queries\": %d, \"threads\": %d, "
        "\"per_query_threads\": %d, \"max_inflight_queries\": %d, "
        "\"hardware_threads\": %d, "
        "\"p50_latency_seconds\": %.6f, \"p99_latency_seconds\": %.6f, "
        "\"throughput_qps\": %.3f, \"wall_seconds\": %.6f, "
        "\"plan_cache_hits\": %lld, \"plan_cache_misses\": %lld, "
        "\"admission_rejections\": %lld, \"result_rows_total\": %lld}",
        r.workload.c_str(), r.query.c_str(), r.streams,
        r.queries_per_stream, r.total_queries, r.threads,
        r.per_query_threads, r.max_inflight_queries, r.hardware_threads,
        r.p50_latency_seconds, r.p99_latency_seconds, r.throughput_qps,
        r.wall_seconds, static_cast<long long>(r.plan_cache_hits),
        static_cast<long long>(r.plan_cache_misses),
        static_cast<long long>(r.admission_rejections),
        static_cast<long long>(r.result_rows_total)));
  }
  return WriteJsonArray(path, lines);
}

Status WriteSkewBenchJson(const std::string& path,
                          const std::vector<SkewBenchRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const SkewBenchRecord& r : records) {
    lines.push_back(FormatLine(
        "{\"workload\": \"%s\", \"query\": \"%s\", \"mode\": \"%s\", "
        "\"zipf_exponent\": %.2f, \"reduce_tasks\": %d, "
        "\"residual_tasks\": %d, \"heavy_tasks\": %d, "
        "\"heavy_groups\": %d, \"max_reduce_input_bytes\": %lld, "
        "\"mean_reduce_input_bytes\": %.1f, \"max_mean_ratio\": %.3f, "
        "\"result_rows_physical\": %lld, "
        "\"sim_makespan_seconds\": %.3f, \"wall_seconds\": %.6f}",
        r.workload.c_str(), r.query.c_str(), r.mode.c_str(),
        r.zipf_exponent, r.reduce_tasks, r.residual_tasks, r.heavy_tasks,
        r.heavy_groups, static_cast<long long>(r.max_reduce_input_bytes),
        r.mean_reduce_input_bytes, r.max_mean_ratio,
        static_cast<long long>(r.result_rows_physical),
        r.sim_makespan_seconds, r.wall_seconds));
  }
  return WriteJsonArray(path, lines);
}

std::vector<SystemResult> RunAllSystems(const Query& query, Harness& harness,
                                        uint64_t seed) {
  std::vector<SystemResult> results;
  for (const char* system : {"ours", "ysmart", "hive", "pig"}) {
    StatusOr<SystemResult> r = RunSystem(system, query, harness, seed);
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", system,
                   r.status().ToString().c_str());
      std::exit(1);
    }
    results.push_back(*std::move(r));
  }
  return results;
}

}  // namespace mrtheta::bench
