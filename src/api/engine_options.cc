#include "src/api/engine_options.h"

namespace mrtheta {

Status EngineOptions::Validate() const {
  if (cluster.num_workers < 1) {
    return Status::InvalidArgument("cluster.num_workers must be >= 1");
  }
  if (cluster.block_size < 1) {
    return Status::InvalidArgument("cluster.block_size must be >= 1");
  }
  if (calibration_workers < 0) {
    return Status::InvalidArgument("calibration_workers must be >= 0");
  }
  if (executor.num_threads < 1) {
    return Status::InvalidArgument("executor.num_threads must be >= 1");
  }
  if (planner.max_reduce_tasks < 0) {
    return Status::InvalidArgument("planner.max_reduce_tasks must be >= 0");
  }
  if (planner.stats.sample_size < 1) {
    return Status::InvalidArgument("planner.stats.sample_size must be >= 1");
  }
  if (planner.stats.histogram_bins < 1) {
    return Status::InvalidArgument(
        "planner.stats.histogram_bins must be >= 1");
  }
  if (calibration.probe_input_bytes < 1) {
    return Status::InvalidArgument(
        "calibration.probe_input_bytes must be >= 1");
  }
  if (plan_cache_capacity < 0) {
    return Status::InvalidArgument("plan_cache_capacity must be >= 0");
  }
  if (max_inflight_queries < 0) {
    return Status::InvalidArgument("max_inflight_queries must be >= 0");
  }
  if (max_queue_depth < 0) {
    return Status::InvalidArgument("max_queue_depth must be >= 0");
  }
  if (per_query_threads < 0) {
    return Status::InvalidArgument("per_query_threads must be >= 0");
  }
  if (mem_budget_bytes < 0) {
    return Status::InvalidArgument("mem_budget_bytes must be >= 0");
  }
  if (executor.mem_budget_bytes < 0) {
    return Status::InvalidArgument("executor.mem_budget_bytes must be >= 0");
  }
  MRTHETA_RETURN_IF_ERROR(executor.fault_plan.Validate());
  MRTHETA_RETURN_IF_ERROR(executor.retry.Validate());
  MRTHETA_RETURN_IF_ERROR(executor.speculation.Validate());
  return Status::OK();
}

std::string EngineOptions::ToString() const {
  std::string out = "EngineOptions{" + cluster.ToString();
  out += ", threads=" + std::to_string(executor.num_threads);
  out += ", seed=" + std::to_string(execution_seed);
  out += ", calibration_workers=" + std::to_string(calibration_workers);
  out += ", plan_cache_capacity=" + std::to_string(plan_cache_capacity);
  if (max_inflight_queries > 0) {
    out += ", max_inflight_queries=" + std::to_string(max_inflight_queries);
    out += ", max_queue_depth=" + std::to_string(max_queue_depth);
  }
  if (per_query_threads > 0) {
    out += ", per_query_threads=" + std::to_string(per_query_threads);
  }
  if (mem_budget_bytes > 0) {
    out += ", mem_budget=" + std::to_string(mem_budget_bytes);
  }
  if (executor.fault_plan.enabled()) {
    out += ", " + executor.fault_plan.ToString();
  }
  out += "}";
  return out;
}

}  // namespace mrtheta
