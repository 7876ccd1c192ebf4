#include "src/api/engine_options.h"

namespace mrtheta {

Status EngineOptions::Validate() const {
  if (cluster.num_workers < 1) {
    return Status::InvalidArgument("cluster.num_workers must be >= 1");
  }
  if (cluster.block_size < 1) {
    return Status::InvalidArgument("cluster.block_size must be >= 1");
  }
  if (executor.num_threads < 1) {
    return Status::InvalidArgument("executor.num_threads must be >= 1");
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
  if (executor.mem_budget_bytes < 0) {
    return Status::InvalidArgument("executor.mem_budget_bytes must be >= 0");
  }
  MRTHETA_RETURN_IF_ERROR(executor.fault_plan.Validate());
  MRTHETA_RETURN_IF_ERROR(executor.retry.Validate());
  MRTHETA_RETURN_IF_ERROR(executor.speculation.Validate());
  return Status::OK();
}

}  // namespace mrtheta
