#include "src/mapreduce/sim_cluster.h"

#include <algorithm>
#include <cmath>

namespace mrtheta {

int SimCluster::NumMapTasks(int64_t input_bytes_logical) const {
  const int64_t m =
      (input_bytes_logical + config_.block_size - 1) / config_.block_size;
  return static_cast<int>(std::max<int64_t>(1, m));
}

SimJobSpec SimCluster::BuildSimJob(const MapReduceJobSpec& spec,
                                   const JobMeasurement& metrics,
                                   std::vector<int> deps) const {
  SimJobSpec sim;
  sim.name = spec.name;
  sim.deps = std::move(deps);

  const double si = static_cast<double>(metrics.input_bytes_logical);
  const int m = NumMapTasks(metrics.input_bytes_logical);
  sim.num_map_tasks = m;

  // ---- Map task duration (Eq. 1) ----
  const double serde =
      spec.text_serde ? 1.0 / (config_.text_serde_mb_per_sec * kMiB) : 0.0;
  const double width_factor =
      spec.text_serde ? config_.text_width_factor : 1.0;
  const double in_per_task = si / m;
  const double out_per_task = width_factor *
      static_cast<double>(metrics.map_output_bytes_logical) / m;
  const double t_m =
      in_per_task * (config_.SecPerByteRead() + serde) +
      out_per_task * config_.SpillSecPerByte(out_per_task);
  sim.map_task_duration = FromSeconds(t_m);

  // ---- Reduce tasks ----
  const int n = static_cast<int>(metrics.reduce_input_bytes_logical.size());
  const double out_bytes_per_reduce = width_factor *
      static_cast<double>(metrics.output_bytes_logical) / std::max(1, n);
  // Per-fetch connection overhead: each reduce task fetches from every map
  // task; serving cost per connection grows with the job's reducer count.
  const double per_fetch_overhead_sec = config_.ConnOverheadSec(n) / n;
  sim.reduces.reserve(n);
  for (int r = 0; r < n; ++r) {
    SimReduceTask task;
    const double bytes_r = width_factor *
        static_cast<double>(metrics.reduce_input_bytes_logical[r]);
    task.fetch_bytes = static_cast<int64_t>(bytes_r);
    task.fetch_overhead = FromSeconds(m * per_fetch_overhead_sec);
    const double comps_r =
        (!config_.charge_comparison_cpu ||
         metrics.reduce_comparisons_logical.empty())
            ? 0.0
            : metrics.reduce_comparisons_logical[r];
    const double compute_sec = bytes_r * (config_.SecPerByteRead() + serde) +
                               comps_r / config_.comparisons_per_sec +
                               out_bytes_per_reduce *
                                   config_.OutputWriteSecPerByte();
    task.compute = FromSeconds(compute_sec);
    sim.reduces.push_back(task);
  }
  sim.startup = FromSeconds(config_.job_startup_sec);
  sim.cleanup = FromSeconds(config_.commit_sec_per_reduce * n);
  return sim;
}

}  // namespace mrtheta
