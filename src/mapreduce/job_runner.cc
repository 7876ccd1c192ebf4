#include "src/mapreduce/job_runner.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"

namespace mrtheta {

namespace {
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

int HashPartition(int64_t key, int num_reduce_tasks) {
  return static_cast<int>(Mix64(static_cast<uint64_t>(key)) %
                          static_cast<uint64_t>(num_reduce_tasks));
}

int64_t JobMeasurement::MaxReduceInputBytes() const {
  int64_t mx = 0;
  for (int64_t b : reduce_input_bytes_logical) mx = std::max(mx, b);
  return mx;
}

Status FinishJobOutput(const MapReduceJobSpec& spec,
                       std::vector<ReduceCollector>& tasks,
                       PhysicalJobResult& result, ThreadPool& pool) {
  TraceSpan span("job-output", "runtime");
  int64_t rows = 0;
  std::vector<std::vector<std::vector<int64_t>>> task_columns;
  task_columns.reserve(tasks.size());
  for (ReduceCollector& task : tasks) {
    rows += task.rows_emitted();
    task_columns.push_back(task.TakeColumns());
  }
  if (span.enabled()) span.Arg("job", spec.name).Arg("rows", rows);
  const int width = spec.output_schema.num_columns();
  std::vector<Relation::ColumnData> data(width);  // empty int64 columns
  for (Relation::ColumnData& column : data) {
    std::get<std::vector<int64_t>>(column).reserve(static_cast<size_t>(rows));
  }
  // Filling is where the fresh pages fault in. Task c touches only column
  // c of the output and of every task.
  auto fill = [&](int64_t c) {
    std::vector<int64_t>& column = std::get<std::vector<int64_t>>(data[c]);
    for (std::vector<std::vector<int64_t>>& task : task_columns) {
      column.insert(column.end(), task[c].begin(), task[c].end());
      std::vector<int64_t>().swap(task[c]);
    }
  };
  pool.ParallelFor(width, fill);
  JobMeasurement& m = result.metrics;
  m.output_rows_physical = rows;
  m.output_rows_logical =
      static_cast<double>(rows) * spec.output_row_scale;
  // Guard against llround overflow on extreme extrapolations.
  const double capped_rows = std::min(m.output_rows_logical, 4.0e18);
  StatusOr<Relation> output = Relation::FromColumns(
      spec.output_name, spec.output_schema, std::move(data),
      static_cast<int64_t>(std::llround(capped_rows)));
  if (!output.ok()) return output.status();
  result.output = std::make_shared<Relation>(*std::move(output));
  m.output_bytes_logical = result.output->logical_bytes();
  return Status::OK();
}

}  // namespace mrtheta
