#include "src/mapreduce/job_runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/mem/huge_pages.h"
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

// An empty column of `type` with room for `rows` cells, its whole 2 MiB
// pages advised for huge pages before any cell is written.
Relation::ColumnData ReservedColumn(ValueType type, int64_t rows) {
  Relation::ColumnData column;
  if (type == ValueType::kDouble) column = std::vector<double>();
  if (type == ValueType::kString) column = std::vector<std::string>();
  std::visit(
      [rows](auto& v) {
        v.reserve(static_cast<size_t>(rows));
        AdviseHugePages(v.data(), v.capacity() * sizeof(*v.data()));
      },
      column);
  return column;
}

// Minor page faults the calling thread has taken so far.
int64_t ThreadMinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
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

int64_t JobMeasurement::LogicalOutputRows() const {
  // Guard against llround overflow on extreme extrapolations.
  return static_cast<int64_t>(
      std::llround(std::min(output_rows_logical, 4.0e18)));
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
  const std::vector<ProjectedColumn>& projection = spec.projection;
  const bool projected = !projection.empty();
  if (span.enabled()) span.Arg("job", spec.name).Arg("rows", rows);
  if (span.enabled() && projected) {
    span.Arg("projected", static_cast<int64_t>(projection.size()));
  }
  std::vector<ColumnDef> defs;
  for (const ProjectedColumn& p : projection) defs.push_back(p.def);
  const Schema schema =
      projected ? Schema(std::move(defs)) : spec.output_schema;
  std::vector<Relation::ColumnData> data;
  for (const ColumnDef& def : schema.columns()) {
    data.push_back(ReservedColumn(def.type, rows));
  }
  // Filling is where the fresh pages fault in. Task c touches only column
  // c of the output, and of every task unless it projects (rid columns
  // may feed several output columns, so they are freed after the fill).
  // Traced, each task also counts the minor faults its own thread takes.
  auto fill = [&](int64_t c) {
    if (!projected) {
      std::vector<int64_t>& column = std::get<std::vector<int64_t>>(data[c]);
      for (std::vector<std::vector<int64_t>>& task : task_columns) {
        column.insert(column.end(), task[c].begin(), task[c].end());
        std::vector<int64_t>().swap(task[c]);
      }
      return;
    }
    const ProjectedColumn& p = projection[c];
    std::visit(
        [&](auto& dst) {
          using T = typename std::decay_t<decltype(dst)>::value_type;
          const T* src = p.relation->TryColumn<T>(p.column)->data();
          // Within the reservation, so it sizes without allocating.
          dst.resize(static_cast<size_t>(rows));
          T* cell = dst.data();
          for (const std::vector<std::vector<int64_t>>& task : task_columns) {
            for (const int64_t rid : task[p.rid]) *cell++ = src[rid];
          }
        },
        data[c]);
  };
  std::atomic<int64_t> minor_faults = 0;
  pool.ParallelFor(schema.num_columns(), [&](int64_t c) {
    const int64_t before = span.enabled() ? ThreadMinorFaults() : 0;
    fill(c);
    if (span.enabled()) minor_faults += ThreadMinorFaults() - before;
  });
  span.Arg("minor_faults", minor_faults.load());
  JobMeasurement& m = result.metrics;
  m.output_rows_physical = rows;
  m.output_rows_logical =
      static_cast<double>(rows) * spec.output_row_scale;
  // A projection counts its physical rows as logical; its logical bytes
  // are the logical rows at the projected width.
  StatusOr<Relation> output = Relation::FromColumns(
      spec.output_name, schema, std::move(data),
      projected ? -1 : m.LogicalOutputRows());
  if (!output.ok()) return output.status();
  result.output = std::make_shared<Relation>(*std::move(output));
  m.output_bytes_logical =
      projected ? static_cast<int64_t>(std::min(
                      m.output_rows_logical *
                          static_cast<double>(schema.avg_row_bytes()),
                      9.0e18))
                : result.output->logical_bytes();
  return Status::OK();
}

}  // namespace mrtheta
