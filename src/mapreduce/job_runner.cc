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

/// Rewraps a task-internal error with job context, preserving its code so
/// kResourceExhausted survives to the caller (admission control and tests
/// key on the code, not the message).
Status WrapTaskError(const std::string& what, const MapReduceJobSpec& spec,
                     const Status& cause) {
  return Status::WithCode(cause.code(), what + " in job '" + spec.name +
                                            "': " + cause.message());
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

StatusOr<double> RunReduceTask(const MapReduceJobSpec& spec,
                               std::span<MapOutputRecord> records,
                               ReduceCollector& out) {
  const int num_tags = static_cast<int>(spec.inputs.size());
  std::sort(records.begin(), records.end(),
            [](const MapOutputRecord& a, const MapOutputRecord& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.tag != b.tag) return a.tag < b.tag;
              return a.row < b.row;
            });
  size_t i = 0;
  while (i < records.size()) {
    size_t j = i;
    while (j < records.size() && records[j].key == records[i].key) ++j;
    std::vector<std::vector<const MapOutputRecord*>> by_tag(num_tags);
    for (size_t k = i; k < j; ++k) {
      by_tag[records[k].tag].push_back(&records[k]);
    }
    ReduceContext ctx;
    ctx.key = records[i].key;
    ctx.by_tag = &by_tag;
    ctx.inputs = &spec.inputs;
    spec.reduce(ctx, out);
    if (!out.status().ok()) {
      return WrapTaskError("reduce emit failed", spec, out.status());
    }
    i = j;
  }
  return out.comparisons();
}

void ReplayShuffleBytes(const MapReduceJobSpec& spec,
                        std::span<const ShuffleCounts> splits,
                        JobMeasurement& m) {
  const int n = spec.num_reduce_tasks;
  std::vector<double> task_bytes(n, 0.0);
  double map_out_bytes = 0.0;
  for (const ShuffleCounts& split : splits) {
    const JobInput& input = spec.inputs[split.tag];
    const double scaled_bytes =
        static_cast<double>(input.record_bytes) * input.scale;
    // One addition per record, never count * scaled_bytes: the sums must
    // round exactly as a per-record walk does.
    int64_t records = 0;
    for (int t = 0; t < n; ++t) {
      for (int64_t k = 0; k < split.task_records[t]; ++k) {
        task_bytes[t] += scaled_bytes;
      }
      records += split.task_records[t];
    }
    for (int64_t k = 0; k < records; ++k) map_out_bytes += scaled_bytes;
  }
  m.map_output_bytes_logical = static_cast<int64_t>(map_out_bytes);
  m.reduce_input_bytes_logical.resize(n);
  for (int t = 0; t < n; ++t) {
    m.reduce_input_bytes_logical[t] = static_cast<int64_t>(task_bytes[t]);
  }
}

Status ValidateJobSpec(const MapReduceJobSpec& spec) {
  if (spec.inputs.empty()) {
    return Status::InvalidArgument("job '" + spec.name + "' has no inputs");
  }
  if (!spec.map || !spec.reduce) {
    return Status::InvalidArgument("job '" + spec.name +
                                   "' is missing map or reduce function");
  }
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  for (const ColumnDef& col : spec.output_schema.columns()) {
    if (col.type != ValueType::kInt64) {
      return Status::InvalidArgument("job '" + spec.name +
                                     "' output column '" + col.name +
                                     "' is not int64");
    }
  }
  return Status::OK();
}

Status FinishJobOutput(const MapReduceJobSpec& spec,
                       std::vector<ReduceCollector>& tasks,
                       PhysicalJobResult& result, ThreadPool* pool) {
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
  if (pool != nullptr) {
    pool->ParallelFor(width, fill);
  } else {
    for (int c = 0; c < width; ++c) fill(c);
  }
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

StatusOr<PhysicalJobResult> RunJobPhysically(const MapReduceJobSpec& spec) {
  MRTHETA_RETURN_IF_ERROR(ValidateJobSpec(spec));

  PhysicalJobResult result;
  JobMeasurement& m = result.metrics;

  // ---- Map phase ----
  TraceSpan map_phase("map-phase", "runtime");
  if (map_phase.enabled()) map_phase.Arg("job", spec.name);
  const int n = spec.num_reduce_tasks;
  const PartitionFn& partition =
      spec.partition ? spec.partition : PartitionFn(HashPartition);
  MapEmitter emitter;
  emitter.SetPartitioner(partition, n);
  if (spec.combine) emitter.set_combine(spec.combine);
  {
    double expected_records = 0.0;
    for (int tag = 0; tag < static_cast<int>(spec.inputs.size()); ++tag) {
      expected_records +=
          static_cast<double>(spec.inputs[tag].relation->num_rows()) *
          spec.EmitsPerRow(tag);
    }
    emitter.Reserve(static_cast<size_t>(expected_records));
  }
  for (int tag = 0; tag < static_cast<int>(spec.inputs.size()); ++tag) {
    const Relation& rel = *spec.inputs[tag].relation;
    m.input_bytes_logical += rel.logical_bytes();
    m.input_bytes_physical += rel.physical_bytes();
    for (int64_t row = 0; row < rel.num_rows(); ++row) {
      spec.map(tag, rel, row, emitter);
      emitter.EndRow();
    }
  }
  if (!emitter.status().ok()) {
    return WrapTaskError("map emit failed", spec, emitter.status());
  }
  m.map_output_records_physical = emitter.size();
  map_phase.End();

  // ---- Shuffle: route by the emit-time target, charge logical bytes ----
  TraceSpan shuffle_phase("shuffle-merge", "runtime");
  if (shuffle_phase.enabled()) shuffle_phase.Arg("job", spec.name);
  const int num_inputs = static_cast<int>(spec.inputs.size());
  std::vector<std::vector<MapOutputRecord>> task_records(n);
  std::vector<std::vector<int64_t>> input_task_records(
      num_inputs, std::vector<int64_t>(n, 0));
  Status walk = emitter.ForEach([&](const MapOutputRecord& rec) {
    ++input_task_records[rec.tag][rec.target];
    task_records[rec.target].push_back(rec);
  });
  if (!walk.ok()) return WrapTaskError("shuffle walk failed", spec, walk);
  emitter.Clear();
  std::vector<ShuffleCounts> counts;
  for (int tag = 0; tag < num_inputs; ++tag) {
    counts.push_back({tag, input_task_records[tag]});
  }
  ReplayShuffleBytes(spec, counts, m);
  shuffle_phase.End();

  // ---- Reduce phase: per task, sort by key then group ----
  TraceSpan reduce_phase("reduce-phase", "runtime");
  if (reduce_phase.enabled()) {
    reduce_phase.Arg("job", spec.name).Arg("tasks", static_cast<int64_t>(n));
  }
  m.reduce_comparisons_logical.assign(n, 0.0);
  std::vector<ReduceCollector> task_outputs(
      n, ReduceCollector(spec.output_schema.num_columns()));
  for (int t = 0; t < n; ++t) {
    TraceSpan task_span("reduce-task", "runtime");
    if (task_span.enabled()) {
      task_span.Arg("job", spec.name).Arg("task", static_cast<int64_t>(t));
    }
    StatusOr<double> comparisons =
        RunReduceTask(spec, task_records[t], task_outputs[t]);
    if (!comparisons.ok()) return comparisons.status();
    m.reduce_comparisons_logical[t] = *comparisons;
  }
  reduce_phase.End();

  MRTHETA_RETURN_IF_ERROR(
      FinishJobOutput(spec, task_outputs, result, /*pool=*/nullptr));
  return result;
}

}  // namespace mrtheta
