#ifndef MRTHETA_MAPREDUCE_JOB_H_
#define MRTHETA_MAPREDUCE_JOB_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/mem/memory_budget.h"
#include "src/mem/spill.h"
#include "src/relation/relation.h"

namespace mrtheta {

/// One record emitted by a Map task: a partition key plus a *reference* to a
/// physical tuple (tag = which input, row = row index). `rec_id` carries the
/// tuple's logical global ID (the paper's randomly assigned GlobalID).
/// `target` is the record's reduce task, computed at emit time by the
/// emitter's partitioner. The record's shuffle size is its input's
/// JobInput::record_bytes. Records are 32 bytes of POD, so they spill to
/// disk as raw bytes.
struct MapOutputRecord {
  int64_t key = 0;
  int32_t tag = 0;
  int32_t target = 0;
  int64_t row = 0;
  int64_t rec_id = 0;
};

/// Partitioner: maps a key to a reduce task in [0, num_reduce_tasks).
using PartitionFn = std::function<int(int64_t key, int num_reduce_tasks)>;

/// Default partitioner: mixed hash modulo n (Hadoop's HashPartitioner).
int HashPartition(int64_t key, int num_reduce_tasks);

/// \brief Collects one map task's outputs into fixed-size KV pages owned
/// by the process MemoryBudget, optionally spilling them to a file when the
/// budget is exceeded (docs/MEMORY.md).
///
/// Map functions call Emit once per (key, record); the runner calls
/// EndRow() after each input row (the spill boundary) and Finish()
/// at the end of the map task, which indexes the output by reduce task;
/// each reduce task then reads its own records with ReadSpilledTask() and
/// CopyResidentTask(). All failures — page allocation, reservation, spill
/// I/O, a partitioner out of range — latch into status() and turn
/// subsequent Emits into no-ops; the runner surfaces the latched status as
/// the task's Status (kResourceExhausted for memory, matching
/// ReduceCollector::Emit) instead of aborting on bad_alloc.
class MapEmitter {
 public:
  static constexpr int64_t kRecordsPerPage =
      MemoryBudget::kPageBytes / static_cast<int64_t>(sizeof(MapOutputRecord));

  MapEmitter() = default;
  MapEmitter(const MapEmitter&) = delete;
  MapEmitter& operator=(const MapEmitter&) = delete;
  MapEmitter(MapEmitter&& other) noexcept = default;
  MapEmitter& operator=(MapEmitter&& other) noexcept;
  ~MapEmitter() { Clear(); }

  /// Sets the partitioner evaluated at emit time; every record's `target`
  /// is its reduce task in [0, num_reduce_tasks). Must be called before
  /// the first Emit (the runner does).
  void SetPartitioner(PartitionFn partition, int num_reduce_tasks) {
    partition_ = std::move(partition);
    num_reduce_tasks_ = num_reduce_tasks;
  }

  /// Arms spilling to a file in `dir` (not owned; must outlive the
  /// emitter): EndRow() spills full pages once the global budget's in-use
  /// bytes exceed `limit_bytes`, and Finish() every resident record once
  /// they exceed half of it. Never armed = pure in-memory.
  void EnableSpill(int64_t limit_bytes, SpillDirectory* dir) {
    spill_limit_bytes_ = limit_bytes;
    spill_dir_ = dir;
  }

  void Emit(int64_t key, int32_t tag, int64_t row, int64_t rec_id) {
    if (!status_.ok()) return;
    int32_t target = 0;
    if (num_reduce_tasks_ > 0) {
      const int t = partition_(key, num_reduce_tasks_);
      if (t < 0 || t >= num_reduce_tasks_) {
        status_ = Status::Internal("partitioner returned task out of range");
        return;
      }
      target = t;
    }
    if (pages_.empty() || last_page_records_ == kRecordsPerPage) {
      if (!AddPage()) return;  // latched
    }
    MapOutputRecord* rec =
        PageRecords(pages_.back()) + last_page_records_++;
    rec->key = key;
    rec->tag = tag;
    rec->target = target;
    rec->row = row;
    rec->rec_id = rec_id;
    ++size_;
  }

  /// Capacity hint: pre-sizes the page table for at least `records`
  /// entries. Advisory — a failed reservation latches kResourceExhausted
  /// into status() (surfaced as the task's Status) instead of aborting.
  void Reserve(size_t records);

  /// Row boundary: when spilling is armed and the budget is exceeded,
  /// spills the full pages as one run. The runner calls it after every
  /// spec.map invocation.
  void EndRow();

  /// Ends the map task. When spilling is armed and more than half the
  /// budget is in use, the resident records, partial page included, spill
  /// as a final run; otherwise they are indexed by reduce task with a
  /// stable counting sort (the index is charged to the budget). Returns
  /// status(). After it, the emitter is read-only and safe to read from
  /// several threads.
  Status Finish();

  /// Per-reduce-task record counts, spilled and resident. After Finish().
  const std::vector<int64_t>& task_records() const { return task_records_; }
  /// Of task_records(t), those in spilled runs. After Finish().
  int64_t spilled_task_records(int t) const {
    return task_records_[t] - ResidentTaskRecords(t);
  }

  /// Writes reduce task `t`'s spilled records to `out`, run by run, each
  /// run's in emit order. After Finish(); reads the spill file by position.
  Status ReadSpilledTask(int t, MapOutputRecord* out) const;
  /// Writes reduce task `t`'s resident records to `out` in emit order.
  /// After Finish().
  void CopyResidentTask(int t, MapOutputRecord* out) const;

  /// Records emitted, spilled or resident.
  int64_t size() const { return size_; }

  /// First latched error, or OK.
  const Status& status() const { return status_; }

  /// Bytes written to the spill file so far (0 = never spilled).
  int64_t spilled_bytes() const { return spilled_bytes_; }
  /// Spill files created by this emitter (0 or 1).
  int64_t spill_files() const { return spill_file_.has_value() ? 1 : 0; }

  /// Releases every page and the index to the budget, removes the spill
  /// file, and resets the emitter to freshly constructed state
  /// (partitioner and spill arming included).
  void Clear();

 private:
  static MapOutputRecord* PageRecords(const MemoryBudget::PagePtr& page) {
    return reinterpret_cast<MapOutputRecord*>(page.get());
  }
  const MapOutputRecord& Resident(int64_t i) const {
    return PageRecords(pages_[i / kRecordsPerPage])[i % kRecordsPerPage];
  }
  int num_tasks() const { return std::max(num_reduce_tasks_, 1); }
  int64_t ResidentTaskRecords(int t) const {
    return index_offsets_.empty()
               ? 0
               : index_offsets_[t + 1] - index_offsets_[t];
  }

  bool AddPage();  // latches on failure
  /// Fills index_/index_offsets_ with the first `count` resident records
  /// ordered by target, emit order within a target. Latches on failure.
  bool IndexResident(int64_t count);
  /// Spills the first `count` resident records (whole pages, or all of
  /// them) as one run partitioned by reduce task.
  void SpillRun(int64_t count);

  std::vector<MemoryBudget::PagePtr> pages_;
  /// Records in pages_.back(); every earlier page is full. 0 iff empty.
  int64_t last_page_records_ = 0;
  int64_t size_ = 0;
  int64_t spilled_records_ = 0;  ///< records written to spill runs
  Status status_;

  PartitionFn partition_;
  int num_reduce_tasks_ = 0;

  int64_t spill_limit_bytes_ = 0;
  SpillDirectory* spill_dir_ = nullptr;
  std::optional<SpillFile> spill_file_;
  int64_t spilled_bytes_ = 0;
  /// num_tasks() + 1 entries per spilled run: the record offset in the
  /// spill file where each reduce task's segment starts, then the run's
  /// end.
  std::vector<int64_t> run_offsets_;

  /// Resident record positions grouped by target (scratch for SpillRun
  /// until Finish), and the num_tasks() + 1 group boundaries in it.
  std::vector<uint32_t> index_;
  std::vector<int64_t> index_offsets_;
  ScopedCharge index_charge_;
  std::vector<int64_t> task_records_;  ///< filled by Finish()
};

/// Collects one reduce task's output rows and CPU accounting. Every job
/// writes an all-int64 rid table (MakeIntermediateSchema; the runner rejects
/// any other output schema), so a row is a span of int64 cells and lands
/// in task-local column vectors. The runner builds the job's output
/// relation from them once, after the reduce phase.
class ReduceCollector {
 public:
  explicit ReduceCollector(int num_columns)
      : columns_(static_cast<size_t>(num_columns)) {}

  /// Appends one result row, one cell per output column. A row of the
  /// wrong arity (a builder bug) or an allocation failure
  /// (kResourceExhausted) latches the first error and turns subsequent
  /// Emits into no-ops; the runner surfaces it as the task's Status.
  void Emit(std::span<const int64_t> row) {
    if (!status_.ok()) return;  // latch the first error, drop the rest
    if (row.size() != columns_.size()) {
      status_ = Status::InvalidArgument(
          "reduce output row arity " + std::to_string(row.size()) +
          " != schema arity " + std::to_string(columns_.size()));
      return;
    }
    try {
      for (size_t c = 0; c < row.size(); ++c) columns_[c].push_back(row[c]);
    } catch (const std::bad_alloc&) {
      status_ = Status::ResourceExhausted("reduce output row append failed");
      return;
    }
    ++rows_emitted_;
  }

  /// Charges `n` *logical* tuple-pair comparisons to the current reduce
  /// task; drives the simulated CPU time of the task.
  void AddComparisons(double n) { comparisons_ += n; }

  double comparisons() const { return comparisons_; }
  int64_t rows_emitted() const { return rows_emitted_; }
  /// First append error, or OK.
  const Status& status() const { return status_; }

  /// Moves the collected columns out; the collector is spent afterwards.
  std::vector<std::vector<int64_t>> TakeColumns() {
    return std::move(columns_);
  }

 private:
  std::vector<std::vector<int64_t>> columns_;
  double comparisons_ = 0;
  int64_t rows_emitted_ = 0;
  Status status_;
};

/// One input of a job. `scale` = logical_rows / physical_rows for this
/// input; executors use it to convert measured physical volumes into the
/// logical volumes the simulator clocks. `record_bytes` is the serialized
/// size the shuffle charges for each map output record of this input.
struct JobInput {
  RelationPtr relation;
  double scale = 1.0;
  int64_t record_bytes = 0;

  int64_t logical_bytes() const { return relation->logical_bytes(); }
};

/// Context handed to the reduce function for one key group.
struct ReduceContext {
  int64_t key = 0;
  /// The group's records of each input tag, in row order: by_tag[t] is a
  /// contiguous run of the reduce task's sorted record array, read in
  /// place. Valid only during the reduce call.
  std::span<const std::span<const MapOutputRecord>> by_tag;
  /// The job's inputs, for tuple access by (tag, row).
  const std::vector<JobInput>* inputs = nullptr;

  const Relation& relation(int tag) const {
    return *(*inputs)[tag].relation;
  }
  std::span<const MapOutputRecord> records(int tag) const {
    return by_tag[tag];
  }
};

/// Map function: invoked once per physical row of every input. Every
/// record it emits carries `tag` and `row`, the input and row being mapped:
/// the shuffle charges a record its input's record_bytes and scale, and
/// the reduce side's (key, tag, row) order rests on records arriving in
/// (tag, row) order. A reduce task fails with kInternal on a record whose
/// tag or row breaks that order.
using MapFn = std::function<void(int tag, const Relation& rel, int64_t row,
                                 MapEmitter& out)>;

/// Reduce function: invoked once per distinct key of a reduce task, keys in
/// ascending signed order, each tag's records in row order (the runner's
/// (key, tag, row) order, docs/RUNTIME.md).
using ReduceFn = std::function<void(const ReduceContext& ctx,
                                    ReduceCollector& out)>;

/// One column of a projected job output (MapReduceJobSpec::projection):
/// `def` names and types it, and each of its cells is column `column` of
/// `relation`, read at the row that rid column `rid` of the reducers'
/// output names.
struct ProjectedColumn {
  ColumnDef def;
  RelationPtr relation;
  int column = 0;
  int rid = 0;
};

/// \brief Complete specification of one MapReduce job (MRJ).
struct MapReduceJobSpec {
  std::string name;
  std::vector<JobInput> inputs;
  MapFn map;
  ReduceFn reduce;
  /// RN(MRJ): the user-specified reduce task count — the scheduling
  /// parameter the paper optimizes.
  int num_reduce_tasks = 1;
  PartitionFn partition;  ///< defaults to HashPartition when null
  /// The reducers' rid rows: all int64 (ReduceCollector).
  Schema output_schema;
  /// When non-empty, the job's output is this projection of the rid rows,
  /// one column per entry, instead of the rid table itself: the last job
  /// of a query with output columns writes the query's result.
  std::vector<ProjectedColumn> projection;
  std::string output_name = "out";
  /// Multiplier that converts physical output rows to logical output rows
  /// (β-extrapolation: results scale linearly with the represented volume).
  double output_row_scale = 1.0;
  /// True for Hive/Pig-style jobs: pay text-SerDe parse/serialize costs and
  /// text-width-inflated intermediates (ClusterConfig::text_serde_*).
  bool text_serde = false;
  /// Reduce-side join kernel the job was built for (see JoinKernelName in
  /// src/exec/theta_kernels.h): "sort-theta" when some depth of the job's
  /// JoinKernelPlan has an index — observability only. In pairwise jobs,
  /// reduce groups below kSortKernelMinPairs candidate pairs take the
  /// nested loop whatever this says.
  std::string kernel = "generic";
  /// Expected Emit calls per input row, one entry per input (empty = 1.0
  /// for every input). Builders fill this from their replication factors so
  /// the runner can pre-size MapEmitter buffers; a hint only — correctness
  /// never depends on it.
  std::vector<double> map_emits_per_row;

  double EmitsPerRow(int tag) const {
    return tag < static_cast<int>(map_emits_per_row.size())
               ? map_emits_per_row[tag]
               : 1.0;
  }
};

/// Physical + logical measurements of one executed job. All `*_logical`
/// volumes are what the simulator clocks; physical fields exist for tests.
struct JobMeasurement {
  int64_t input_bytes_logical = 0;
  int64_t input_bytes_physical = 0;
  int64_t map_output_bytes_logical = 0;
  int64_t map_output_records_physical = 0;
  std::vector<int64_t> reduce_input_bytes_logical;   // per reduce task
  std::vector<double> reduce_comparisons_logical;    // per reduce task
  int64_t output_rows_physical = 0;
  double output_rows_logical = 0;
  int64_t output_bytes_logical = 0;

  int64_t MaxReduceInputBytes() const;
  /// output_rows_logical rounded to whole rows: a rid output's
  /// logical_rows().
  int64_t LogicalOutputRows() const;
};

}  // namespace mrtheta

#endif  // MRTHETA_MAPREDUCE_JOB_H_
