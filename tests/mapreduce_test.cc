// Tests for the MapReduce substrate: physical job execution, the
// discrete-event engine, the timing model, the load models, and the
// bounded-memory emit/spill machinery (docs/MEMORY.md).

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/mapreduce/job_runner.h"
#include "src/mapreduce/load_model.h"
#include "src/mapreduce/sim_cluster.h"
#include "src/mem/memory_budget.h"
#include "src/mem/spill.h"
#include "src/runtime/parallel_job_runner.h"
#include "src/runtime/thread_pool.h"

namespace mrtheta {
namespace {

RelationPtr MakeInts(int64_t rows, int64_t logical_rows = 0) {
  auto rel = std::make_shared<Relation>(
      "t", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  for (int64_t i = 0; i < rows; ++i) rel->AppendIntRow({i % 10, i});
  if (logical_rows > 0) rel->set_logical_rows(logical_rows);
  return rel;
}

// A group-count job: key = k, reduce emits (key, count).
MapReduceJobSpec CountJob(RelationPtr rel, int reducers) {
  MapReduceJobSpec spec;
  spec.name = "count";
  spec.inputs.push_back({rel, 1.0, /*record_bytes=*/16});
  spec.num_reduce_tasks = reducers;
  spec.output_schema = Schema({{"key", ValueType::kInt64},
                               {"count", ValueType::kInt64}});
  spec.map = [](int tag, const Relation& r, int64_t row, MapEmitter& out) {
    out.Emit(r.GetInt(row, 0), tag, row, row);
  };
  spec.reduce = [](const ReduceContext& ctx, ReduceCollector& out) {
    const int64_t row[] = {ctx.key,
                           static_cast<int64_t>(ctx.records(0).size())};
    out.Emit(row);
  };
  return spec;
}

// Runs `spec` on a one-thread pool.
StatusOr<PhysicalJobResult> RunJob(const MapReduceJobSpec& spec) {
  ThreadPool pool(1);
  return RunJobParallel(spec, pool);
}

TEST(JobRunnerTest, GroupCountIsExact) {
  const auto result = RunJob(CountJob(MakeInts(1000), 4));
  ASSERT_TRUE(result.ok());
  const Relation& out = *result->output;
  ASSERT_EQ(out.num_rows(), 10);
  int64_t total = 0;
  for (int64_t r = 0; r < out.num_rows(); ++r) total += out.GetInt(r, 1);
  EXPECT_EQ(total, 1000);
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    EXPECT_EQ(out.GetInt(r, 1), 100);
  }
}

TEST(JobRunnerTest, KeysArriveSortedWithinTask) {
  auto rel = MakeInts(100);
  MapReduceJobSpec spec = CountJob(rel, 1);
  std::vector<int64_t> seen;
  spec.reduce = [&seen](const ReduceContext& ctx, ReduceCollector& out) {
    seen.push_back(ctx.key);
    const int64_t row[] = {ctx.key, 0};
    out.Emit(row);
  };
  ASSERT_TRUE(RunJob(spec).ok());
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(JobRunnerTest, MetricsScaleWithLogicalVolume) {
  // 100 physical rows representing 10000 logical rows: shuffle volume
  // scales by 100x.
  auto rel = MakeInts(100, 10000);
  MapReduceJobSpec spec = CountJob(rel, 2);
  spec.inputs[0].scale = 100.0;
  const auto result = RunJob(spec);
  ASSERT_TRUE(result.ok());
  const JobMeasurement& m = result->metrics;
  EXPECT_EQ(m.input_bytes_logical, rel->logical_bytes());
  EXPECT_EQ(m.map_output_records_physical, 100);
  EXPECT_EQ(m.map_output_bytes_logical, 100 * 16 * 100);
  int64_t reduce_total = 0;
  for (int64_t b : m.reduce_input_bytes_logical) reduce_total += b;
  EXPECT_EQ(reduce_total, m.map_output_bytes_logical);
}

TEST(JobRunnerTest, OutputRowScale) {
  MapReduceJobSpec spec = CountJob(MakeInts(100), 1);
  spec.output_row_scale = 7.0;
  const auto result = RunJob(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.output_rows_physical, 10);
  EXPECT_EQ(result->metrics.output_rows_logical, 70.0);
  EXPECT_EQ(result->output->logical_rows(), 70);
}

TEST(JobRunnerTest, ValidatesSpec) {
  MapReduceJobSpec empty;
  EXPECT_FALSE(RunJob(empty).ok());
  MapReduceJobSpec no_reduce = CountJob(MakeInts(10), 1);
  no_reduce.reduce = nullptr;
  EXPECT_FALSE(RunJob(no_reduce).ok());
  MapReduceJobSpec bad_n = CountJob(MakeInts(10), 0);
  EXPECT_FALSE(RunJob(bad_n).ok());
}

TEST(JobRunnerTest, CustomPartitioner) {
  MapReduceJobSpec spec = CountJob(MakeInts(100), 2);
  spec.partition = [](int64_t key, int n) {
    return static_cast<int>(key % n);
  };
  const auto result = RunJob(spec);
  ASSERT_TRUE(result.ok());
  // Keys 0,2,4,6,8 -> task 0; 1,3,5,7,9 -> task 1: both get 5*100*16 bytes.
  EXPECT_EQ(result->metrics.reduce_input_bytes_logical[0],
            result->metrics.reduce_input_bytes_logical[1]);
}

TEST(JobRunnerTest, FinishJobOutputOnAPoolMatchesInline) {
  MapReduceJobSpec spec;
  spec.name = "finish";
  spec.output_schema = Schema({{"a", ValueType::kInt64},
                               {"b", ValueType::kInt64},
                               {"c", ValueType::kInt64}});
  spec.output_row_scale = 2.5;
  // Rows emitted per reduce task: empty tasks between non-empty ones, and
  // a job with no rows at all.
  const std::vector<std::vector<int>> jobs = {{2, 0, 3, 0, 0, 1, 0},
                                              {0, 0, 0}};
  ThreadPool one(1);
  ThreadPool four(4);
  for (const std::vector<int>& task_rows : jobs) {
    std::vector<int64_t> expected[3];
    auto collect = [&](bool record) {
      std::vector<ReduceCollector> tasks(task_rows.size(),
                                         ReduceCollector(3));
      int64_t next = 0;
      for (size_t t = 0; t < task_rows.size(); ++t) {
        for (int r = 0; r < task_rows[t]; ++r, ++next) {
          const int64_t row[] = {next, 100 + next, 1000 * next};
          tasks[t].Emit(row);
          if (!record) continue;
          for (int c = 0; c < 3; ++c) expected[c].push_back(row[c]);
        }
      }
      return tasks;
    };
    std::vector<ReduceCollector> inline_tasks = collect(true);
    std::vector<ReduceCollector> pooled_tasks = collect(false);
    PhysicalJobResult inline_result;
    PhysicalJobResult pooled;
    ASSERT_TRUE(FinishJobOutput(spec, inline_tasks, inline_result, one).ok());
    ASSERT_TRUE(FinishJobOutput(spec, pooled_tasks, pooled, four).ok());
    EXPECT_EQ(pooled.metrics.output_rows_physical,
              static_cast<int64_t>(expected[0].size()));
    EXPECT_EQ(inline_result.metrics.output_rows_physical,
              pooled.metrics.output_rows_physical);
    EXPECT_EQ(inline_result.metrics.output_rows_logical,
              pooled.metrics.output_rows_logical);
    ASSERT_EQ(pooled.output->num_rows(),
              static_cast<int64_t>(expected[0].size()));
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(*pooled.output->TryColumn<int64_t>(c), expected[c]);
      EXPECT_EQ(*inline_result.output->TryColumn<int64_t>(c), expected[c]);
    }
  }
}

TEST(HashPartitionTest, InRangeAndSpreads) {
  std::vector<int> hits(16, 0);
  for (int64_t k = 0; k < 1600; ++k) {
    const int t = HashPartition(k, 16);
    ASSERT_GE(t, 0);
    ASSERT_LT(t, 16);
    hits[t]++;
  }
  for (int h : hits) EXPECT_GT(h, 50);
}

// ---- Memory budget / paged emit / spill (docs/MEMORY.md) ----

TEST(MemoryBudgetTest, ParseByteSizeAcceptsSuffixesRejectsJunk) {
  EXPECT_EQ(*MemoryBudget::ParseByteSize("0"), 0);
  EXPECT_EQ(*MemoryBudget::ParseByteSize("1024"), 1024);
  EXPECT_EQ(*MemoryBudget::ParseByteSize("64K"), 64 * 1024);
  EXPECT_EQ(*MemoryBudget::ParseByteSize("64k"), 64 * 1024);
  EXPECT_EQ(*MemoryBudget::ParseByteSize("2M"), 2 * 1024 * 1024);
  EXPECT_EQ(*MemoryBudget::ParseByteSize("1G"), int64_t{1} << 30);
  EXPECT_FALSE(MemoryBudget::ParseByteSize("").ok());
  EXPECT_FALSE(MemoryBudget::ParseByteSize("-1").ok());
  EXPECT_FALSE(MemoryBudget::ParseByteSize("64Q").ok());
  EXPECT_FALSE(MemoryBudget::ParseByteSize("1.5M").ok());
  EXPECT_FALSE(MemoryBudget::ParseByteSize("64K ").ok());
  EXPECT_FALSE(MemoryBudget::ParseByteSize("999999999999999G").ok());
}

TEST(MemoryBudgetTest, PagesAndChargesDriveTheLedgerAndPeak) {
  MemoryBudget& budget = MemoryBudget::Global();
  const int64_t base = budget.in_use_bytes();
  budget.ResetPeak();
  auto page = budget.AcquirePage();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(budget.in_use_bytes(), base + MemoryBudget::kPageBytes);
  {
    ScopedCharge charge(1000);
    EXPECT_EQ(budget.in_use_bytes(), base + MemoryBudget::kPageBytes + 1000);
    EXPECT_GE(budget.peak_bytes(), base + MemoryBudget::kPageBytes + 1000);
  }
  budget.ReleasePage(*std::move(page));
  EXPECT_EQ(budget.in_use_bytes(), base);
  // OverBudget is a threshold test on a caller-supplied limit; 0 never.
  EXPECT_FALSE(budget.OverBudget(0));
  EXPECT_TRUE(budget.OverBudget(1) == (budget.in_use_bytes() > 1));
}

TEST(MapEmitterTest, PagedEmitRoundTripsInOrderAcrossPages) {
  MapEmitter emitter;
  emitter.SetPartitioner(HashPartition, 8);
  const int64_t n = 3 * MapEmitter::kRecordsPerPage + 7;
  for (int64_t i = 0; i < n; ++i) {
    emitter.Emit(i, static_cast<int32_t>(i % 3), i * 2, i * 3);
    emitter.EndRow();
  }
  ASSERT_TRUE(emitter.Finish().ok()) << emitter.status().ToString();
  EXPECT_EQ(emitter.size(), n);
  EXPECT_EQ(emitter.spilled_bytes(), 0);
  // Each task reads back its own records, in emit order (ascending keys).
  int64_t total = 0;
  for (int t = 0; t < 8; ++t) {
    std::vector<MapOutputRecord> records(
        static_cast<size_t>(emitter.task_records()[t]));
    emitter.CopyResidentTask(t, records.data());
    int64_t previous = -1;
    for (const MapOutputRecord& rec : records) {
      const int64_t i = rec.key;
      ASSERT_GT(i, previous) << "task " << t;
      ASSERT_LT(i, n);
      ASSERT_EQ(rec.tag, static_cast<int32_t>(i % 3));
      ASSERT_EQ(rec.target, t);
      ASSERT_EQ(HashPartition(i, 8), t);
      ASSERT_EQ(rec.row, i * 2);
      ASSERT_EQ(rec.rec_id, i * 3);
      previous = i;
    }
    total += static_cast<int64_t>(records.size());
  }
  EXPECT_EQ(total, n);
}

TEST(MapEmitterTest, ReserveFailureLatchesResourceExhausted) {
  MapEmitter emitter;
  emitter.SetPartitioner(HashPartition, 4);
  emitter.Emit(1, 0, 0, 0);
  // An absurd reservation must latch kResourceExhausted, not abort.
  emitter.Reserve(static_cast<size_t>(int64_t{1} << 60));
  EXPECT_EQ(emitter.status().code(), StatusCode::kResourceExhausted)
      << emitter.status().ToString();
  // Latched: later emits are dropped, the first error survives.
  emitter.Emit(2, 0, 0, 0);
  EXPECT_EQ(emitter.status().code(), StatusCode::kResourceExhausted);
}

TEST(MapEmitterTest, SpilledEmitterYieldsEachTaskInEmitOrder) {
  // One emit sequence through three emitters: unbudgeted; spilling under
  // a 1-byte limit (a run per filled page, then the tail as a final run
  // at Finish); and spilling under a 3-page limit, which spills its three
  // full pages as a run when the fourth is taken but ends with one page,
  // within the half of the limit Finish allows, so its partial page stays
  // resident. Each must yield every reduce task's records in emit order,
  // with its runs and its resident index holding each record once.
  constexpr int kTasks = 5;
  const int64_t rows = 4000;
  std::vector<std::vector<MapOutputRecord>> expected(kTasks);
  for (int64_t r = 0; r < rows; ++r) {
    for (int32_t e = 0; e < 2; ++e) {
      MapOutputRecord rec;
      rec.key = r % 97;
      rec.tag = e;
      rec.target = HashPartition(rec.key, kTasks);
      rec.row = r;
      rec.rec_id = r;
      expected[rec.target].push_back(rec);
    }
  }
  auto emit_all = [&](MapEmitter& emitter) {
    emitter.SetPartitioner(HashPartition, kTasks);
    for (int64_t r = 0; r < rows; ++r) {
      for (int32_t e = 0; e < 2; ++e) emitter.Emit(r % 97, e, r, r);
      emitter.EndRow();
    }
    return emitter.Finish();
  };
  SpillDirectory dir;
  // Built first, while nothing else holds budget memory.
  ASSERT_EQ(MemoryBudget::Global().in_use_bytes(), 0);
  MapEmitter mixed;
  mixed.EnableSpill(3 * MemoryBudget::kPageBytes, &dir);
  ASSERT_TRUE(emit_all(mixed).ok()) << mixed.status().ToString();
  MapEmitter spilling;
  spilling.EnableSpill(1, &dir);
  ASSERT_TRUE(emit_all(spilling).ok()) << spilling.status().ToString();
  MapEmitter plain;
  ASSERT_TRUE(emit_all(plain).ok());

  const int64_t record_bytes = sizeof(MapOutputRecord);
  EXPECT_EQ(plain.spilled_bytes(), 0);
  EXPECT_EQ(spilling.spilled_bytes(), spilling.size() * record_bytes);
  EXPECT_GT(mixed.spilled_bytes(), 0);
  EXPECT_LT(mixed.spilled_bytes(), mixed.size() * record_bytes);
  auto same = [](const MapOutputRecord& a, const MapOutputRecord& b) {
    return a.key == b.key && a.tag == b.tag && a.target == b.target &&
           a.row == b.row && a.rec_id == b.rec_id;
  };
  for (const MapEmitter* emitter : {&plain, &spilling, &mixed}) {
    EXPECT_EQ(emitter->size(), 2 * rows);
    int64_t spilled = 0;
    for (int t = 0; t < kTasks; ++t) {
      const size_t n = expected[t].size();
      ASSERT_EQ(emitter->task_records()[t], static_cast<int64_t>(n)) << t;
      // Read twice: a retried reduce attempt gathers the same records.
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<MapOutputRecord> got(n);
        ASSERT_TRUE(emitter->ReadSpilledTask(t, got.data()).ok());
        emitter->CopyResidentTask(
            t, got.data() + emitter->spilled_task_records(t));
        for (size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same(got[i], expected[t][i]))
              << "spilled " << emitter->spilled_bytes() << " task " << t
              << " i " << i;
        }
      }
      spilled += emitter->spilled_task_records(t);
    }
    EXPECT_EQ(spilled * record_bytes, emitter->spilled_bytes());
  }
  // Clear removes the spill file and resets the emitter.
  spilling.Clear();
  EXPECT_EQ(spilling.size(), 0);
  EXPECT_EQ(spilling.spilled_bytes(), 0);
  EXPECT_EQ(spilling.spill_files(), 0);
}

TEST(MapEmitterTest, FinishKeepsResidentOutputWithinHalfTheBudget) {
  // Resident output lives until the reduce phase ends, so Finish keeps it
  // only while at most half the budget is in use. Above that the whole
  // tail spills as one run, although the budget itself was never crossed.
  ASSERT_EQ(MemoryBudget::Global().in_use_bytes(), 0);
  SpillDirectory dir;
  auto finish = [&dir](int64_t records) {
    MapEmitter emitter;
    emitter.SetPartitioner(HashPartition, 3);
    emitter.EnableSpill(4 * MemoryBudget::kPageBytes, &dir);
    for (int64_t r = 0; r < records; ++r) {
      emitter.Emit(r, 0, r, r);
      emitter.EndRow();
    }
    EXPECT_TRUE(emitter.Finish().ok()) << emitter.status().ToString();
    return std::pair<int64_t, int64_t>(emitter.spilled_bytes(),
                                       emitter.spill_files());
  };
  const int64_t page = MapEmitter::kRecordsPerPage;
  // Two pages in use: exactly half the limit, so the records stay.
  EXPECT_EQ(finish(page * 3 / 2), std::make_pair(int64_t{0}, int64_t{0}));
  // Three pages: over half, so all of them spill.
  const int64_t spilled =
      page * 5 / 2 * static_cast<int64_t>(sizeof(MapOutputRecord));
  EXPECT_EQ(finish(page * 5 / 2), std::make_pair(spilled, int64_t{1}));
}

TEST(CombinerTest, DedupCombinerDropsDuplicatesWithinARow) {
  MapEmitter emitter;
  emitter.SetPartitioner(HashPartition, 4);
  emitter.set_combine(MakeDedupCombiner());
  // Row 0: 3 distinct records each emitted twice -> 3 survive.
  for (int rep = 0; rep < 2; ++rep) {
    for (int64_t k = 0; k < 3; ++k) emitter.Emit(k, 0, 7, 7);
  }
  emitter.EndRow();
  EXPECT_EQ(emitter.size(), 3);
  // Row 1: all distinct -> no-op.
  for (int64_t k = 0; k < 4; ++k) emitter.Emit(k, 1, 8, 8);
  emitter.EndRow();
  EXPECT_EQ(emitter.size(), 7);
  // Duplicates across *different* rows are preserved: the row boundary is
  // the combine scope (the thread-count-invariant unit).
  emitter.Emit(0, 0, 7, 7);
  emitter.EndRow();
  EXPECT_EQ(emitter.size(), 8);
}

TEST(CombinerTest, CombinedJobKeepsExactResults) {
  // CountJob never emits duplicate records, so the dedup combiner must be
  // a perfect no-op: same rows, same metrics.
  MapReduceJobSpec plain = CountJob(MakeInts(1000), 4);
  const auto reference = RunJob(plain);
  ASSERT_TRUE(reference.ok());
  MapReduceJobSpec combined = CountJob(MakeInts(1000), 4);
  combined.combine = MakeDedupCombiner();
  const auto result = RunJob(combined);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.map_output_records_physical,
            reference->metrics.map_output_records_physical);
  EXPECT_EQ(result->metrics.map_output_bytes_logical,
            reference->metrics.map_output_bytes_logical);
  ASSERT_EQ(result->output->num_rows(), reference->output->num_rows());
  for (int64_t r = 0; r < reference->output->num_rows(); ++r) {
    EXPECT_EQ(result->output->GetInt(r, 0), reference->output->GetInt(r, 0));
    EXPECT_EQ(result->output->GetInt(r, 1), reference->output->GetInt(r, 1));
  }

  // A genuinely duplicating map: every record emitted twice. The combiner
  // halves the shuffle; the reduce output is identical to the single-emit
  // job's.
  MapReduceJobSpec doubled = CountJob(MakeInts(1000), 4);
  doubled.map = [](int tag, const Relation& r, int64_t row, MapEmitter& out) {
    out.Emit(r.GetInt(row, 0), tag, row, row);
    out.Emit(r.GetInt(row, 0), tag, row, row);
  };
  doubled.combine = MakeDedupCombiner();
  const auto deduped = RunJob(doubled);
  ASSERT_TRUE(deduped.ok());
  EXPECT_EQ(deduped->metrics.map_output_records_physical,
            reference->metrics.map_output_records_physical);
  ASSERT_EQ(deduped->output->num_rows(), reference->output->num_rows());
  for (int64_t r = 0; r < reference->output->num_rows(); ++r) {
    EXPECT_EQ(deduped->output->GetInt(r, 1),
              reference->output->GetInt(r, 1));
  }
}

// ---- Discrete-event engine ----

ClusterConfig TestConfig(int workers) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  cfg.job_startup_sec = 0.0;
  return cfg;
}

SimJobSpec SimpleJob(int maps, double map_sec, int reduces,
                     double reduce_sec) {
  SimJobSpec job;
  job.num_map_tasks = maps;
  job.map_task_duration = FromSeconds(map_sec);
  for (int i = 0; i < reduces; ++i) {
    SimReduceTask t;
    t.compute = FromSeconds(reduce_sec);
    job.reduces.push_back(t);
  }
  return job;
}

TEST(SimEngineTest, SingleWaveTiming) {
  // 4 maps on 8 slots: one wave. No fetch. 2 reduces in parallel.
  const auto report =
      RunSimulation(TestConfig(8), {SimpleJob(4, 10.0, 2, 5.0)});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ToSeconds(report->jobs[0].maps_done), 10.0);
  EXPECT_EQ(ToSeconds(report->makespan), 15.0);
}

TEST(SimEngineTest, MapWavesEmergeFromSlotLimit) {
  // 10 maps on 4 slots: ceil(10/4)=3 waves.
  const auto report =
      RunSimulation(TestConfig(4), {SimpleJob(10, 10.0, 1, 0.0)});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ToSeconds(report->jobs[0].maps_done), 30.0);
}

TEST(SimEngineTest, StartupDelaysMaps) {
  SimJobSpec job = SimpleJob(1, 5.0, 1, 1.0);
  job.startup = FromSeconds(20.0);
  const auto report = RunSimulation(TestConfig(4), {job});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ToSeconds(report->jobs[0].maps_done), 25.0);
}

TEST(SimEngineTest, FetchOverlapsMapWaves) {
  // Eq. 6 case analysis: with several map waves, copying overlaps all but
  // the tail; with one wave nothing overlaps.
  ClusterConfig cfg = TestConfig(1);  // 4 maps => 4 sequential waves
  SimJobSpec job = SimpleJob(4, 10.0, 1, 0.0);
  job.reduces[0].fetch_bytes = static_cast<int64_t>(
      20.0 * cfg.network_mb_per_sec * kMiB);  // 20s of copying
  const auto report = RunSimulation(cfg, {job});
  ASSERT_TRUE(report.ok());
  // Map span 40s, overlap window 30s => 20s fetch has 0 tail after wave
  // overlap larger than fetch? overlap = 40-10 = 30 >= 20 -> ready at 40.
  EXPECT_EQ(ToSeconds(report->jobs[0].finish), 40.0);

  // One wave: overlap = 0, the full 20s fetch trails the map phase.
  ClusterConfig wide = TestConfig(8);
  const auto report2 = RunSimulation(wide, {job});
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(ToSeconds(report2->jobs[0].finish), 30.0);
}

TEST(SimEngineTest, DependenciesSequence) {
  SimJobSpec a = SimpleJob(2, 10.0, 1, 5.0);
  SimJobSpec b = SimpleJob(2, 10.0, 1, 5.0);
  b.deps = {0};
  const auto report = RunSimulation(TestConfig(8), {a, b});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ToSeconds(report->jobs[0].finish), 15.0);
  EXPECT_EQ(ToSeconds(report->jobs[1].release), 15.0);
  EXPECT_EQ(ToSeconds(report->makespan), 30.0);
}

TEST(SimEngineTest, IndependentJobsCompeteForSlots) {
  // Two jobs of 4 maps each on 4 slots: serial-ish FIFO => ~2x single.
  SimJobSpec a = SimpleJob(4, 10.0, 1, 0.0);
  const auto solo = RunSimulation(TestConfig(4), {a});
  const auto both = RunSimulation(TestConfig(4), {a, a});
  ASSERT_TRUE(solo.ok());
  ASSERT_TRUE(both.ok());
  EXPECT_GE(both->makespan, 2 * solo->jobs[0].maps_done);
}

TEST(SimEngineTest, RejectsCyclesAndBadSpecs) {
  SimJobSpec a = SimpleJob(1, 1.0, 1, 1.0);
  SimJobSpec b = a;
  a.deps = {1};
  b.deps = {0};
  EXPECT_FALSE(RunSimulation(TestConfig(2), {a, b}).ok());
  SimJobSpec no_reduce = SimpleJob(1, 1.0, 0, 0.0);
  EXPECT_FALSE(RunSimulation(TestConfig(2), {no_reduce}).ok());
  SimJobSpec bad_dep = SimpleJob(1, 1.0, 1, 1.0);
  bad_dep.deps = {5};
  EXPECT_FALSE(RunSimulation(TestConfig(2), {bad_dep}).ok());
}

TEST(SimEngineTest, SkewedReducerDominates) {
  SimJobSpec job = SimpleJob(1, 1.0, 4, 1.0);
  job.reduces[3].compute = FromSeconds(50.0);
  const auto report = RunSimulation(TestConfig(8), {job});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ToSeconds(report->makespan), 51.0);
}

// ---- SimCluster glue ----

TEST(SimClusterTest, NumMapTasks) {
  SimCluster cluster(ClusterConfig{});
  EXPECT_EQ(cluster.NumMapTasks(1), 1);
  EXPECT_EQ(cluster.NumMapTasks(64 * kMiB), 1);
  EXPECT_EQ(cluster.NumMapTasks(64 * kMiB + 1), 2);
  EXPECT_EQ(cluster.NumMapTasks(kGiB), 16);
}

TEST(SimClusterTest, BuildSimJobReflectsVolumes) {
  SimCluster cluster(ClusterConfig{});
  MapReduceJobSpec spec;
  spec.name = "x";
  spec.num_reduce_tasks = 4;
  JobMeasurement m;
  m.input_bytes_logical = kGiB;
  m.map_output_bytes_logical = kGiB / 2;
  m.reduce_input_bytes_logical = {kGiB / 8, kGiB / 8, kGiB / 8, kGiB / 8};
  m.reduce_comparisons_logical = {0, 0, 0, 0};
  m.output_bytes_logical = kGiB / 4;
  const SimJobSpec sim = cluster.BuildSimJob(spec, m);
  EXPECT_EQ(sim.num_map_tasks, 16);
  EXPECT_EQ(sim.reduces.size(), 4u);
  EXPECT_GT(sim.map_task_duration, 0);
  EXPECT_GT(sim.reduces[0].compute, 0);
  EXPECT_EQ(sim.reduces[0].fetch_bytes, kGiB / 8);
  EXPECT_EQ(ToSeconds(sim.startup), cluster.config().job_startup_sec);
}

TEST(SimClusterTest, TextSerdeCostsMore) {
  SimCluster cluster(ClusterConfig{});
  MapReduceJobSpec spec;
  spec.num_reduce_tasks = 2;
  JobMeasurement m;
  m.input_bytes_logical = kGiB;
  m.map_output_bytes_logical = kGiB;
  m.reduce_input_bytes_logical = {kGiB / 2, kGiB / 2};
  m.output_bytes_logical = kGiB;
  const SimJobSpec binary = cluster.BuildSimJob(spec, m);
  spec.text_serde = true;
  const SimJobSpec text = cluster.BuildSimJob(spec, m);
  EXPECT_GT(text.map_task_duration, binary.map_task_duration);
  EXPECT_GT(text.reduces[0].compute, binary.reduces[0].compute);
  EXPECT_GT(text.reduces[0].fetch_bytes, binary.reduces[0].fetch_bytes);
}

TEST(SimClusterTest, ComparisonCpuChargedOnlyWhenEnabled) {
  ClusterConfig cfg;
  SimCluster off(cfg);
  cfg.charge_comparison_cpu = true;
  SimCluster on(cfg);
  MapReduceJobSpec spec;
  spec.num_reduce_tasks = 1;
  JobMeasurement m;
  m.input_bytes_logical = kMiB;
  m.map_output_bytes_logical = kMiB;
  m.reduce_input_bytes_logical = {kMiB};
  m.reduce_comparisons_logical = {1e9};
  const SimTime without = off.BuildSimJob(spec, m).reduces[0].compute;
  const SimTime with = on.BuildSimJob(spec, m).reduces[0].compute;
  EXPECT_GT(with, without);
}

TEST(SimClusterTest, RunJobEndToEnd) {
  SimCluster cluster(ClusterConfig{});
  auto rel = MakeInts(1000, 4000000);  // represents ~100 MB
  const MapReduceJobSpec spec = CountJob(rel, 8);
  const auto result = RunJob(spec);
  ASSERT_TRUE(result.ok());
  const auto report = RunSimulation(
      cluster.config(), {cluster.BuildSimJob(spec, result->metrics)});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(result->output->num_rows(), 10);
  EXPECT_GT(report->makespan, 0);
  EXPECT_GE(report->jobs[0].finish, report->jobs[0].maps_done);
}

// ---- Load model (Fig. 11) ----

TEST(LoadModelTest, OrderingMatchesThePaper) {
  // Ours >= Hive >= plain upload, converging in ratio at large volumes.
  LoadModel model;
  ClusterConfig cfg;
  for (int64_t gb : {1, 10, 100, 500}) {
    const int64_t bytes = gb * kGiB;
    const SimTime plain = model.PlainUpload(cfg, bytes);
    const SimTime hive = model.HiveLoad(cfg, bytes);
    const SimTime ours = model.OurLoad(cfg, bytes);
    EXPECT_LT(plain, hive) << gb;
    EXPECT_LT(hive, ours) << gb;
  }
  // Relative overhead of ours vs hive shrinks with volume.
  const double small_ratio =
      static_cast<double>(model.OurLoad(cfg, kGiB)) /
      static_cast<double>(model.HiveLoad(cfg, kGiB));
  const double big_ratio =
      static_cast<double>(model.OurLoad(cfg, 500 * kGiB)) /
      static_cast<double>(model.HiveLoad(cfg, 500 * kGiB));
  EXPECT_LT(big_ratio, small_ratio);
}

TEST(LoadModelTest, ScalesLinearly) {
  LoadModel model;
  ClusterConfig cfg;
  const SimTime one = model.PlainUpload(cfg, 10 * kGiB);
  const SimTime ten = model.PlainUpload(cfg, 100 * kGiB);
  EXPECT_NEAR(static_cast<double>(ten) / one, 10.0, 0.01);
}

}  // namespace
}  // namespace mrtheta
