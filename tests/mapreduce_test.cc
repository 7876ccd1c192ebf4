// Tests for the MapReduce substrate: physical job execution, the
// discrete-event engine, the timing model, the load models, and the
// bounded-memory emit/spill machinery (docs/MEMORY.md).

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/mapreduce/job_runner.h"
#include "src/mapreduce/load_model.h"
#include "src/mapreduce/sim_cluster.h"
#include "src/mem/huge_pages.h"
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

// Each (threads, budget) setting the runner tests below run under: 1 and 4
// threads, unbudgeted and under a budget that spills every map task.
struct RunnerSetting {
  int threads;
  bool spill;
  std::string Name() const {
    return "threads=" + std::to_string(threads) +
           (spill ? " spilling" : " unbudgeted");
  }
};
constexpr RunnerSetting kRunnerSettings[] = {
    {1, false}, {1, true}, {4, false}, {4, true}};

StatusOr<PhysicalJobResult> RunUnder(const MapReduceJobSpec& spec,
                                     const RunnerSetting& setting,
                                     SpillDirectory& spill_dir) {
  ThreadPool pool(setting.threads);
  ParallelRunnerOptions options;
  options.min_split_rows = 64;  // several splits per input at 4 threads
  if (setting.spill) {
    options.mem_budget_bytes = 1;
    options.spill_dir = &spill_dir;
  }
  return RunJobParallel(spec, pool, options);
}

// The keys every row of a two-input job emits: keys[tag][row] holds one
// or two keys.
using RowKeys = std::vector<std::vector<std::vector<int64_t>>>;

// A job whose map emits `keys` and whose reduce emits (key, tag, row) for
// every record of every tag, in the order it reads them.
MapReduceJobSpec EchoJob(std::shared_ptr<const RowKeys> keys,
                         int reducers) {
  MapReduceJobSpec spec;
  spec.name = "echo";
  for (const auto& rows : *keys) {
    spec.inputs.push_back(
        {MakeInts(static_cast<int64_t>(rows.size())), 1.0, 16});
  }
  spec.num_reduce_tasks = reducers;
  spec.output_schema = Schema({{"key", ValueType::kInt64},
                               {"tag", ValueType::kInt64},
                               {"row", ValueType::kInt64}});
  spec.map = [keys](int tag, const Relation&, int64_t row, MapEmitter& out) {
    for (const int64_t key : (*keys)[tag][row]) out.Emit(key, tag, row, row);
  };
  spec.reduce = [](const ReduceContext& ctx, ReduceCollector& out) {
    for (int tag = 0; tag < 2; ++tag) {
      for (const MapOutputRecord& rec : ctx.records(tag)) {
        const int64_t row[] = {rec.key, rec.tag, rec.row};
        out.Emit(row);
      }
    }
  };
  return spec;
}

// The order the reduce side promises: each task's records sorted on
// (key, tag, row), tasks in order.
std::vector<std::array<int64_t, 3>> ExpectedEcho(const RowKeys& keys,
                                                 int reducers) {
  std::vector<std::vector<std::array<int64_t, 3>>> tasks(reducers);
  for (int64_t tag = 0; tag < static_cast<int64_t>(keys.size()); ++tag) {
    for (int64_t row = 0; row < static_cast<int64_t>(keys[tag].size());
         ++row) {
      for (const int64_t key : keys[tag][row]) {
        tasks[HashPartition(key, reducers)].push_back({key, tag, row});
      }
    }
  }
  std::vector<std::array<int64_t, 3>> expected;
  for (auto& task : tasks) {
    std::sort(task.begin(), task.end());
    expected.insert(expected.end(), task.begin(), task.end());
  }
  return expected;
}

// Pins the reduce-side order contract, not the algorithm behind it: keys
// ascend in signed order (negative hash keys included) and each group's
// records come tag by tag in row order, at any thread count and budget.
TEST(JobRunnerTest, ReduceReadsRecordsInKeyTagRowOrder) {
  constexpr int kReducers = 5;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t specials[] = {kMin, kMin + 1, -1, 0, 1, kMax};
  const int64_t rows[] = {700, 450};
  Rng rng(2026);
  std::vector<int64_t> pool;  // keys shared by many records and both tags
  for (int k = 0; k < 40; ++k) pool.push_back(static_cast<int64_t>(rng.Next()));
  struct Case {
    const char* name;
    std::function<int64_t(int tag, int64_t row, int j)> key;
  };
  const Case cases[] = {
      {"mixed",
       [&](int, int64_t, int) {
         const uint64_t pick = rng.Uniform(4);
         if (pick == 0) return specials[rng.Uniform(6)];
         if (pick == 1) return pool[rng.Uniform(pool.size())];
         // Full 64-bit values: negative half the time, as hash keys are.
         return static_cast<int64_t>(rng.Next());
       }},
      {"all-equal", [](int, int64_t, int) { return int64_t{-7}; }},
      // Ascending in emit order, so no task needs sorting.
      {"ascending",
       [](int tag, int64_t row, int j) {
         return (tag * 1000 + row) * 2 + j - 1500;
       }},
      {"descending",
       [](int tag, int64_t row, int j) {
         return 1500 - (tag * 1000 + row) * 2 - j;
       }},
  };
  SpillDirectory spill_dir;
  for (const Case& c : cases) {
    auto keys = std::make_shared<RowKeys>(2);
    for (int tag = 0; tag < 2; ++tag) {
      (*keys)[tag].resize(rows[tag]);
      for (int64_t row = 0; row < rows[tag]; ++row) {
        const int emits = row % 3 == 0 ? 2 : 1;
        for (int j = 0; j < emits; ++j) {
          (*keys)[tag][row].push_back(c.key(tag, row, j));
        }
      }
    }
    const std::vector<std::array<int64_t, 3>> expected =
        ExpectedEcho(*keys, kReducers);
    for (const RunnerSetting& setting : kRunnerSettings) {
      const std::string at = std::string(c.name) + " " + setting.Name();
      const auto result =
          RunUnder(EchoJob(keys, kReducers), setting, spill_dir);
      ASSERT_TRUE(result.ok()) << at << ": " << result.status().ToString();
      if (setting.spill) EXPECT_GT(result->spill_bytes, 0) << at;
      const Relation& out = *result->output;
      ASSERT_EQ(out.num_rows(), static_cast<int64_t>(expected.size())) << at;
      for (int64_t r = 0; r < out.num_rows(); ++r) {
        const std::array<int64_t, 3> got = {out.GetInt(r, 0), out.GetInt(r, 1),
                                            out.GetInt(r, 2)};
        ASSERT_EQ(got, expected[r]) << at << " row " << r;
      }
    }
  }
}

// A map that emits a tag outside [0, inputs), a tag below one already seen
// in its key group, or a row other than the one it maps, out of row order,
// fails the job with kInternal instead of reading out of bounds or handing
// the reducer records out of order.
TEST(JobRunnerTest, RecordOutsideItsOrderFailsTheJob) {
  struct Case {
    int32_t tag;
    int64_t row;
    std::string message;
  };
  // Input 1's last row (key 9) claims `tag` and `row`, after the tag-1
  // records of its key group (rows 9, 19, ..., 89).
  const Case cases[] = {{2, 99, "tag 2"},
                        {-1, 99, "tag -1"},
                        {0, 99, "tag 0"},
                        {1, 0, "row 0 follows row 89"}};
  SpillDirectory spill_dir;
  for (const Case& c : cases) {
    MapReduceJobSpec spec = CountJob(MakeInts(100), 3);
    spec.inputs.push_back(spec.inputs[0]);
    spec.map = [c](int tag, const Relation& r, int64_t row,
                   MapEmitter& out) {
      const bool bad = tag == 1 && row == 99;
      out.Emit(r.GetInt(row, 0), bad ? c.tag : tag, bad ? c.row : row, row);
    };
    for (const RunnerSetting& setting : kRunnerSettings) {
      const std::string at = c.message + " " + setting.Name();
      const auto result = RunUnder(spec, setting, spill_dir);
      ASSERT_FALSE(result.ok()) << at;
      EXPECT_EQ(result.status().code(), StatusCode::kInternal) << at;
      EXPECT_NE(result.status().message().find("'count'"), std::string::npos)
          << at << ": " << result.status().ToString();
      EXPECT_NE(result.status().message().find(c.message), std::string::npos)
          << at << ": " << result.status().ToString();
    }
  }
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

// The first row at which column `c` of `out` differs, byte for byte, from
// a naive gather of `base`'s column `col` through `rids`: 0 when either
// column is not of type T or the lengths differ, -1 when none differs.
template <typename T>
int64_t FirstGatherMismatch(const Relation& out, int c, const Relation& base,
                            int col, const std::vector<int64_t>& rids) {
  const std::vector<T>* got = out.TryColumn<T>(c);
  const std::vector<T>* src = base.TryColumn<T>(col);
  if (got == nullptr || src == nullptr || got->size() != rids.size()) {
    return 0;
  }
  for (size_t r = 0; r < rids.size(); ++r) {
    const T& want = (*src)[static_cast<size_t>(rids[r])];
    if constexpr (std::is_same_v<T, std::string>) {
      if ((*got)[r] != want) return static_cast<int64_t>(r);
    } else if (std::memcmp(&(*got)[r], &want, sizeof(T)) != 0) {
      return static_cast<int64_t>(r);
    }
  }
  return -1;
}

// The bytes of column `c` of `out`, as one address range.
AddressRange ColumnBytes(const Relation& out, int c) {
  auto range = [](const auto* v) {
    return AddressRange{reinterpret_cast<uintptr_t>(v->data()),
                        v->size() * sizeof(*v->data())};
  };
  if (const auto* v = out.TryColumn<int64_t>(c)) return range(v);
  if (const auto* v = out.TryColumn<double>(c)) return range(v);
  return range(out.TryColumn<std::string>(c));
}

TEST(JobRunnerTest, FinishJobOutputOnAPoolMatchesInline) {
  MapReduceJobSpec spec;
  spec.name = "finish";
  spec.output_schema = Schema({{"a", ValueType::kInt64},
                               {"b", ValueType::kInt64},
                               {"c", ValueType::kInt64}});
  spec.output_row_scale = 2.5;
  // The projected path reads two bases, each with a column of every type,
  // through rid columns a and b.
  constexpr int64_t kBaseRows = 2000;
  std::vector<RelationPtr> bases;
  Rng rng(23);
  for (const char* name : {"b0", "b1"}) {
    auto base = std::make_shared<Relation>(
        name, Schema({{"i", ValueType::kInt64},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString}}));
    for (int64_t r = 0; r < kBaseRows; ++r) {
      ASSERT_TRUE(base->AppendRow(
                          {Value(static_cast<int64_t>(rng.Uniform(1000))),
                           Value(rng.UniformDouble()),
                           Value(std::string(rng.Uniform(40), 'a' + r % 26))})
                      .ok());
    }
    bases.push_back(base);
  }
  // (base, column, rid column) per output column: three columns of b0 and
  // b1.s twice.
  const std::vector<std::array<int, 3>> outputs = {
      {0, 2, 0}, {1, 0, 1}, {0, 1, 0}, {1, 2, 1}, {1, 2, 1}, {0, 0, 0}};
  MapReduceJobSpec projected = spec;
  projected.output_name = "projection";
  for (const auto& [b, c, rid] : outputs) {
    const ColumnDef& src = bases[b]->schema().column(c);
    projected.projection.push_back(
        {ColumnDef("R" + std::to_string(b) + "." + src.name, src.type,
                   src.avg_width),
         bases[b], c, rid});
  }
  // Rows emitted per reduce task: empty tasks between non-empty ones, a
  // job with no rows at all, one large enough to span pages, and one
  // whose every output column (800,000 cells of at least 8 bytes, over
  // 6 MiB) holds at least two whole aligned huge pages, the size at which
  // the columns are advised for them.
  const std::vector<std::vector<int>> jobs = {{2, 0, 3, 0, 0, 1, 0},
                                              {0, 0, 0},
                                              {400, 0, 0, 900, 0, 250},
                                              {350000, 0, 450000}};
  ThreadPool one(1);
  ThreadPool four(4);
  for (const MapReduceJobSpec* job : {&spec, &projected}) {
    for (const std::vector<int>& task_rows : jobs) {
      // The rid rows of every task, concatenated in task order: the rid
      // table, and the rows a naive projection reads.
      std::vector<int64_t> expected[3];
      auto collect = [&](bool record) {
        std::vector<ReduceCollector> tasks(task_rows.size(),
                                           ReduceCollector(3));
        int64_t next = 0;
        for (size_t t = 0; t < task_rows.size(); ++t) {
          for (int r = 0; r < task_rows[t]; ++r, ++next) {
            const int64_t row[] = {next % kBaseRows, (100 + next) % kBaseRows,
                                   1000 * next};
            tasks[t].Emit(row);
            if (!record) continue;
            for (int c = 0; c < 3; ++c) expected[c].push_back(row[c]);
          }
        }
        return tasks;
      };
      collect(true);
      const int64_t rows = static_cast<int64_t>(expected[0].size());
      // One pool at a time, each result freed before the next.
      for (ThreadPool* pool : {&one, &four}) {
        SCOPED_TRACE(job->output_name + " with " +
                     std::to_string(task_rows.size()) + " tasks, " +
                     std::to_string(rows) + " rows, " +
                     std::to_string(pool->num_threads()) + " threads");
        std::vector<ReduceCollector> tasks = collect(false);
        PhysicalJobResult result;
        ASSERT_TRUE(FinishJobOutput(*job, tasks, result, *pool).ok());
        EXPECT_EQ(result.metrics.output_rows_physical, rows);
        EXPECT_EQ(result.metrics.output_rows_logical, 2.5 * rows);
        const Relation& out = *result.output;
        ASSERT_EQ(out.num_rows(), rows);
        EXPECT_EQ(out.name(), job->output_name);
        if (&task_rows == &jobs.back()) {
          for (int c = 0; c < out.schema().num_columns(); ++c) {
            const AddressRange bytes = ColumnBytes(out, c);
            EXPECT_GE(WholeHugePages(bytes.begin, bytes.bytes).bytes,
                      2 * kHugePageBytes)
                << "column " << c;
          }
        }
        if (job == &spec) {
          EXPECT_EQ(out.logical_rows(), result.metrics.LogicalOutputRows());
          for (int c = 0; c < 3; ++c) {
            EXPECT_EQ(*out.TryColumn<int64_t>(c), expected[c])
                << "column " << c;
          }
          continue;
        }
        // The projection counts its physical rows as logical, and its
        // logical bytes are the logical rows at the projected width.
        EXPECT_EQ(out.logical_rows(), rows);
        EXPECT_EQ(result.metrics.output_bytes_logical,
                  static_cast<int64_t>(
                      2.5 * rows *
                      static_cast<double>(out.schema().avg_row_bytes())));
        // A naive loop over the concatenated rid columns.
        for (size_t c = 0; c < outputs.size(); ++c) {
          const auto& [b, col, rid] = outputs[c];
          const int oc = static_cast<int>(c);
          const ColumnDef& def = out.schema().column(oc);
          EXPECT_EQ(def.name, projected.projection[c].def.name);
          EXPECT_EQ(def.type, bases[b]->schema().column(col).type);
          EXPECT_EQ(def.avg_width, bases[b]->schema().column(col).avg_width);
          const Relation& base = *bases[b];
          const int64_t mismatch =
              def.type == ValueType::kInt64
                  ? FirstGatherMismatch<int64_t>(out, oc, base, col,
                                                 expected[rid])
              : def.type == ValueType::kDouble
                  ? FirstGatherMismatch<double>(out, oc, base, col,
                                                expected[rid])
                  : FirstGatherMismatch<std::string>(out, oc, base, col,
                                                     expected[rid]);
          EXPECT_EQ(mismatch, -1) << "column " << c;
        }
      }
    }
  }
}

TEST(HugePageTest, WholeHugePagesKeepsOnlyWholeAlignedPages) {
  constexpr uintptr_t kPage = kHugePageBytes;
  constexpr uintptr_t kBase = uintptr_t{0x7f12} << 32;  // aligned
  using Range = std::pair<uintptr_t, uintptr_t>;
  auto pages = [](uintptr_t begin, uintptr_t bytes) {
    const AddressRange r = WholeHugePages(begin, bytes);
    return Range(r.begin, r.bytes);
  };
  // Null or empty.
  EXPECT_EQ(pages(0, 8 * kPage), Range(0, 0));
  EXPECT_EQ(pages(kBase, 0), Range(0, 0));
  // Under one page, aligned or not.
  EXPECT_EQ(pages(kBase, kPage - 1), Range(0, 0));
  EXPECT_EQ(pages(kBase + 16, kPage), Range(0, 0));
  // More than a page that still holds no whole aligned one.
  EXPECT_EQ(pages(kBase + 4096, kPage + 4096), Range(0, 0));
  EXPECT_EQ(pages(kBase + kPage / 2, kPage + kPage / 4), Range(0, 0));
  // Exact multiples.
  EXPECT_EQ(pages(kBase, kPage), Range(kBase, kPage));
  EXPECT_EQ(pages(kBase, 3 * kPage), Range(kBase, 3 * kPage));
  // An aligned start with a tail, and an unaligned start with an aligned
  // end.
  EXPECT_EQ(pages(kBase, 2 * kPage + 100), Range(kBase, 2 * kPage));
  EXPECT_EQ(pages(kBase - 16, 2 * kPage + 16), Range(kBase, 2 * kPage));
  // Unaligned at both ends: the head and tail are left out. A malloc'd
  // block starts 16 bytes past a 4 KiB page.
  EXPECT_EQ(pages(kBase + 4096 + 16, 3 * kPage),
            Range(kBase + kPage, 2 * kPage));
  EXPECT_EQ(pages(kBase + 1, 4 * kPage), Range(kBase + kPage, 3 * kPage));
  EXPECT_EQ(pages(kBase - 1, kPage + 2), Range(kBase, kPage));
  // A range that would wrap past the top of the address space.
  EXPECT_EQ(pages(UINTPTR_MAX - kPage, 4 * kPage), Range(0, 0));
  // Advising such buffers is a no-op, also for null.
  AdviseHugePages(nullptr, 0);
  AdviseHugePages(nullptr, 4 * kPage);
  std::vector<int64_t> small(100);
  AdviseHugePages(small.data(), small.size() * sizeof(int64_t));
  EXPECT_EQ(small, std::vector<int64_t>(100));
}

TEST(JobRunnerTest, ValidatesProjection) {
  RelationPtr base = MakeInts(10);
  MapReduceJobSpec good = CountJob(base, 2);
  good.projection = {{ColumnDef("R0.v", ValueType::kInt64), base, 1, 0}};
  const auto result = RunJob(good);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output->schema().column(0).name, "R0.v");

  // A rid column the reducers do not emit, a source column out of range,
  // and a declared type that is not the source's.
  for (const ProjectedColumn& bad :
       {ProjectedColumn{ColumnDef("x", ValueType::kInt64), base, 1, 2},
        ProjectedColumn{ColumnDef("x", ValueType::kInt64), base, 2, 0},
        ProjectedColumn{ColumnDef("x", ValueType::kDouble), base, 1, 0}}) {
    MapReduceJobSpec spec = CountJob(base, 2);
    spec.projection = {bad};
    EXPECT_EQ(RunJob(spec).status().code(), StatusCode::kInvalidArgument);
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
