// Seeded differential tests of the Hilbert multi-way join's per-depth
// index: generated jobs against the independent naive oracle under both
// kernel policies, byte-identity across thread counts, split shapes and a
// memory budget, and the kernel-independent comparison charge.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/exec/hilbert_join.h"
#include "src/exec/naive_join.h"
#include "src/mapreduce/job_runner.h"
#include "src/mem/spill.h"
#include "src/runtime/parallel_job_runner.h"
#include "src/runtime/thread_pool.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"

namespace mrtheta {
namespace {

constexpr int64_t kTwo53 = int64_t{1} << 53;

// Rows of `a` and `b` in order, cell by cell.
void ExpectIdenticalRows(const Relation& a, const Relation& b,
                         const std::string& label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns()) << label;
  for (int c = 0; c < a.schema().num_columns(); ++c) {
    EXPECT_EQ(*a.TryColumn<int64_t>(c), *b.TryColumn<int64_t>(c))
        << label << " column " << c;
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// Runs `job` on one thread, one map split per input, without a budget or
// faults: the reference every other run must reproduce byte for byte.
StatusOr<PhysicalJobResult> RunReference(const MapReduceJobSpec& job) {
  ThreadPool pool(1);
  ParallelRunnerOptions options;
  options.min_split_rows = std::numeric_limits<int64_t>::max();
  return RunJobParallel(job, pool, options);
}

// Two columns, each int64 or double. Values sit around `center` (0 or
// ±2^53) within a domain of `domain` steps; double columns add halves, so
// ties, near-ties and values doubles cannot represent exactly all occur.
// A share `inf_rate` of double values is ±inf, so with infinite offsets
// sums that are NaN (inf + -inf) occur too. With `dominant`, about two
// values in three are `center`: a heavy join key.
RelationPtr GenerateBase(Rng& rng, int64_t center, double inf_rate,
                         bool dominant) {
  const int64_t rows = rng.Bernoulli(0.08) ? 0 : 1 + rng.Uniform(20);
  const int64_t domain = 1 + rng.Uniform(rng.Bernoulli(0.6) ? 3 : 10);
  std::vector<ColumnDef> defs;
  std::vector<Relation::ColumnData> columns;
  for (const char* name : {"c0", "c1"}) {
    std::vector<int64_t> ints;
    for (int64_t r = 0; r < rows; ++r) {
      ints.push_back(dominant && rng.Bernoulli(0.6)
                         ? center
                         : center + rng.UniformInt(-domain, domain));
    }
    if (rng.Bernoulli(0.5)) {
      defs.emplace_back(name, ValueType::kInt64);
      columns.emplace_back(std::move(ints));
      continue;
    }
    std::vector<double> doubles;
    for (int64_t v : ints) {
      doubles.push_back(rng.Bernoulli(inf_rate)
                            ? (rng.Bernoulli(0.5) ? kInf : -kInf)
                            : static_cast<double>(v) +
                                  (rng.Bernoulli(0.3) ? 0.5 : 0.0));
    }
    defs.emplace_back(name, ValueType::kDouble);
    columns.emplace_back(std::move(doubles));
  }
  StatusOr<Relation> rel =
      Relation::FromColumns("g", Schema(std::move(defs)), std::move(columns));
  EXPECT_TRUE(rel.ok());
  return std::make_shared<Relation>(*std::move(rel));
}

double GenerateOffset(Rng& rng, double inf_rate) {
  if (rng.Bernoulli(0.4)) return 0.0;
  if (rng.Bernoulli(inf_rate)) return rng.Bernoulli(0.5) ? kInf : -kInf;
  return static_cast<double>(rng.UniformInt(-3, 3)) +
         (rng.Bernoulli(0.4) ? 0.5 : 0.0);
}

JoinCondition RandomCondition(Rng& rng, int lhs, int rhs, int id,
                              double inf_rate) {
  return {{lhs, static_cast<int>(rng.Uniform(2))},
          static_cast<ThetaOp>(rng.Uniform(6)),
          {rhs, static_cast<int>(rng.Uniform(2))},
          GenerateOffset(rng, inf_rate),
          id};
}

// Conditions of one generated query over `n` bases: a chain of mixed
// operators, sometimes a second equality between one pair and a
// two-sided band on one column, sometimes an extra non-adjacent pair.
std::vector<JoinCondition> GenerateConditions(Rng& rng, int n,
                                              double inf_rate) {
  std::vector<JoinCondition> conds;
  auto add = [&](JoinCondition c) {
    c.id = static_cast<int>(conds.size());
    // Either endpoint may be the left side.
    conds.push_back(rng.Bernoulli(0.5) ? c : c.OrientedFor(c.rhs.relation));
  };
  for (int i = 0; i + 1 < n; ++i) {
    add(RandomCondition(rng, i, i + 1, 0, inf_rate));
  }
  const int a = static_cast<int>(rng.Uniform(n - 1));
  if (rng.Bernoulli(0.4)) {
    // Two equalities between one pair.
    add({{a, 0}, ThetaOp::kEq, {a + 1, 0}, 0.0, 0});
    add({{a, 1}, ThetaOp::kEq, {a + 1, 1}, 0.0, 0});
  }
  if (rng.Bernoulli(0.5)) {
    // Two-sided band on one column: a.c + lo < b.c < a.c + hi.
    const int col = static_cast<int>(rng.Uniform(2));
    const double lo = GenerateOffset(rng, inf_rate) - 1.0;
    const double hi = lo + 1.0 + static_cast<double>(rng.Uniform(4));
    add({{a, col}, rng.Bernoulli(0.5) ? ThetaOp::kLt : ThetaOp::kLe,
         {a + 1, col}, lo, 0});
    add({{a, col}, rng.Bernoulli(0.5) ? ThetaOp::kGt : ThetaOp::kGe,
         {a + 1, col}, hi, 0});
  }
  if (n > 2 && rng.Bernoulli(0.3)) {
    add(RandomCondition(rng, 0, n - 1, 0, inf_rate));
  }
  return conds;
}

TEST(HilbertIndexDifferentialTest, GeneratedJobsMatchOracleAndRuntimes) {
  ThreadPool one(1);
  ThreadPool four(4);
  SpillDirectory spill_dir;
  int nonempty = 0;
  // Jobs with rows whose last input binds a new dimension (its curve
  // segments select owned candidates) or binds none (they test the
  // prefix's cell once), and jobs with rows that got a heavy grid (whose
  // tasks take no ownership).
  int last_binds_new = 0;
  int last_binds_none = 0;
  int heavy = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(31000 + seed);
    // One job in four forces skew handling on inputs with a dominant key
    // and an equality between the last two bases, so heavy grids run next
    // to curve segments.
    const bool skewed = seed % 4 == 3;
    const int n = 2 + static_cast<int>(rng.Uniform(3));
    const int64_t centers[] = {0, kTwo53, -kTwo53};
    const int64_t center = centers[rng.Uniform(3)];
    // Two jobs in five are extreme: every double value and every nonzero
    // offset is ±inf.
    const double inf_rate = rng.Bernoulli(0.4) ? 1.0 : 0.0;
    std::vector<RelationPtr> bases;
    std::vector<int> indices;
    for (int i = 0; i < n; ++i) {
      bases.push_back(GenerateBase(rng, center, inf_rate, skewed));
      indices.push_back(i);
    }
    std::vector<JoinCondition> conds = GenerateConditions(rng, n, inf_rate);
    if (skewed) {
      conds.push_back({{n - 2, 0},
                       ThetaOp::kEq,
                       {n - 1, 0},
                       0.0,
                       static_cast<int>(conds.size())});
    }
    const std::string label = "seed=" + std::to_string(seed);

    const auto oracle = NaiveMultiwayJoin(bases, indices, conds);
    ASSERT_TRUE(oracle.ok()) << label;
    nonempty += oracle->num_rows() > 0 ? 1 : 0;

    // Inputs in base order; sometimes bases 0 and 1 arrive as one rid
    // table (their naive join), at a random trail position.
    MultiwayJoinJobSpec spec;
    spec.base_relations = bases;
    spec.conditions = conds;
    spec.num_reduce_tasks = skewed ? 4 + static_cast<int>(rng.Uniform(9))
                                   : 1 + static_cast<int>(rng.Uniform(12));
    spec.skew_handling = skewed ? SkewHandling::kForce : SkewHandling::kOff;
    spec.seed = 77 + seed;
    for (int i = 0; i < n; ++i) {
      spec.inputs.push_back(JoinSide::ForBase(bases[i], i));
    }
    if (n > 2 && rng.Bernoulli(0.4)) {
      std::vector<JoinCondition> pair_conds;
      for (const JoinCondition& c : conds) {
        if (c.lhs.relation <= 1 && c.rhs.relation <= 1) pair_conds.push_back(c);
      }
      const auto pair = NaiveMultiwayJoin(bases, {0, 1}, pair_conds);
      ASSERT_TRUE(pair.ok()) << label;
      spec.inputs.erase(spec.inputs.begin(), spec.inputs.begin() + 2);
      const int pos = static_cast<int>(rng.Uniform(spec.inputs.size() + 1));
      spec.inputs.insert(
          spec.inputs.begin() + pos,
          JoinSide::ForIntermediate(std::make_shared<Relation>(*pair),
                                    {0, 1}));
    }

    std::vector<double> comparisons[2];
    for (KernelPolicy policy :
         {KernelPolicy::kAuto, KernelPolicy::kGenericOnly}) {
      spec.kernel_policy = policy;
      HilbertJoinPlanInfo info;
      const auto job = BuildHilbertJoinJob(spec, &info);
      ASSERT_TRUE(job.ok()) << label << ": " << job.status().ToString();
      if (policy == KernelPolicy::kAuto && oracle->num_rows() > 0) {
        const std::vector<int>& dims = info.grouping.dim_of_input;
        const bool binds_new =
            std::find(dims.begin(), dims.end() - 1, dims.back()) ==
            dims.end() - 1;
        ++(binds_new ? last_binds_new : last_binds_none);
        heavy += info.skew.enabled() ? 1 : 0;
      }
      const std::string at = label + " kernel=" + job->kernel;
      const auto reference = RunReference(*job);
      ASSERT_TRUE(reference.ok()) << at;
      // Check 1: the result multiset is the oracle's.
      ExpectIdenticalRows(*oracle, SortedByRows(*reference->output), at);
      comparisons[policy == KernelPolicy::kAuto ? 0 : 1] =
          reference->metrics.reduce_comparisons_logical;

      // Check 2: rows and row order are identical at every pool width,
      // split shape and budget.
      struct Setting {
        const char* name;
        ThreadPool* pool;
        int64_t budget;
      };
      for (const Setting& setting :
           {Setting{"1 thread", &one, 0}, Setting{"4 threads", &four, 0},
            Setting{"4 threads, 256 KiB", &four, 256 * 1024}}) {
        ParallelRunnerOptions options;
        options.min_split_rows = 4;
        options.mem_budget_bytes = setting.budget;
        options.spill_dir = setting.budget > 0 ? &spill_dir : nullptr;
        const auto result = RunJobParallel(*job, *setting.pool, options);
        ASSERT_TRUE(result.ok()) << at << " " << setting.name;
        ExpectIdenticalRows(*reference->output, *result->output,
                            at + " " + setting.name);
      }
    }
    // The charge counts what the generic loop visits, whatever the kernel.
    EXPECT_EQ(comparisons[0], comparisons[1]) << label;
  }
  // The generator must produce joins with results, not only empty ones:
  // at least three in ten. Among them, both ownership branches and heavy
  // grids must run.
  EXPECT_GE(nonempty, 60) << nonempty;
  EXPECT_GE(last_binds_new, 30) << last_binds_new;
  EXPECT_GE(last_binds_none, 15) << last_binds_none;
  EXPECT_GE(heavy, 10) << heavy;
}

// Ordered FNV-1a fingerprint of a rid table: every cell of every row, in
// row order.
uint64_t OrderedFingerprint(const Relation& rows) {
  uint64_t h = 1469598103934665603ULL;
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    for (int c = 0; c < rows.schema().num_columns(); ++c) {
      h = (h ^ static_cast<uint64_t>(rows.GetInt(r, c))) * 1099511628211ULL;
    }
  }
  return h;
}

std::string HexFloats(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%a, ", v);
    out += buf;
  }
  return out;
}

// Small versions of the two theta_bench Hilbert workloads: the charged
// comparisons are what the generic loop visits, under either kernel. The
// literals pin kAuto's rows, row order and per-task charge, so a faster
// joiner must reproduce all three bit for bit.
void ExpectKernelIndependentCharge(const Query& query, const std::string& label,
                                   uint64_t fingerprint,
                                   const std::vector<double>& charges) {
  MultiwayJoinJobSpec spec;
  spec.base_relations = query.relations();
  spec.conditions = query.conditions();
  spec.num_reduce_tasks = 8;
  for (int i = 0; i < static_cast<int>(query.relations().size()); ++i) {
    spec.inputs.push_back(JoinSide::ForBase(query.relations()[i], i));
  }
  const auto indexed = BuildHilbertJoinJob(spec);
  spec.kernel_policy = KernelPolicy::kGenericOnly;
  const auto generic = BuildHilbertJoinJob(spec);
  ASSERT_TRUE(indexed.ok() && generic.ok()) << label;
  EXPECT_EQ(indexed->kernel, "sort-theta") << label;
  const auto a = RunReference(*indexed);
  const auto b = RunReference(*generic);
  ASSERT_TRUE(a.ok() && b.ok()) << label;
  EXPECT_GT(a->output->num_rows(), 0) << label;
  ExpectIdenticalRows(SortedByRows(*a->output), SortedByRows(*b->output),
                      label);
  EXPECT_EQ(a->metrics.reduce_comparisons_logical,
            b->metrics.reduce_comparisons_logical)
      << label;
  EXPECT_EQ(OrderedFingerprint(*a->output), fingerprint)
      << label << std::hex << ": 0x" << OrderedFingerprint(*a->output);
  EXPECT_EQ(a->metrics.reduce_comparisons_logical, charges)
      << label << ": " << HexFloats(a->metrics.reduce_comparisons_logical);
}

TEST(HilbertIndexTest, ComparisonChargeIsKernelIndependent) {
  MobileDataOptions mobile;
  mobile.physical_rows = 300;
  mobile.num_days = 4;
  mobile.num_stations = 30;
  const auto q1 = MobileQueryBuilder(1, mobile).Build();
  ASSERT_TRUE(q1.ok());
  ExpectKernelIndependentCharge(
      *q1, "mobile Q1", 0xcdb7f1de161016cdULL,
      {0x1.a67bcp+18, 0x1.09d0ep+19, 0x1.68aap+16, 0x1.7531p+18,
       0x1.ad528p+18, 0x1.f66p+15, 0x1.0d8bep+19, 0x1.a73acp+18});

  FlightLegOptions leg;
  leg.physical_rows = 150;
  const std::vector<RelationPtr> legs = {GenerateFlightLeg(0, leg),
                                         GenerateFlightLeg(1, leg),
                                         GenerateFlightLeg(2, leg)};
  const auto chain3 =
      ItineraryQueryBuilder(legs, {StayOver{60, 240}, StayOver{120, 360}})
          .Build();
  ASSERT_TRUE(chain3.ok());
  ExpectKernelIndependentCharge(
      *chain3, "flights chain3", 0x7ee66291d3b57fedULL,
      {0x1.79e8p+13, 0x1.79e8p+13, 0x1.0c38p+13, 0x1.0c38p+13, 0x1.a73p+13,
       0x1.a73p+13, 0x1.005cp+14, 0x1.005cp+14});
}

}  // namespace
}  // namespace mrtheta
