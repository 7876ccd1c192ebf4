// Micro-benchmark of the reduce-side join kernel that jobs run: the
// 1-Bucket-Theta reducer under KernelPolicy::kGenericOnly (nested loop over
// compiled predicates) and under kAuto (the shared per-depth index), each
// called on one reduce group that holds every row of a single-inequality
// join. Each kernel's time is the best of kCalls calls in this process.
// Writes BENCH_kernels.json (pass a path to override), which CI gates
// against bench/baselines/.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/exec/pairwise_join.h"

namespace mrtheta::bench {
namespace {

RelationPtr MakeKeyRel(const char* name, int64_t rows, int64_t lo, int64_t hi,
                       uint64_t seed) {
  auto rel =
      std::make_shared<Relation>(name, Schema({{"k", ValueType::kInt64}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    rel->AppendIntRow({rng.UniformInt(lo, hi)});
  }
  return rel;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Calls timed per kernel and size. One call alone reads the host more than
// the code: the first pays page faults and clock ramp-up, and single calls
// of one build spread by 2x.
constexpr int kCalls = 21;

struct Measured {
  std::string kernel;  // JoinKernelName of the job's reducer
  int64_t wall_ns = 0;  // best of kCalls
  int64_t pairs = 0;
};

// Times the 1-Bucket-Theta reducer on one group holding every row of both
// relations (tag 0 = left, tag 1 = right, in row order), kCalls times.
StatusOr<Measured> RunReducer(const JoinCondition& cond,
                              const RelationPtr& left,
                              const RelationPtr& right, KernelPolicy policy) {
  PairwiseJoinJobSpec spec;
  spec.left = JoinSide::ForBase(left, 0);
  spec.right = JoinSide::ForBase(right, 1);
  spec.base_relations = {left, right};
  spec.conditions = {cond};
  spec.kernel_policy = policy;
  StatusOr<MapReduceJobSpec> job = BuildOneBucketThetaJob(spec);
  if (!job.ok()) return job.status();
  std::vector<std::vector<MapOutputRecord>> records(2);
  for (int tag = 0; tag < 2; ++tag) {
    const int64_t rows = job->inputs[tag].relation->num_rows();
    records[tag].resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      records[tag][r] = {.tag = tag, .row = r, .rec_id = r};
    }
  }
  const std::span<const MapOutputRecord> by_tag[] = {records[0], records[1]};
  const ReduceContext ctx{.by_tag = by_tag, .inputs = &job->inputs};
  Measured m;
  m.kernel = job->kernel;
  m.wall_ns = std::numeric_limits<int64_t>::max();
  for (int call = 0; call < kCalls; ++call) {
    ReduceCollector out(job->output_schema.num_columns());
    const int64_t t0 = NowNs();
    job->reduce(ctx, out);
    m.wall_ns = std::min(m.wall_ns, NowNs() - t0);
    if (!out.status().ok()) return out.status();
    m.pairs = out.rows_emitted();
  }
  return m;
}

KernelBenchRecord Record(const std::string& label, int64_t lrows,
                         int64_t rrows, const Measured& m) {
  KernelBenchRecord rec;
  rec.label = label;
  rec.kernel = m.kernel;
  rec.left_rows = lrows;
  rec.right_rows = rrows;
  rec.wall_ns = m.wall_ns;
  rec.tuples_per_sec = m.wall_ns > 0
                           ? static_cast<double>(lrows + rrows) * 1e9 /
                                 static_cast<double>(m.wall_ns)
                           : 0.0;
  rec.output_pairs = m.pairs;
  return rec;
}

}  // namespace
}  // namespace mrtheta::bench

int main(int argc, char** argv) {
  using namespace mrtheta;
  using namespace mrtheta::bench;

  const char* path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::vector<KernelBenchRecord> records;
  std::printf("%-18s %10s %10s %14s %14s %10s\n", "case", "rows", "pairs",
              "generic_ns", "sort_ns", "speedup");

  bool ok = true;
  for (int64_t n : {2000, 20000}) {
    // Band-style workload: keys mostly disjoint with a narrow overlap
    // window, so the single `<` condition is selective — the regime where
    // the paper's theta joins live and where range pruning pays.
    RelationPtr left = MakeKeyRel("L", n, 0, 1000000, 11);
    RelationPtr right = MakeKeyRel("R", n, -1000000, 10000, 12);
    const JoinCondition cond{{0, 0}, ThetaOp::kLt, {1, 0}, 0.0, 0};

    const StatusOr<Measured> gen_or =
        RunReducer(cond, left, right, KernelPolicy::kGenericOnly);
    const StatusOr<Measured> srt_or =
        RunReducer(cond, left, right, KernelPolicy::kAuto);
    for (const StatusOr<Measured>* m : {&gen_or, &srt_or}) {
      if (!m->ok()) {
        std::fprintf(stderr, "FATAL: %s\n", m->status().ToString().c_str());
        return 1;
      }
    }
    const Measured& gen = *gen_or;
    const Measured& srt = *srt_or;
    if (gen.pairs != srt.pairs) {
      std::fprintf(stderr, "FATAL: kernels disagree (%lld vs %lld pairs)\n",
                   static_cast<long long>(gen.pairs),
                   static_cast<long long>(srt.pairs));
      return 1;
    }
    const double speedup = srt.wall_ns > 0 ? static_cast<double>(gen.wall_ns) /
                                                 static_cast<double>(srt.wall_ns)
                                           : 0.0;
    const std::string label =
        "lt_" + std::to_string(n) + "x" + std::to_string(n);
    records.push_back(Record(label, n, n, gen));
    records.push_back(Record(label, n, n, srt));
    std::printf("%-18s %10lld %10lld %14lld %14lld %9.1fx\n", label.c_str(),
                static_cast<long long>(n), static_cast<long long>(gen.pairs),
                static_cast<long long>(gen.wall_ns),
                static_cast<long long>(srt.wall_ns), speedup);
    // Acceptance bar: >= 5x at 20k x 20k for a single-inequality join.
    if (n == 20000 && speedup < 5.0) ok = false;
  }

  const Status s = WriteBenchJson(path, records);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path);
  if (!ok) {
    std::fprintf(stderr, "FAIL: indexed kernel below 5x at 20k x 20k\n");
    return 1;
  }
  return 0;
}
