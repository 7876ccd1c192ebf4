// Plan explorer: builds the paper's Fig. 1 join graph with the fluent
// QueryBuilder, prints the pruned join-path graph G'_JP (Algorithm 2) with
// weights and schedules, and the greedy set-cover selection of T — the
// planner's internals made visible through ThetaEngine::Explain.

#include <cstdio>
#include <memory>

#include "src/api/theta_engine.h"
#include "src/common/rng.h"

using namespace mrtheta;  // NOLINT: example brevity

namespace {

RelationPtr MakeRel(const char* name, int64_t logical_mb, uint64_t seed) {
  auto rel = std::make_shared<Relation>(
      name, Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    rel->AppendIntRow({rng.UniformInt(0, 999), rng.UniformInt(0, 99)});
  }
  rel->set_logical_rows(logical_mb * kMiB / rel->schema().avg_row_bytes());
  return rel;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  ThetaEngine engine;

  // Fig. 1's G_J over r0..r4:
  //   θ0:(r0,r1) θ1:(r1,r2) θ2:(r0,r2) θ3:(r2,r3) θ4:(r3,r4) θ5:(r4,r2)
  QueryBuilder builder;
  for (int i = 0; i < 5; ++i) {
    builder.From("r" + std::to_string(i),
                 MakeRel("R", 512 * (i + 1), 7 + i));
  }
  builder.Where(Col("r0.a") <= Col("r1.a"))
      .Where(Col("r1.a") == Col("r2.a"))
      .Where(Col("r0.a") > Col("r2.a"))
      .Where(Col("r2.a") == Col("r3.a"))
      .Where(Col("r3.a") < Col("r4.a"))
      .Where(Col("r4.a") >= Col("r2.a"))
      .Select("r0.a");
  const auto query = builder.Build();
  if (!query.ok()) {
    std::printf("query: %s\n", query.status().ToString().c_str());
    return 1;
  }

  const auto graph = query->BuildJoinGraph();
  std::printf("G_J: %s\n", graph->ToString().c_str());
  std::printf("Eulerian circuit exists: %s (all degrees even, as in Fig. 1)\n\n",
              graph->HasEulerianCircuit() ? "yes" : "no");

  const auto report = engine.Explain(*query);
  if (!report.ok()) {
    std::printf("plan: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const QueryPlan& plan = report->plan;

  std::printf("G'_JP after Lemma 1/2 pruning: %d trails enumerated, "
              "%d pruned by L1, %d by L2, %d candidates kept\n\n",
              plan.gjp_stats.trails_enumerated,
              plan.gjp_stats.pruned_by_lemma1,
              plan.gjp_stats.pruned_by_lemma2, plan.gjp_stats.reported);
  const size_t show = std::min<size_t>(12, plan.candidates.size());
  for (size_t i = 0; i < show; ++i) {
    std::printf("  e'%zu: %s\n", i, plan.candidates[i].ToString().c_str());
  }
  if (plan.candidates.size() > show) {
    std::printf("  ... (%zu more)\n", plan.candidates.size() - show);
  }
  std::printf("\nchosen plan:\n%s", plan.ToString().c_str());
  return 0;
}
