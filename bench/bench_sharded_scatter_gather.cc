// Sharded scatter-gather (DESIGN.md §12): the Figure-5 workload
// (|q.ψ| ∈ {3, 5}, k = 5, α = 3) answered by a ShardedKspDatabase at
// K ∈ {1, 2, 4, 8} STR tiles, against the K=1 baseline. Each JSON row
// carries the additive `shard` annotation (count, shards visited/pruned,
// prune rate) next to the usual wall-time percentiles, so the artifact
// shows how much of the shard fleet the mindist-ordered θ gate skips.

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "common/logging.h"
#include "shard/partition.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

namespace {

using namespace ksp::bench;

/// RunWorkload for the sharded executor: same timing/stat conventions
/// (per-query wall µs, summed QueryStats, time-capped queries counted in
/// timed_out) and the same --warmup/--repeat median-of-passes.
WorkloadStats RunShardedWorkload(const ksp::ShardedKspDatabase& db,
                                 Algo algo,
                                 const std::vector<ksp::KspQuery>& queries,
                                 uint32_t k) {
  ksp::ShardedExecutor executor(&db);
  return MedianOfPasses([&] {
    WorkloadStats stats;
    for (const ksp::KspQuery& base : queries) {
      ksp::KspQuery query = base;
      if (k != 0) query.k = k;
      ksp::QueryStats qs;
      auto result = executor.Execute(algo, query, &qs);
      KSP_CHECK(result.ok()) << result.status().ToString();
      stats.sum.Accumulate(qs);
      stats.wall_us.push_back(qs.total_ms * 1000.0);
      if (!qs.completed) ++stats.timed_out;
      ++stats.num_queries;
    }
    return stats;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::FromArgs(argc, argv);
  std::printf("=== Sharded scatter-gather: varying shard count ===\n");

  auto kb = MakeDataset(/*dbpedia_like=*/true,
                        env.Scaled(kDBpediaBaseVertices));
  PrintDatasetSummary("dbpedia-like", *kb);

  const ksp::KspOptions options = BenchOptions(env);

  PrintStatsHeader();
  for (uint32_t num_shards : {1u, 2u, 4u, 8u}) {
    auto partition = ksp::StrPartition(*kb, num_shards);
    auto sharded =
        ksp::ShardedKspDatabase::Build(kb.get(), options, partition,
                                       /*alpha=*/3);
    KSP_CHECK(sharded.ok()) << sharded.status().ToString();
    SetShardRowAnnotation(num_shards);

    for (uint32_t m : {3u, 5u}) {
      ksp::QueryGenOptions qopt;
      qopt.num_keywords = m;
      qopt.k = 5;
      qopt.seed = 500 + m;
      auto queries = ksp::GenerateQueries(*kb, ksp::QueryClass::kOriginal,
                                          qopt, env.queries);
      char config[40];
      std::snprintf(config, sizeof(config), "K=%u |q.psi|=%u", num_shards,
                    m);
      for (Algo algo : {Algo::kBsp, Algo::kSpp, Algo::kSp}) {
        PrintStatsRow(config, algo,
                      RunShardedWorkload(**sharded, algo, queries, 5));
      }
    }
  }
  SetShardRowAnnotation(0);
  return ksp::bench::Finish();
}
