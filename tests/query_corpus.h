// The canonical seeded query corpus shared by every equivalence suite
// (oracle, backend-invariance, shard, cache):
// 210 queries over the DBpediaLike(1500) synthetic KB — three kOriginal
// keyword-count mixes plus a high-looseness kSDLL tail — with
// byte-identical seeds, so all suites pin the exact same executions.
// Tests that vary k apply their own policy on the returned vector;
// generation itself always uses the default k (k only stamps the query,
// it does not perturb the generator's RNG stream).

#ifndef KSP_TESTS_QUERY_CORPUS_H_
#define KSP_TESTS_QUERY_CORPUS_H_

#include <vector>

#include "core/query.h"
#include "datagen/query_gen.h"
#include "rdf/knowledge_base.h"

namespace ksp {
namespace testing {

/// The 210-query equivalence corpus for `kb` (which must be the
/// DBpediaLike(1500) KB for the seeds to pin the historic workload).
inline std::vector<KspQuery> MakeEquivalenceCorpus(const KnowledgeBase& kb) {
  struct Config {
    uint32_t num_keywords;
    QueryClass query_class;
    uint64_t seed;
    size_t count;
  };
  static constexpr Config kConfigs[] = {
      {2, QueryClass::kOriginal, 11, 70},
      {3, QueryClass::kOriginal, 22, 70},
      {5, QueryClass::kOriginal, 33, 50},
      {3, QueryClass::kSDLL, 44, 20},
  };
  std::vector<KspQuery> queries;
  for (const Config& config : kConfigs) {
    QueryGenOptions options;
    options.num_keywords = config.num_keywords;
    options.seed = config.seed;
    auto batch =
        GenerateQueries(kb, config.query_class, options, config.count);
    queries.insert(queries.end(), batch.begin(), batch.end());
  }
  return queries;
}

}  // namespace testing
}  // namespace ksp

#endif  // KSP_TESTS_QUERY_CORPUS_H_
