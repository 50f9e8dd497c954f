// Input generation: every input of a run is derived from --seed alone and
// written fresh into the run's own directory (a KB snapshot plus a query
// file); nothing is cached across runs.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "bench.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "rdf/kb_io.h"

namespace kspbench {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct QueryConfig {
  ksp::QueryClass query_class;
  uint32_t num_keywords;
};

struct InputSpec {
  ksp::SyntheticProfile profile;
  /// One query of each config per round, in this order.
  std::vector<QueryConfig> configs;
  /// k of round r is ks[r % ks.size()].
  std::vector<uint32_t> ks;
  size_t per_config = 0;
  /// Whether --seed draws the query pool (else it is fixed per dataset).
  bool seeded_pool = true;
};

constexpr uint64_t kDatasetSeed = 0;

bool MakeSpec(const std::string& workload, InputSpec* spec) {
  using ksp::QueryClass;
  if (workload == "engine-mem") {
    spec->profile = ksp::SyntheticProfile::YagoLike(20000);
    for (uint32_t m = 1; m <= 10; ++m) {
      spec->configs.push_back({QueryClass::kOriginal, m});
    }
    spec->configs.push_back({QueryClass::kSDLL, 3});
    spec->configs.push_back({QueryClass::kSDLL, 5});
    spec->configs.push_back({QueryClass::kLDLL, 1});
    spec->ks = {5, 1, 10};
    spec->per_config = 500;
  } else if (workload == "serve-disk-zipf") {
    spec->profile = ksp::SyntheticProfile::DBpediaLike(10000);
    for (uint32_t m = 1; m <= 6; ++m) {
      spec->configs.push_back({QueryClass::kOriginal, m});
    }
    spec->ks = {5, 1, 10};
    spec->per_config = 200;
    // The pool of distinct queries and its popularity order are part of
    // the dataset too: with a seed-drawn pool, whichever few heavy
    // queries land in the Zipf head set the run's cost (a 20% spread
    // across seeds). The seed draws the request stream instead.
    spec->seeded_pool = false;
  } else if (workload == "shard-scatter") {
    spec->profile = ksp::SyntheticProfile::DBpediaLike(10000);
    for (uint32_t m = 1; m <= 8; ++m) {
      spec->configs.push_back({QueryClass::kOriginal, m});
    }
    spec->ks = {5, 1, 10};
    spec->per_config = 3000;
  } else {
    return false;
  }
  // The KB is the dataset: one fixed profile seed, regenerated every run.
  // --seed draws the queries (and, for serve-disk-zipf, the request
  // stream), so runs on different seeds compare on the same data.
  spec->profile.seed = SplitMix(kDatasetSeed);
  return true;
}

std::string QueryLine(const ksp::KnowledgeBase& kb, const ksp::KspQuery& q,
                      uint32_t k) {
  char head[96];
  std::snprintf(head, sizeof(head), "%.17g %.17g %u", q.location.x,
                q.location.y, k);
  std::string line = head;
  for (ksp::TermId t : q.keywords) line += " " + kb.vocabulary().Term(t);
  return line;
}

}  // namespace

int Generate(const std::string& workload, uint64_t seed,
             const std::string& dir) {
  InputSpec spec;
  if (!MakeSpec(workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  auto kb = ksp::GenerateKnowledgeBase(spec.profile);
  if (!kb.ok()) {
    std::fprintf(stderr, "KB generation failed: %s\n",
                 kb.status().ToString().c_str());
    return 1;
  }
  const std::string kb_path = dir + "/kb.kbsnap";
  if (ksp::Status st = ksp::SaveKnowledgeBase(**kb, kb_path); !st.ok()) {
    std::fprintf(stderr, "KB save failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // One GenerateQueries call per config, spread over a few threads, with
  // the generator's default options apart from |q.ψ| and the seed.
  const size_t num_configs = spec.configs.size();
  std::vector<std::vector<std::string>> pools(num_configs);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t c = next++; c < num_configs; c = next++) {
      ksp::QueryGenOptions options;
      options.num_keywords = spec.configs[c].num_keywords;
      options.seed =
          SplitMix((spec.seeded_pool ? seed : kDatasetSeed) * 131 + c + 1);
      const auto queries =
          ksp::GenerateQueries(**kb, spec.configs[c].query_class, options,
                               spec.per_config + spec.per_config / 10);
      std::set<std::string> seen;
      for (const ksp::KspQuery& q : queries) {
        if (pools[c].size() == spec.per_config) break;
        // k is stamped per round below; dedupe on location + keywords.
        std::string key = QueryLine(**kb, q, 0);
        if (seen.insert(key).second) pools[c].push_back(key);
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kHelperThreads; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  size_t rounds = spec.per_config;
  for (const auto& pool : pools) rounds = std::min(rounds, pool.size());
  if (rounds == 0) {
    std::fprintf(stderr, "query generation produced no complete round\n");
    return 1;
  }
  const std::string queries_path = dir + "/queries.txt";
  std::ofstream out(queries_path);
  out << "# kspbench " << workload << " seed=" << seed
      << ": lat lon k keyword...\n";
  for (size_t r = 0; r < rounds; ++r) {
    const uint32_t k = spec.ks[r % spec.ks.size()];
    for (size_t c = 0; c < num_configs; ++c) {
      // Replace the placeholder k=0 written for deduplication.
      const std::string& line = pools[c][r];
      const size_t first = line.find(' ');
      const size_t second = line.find(' ', first + 1);
      const size_t third = line.find(' ', second + 1);
      out << line.substr(0, second + 1) << k << line.substr(third) << '\n';
    }
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", queries_path.c_str());
    return 1;
  }
  std::printf("generated: %s kb=%s queries=%zu rounds=%zu\n",
              workload.c_str(), kb_path.c_str(), rounds * num_configs,
              rounds);
  return 0;
}

/// Number of queries in one round of `workload` (configs per round).
size_t RoundSize(const std::string& workload) {
  InputSpec spec;
  return MakeSpec(workload, &spec) ? spec.configs.size() : 1;
}

}  // namespace kspbench
