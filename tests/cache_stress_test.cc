// Concurrency stress for the shared semantic cache, built to run under
// TSan (the sanitize CI job runs `ctest -L 'parallel|cache'`). Eight
// threads interleave cached queries with cache invalidations and full
// index reloads; every query result is checked against an uncached
// reference computed up front. Queries and Invalidate() run under a
// shared lock (both are safe against each other by design); LoadIndexes
// mutates the database and takes the lock exclusively, mirroring how a
// serving process would quiesce queries around an index swap.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <iterator>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/semantic_cache.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"

namespace ksp {
namespace {

using ExecuteFn = Result<KspResult> (QueryExecutor::*)(const KspQuery&,
                                                       QueryStats*);

constexpr ExecuteFn kAlgorithms[] = {&QueryExecutor::ExecuteBsp,
                                     &QueryExecutor::ExecuteSpp,
                                     &QueryExecutor::ExecuteSp};

TEST(CacheStressTest, QueriesInvalidationsAndReloadsRaceSafely) {
  auto kb_or = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(800));
  ASSERT_TRUE(kb_or.ok()) << kb_or.status().ToString();
  auto kb = std::move(*kb_or);

  KspOptions options;
  options.cache_budget_bytes = 256 * 1024;
  KspDatabase db(kb.get(), options);
  db.PrepareAll(3);
  ASSERT_NE(db.semantic_cache(), nullptr);

  const std::string dir = ::testing::TempDir() + "/cache_stress_indexes";
  ASSERT_TRUE(db.SaveIndexes(dir).ok());

  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.k = 4;
  qopt.seed = 17;
  const std::vector<KspQuery> queries =
      GenerateQueries(*kb, QueryClass::kOriginal, qopt, 24);
  ASSERT_FALSE(queries.empty());

  // Uncached ground truth per (query, algorithm).
  KspDatabase reference_db(kb.get());
  reference_db.PrepareAll(3);
  std::vector<std::vector<KspResult>> expected(queries.size());
  {
    QueryExecutor reference(&reference_db);
    for (size_t i = 0; i < queries.size(); ++i) {
      for (ExecuteFn fn : kAlgorithms) {
        auto result = (reference.*fn)(queries[i], nullptr);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        expected[i].push_back(std::move(*result));
      }
    }
  }

  // Queries and cache Invalidate() take the lock shared; LoadIndexes
  // (which swaps the index generation out from under executors) takes
  // it exclusive.
  std::shared_mutex db_mu;
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> reloads{0};

  constexpr int kThreads = 8;
  constexpr uint64_t kItersPerThread = 120;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      QueryExecutor executor(&db);
      for (uint64_t iter = 0; iter < kItersPerThread; ++iter) {
        const uint64_t roll = rng.NextBounded(100);
        if (roll < 85) {
          const size_t qi = rng.NextBounded(queries.size());
          const size_t ai = rng.NextBounded(std::size(kAlgorithms));
          std::shared_lock<std::shared_mutex> lock(db_mu);
          auto result = (executor.*kAlgorithms[ai])(queries[qi], nullptr);
          if (!result.ok()) {
            ++mismatches;
            continue;
          }
          const KspResult& want = expected[qi][ai];
          bool same = result->entries.size() == want.entries.size();
          for (size_t e = 0; same && e < want.entries.size(); ++e) {
            same = result->entries[e].place == want.entries[e].place &&
                   result->entries[e].score == want.entries[e].score &&
                   result->entries[e].looseness == want.entries[e].looseness;
          }
          if (!same) ++mismatches;
        } else if (roll < 95) {
          std::shared_lock<std::shared_mutex> lock(db_mu);
          db.semantic_cache()->Invalidate();
        } else {
          std::unique_lock<std::shared_mutex> lock(db_mu);
          Status status = db.LoadIndexes(dir);
          if (!status.ok()) {
            ++mismatches;
          } else {
            ++reloads;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reloads.load(), 0u);
  // The budget held despite the churn.
  EXPECT_LE(db.semantic_cache()->TotalBytes(), options.cache_budget_bytes);
}

TEST(CacheStressTest, ManyExecutorsWarmOneCacheConcurrently) {
  // No invalidation churn: 8 executors hammer the same small query set
  // so nearly everything is served from the shared cache, under TSan.
  auto kb_or = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(600));
  ASSERT_TRUE(kb_or.ok());
  auto kb = std::move(*kb_or);
  KspOptions options;
  options.cache_budget_bytes = kCacheUnlimited;
  KspDatabase db(kb.get(), options);
  db.PrepareAll(3);

  QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.k = 3;
  qopt.seed = 5;
  const std::vector<KspQuery> queries =
      GenerateQueries(*kb, QueryClass::kOriginal, qopt, 8);
  ASSERT_FALSE(queries.empty());

  KspDatabase reference_db(kb.get());
  reference_db.PrepareAll(3);
  std::vector<KspResult> expected;
  {
    QueryExecutor reference(&reference_db);
    for (const KspQuery& query : queries) {
      auto result = reference.ExecuteSpp(query, nullptr);
      ASSERT_TRUE(result.ok());
      expected.push_back(std::move(*result));
    }
  }

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      QueryExecutor executor(&db);
      for (int round = 0; round < 40; ++round) {
        const size_t qi = (t + round) % queries.size();
        auto result = executor.ExecuteSpp(queries[qi], nullptr);
        if (!result.ok() ||
            result->entries.size() != expected[qi].entries.size()) {
          ++mismatches;
          continue;
        }
        for (size_t e = 0; e < expected[qi].entries.size(); ++e) {
          if (result->entries[e].place != expected[qi].entries[e].place ||
              result->entries[e].score != expected[qi].entries[e].score) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);

  const auto result_stats = db.semantic_cache()->result_stats();
  EXPECT_GT(result_stats.hits, 0u);
}

TEST(CacheStressTest, EpochGuardsInvalidationWindow) {
  // Raw-layer race check for the atomic-invalidation contract (DESIGN.md
  // §9/§11): an insert tagged with epoch e must never be visible to a
  // reader whose snapshot is e' != e, no matter how inserts interleave
  // with Invalidate(). Distances are a function of the epoch they were
  // inserted under, so a single stale entry crossing the boundary is
  // detected at the reader as a wrong value.
  SemanticQueryCache cache(kCacheUnlimited);
  const auto distance_for = [](uint64_t epoch) {
    return static_cast<HopDistance>(epoch % 1000);
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> stale_hits{0};
  std::atomic<uint64_t> hits{0};

  constexpr uint32_t kRoots = 64;
  constexpr uint32_t kTerms = 16;

  std::vector<std::thread> threads;
  // Writers: snapshot the epoch, insert f(epoch) — exactly the executor
  // protocol (snapshot once, tag every insert with it).
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(500 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t epoch = cache.epoch();
        const VertexId root = static_cast<VertexId>(rng.NextBounded(kRoots));
        const TermId term = static_cast<TermId>(rng.NextBounded(kTerms));
        cache.InsertDistance(root, term, epoch, distance_for(epoch));
      }
    });
  }
  // Readers: snapshot the epoch, and any hit under that snapshot must
  // carry that snapshot's value — never a neighbour epoch's.
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(900 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t epoch = cache.epoch();
        const VertexId root = static_cast<VertexId>(rng.NextBounded(kRoots));
        const TermId term = static_cast<TermId>(rng.NextBounded(kTerms));
        HopDistance distance = 0;
        if (cache.LookupDistance(root, term, epoch, &distance)) {
          ++hits;
          if (distance != distance_for(epoch)) ++stale_hits;
        }
      }
    });
  }
  // Invalidator: constant epoch churn — 2000 invalidations, then on
  // until the race has produced a hit. Past the 2000, epochs are spaced
  // out so a starved reader can land a hit; the deadline only ends a run
  // that never gets there.
  std::thread invalidator([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (int i = 0;
         i < 2000 || (hits.load() == 0 &&
                      std::chrono::steady_clock::now() < deadline);
         ++i) {
      cache.Invalidate();
      if (i < 2000) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });

  invalidator.join();
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(stale_hits.load(), 0u)
      << "an entry from another epoch was served across Invalidate()";
  EXPECT_GT(hits.load(), 0u) << "the race never exercised a cache hit";
}

}  // namespace
}  // namespace ksp
