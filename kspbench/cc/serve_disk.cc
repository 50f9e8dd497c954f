// serve-disk-zipf: a KspServer on loopback, loaded through ServeDirectory
// with the disk backend (buffer pool well below the paged-index footprint)
// and the semantic cache (budget below the working set), driven
// closed-loop by kConnections KspClient connections drawing SP queries
// Zipf-skewed from a pool of distinct queries. At fixed request counts
// connection 0 hot-swaps to the other saved generation, which re-verifies
// and re-spills the indexes and starts an empty cache. Service, storage,
// cache and persistence do most of the work here and none in engine-mem.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>

#include "bench.h"
#include "common/metrics.h"
#include "core/database.h"
#include "core/executor.h"
#include "reference.h"
#include "service/client.h"
#include "service/server.h"

namespace kspbench {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kAlpha = 3;
constexpr unsigned kConnections = 4;
/// Buffer-pool budget: about a quarter of the 1.1 MB paged-index
/// footprint (README.md).
constexpr uint64_t kPoolBudgetBytes = 256ULL << 10;
/// Semantic-cache budget: an eighth of the 2 MB the pool's results and
/// distances take when nothing is evicted (README.md).
constexpr size_t kCacheBudgetBytes = 256ULL << 10;
/// Connection 0 swaps generations after its kSwapEvery-th and
/// 2·kSwapEvery-th request: a fixed number of swaps per run, because each
/// one keeps two generations alive for a moment and so sets peak RSS.
constexpr uint64_t kSwapEvery = 200;
constexpr uint64_t kMaxSwaps = 2;
/// Skew of the request stream. About three requests in four repeat a
/// cached answer, so the median is a result-cache hit and p99 and
/// throughput carry the misses. At 1.0 the median fell where miss
/// latencies climb steeply (p45 0.23 ms, p50 0.40-0.53, p55 0.69-0.80)
/// and moved by a third between runs (README.md).
constexpr double kZipfExponent = 1.4;
/// Distinct queries replayed in-process for the storage overhead.
constexpr size_t kStorageReplayQueries = 300;
/// Served requests replayed in-process for the cache layer split.
constexpr size_t kCacheReplayRequests = 4000;

ksp::KspOptions ServingOptions() {
  ksp::KspOptions options;
  options.backend = ksp::StorageBackend::kDisk;
  options.buffer_pool_budget_bytes = kPoolBudgetBytes;
  options.cache_budget_bytes = kCacheBudgetBytes;
  return options;
}

struct Served {
  std::unique_ptr<ksp::KnowledgeBase> kb;
  std::unique_ptr<ksp::KspServer> server;
};

/// One served query as the client saw it.
struct Sample {
  uint64_t order = 0;  // global send order
  uint32_t query = 0;  // pool index
  double rtt_ms = 0.0;
  double engine_ms = 0.0;
  std::vector<Entry> entries;
};

bool SetUp(const RunConfig& config, SpanRecorder* spans,
           SetupSamples* samples, Served* out) {
  if (out->server != nullptr) out->server->Stop();
  out->server.reset();
  out->kb.reset();
  const std::string dir_a = config.dir + "/index-a";
  const std::string dir_b = config.dir + "/index-b";
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);

  const int root = spans->Begin("setup");
  int s = spans->Begin("rdf.kb_load", root);
  out->kb = LoadKb(config.dir + "/kb.kbsnap");
  samples->Add("rdf.kb_load_s", spans->End(s));
  if (out->kb == nullptr) return false;
  {
    ksp::KspDatabase db(out->kb.get());
    s = spans->Begin("spatial.rtree_build", root);
    db.BuildRTree();
    samples->Add("spatial.rtree_build_s", spans->End(s));
    s = spans->Begin("reach.label_build", root);
    db.BuildReachabilityIndex();
    samples->Add("reach.label_build_s", spans->End(s));
    s = spans->Begin("alpha.index_build", root);
    db.BuildAlphaIndex(kAlpha);
    samples->Add("alpha.index_build_s", spans->End(s));
    s = spans->Begin("core.save_indexes", root);
    for (const std::string& dir : {dir_a, dir_b}) {
      if (ksp::Status st = db.SaveIndexes(dir); !st.ok()) {
        std::fprintf(stderr, "SaveIndexes(%s): %s\n", dir.c_str(),
                     st.ToString().c_str());
        return false;
      }
    }
    samples->Add("core.save_indexes_s", spans->End(s));
  }
  // The server's default options: kConnections callers against its
  // default worker pool and admission queue.
  out->server = std::make_unique<ksp::KspServer>(
      out->kb.get(), ServingOptions(), ksp::ServerOptions());
  s = spans->Begin("service.serve_directory", root);
  ksp::Status st = out->server->ServeDirectory(dir_a);
  samples->Add("service.serve_directory_s", spans->End(s));
  if (st.ok()) st = out->server->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server set-up: %s\n", st.ToString().c_str());
    return false;
  }
  samples->Add("setup_s", spans->End(root));
  return true;
}

/// Bytes of every spill file the disk backend wrote under `tmp`.
uint64_t SpillBytes(const std::string& tmp) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(tmp, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t Draw(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return static_cast<uint32_t>(std::min(i, cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

uint64_t Delta(const ksp::MetricsSnapshot& after,
               const ksp::MetricsSnapshot& before, const std::string& name) {
  auto a = after.counters.find(name);
  auto b = before.counters.find(name);
  const uint64_t va = a == after.counters.end() ? 0 : a->second;
  const uint64_t vb = b == before.counters.end() ? 0 : b->second;
  return va - vb;
}

double PhaseDelta(const ksp::MetricsSnapshot& after,
                  const ksp::MetricsSnapshot& before, ksp::TracePhase p) {
  return static_cast<double>(Delta(
      after, before,
      std::string("ksp_phase_") + ksp::TracePhaseName(p) + "_us_total"));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-query mean wall µs of `queries` on `db` (cache off), SP.
double MeanSpUs(const ksp::KspDatabase& db,
                const std::vector<ksp::KspQuery>& queries) {
  ksp::QueryExecutor executor(&db);
  double total_us = 0.0;
  for (const ksp::KspQuery& q : queries) {
    const Clock::time_point t0 = Clock::now();
    (void)executor.ExecuteSp(q);
    total_us +=
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  }
  return Ratio(total_us, static_cast<double>(queries.size()));
}

}  // namespace

int RunServeDiskZipf(const RunConfig& config) {
  const std::string kb_path = config.dir + "/kb.kbsnap";
  const std::string queries_path = config.dir + "/queries.txt";
  std::vector<QuerySpec> pool;
  if (!ReadQueries(queries_path, &pool)) {
    std::fprintf(stderr, "cannot read %s\n", queries_path.c_str());
    return 1;
  }
  // Spill directories are private temp directories: keep them inside the
  // run's own directory.
  const std::string tmp = config.dir + "/tmp";
  fs::create_directories(tmp);
  setenv("TMPDIR", tmp.c_str(), 1);

  SpanRecorder spans;
  SetupSamples setup;
  Served served;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (!SetUp(config, &spans, &setup, &served)) return 1;
  }
  const ksp::KnowledgeBase& kb = *served.kb;
  PrintFingerprint(config.workload, config.seed, kb_path, queries_path,
                   kb.num_vertices(), kb.num_edges(), kb.num_places(),
                   kb.num_terms());
  const uint64_t spill_bytes = SpillBytes(tmp);
  const uint16_t port = served.server->port();

  Ledger ledger;
  std::vector<std::vector<Sample>> samples(kConnections);
  std::vector<double> swap_ms;
  std::atomic<uint64_t> min_generation{served.server->serving_generation()};
  std::atomic<uint64_t> next_order{0};
  std::vector<uint64_t> swap_orders;  // send order at each swap
  const ZipfSampler zipf(pool.size(), kZipfExponent);

  const ksp::MetricsSnapshot before = served.server->metrics()->Snapshot();
  const int window = spans.Begin("queries");
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      auto client = ksp::KspClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ledger.Attempt();
        ledger.Fail("connect", client.status().ToString());
        return;
      }
      std::mt19937_64 rng(config.seed * 7919 + c);
      bool use_b = true;
      for (uint64_t n = 1; Clock::now() < deadline; ++n) {
        const uint32_t qi = zipf.Draw(&rng);
        const QuerySpec& q = pool[qi];
        const uint64_t floor = min_generation.load();
        Sample sample;
        sample.order = next_order++;
        sample.query = qi;
        const Clock::time_point t0 = Clock::now();
        auto response = client->Query(ksp::KspAlgorithm::kSp, q.location,
                                      q.keywords, q.k);
        sample.rtt_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        ledger.Attempt();
        if (!response.ok()) {
          ledger.Fail("transport", response.status().ToString());
          return;
        }
        if (response->code == ksp::StatusCode::kUnavailable) {
          ledger.Fail("rejected_unavailable", response->message);
        } else if (response->code == ksp::StatusCode::kDeadlineExceeded) {
          ledger.Fail("deadline_exceeded", response->message);
        } else if (!response->ok()) {
          ledger.Fail("error", response->message);
        } else if (response->generation < floor) {
          ledger.FailCheck(
              "stale_generation",
              "generation " + std::to_string(response->generation) +
                  " after swap to " + std::to_string(floor));
        } else {
          sample.engine_ms = response->total_ms;
          for (const ksp::WireResultEntry& e : response->entries) {
            sample.entries.push_back(
                Entry{e.place, e.looseness, e.spatial_distance, e.score});
          }
          samples[c].push_back(std::move(sample));
        }
        if (c != 0 || n % kSwapEvery != 0 || n / kSwapEvery > kMaxSwaps) {
          continue;
        }
        const std::string target =
            config.dir + (use_b ? "/index-b" : "/index-a");
        use_b = !use_b;
        const uint64_t order = next_order.load();
        const Clock::time_point s0 = Clock::now();
        auto swapped = client->Swap(target);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - s0)
                .count();
        ledger.Attempt();
        if (!swapped.ok() || !swapped->ok()) {
          ledger.Fail("swap", swapped.ok() ? swapped->message
                                           : swapped.status().ToString());
          continue;
        }
        if (swapped->generation <= floor) {
          ledger.Fail("swap", "generation did not advance");
          continue;
        }
        swap_ms.push_back(ms);
        swap_orders.push_back(order);
        min_generation.store(swapped->generation);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_s = SecondsSince(start);
  spans.End(window);
  const ksp::MetricsSnapshot after = served.server->metrics()->Snapshot();
  served.server->Stop();

  // Checks, off the clock: every served answer against the reference,
  // computed once per distinct query.
  std::vector<uint8_t> used(pool.size(), 0);
  std::vector<Sample> all;
  for (auto& per_client : samples) {
    for (Sample& s : per_client) {
      used[s.query] = 1;
      all.push_back(std::move(s));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.order < b.order; });
  std::vector<std::vector<Entry>> want(pool.size());
  std::vector<std::unique_ptr<ReferenceEvaluator>> refs;
  for (unsigned t = 0; t < kHelperThreads; ++t) {
    refs.push_back(std::make_unique<ReferenceEvaluator>(&kb));
  }
  ParallelFor(pool.size(), [&](unsigned t, size_t i) {
    if (used[i]) want[i] = refs[t]->TopK(pool[i]);
  });
  std::vector<double> latencies, engine_ms, overhead_us;
  double rtt_total_us = 0.0, overhead_total_us = 0.0, engine_total_ms = 0.0;
  for (const Sample& s : all) {
    const std::string diff = DiffEntries(s.entries, want[s.query]);
    if (!diff.empty()) {
      ledger.FailCheck("reference_mismatch",
                       "pool query " + std::to_string(s.query) + ": " + diff);
      continue;
    }
    latencies.push_back(s.rtt_ms);
    engine_ms.push_back(s.engine_ms);
    overhead_us.push_back((s.rtt_ms - s.engine_ms) * 1e3);
    rtt_total_us += s.rtt_ms * 1e3;
    overhead_total_us += (s.rtt_ms - s.engine_ms) * 1e3;
    engine_total_ms += s.engine_ms;
  }

  Report report;
  ReportEndToEnd(latencies, wall_s, setup.Of("setup_s"), &report);
  if (config.trace) {
    setup.ReportSteps(&report);
    const double q = static_cast<double>(
        Delta(after, before, "ksp_queries_total"));
    auto per_query = [&](const std::string& counter) {
      return Ratio(static_cast<double>(Delta(after, before, counter)), q);
    };
    auto phase = [&](ksp::TracePhase p) {
      return Ratio(PhaseDelta(after, before, p), q);
    };
    double phase_total_us = 0.0;
    for (size_t p = 0; p < ksp::kNumTracePhases; ++p) {
      phase_total_us +=
          PhaseDelta(after, before, static_cast<ksp::TracePhase>(p));
    }
    report.Set("core.execute_us_per_query",
               per_query("ksp_query_wall_us_total"), "us");
    report.Set("core.tqsp_per_query", per_query("ksp_tqsp_computations_total"),
               "count");
    report.Set("core.bfs_vertices_per_query",
               per_query("ksp_bfs_vertices_visited_total"), "count");
    report.Set("core.tqsp_compute_us_per_query",
               phase(ksp::TracePhase::kTqspCompute), "us");
    report.Set("core.rule2_aborts_per_query",
               per_query("ksp_pruned_rule2_total"), "count");
    report.Set("spatial.rtree_nodes_per_query",
               per_query("ksp_rtree_nodes_accessed_total"), "count");
    report.Set("spatial.rtree_nn_us_per_query",
               phase(ksp::TracePhase::kRtreeNn), "us");
    report.Set("reach.probes_per_query",
               per_query("ksp_reachability_queries_total"), "count");
    report.Set("reach.rule1_pruned_per_query",
               per_query("ksp_pruned_rule1_total"), "count");
    report.Set("reach.rule1_prune_us_per_query",
               phase(ksp::TracePhase::kRule1Prune), "us");
    report.Set("alpha.rule3_pruned_per_query",
               per_query("ksp_pruned_rule3_total"), "count");
    report.Set("alpha.rule4_pruned_per_query",
               per_query("ksp_pruned_rule4_total"), "count");
    report.Set("text.doc_fetch_us_per_query",
               phase(ksp::TracePhase::kDocFetch), "us");
    report.Set("cache.lookup_us_per_query",
               phase(ksp::TracePhase::kCacheLookup), "us");
    report.Set("cache.evictions_per_query",
               per_query("ksp_cache_evictions_total"), "count");
    const double hits =
        static_cast<double>(Delta(after, before, "ksp_bufferpool_hits_total"));
    const double misses = static_cast<double>(
        Delta(after, before, "ksp_bufferpool_misses_total"));
    report.Set("storage.pool_hit_rate", Ratio(hits, hits + misses), "ratio");
    report.Set("storage.pool_misses_per_query", Ratio(misses, q), "count");
    report.Set("storage.pool_evictions_per_query",
               per_query("ksp_bufferpool_evictions_total"), "count");
    report.Set("storage.page_io_us_per_query",
               phase(ksp::TracePhase::kPageIo), "us");
    report.Set("storage.spill_bytes", static_cast<double>(spill_bytes),
               "bytes");
    report.Set("service.engine_ms_p50", Percentile(engine_ms, 0.5), "ms");
    report.Set("service.overhead_us_p50", Percentile(overhead_us, 0.5), "us");
    report.Set("service.overhead_us_p99", Percentile(overhead_us, 0.99),
               "us");
    report.Set("service.worker_busy_share",
               Ratio(engine_total_ms,
                     ksp::ServerOptions().num_workers * wall_s * 1e3),
               "ratio");
    report.Set("service.swap_ms", Median(swap_ms), "ms");
    report.Set("service.swaps", static_cast<double>(swap_ms.size()), "count");
    report.Set("trace.coverage_share",
               Ratio(phase_total_us + overhead_total_us, rtt_total_us),
               "ratio");

    // In-process replays, off the clock. (1) Storage: the first distinct
    // pool queries on a disk-backend database at the served pool budget
    // minus the same on a memory-backend one, both cache off.
    const int replay = spans.Begin("replay.storage");
    ksp::KspOptions mem_options;
    ksp::KspOptions disk_options = ServingOptions();
    disk_options.cache_budget_bytes = 0;
    ksp::KspDatabase mem_db(served.kb.get(), mem_options);
    ksp::KspDatabase disk_db(served.kb.get(), disk_options);
    ksp::Status st = mem_db.LoadIndexes(config.dir + "/index-a");
    if (st.ok()) st = disk_db.LoadIndexes(config.dir + "/index-a");
    if (!st.ok()) {
      std::fprintf(stderr, "replay load: %s\n", st.ToString().c_str());
      return 1;
    }
    std::vector<ksp::KspQuery> distinct;
    for (size_t i = 0; i < std::min(kStorageReplayQueries, pool.size());
         ++i) {
      distinct.push_back(
          mem_db.MakeQuery(pool[i].location, pool[i].keywords, pool[i].k));
    }
    const double mem_us = MeanSpUs(mem_db, distinct);
    const double disk_us = MeanSpUs(disk_db, distinct);
    report.Set("storage.overhead_us_per_query", disk_us - mem_us, "us");
    spans.End(replay);

    // (2) Cache: the served request sequence, in send order, on one
    // disk-backend database with the served budgets; each swap point
    // empties the cache and the pool as a fresh generation would. Gives
    // the result/dg split the server's combined cache counters do not.
    const int replay_cache = spans.Begin("replay.cache");
    ksp::KspDatabase cache_db(served.kb.get(), ServingOptions());
    st = cache_db.LoadIndexes(config.dir + "/index-a");
    if (!st.ok()) {
      std::fprintf(stderr, "replay load: %s\n", st.ToString().c_str());
      return 1;
    }
    ksp::QueryExecutor executor(&cache_db);
    ksp::QueryStats cache_totals;
    size_t next_swap = 0;
    for (size_t i = 0; i < std::min(kCacheReplayRequests, all.size()); ++i) {
      while (next_swap < swap_orders.size() &&
             swap_orders[next_swap] <= all[i].order) {
        cache_db.semantic_cache()->Invalidate();
        cache_db.buffer_pool()->Clear();
        ++next_swap;
      }
      const QuerySpec& spec = pool[all[i].query];
      ksp::QueryStats stats;
      (void)executor.ExecuteSp(
          cache_db.MakeQuery(spec.location, spec.keywords, spec.k), &stats);
      cache_totals.Accumulate(stats);
    }
    report.Set("cache.result_hit_rate",
               Ratio(static_cast<double>(cache_totals.result_cache_hits),
                     static_cast<double>(cache_totals.result_cache_hits +
                                         cache_totals.result_cache_misses)),
               "ratio");
    report.Set("cache.dg_hit_rate",
               Ratio(static_cast<double>(cache_totals.dg_cache_hits),
                     static_cast<double>(cache_totals.dg_cache_hits +
                                         cache_totals.dg_cache_misses)),
               "ratio");
    spans.End(replay_cache);
    if (!config.trace_out.empty() && !spans.WriteJson(config.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", config.trace_out.c_str());
    }
  }
  std::printf("serve-disk-zipf: %zu queries, %zu swaps, %zu distinct, "
              "%.3f s, spill %llu bytes\n",
              latencies.size(), swap_ms.size(),
              static_cast<size_t>(std::count(used.begin(), used.end(), 1)),
              wall_s, static_cast<unsigned long long>(spill_bytes));
  const bool completed = latencies.size() >= kMinQueries && !swap_ms.empty();
  report.Print(completed, ledger);
  return 0;
}

}  // namespace kspbench
