// shard-scatter: one caller thread drives an in-process ShardedExecutor
// over kShards STR tiles of the dbpedia-like KB, memory backend, cache
// off, all-distinct SP queries. Mindist-ordered dispatch, shard-level
// pruning and the top-k merge are measured only here.

#include <cstdio>

#include "bench.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/parallel.h"
#include "reference.h"
#include "shard/partition.h"
#include "shard/remote.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

namespace kspbench {

namespace {

constexpr uint32_t kAlpha = 3;
constexpr uint32_t kShards = 4;
/// Executed queries replayed sharded vs unsharded for the shard overhead.
constexpr size_t kOverheadReplayQueries = 1500;

struct Built {
  std::unique_ptr<ksp::KnowledgeBase> kb;
  std::unique_ptr<ksp::ShardedKspDatabase> db;
};

bool SetUp(const std::string& kb_path, SpanRecorder* spans,
           SetupSamples* samples, Built* out) {
  out->db.reset();
  out->kb.reset();
  const int root = spans->Begin("setup");
  int s = spans->Begin("rdf.kb_load", root);
  out->kb = LoadKb(kb_path);
  samples->Add("rdf.kb_load_s", spans->End(s));
  if (out->kb == nullptr) return false;
  s = spans->Begin("shard.build", root);
  auto db = ksp::ShardedKspDatabase::Build(
      out->kb.get(), ksp::KspOptions(),
      ksp::StrPartition(*out->kb, kShards), kAlpha);
  samples->Add("shard.build_s", spans->End(s));
  if (!db.ok()) {
    std::fprintf(stderr, "shard build: %s\n", db.status().ToString().c_str());
    return false;
  }
  out->db = std::move(*db);
  samples->Add("setup_s", spans->End(root));
  return true;
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

/// Engine wall time and phase-exclusive µs inside the shards, summed
/// over the shards that answered.
struct ShardTally {
  double engine_us = 0.0;
  double phase_us[ksp::kNumTracePhases] = {};

  void Add(const ShardTally& other) {
    engine_us += other.engine_us;
    for (size_t p = 0; p < ksp::kNumTracePhases; ++p) {
      phase_us[p] += other.phase_us[p];
    }
  }
};

/// An in-process shard whose executor records a QueryTrace, so the
/// traced run sees the engine time and phases inside each shard; both go
/// into `tally`. It answers exactly as the library's in-process channel
/// does: keywords resolved against the shard, the scatter-gather's live
/// θ shared.
class TracedShardChannel : public ksp::ShardChannel {
 public:
  TracedShardChannel(const ksp::KspDatabase* db, ShardTally* tally)
      : db_(db), executor_(db), tally_(tally) {
    trace_.set_record_spans(false);
    executor_.set_trace(&trace_);
  }

  ksp::Status Query(const ksp::ShardQueryRequest& request,
                    const std::atomic<double>* live_theta,
                    ksp::ShardQueryResponse* response) override {
    *response = ksp::ShardQueryResponse();
    response->generation = db_->index_generation();
    const ksp::KspQuery query =
        db_->MakeQuery(request.location, request.keywords, request.k);
    std::atomic<double> seed_theta{request.theta_seed};
    executor_.set_shared_theta(live_theta != nullptr ? live_theta
                                                     : &seed_theta);
    ksp::QueryStats stats;
    const Clock::time_point t0 = Clock::now();
    auto result =
        ksp::ExecuteWith(&executor_, request.algorithm, query, &stats);
    tally_->engine_us += MicrosSince(t0);
    executor_.set_shared_theta(nullptr);
    AddPhaseTotals(trace_, tally_->phase_us);
    response->stats = stats;
    if (!result.ok()) {
      response->code = result.status().code();
      response->message = result.status().message();
      return ksp::Status::OK();
    }
    response->result = std::move(*result);
    return ksp::Status::OK();
  }

 private:
  const ksp::KspDatabase* db_;
  ksp::QueryExecutor executor_;
  ksp::QueryTrace trace_;
  ShardTally* tally_;
};

}  // namespace

int RunShardScatter(const RunConfig& config) {
  const std::string kb_path = config.dir + "/kb.kbsnap";
  const std::string queries_path = config.dir + "/queries.txt";
  std::vector<QuerySpec> specs;
  if (!ReadQueries(queries_path, &specs)) {
    std::fprintf(stderr, "cannot read %s\n", queries_path.c_str());
    return 1;
  }

  SpanRecorder spans;
  SetupSamples setup;
  Built built;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (!SetUp(kb_path, &spans, &setup, &built)) return 1;
  }
  const ksp::KnowledgeBase& kb = *built.kb;
  const ksp::ShardedKspDatabase& db = *built.db;
  PrintFingerprint(config.workload, config.seed, kb_path, queries_path,
                   kb.num_vertices(), kb.num_edges(), kb.num_places(),
                   kb.num_terms());

  std::vector<ksp::KspQuery> queries;
  queries.reserve(specs.size());
  for (const QuerySpec& q : specs) {
    queries.push_back(db.MakeQuery(q.location, q.keywords, q.k));
  }

  // The traced channels tally each query's shard engine time and phases
  // here; the window adds them into `shard_totals` for answered queries.
  ShardTally query_tally;
  std::unique_ptr<ksp::ShardedExecutor> executor;
  if (config.trace) {
    std::vector<std::unique_ptr<ksp::ShardChannel>> channels;
    for (uint32_t i = 0; i < db.num_shards(); ++i) {
      if (db.shard(i) == nullptr) {
        channels.push_back(nullptr);
        continue;
      }
      channels.push_back(
          std::make_unique<TracedShardChannel>(db.shard(i), &query_tally));
    }
    executor = std::make_unique<ksp::ShardedExecutor>(&db, std::move(channels));
  } else {
    executor = std::make_unique<ksp::ShardedExecutor>(&db);
  }

  const size_t round = RoundSize(config.workload);
  Ledger ledger;
  std::vector<std::vector<Entry>> results(queries.size());
  // 1 once query i answered within the window; cleared when its answer
  // fails the reference check, which drops it from the latency figures.
  std::vector<uint8_t> answered(queries.size(), 0);
  std::vector<double> latency_ms(queries.size(), 0.0);
  ksp::QueryStats totals;
  ShardTally shard_totals;
  double exec_us = 0.0;
  size_t traced_queries = 0;
  uint64_t entries_returned = 0;

  const int window = spans.Begin("queries");
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  size_t executed = 0;
  for (; executed < queries.size(); ++executed) {
    if (executed % round == 0 && executed >= kMinQueries &&
        Clock::now() >= deadline) {
      break;
    }
    const size_t i = executed;
    const int span = config.trace ? spans.Begin("shard.execute", window) : -1;
    query_tally = ShardTally();
    ksp::QueryStats stats;
    const Clock::time_point t0 = Clock::now();
    auto result = executor->Execute(ksp::KspAlgorithm::kSp, queries[i], &stats);
    const double ms = MicrosSince(t0) * 1e-3;
    if (span >= 0) spans.End(span);
    ledger.Attempt();
    if (!result.ok()) {
      ledger.Fail("error", result.status().ToString());
      continue;
    }
    if (!stats.completed) {
      ledger.Fail("time_limit", "query " + std::to_string(i));
      continue;
    }
    if (stats.shards_visited + stats.shards_pruned != db.num_shards()) {
      ledger.FailCheck("shard_accounting",
                       "query " + std::to_string(i) + ": visited " +
                           std::to_string(stats.shards_visited) +
                           " + pruned " + std::to_string(stats.shards_pruned) +
                           " != " + std::to_string(db.num_shards()));
      continue;
    }
    latency_ms[i] = ms;
    results[i] = ToEntries(*result);
    answered[i] = 1;
    totals.Accumulate(stats);
    if (config.trace) {
      entries_returned += results[i].size();
      shard_totals.Add(query_tally);
      exec_us += ms * 1e3;
      ++traced_queries;
    }
  }
  const double wall_s = SecondsSince(start);
  spans.End(window);

  std::vector<std::unique_ptr<ReferenceEvaluator>> refs;
  for (unsigned t = 0; t < kHelperThreads; ++t) {
    refs.push_back(std::make_unique<ReferenceEvaluator>(&kb));
  }
  ParallelFor(executed, [&](unsigned t, size_t i) {
    if (!answered[i]) return;
    const std::string diff = DiffEntries(results[i], refs[t]->TopK(specs[i]));
    if (!diff.empty()) {
      answered[i] = 0;
      ledger.FailCheck("reference_mismatch",
                       "query " + std::to_string(i) + ": " + diff);
    }
  });
  std::vector<double> latencies;
  for (size_t i = 0; i < executed; ++i) {
    if (answered[i]) latencies.push_back(latency_ms[i]);
  }

  Report report;
  ReportEndToEnd(latencies, wall_s, setup.Of("setup_s"), &report);
  if (config.trace) {
    setup.ReportSteps(&report);
    // Per-layer figures cover every query answered in the window.
    const double n = static_cast<double>(traced_queries);
    auto phase = [&](ksp::TracePhase p) {
      return shard_totals.phase_us[static_cast<size_t>(p)] / n;
    };
    // What the sharded executor adds around the shard engines: visit
    // ordering, the channel calls (request, per-shard keyword resolution,
    // response) and the top-k merge.
    const double dispatch_us = exec_us - shard_totals.engine_us;
    double engine_phase_us = 0.0;
    for (double us : shard_totals.phase_us) engine_phase_us += us;
    report.Set("core.execute_us_per_query", exec_us / n, "us");
    report.Set("core.tqsp_per_query", totals.tqsp_computations / n, "count");
    report.Set("core.bfs_vertices_per_query", totals.vertices_visited / n,
               "count");
    report.Set("core.tqsp_compute_us_per_query",
               phase(ksp::TracePhase::kTqspCompute), "us");
    report.Set("core.rule2_aborts_per_query",
               totals.pruned_dynamic_bound / n, "count");
    report.Set("core.tqsp_yield",
               totals.tqsp_computations > 0
                   ? entries_returned /
                         static_cast<double>(totals.tqsp_computations)
                   : 0.0,
               "ratio");
    report.Set("spatial.rtree_nodes_per_query",
               totals.rtree_nodes_accessed / n, "count");
    report.Set("spatial.rtree_nn_us_per_query",
               phase(ksp::TracePhase::kRtreeNn), "us");
    report.Set("reach.probes_per_query", totals.reachability_queries / n,
               "count");
    report.Set("reach.rule1_pruned_per_query", totals.pruned_unqualified / n,
               "count");
    report.Set("reach.rule1_prune_us_per_query",
               phase(ksp::TracePhase::kRule1Prune), "us");
    report.Set("alpha.rule3_pruned_per_query", totals.pruned_alpha_place / n,
               "count");
    report.Set("alpha.rule4_pruned_per_query", totals.pruned_alpha_node / n,
               "count");
    report.Set("text.doc_fetch_us_per_query",
               phase(ksp::TracePhase::kDocFetch), "us");
    report.Set("shard.visited_per_query", totals.shards_visited / n, "count");
    report.Set("shard.pruned_per_query", totals.shards_pruned / n, "count");
    report.Set("shard.dispatch_us_per_query", dispatch_us / n, "us");
    // Covered: the engine phases inside the shards plus the dispatch time;
    // the gap is shard engine time no phase accounts for.
    report.Set("trace.coverage_share",
               exec_us > 0 ? (engine_phase_us + dispatch_us) / exec_us : 0,
               "ratio");

    // Off the clock: the same executed queries, untraced, alternating the
    // library's own sharded executor and one unsharded database.
    const int replay = spans.Begin("replay.shard_overhead");
    ksp::KspDatabase flat(built.kb.get());
    flat.PrepareAll(kAlpha);
    ksp::QueryExecutor flat_executor(&flat);
    ksp::ShardedExecutor plain(&db);
    double sharded_us = 0.0, flat_us = 0.0;
    const size_t replayed = std::min(executed, kOverheadReplayQueries);
    for (size_t i = 0; i < replayed; ++i) {
      Clock::time_point t0 = Clock::now();
      (void)plain.Execute(ksp::KspAlgorithm::kSp, queries[i]);
      sharded_us += MicrosSince(t0);
      t0 = Clock::now();
      (void)flat_executor.ExecuteSp(queries[i]);
      flat_us += MicrosSince(t0);
    }
    report.Set("shard.overhead_us_per_query",
               replayed > 0 ? (sharded_us - flat_us) / replayed : 0.0, "us");
    spans.End(replay);
    if (!config.trace_out.empty() && !spans.WriteJson(config.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", config.trace_out.c_str());
    }
  }
  std::printf("shard-scatter: %zu queries in %.3f s, %u shards, %llu visited, "
              "%llu pruned\n",
              latencies.size(), wall_s, db.num_shards(),
              static_cast<unsigned long long>(totals.shards_visited),
              static_cast<unsigned long long>(totals.shards_pruned));
  const bool completed =
      latencies.size() >= kMinQueries && totals.shards_pruned > 0;
  report.Print(completed, ledger);
  return 0;
}

}  // namespace kspbench
