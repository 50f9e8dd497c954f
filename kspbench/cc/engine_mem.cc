// engine-mem: one caller thread drives one QueryExecutor over the
// yago-like KB, memory backend, semantic cache off. Queries are all
// distinct and alternate between SP and SPP, so the candidate stream,
// TQSP BFS, Rule-1 reachability probes and α bounds do nearly all the
// work while service, storage, cache and shard do none.

#include <cstdio>

#include "bench.h"
#include "core/database.h"
#include "core/executor.h"
#include "reference.h"

namespace kspbench {

namespace {

constexpr uint32_t kAlpha = 3;

struct Built {
  std::unique_ptr<ksp::KnowledgeBase> kb;
  std::unique_ptr<ksp::KspDatabase> db;
};

/// Load + R-tree + labels + α-index, each step timed into `samples`.
bool SetUp(const std::string& kb_path, SpanRecorder* spans,
           SetupSamples* samples, Built* out) {
  out->db.reset();
  out->kb.reset();
  const int root = spans->Begin("setup");
  int s = spans->Begin("rdf.kb_load", root);
  out->kb = LoadKb(kb_path);
  samples->Add("rdf.kb_load_s", spans->End(s));
  if (out->kb == nullptr) return false;
  out->db = std::make_unique<ksp::KspDatabase>(out->kb.get());
  s = spans->Begin("spatial.rtree_build", root);
  out->db->BuildRTree();
  samples->Add("spatial.rtree_build_s", spans->End(s));
  s = spans->Begin("reach.label_build", root);
  out->db->BuildReachabilityIndex();
  samples->Add("reach.label_build_s", spans->End(s));
  s = spans->Begin("alpha.index_build", root);
  out->db->BuildAlphaIndex(kAlpha);
  samples->Add("alpha.index_build_s", spans->End(s));
  samples->Add("setup_s", spans->End(root));
  return true;
}

bool IsSp(size_t i) { return i % 2 == 0; }

}  // namespace

int RunEngineMem(const RunConfig& config) {
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
  PrintFingerprint(config.workload, config.seed, kb_path, queries_path,
                   kb.num_vertices(), kb.num_edges(), kb.num_places(),
                   kb.num_terms());

  std::vector<ksp::KspQuery> queries;
  queries.reserve(specs.size());
  for (const QuerySpec& q : specs) {
    queries.push_back(built.db->MakeQuery(q.location, q.keywords, q.k));
  }

  // Both algorithms see every config equally often: a round is two
  // passes over the configs (their count is odd, so SP/SPP swap).
  const size_t round = 2 * RoundSize(config.workload);
  Ledger ledger;
  ksp::QueryExecutor executor(built.db.get());
  ksp::QueryTrace trace;
  trace.set_record_spans(false);
  if (config.trace) executor.set_trace(&trace);

  std::vector<std::vector<Entry>> results(queries.size());
  // 1 once query i answered within the window; cleared when its answer
  // fails a check, which drops it from the latency figures.
  std::vector<uint8_t> answered(queries.size(), 0);
  std::vector<double> latency_ms(queries.size(), 0.0);
  ksp::QueryStats totals;
  double phase_us[ksp::kNumTracePhases] = {};
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
    const bool sp = IsSp(i);
    ksp::QueryStats stats;
    const int span =
        config.trace ? spans.Begin(sp ? "core.execute_sp" : "core.execute_spp",
                                   window)
                     : -1;
    const Clock::time_point t0 = Clock::now();
    ksp::Result<ksp::KspResult> result =
        sp ? executor.ExecuteSp(queries[i], &stats)
           : executor.ExecuteSpp(queries[i], &stats);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
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
    latency_ms[i] = ms;
    results[i] = ToEntries(*result);
    answered[i] = 1;
    if (config.trace) {
      entries_returned += results[i].size();
      totals.Accumulate(stats);
      AddPhaseTotals(trace, phase_us);
      exec_us += ms * 1e3;
      ++traced_queries;
    }
  }
  const double wall_s = SecondsSince(start);
  spans.End(window);

  // Checks, off the clock: every answer against the reference, and the
  // other algorithm (SPP for an SP query and vice versa) must agree.
  std::vector<std::unique_ptr<ReferenceEvaluator>> refs;
  std::vector<std::unique_ptr<ksp::QueryExecutor>> checkers;
  for (unsigned t = 0; t < kHelperThreads; ++t) {
    refs.push_back(std::make_unique<ReferenceEvaluator>(&kb));
    checkers.push_back(std::make_unique<ksp::QueryExecutor>(built.db.get()));
  }
  ParallelFor(executed, [&](unsigned t, size_t i) {
    if (!answered[i]) return;
    const std::string where = "query " + std::to_string(i);
    const std::string diff =
        DiffEntries(results[i], refs[t]->TopK(specs[i]));
    if (!diff.empty()) {
      answered[i] = 0;
      ledger.FailCheck("reference_mismatch", where + ": " + diff);
      return;
    }
    ksp::QueryStats stats;
    auto other = IsSp(i) ? checkers[t]->ExecuteSpp(queries[i], &stats)
                         : checkers[t]->ExecuteSp(queries[i], &stats);
    std::string cross = "cross-check did not finish";
    if (other.ok() && stats.completed) {
      cross = DiffEntries(ToEntries(*other), results[i]);
    }
    if (!cross.empty()) {
      answered[i] = 0;
      ledger.FailCheck("sp_spp_disagree", where + ": " + cross);
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
    double traced_us = 0.0;
    for (double us : phase_us) traced_us += us;
    auto phase = [&](ksp::TracePhase p) {
      return phase_us[static_cast<size_t>(p)] / n;
    };
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
    report.Set("trace.coverage_share", exec_us > 0 ? traced_us / exec_us : 0,
               "ratio");
    if (!config.trace_out.empty() && !spans.WriteJson(config.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", config.trace_out.c_str());
    }
  }
  std::printf("engine-mem: %zu queries in %.3f s\n", latencies.size(),
              wall_s);
  report.Print(/*completed=*/latencies.size() >= kMinQueries, ledger);
  return 0;
}

}  // namespace kspbench
