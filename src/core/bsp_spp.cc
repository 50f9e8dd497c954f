// BSP (Algorithm 1) and SPP (§4): spatial-first kSP evaluation. Both share
// one loop skeleton — SPP is BSP plus Pruning Rule 1 (unqualified place
// pruning via the reachability oracle) and Pruning Rule 2 (dynamic
// looseness bound inside TQSP construction).

#include <limits>

#include "common/timer.h"
#include "core/executor.h"

namespace ksp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<KspResult> QueryExecutor::ExecuteBsp(const KspQuery& query,
                                            QueryStats* stats) {
  return ExecuteSpatialFirst(query, stats, /*use_rule1=*/false,
                             /*use_rule2=*/false);
}

Result<KspResult> QueryExecutor::ExecuteSpp(const KspQuery& query,
                                            QueryStats* stats) {
  KSP_RETURN_NOT_OK(CheckPrepared());
  const KspOptions& options = db_->options();
  if (options.use_unqualified_pruning &&
      db_->reachability_index() == nullptr) {
    return Status::InvalidArgument(
        "SPP with unqualified-place pruning requires "
        "BuildReachabilityIndex()");
  }
  return ExecuteSpatialFirst(query, stats,
                             options.use_unqualified_pruning,
                             options.use_dynamic_bound_pruning);
}

Result<KspResult> QueryExecutor::ExecuteSpatialFirst(const KspQuery& query,
                                                     QueryStats* stats,
                                                     bool use_rule1,
                                                     bool use_rule2) {
  KSP_RETURN_NOT_OK(CheckPrepared());
  const KspOptions& options = db_->options();
  Timer total_timer;
  total_timer.Start();
  QueryStats local_stats;
  QueryStats* st = stats != nullptr ? stats : &local_stats;
  *st = QueryStats();
  QueryTrace* trace = BeginQuery();
  graph_cursor_.ResetIo();

  // Full-query result cache (DESIGN.md §9). EXPLAIN always executes the
  // uncached sequential path — a cached answer has no candidate rows.
  // Under a shared scatter-gather θ (§12) the result layer is bypassed
  // both ways: the key has no θ component, so a θ-truncated shard answer
  // could neither be stored nor served exactly. The per-keyword dg layer
  // below stays on — distances are exact regardless of θ.
  SemanticQueryCache* cache = db_->semantic_cache();
  const bool result_layer_on =
      cache != nullptr && !explain_on() && shared_theta_ == nullptr;
  std::string result_key;
  if (result_layer_on) {
    result_key = SemanticQueryCache::MakeResultKey(
        query, /*path_tag=*/'S', use_rule1, use_rule2, /*alpha=*/0,
        options.ranking);
    KspResult cached;
    bool hit;
    {
      TraceSpan span(trace, TracePhase::kCacheLookup);
      hit = cache->LookupResult(result_key, cache_epoch_, &cached);
    }
    if (hit) {
      ++st->result_cache_hits;
      st->total_ms = total_timer.ElapsedMillis();
      RecordQueryMetrics(*st);
      return cached;
    }
    ++st->result_cache_misses;
  }

  QueryContext ctx;
  {
    TraceSpan span(trace, TracePhase::kDocFetch);
    KSP_RETURN_NOT_OK(PrepareContext(query, &ctx));
    FoldIo(ctx.io, st);
  }

  double semantic_seconds = 0.0;
  TopKHeap heap(query.k);
  if (ctx.answerable) {
    ExplainTermination("exhausted");
    NearestIterator iterator(db_->spatial_accessor(), query.location);
    NearestIterator::Item item;
    PageIoCounters folded_nn_io;
    for (;;) {
      bool has_item;
      {
        TraceSpan span(trace, TracePhase::kRtreeNn);
        has_item = iterator.Next(&item);
        span.AddItems(1);
        FoldIoDelta(iterator.io(), &folded_nn_io, st);
      }
      if (!has_item) break;
      if (total_timer.ElapsedMillis() > options.time_limit_ms) {
        st->completed = false;
        ExplainTermination("timeout");
        break;
      }
      if (CheckInterrupt()) {
        ExplainTermination("cancelled");
        break;
      }
      const double theta = EffectiveThreshold(heap);
      // Termination (Algorithm 1, line 7): entries arrive in ascending
      // spatial distance and f(L, S) >= MinScore(S) for L >= 1.
      if (options.ranking.MinScoreGivenSpatialDistance(item.distance) >=
          theta) {
        ExplainTermination("threshold");
        break;
      }
      if (item.is_node) continue;  // Children already enqueued.

      const PlaceId place = static_cast<PlaceId>(item.id);
      const VertexId root = db_->kb().place_vertex(place);
      const double spatial = item.distance;

      ExplainCandidate row;
      row.place = place;
      row.spatial_distance = spatial;
      row.threshold = theta;
      row.score_bound =
          options.ranking.MinScoreGivenSpatialDistance(spatial);

      if (use_rule1) {
        bool unqualified;
        {
          TraceSpan span(trace, TracePhase::kRule1Prune);
          unqualified = IsUnqualifiedPlace(root, ctx, st);
        }
        if (unqualified) {
          ++st->pruned_unqualified;  // Pruning Rule 1.
          if (explain_on()) {
            row.looseness = kInf;
            row.outcome = CandidateOutcome::kPrunedRule1;
            ExplainCandidateRow(row);
          }
          continue;
        }
      }

      const double looseness_threshold =
          use_rule2 ? options.ranking.LoosenessThreshold(theta, spatial)
                    : kInf;

      // dg-cache fast path: when every keyword distance is cached, the
      // prune/reject decision replays exactly and the BFS is skipped
      // (kMiss covers would-be top-k entries, which need their tree).
      // Disabled under EXPLAIN to keep candidate rows identical to the
      // uncached walk.
      if (cache != nullptr && !explain_on()) {
        double cached_looseness = kInf;
        CachedTqsp outcome;
        {
          TraceSpan span(trace, TracePhase::kCacheLookup);
          outcome = TryCachedTqsp(root, place, ctx, looseness_threshold,
                                  use_rule2, heap, spatial,
                                  &cached_looseness);
        }
        if (outcome != CachedTqsp::kMiss) {
          ++st->dg_cache_hits;
          if (outcome == CachedTqsp::kPrunedRule2) {
            ++st->pruned_dynamic_bound;
            if (trace != nullptr) {
              trace->RecordEvent(TracePhase::kRule2Prune);
            }
          }
          continue;
        }
        ++st->dg_cache_misses;
      }

      ++st->tqsp_computations;
      const uint64_t rule2_before = st->pruned_dynamic_bound;
      const uint64_t visited_before = st->vertices_visited;
      SemanticPlaceTree tree;
      tree.place = place;
      double looseness;
      {
        ScopedTimer semantic_timer(&semantic_seconds);
        TraceSpan span(trace, TracePhase::kTqspCompute);
        looseness = ComputeTqsp(root, ctx, looseness_threshold, use_rule2,
                                &tree, st);
        span.AddItems(st->vertices_visited - visited_before);
      }
      KSP_RETURN_NOT_OK(graph_cursor_.status);
      if (!interrupt_status_.ok()) {
        // The BFS was cut short: its +inf looseness proves nothing, so
        // no prune/unqualified accounting — unwind with partial stats.
        ExplainTermination("cancelled");
        break;
      }
      if (looseness == kInf) {  // Unqualified or Rule-2 pruned.
        const bool rule2 = st->pruned_dynamic_bound > rule2_before;
        if (rule2 && trace != nullptr) {
          trace->RecordEvent(TracePhase::kRule2Prune);
        }
        if (explain_on()) {
          row.looseness = rule2 ? looseness_threshold : kInf;
          row.outcome = rule2 ? CandidateOutcome::kPrunedRule2
                              : CandidateOutcome::kUnqualified;
          ExplainCandidateRow(row);
        }
        continue;
      }

      KspResultEntry entry;
      entry.place = place;
      entry.looseness = looseness;
      entry.spatial_distance = spatial;
      entry.score = options.ranking.Score(looseness, spatial);
      if (explain_on()) {
        row.looseness = looseness;
        row.score = entry.score;
        row.outcome = CandidateOutcome::kComputed;
        ExplainCandidateRow(row);
      }
      entry.tree = std::move(tree);
      heap.Add(std::move(entry));
    }
    KSP_RETURN_NOT_OK(iterator.status());
    st->rtree_nodes_accessed = iterator.nodes_accessed();
  } else {
    ExplainTermination("unanswerable");
  }

  st->semantic_ms = semantic_seconds * 1e3;
  st->total_ms = total_timer.ElapsedMillis();
  // Interrupted (deadline/cancel): the error status carries the verdict,
  // the partial QueryStats stay observable, and the partial top-k is
  // never presented as a result.
  if (!interrupt_status_.ok()) return FinishInterrupted(st);
  KspResult result = std::move(heap).Finish();
  // Only completed runs are cached: a timeout's partial top-k is not the
  // answer.
  if (result_layer_on && st->completed) {
    st->cache_evictions +=
        cache->InsertResult(result_key, cache_epoch_, result);
  }
  RecordQueryMetrics(*st);
  return result;
}

}  // namespace ksp
