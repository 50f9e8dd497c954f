// SP (Algorithm 4, §5): kSP evaluation ordered by α-radius ranking-score
// bounds. R-tree entries (nodes and places) are visited in ascending
// f_B^α order; Pruning Rules 3 and 4 discard entries whose bound cannot
// beat the current k-th candidate, and Rules 1 and 2 are applied to the
// surviving places exactly as in SPP.

#include <algorithm>
#include <limits>
#include <queue>

#include "common/timer.h"
#include "core/executor.h"

namespace ksp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Priority-queue item: an R-tree node or a place, keyed by the α-bound on
/// the ranking score (Lemmas 3 and 5).
struct AlphaQueueItem {
  double score_bound;
  double spatial_lb;
  bool is_node;
  uint64_t id;  // Node id or PlaceId.
};

struct AlphaQueueOrder {
  bool operator()(const AlphaQueueItem& a, const AlphaQueueItem& b) const {
    return a.score_bound > b.score_bound;  // Min-heap.
  }
};

}  // namespace

Result<KspResult> QueryExecutor::ExecuteSp(const KspQuery& query,
                                           QueryStats* stats) {
  KSP_RETURN_NOT_OK(CheckPrepared());
  const KspOptions& options = db_->options();
  if (options.use_alpha_pruning && db_->alpha_index() == nullptr) {
    return Status::InvalidArgument(
        "SP requires BuildAlphaIndex() when alpha pruning is enabled");
  }
  if (!options.use_alpha_pruning) {
    // Ablation: SP without α-bounds degenerates to SPP.
    return ExecuteSpp(query, stats);
  }
  if (options.use_unqualified_pruning &&
      db_->reachability_index() == nullptr) {
    return Status::InvalidArgument(
        "SP with unqualified-place pruning requires "
        "BuildReachabilityIndex()");
  }

  Timer total_timer;
  total_timer.Start();
  QueryStats local_stats;
  QueryStats* st = stats != nullptr ? stats : &local_stats;
  *st = QueryStats();
  QueryTrace* trace = BeginQuery();
  graph_cursor_.ResetIo();

  // Full-query result cache (DESIGN.md §9); the α path gets its own key
  // tag + the α radius, since Rules 3/4 change nothing about the answer
  // but future-proofing the key against bound-dependent behavior is free.
  // As in bsp_spp.cc, the result layer is bypassed under a shared
  // scatter-gather θ (§12): the key has no θ component.
  SemanticQueryCache* cache = db_->semantic_cache();
  const bool result_layer_on =
      cache != nullptr && !explain_on() && shared_theta_ == nullptr;
  std::string result_key;
  if (result_layer_on) {
    result_key = SemanticQueryCache::MakeResultKey(
        query, /*path_tag=*/'A', options.use_unqualified_pruning,
        options.use_dynamic_bound_pruning, db_->alpha_index()->alpha(),
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

  const SpatialAccessor& rtree = *db_->spatial_accessor();
  const AlphaIndex& alpha = *db_->alpha_index();
  const double alpha_plus_one = static_cast<double>(alpha.alpha() + 1);

  // L_B^α(entry) = 1 + Σ_i dg(entry, t_i), with α+1 for keywords outside
  // the entry's α-radius word neighborhood (Lemmas 2 and 4, including the
  // +1 normalization of Definition 2 — see DESIGN.md).
  auto alpha_looseness_bound = [&](uint32_t entry_id) {
    double bound = 1.0;
    for (TermId t : ctx.terms) {
      auto d = alpha.EntryTermDistance(entry_id, t);
      bound += d.has_value() ? static_cast<double>(*d) : alpha_plus_one;
    }
    return bound;
  };

  double semantic_seconds = 0.0;
  TopKHeap heap(query.k);

  if (ctx.answerable && !rtree.empty()) {
    ExplainTermination("exhausted");
    std::priority_queue<AlphaQueueItem, std::vector<AlphaQueueItem>,
                        AlphaQueueOrder>
        pq;
    {
      const uint32_t root = rtree.root();
      Rect root_rect;
      KSP_RETURN_NOT_OK(rtree.NodeRect(root, &spatial_cursor_, &root_rect));
      FoldCursorIo(&spatial_cursor_.io, st);
      const double s_lb = MinDist(query.location, root_rect);
      const double l_b = alpha_looseness_bound(alpha.NodeEntry(root));
      pq.push(AlphaQueueItem{options.ranking.Score(l_b, s_lb), s_lb,
                             /*is_node=*/true, root});
    }

    while (!pq.empty()) {
      if (total_timer.ElapsedMillis() > options.time_limit_ms) {
        st->completed = false;
        ExplainTermination("timeout");
        break;
      }
      if (CheckInterrupt()) {
        ExplainTermination("cancelled");
        break;
      }
      AlphaQueueItem item = pq.top();
      pq.pop();
      const double theta = EffectiveThreshold(heap);
      // Termination (Algorithm 4, line 9): bounds pop in ascending order.
      if (item.score_bound >= theta) {
        ExplainTermination("threshold");
        break;
      }

      if (!item.is_node) {
        const PlaceId place = static_cast<PlaceId>(item.id);
        const VertexId root = db_->kb().place_vertex(place);
        const double spatial = item.spatial_lb;  // Exact for places.

        ExplainCandidate row;
        row.place = place;
        row.spatial_distance = spatial;
        row.threshold = theta;
        row.score_bound = item.score_bound;

        if (options.use_unqualified_pruning) {
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
            options.use_dynamic_bound_pruning
                ? options.ranking.LoosenessThreshold(theta, spatial)
                : kInf;

        // dg-cache fast path — identical contract to the spatial-first
        // loop (bsp_spp.cc): a full hit replays the exact decision.
        if (cache != nullptr && !explain_on()) {
          double cached_looseness = kInf;
          CachedTqsp outcome;
          {
            TraceSpan span(trace, TracePhase::kCacheLookup);
            outcome = TryCachedTqsp(root, place, ctx, looseness_threshold,
                                    options.use_dynamic_bound_pruning,
                                    heap, spatial, &cached_looseness);
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
          looseness =
              ComputeTqsp(root, ctx, looseness_threshold,
                          options.use_dynamic_bound_pruning, &tree, st);
          span.AddItems(st->vertices_visited - visited_before);
        }
        KSP_RETURN_NOT_OK(graph_cursor_.status);
        if (!interrupt_status_.ok()) {
          // Interrupted mid-BFS: +inf proves nothing; unwind now.
          ExplainTermination("cancelled");
          break;
        }
        if (looseness == kInf) {
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
        continue;
      }

      // Internal/leaf node: expand children with their α-bounds
      // (Pruning Rules 3 and 4 gate the push).
      TraceSpan span(trace, TracePhase::kRtreeNn);
      ++st->rtree_nodes_accessed;
      SpatialNodeRef node;
      KSP_RETURN_NOT_OK(
          rtree.ReadNode(static_cast<uint32_t>(item.id), &spatial_cursor_,
                         &node));
      FoldCursorIo(&spatial_cursor_.io, st);
      span.AddItems(node.entries.size());
      const double gate_theta = EffectiveThreshold(heap);
      for (const RTree::Entry& e : node.entries) {
        const double s_lb = MinDist(query.location, e.rect);
        const uint32_t entry_id =
            node.is_leaf ? alpha.PlaceEntry(static_cast<PlaceId>(e.id))
                         : alpha.NodeEntry(static_cast<uint32_t>(e.id));
        const double l_b = alpha_looseness_bound(entry_id);
        const double f_b = options.ranking.Score(l_b, s_lb);
        if (f_b >= gate_theta) {
          if (node.is_leaf) {
            ++st->pruned_alpha_place;  // Pruning Rule 3.
          } else {
            ++st->pruned_alpha_node;  // Pruning Rule 4.
          }
          if (explain_on()) {
            ExplainCandidate pruned_row;
            pruned_row.is_node = !node.is_leaf;
            if (node.is_leaf) {
              pruned_row.place = static_cast<PlaceId>(e.id);
            } else {
              pruned_row.node_id = static_cast<uint32_t>(e.id);
            }
            pruned_row.spatial_distance = s_lb;
            pruned_row.threshold = gate_theta;
            pruned_row.score_bound = f_b;
            pruned_row.looseness = l_b;
            pruned_row.outcome = node.is_leaf
                                     ? CandidateOutcome::kPrunedRule3
                                     : CandidateOutcome::kPrunedRule4;
            ExplainCandidateRow(pruned_row);
          }
          continue;
        }
        pq.push(AlphaQueueItem{f_b, s_lb, !node.is_leaf, e.id});
      }
    }
  } else if (!ctx.answerable) {
    ExplainTermination("unanswerable");
  }

  st->semantic_ms = semantic_seconds * 1e3;
  st->total_ms = total_timer.ElapsedMillis();
  if (!interrupt_status_.ok()) return FinishInterrupted(st);
  KspResult result = std::move(heap).Finish();
  if (result_layer_on && st->completed) {
    st->cache_evictions +=
        cache->InsertResult(result_key, cache_epoch_, result);
  }
  RecordQueryMetrics(*st);
  return result;
}

}  // namespace ksp
