#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace kspbench {

namespace {
constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();
}  // namespace

ReferenceEvaluator::ReferenceEvaluator(const ksp::KnowledgeBase* kb)
    : kb_(kb),
      dist_(kb->num_vertices(), kUnreached),
      looseness_(kb->num_places(), 0.0),
      qualified_(kb->num_places(), 0) {
  const uint32_t num_terms = kb->num_terms();
  const ksp::DocumentStore& docs = kb->documents();
  std::vector<uint64_t> counts(num_terms + 1, 0);
  for (ksp::VertexId v = 0; v < kb->num_vertices(); ++v) {
    for (ksp::TermId t : docs.Terms(v)) ++counts[t + 1];
  }
  for (uint32_t t = 0; t < num_terms; ++t) counts[t + 1] += counts[t];
  term_offsets_ = counts;
  term_vertices_.resize(counts[num_terms]);
  for (ksp::VertexId v = 0; v < kb->num_vertices(); ++v) {
    for (ksp::TermId t : docs.Terms(v)) term_vertices_[counts[t]++] = v;
  }
  // A document may list a term twice; a duplicate source is harmless.
}

void ReferenceEvaluator::AccumulateKeyword(uint32_t term) {
  const ksp::Graph& graph = kb_->graph();
  std::fill(dist_.begin(), dist_.end(), kUnreached);
  frontier_.clear();
  for (uint64_t i = term_offsets_[term]; i < term_offsets_[term + 1]; ++i) {
    const ksp::VertexId v = term_vertices_[i];
    if (dist_[v] == kUnreached) {
      dist_[v] = 0;
      frontier_.push_back(v);
    }
  }
  // dist_[v] = fewest out-edge hops from v to a vertex containing term,
  // found by walking in-edges backwards from those vertices.
  for (size_t head = 0; head < frontier_.size(); ++head) {
    const ksp::VertexId v = frontier_[head];
    for (ksp::VertexId u : graph.InNeighbors(v)) {
      if (dist_[u] == kUnreached) {
        dist_[u] = dist_[v] + 1;
        frontier_.push_back(u);
      }
    }
  }
  for (ksp::PlaceId p = 0; p < kb_->num_places(); ++p) {
    const uint32_t d = dist_[kb_->place_vertex(p)];
    if (d == kUnreached) {
      qualified_[p] = 0;
    } else {
      looseness_[p] += d;
    }
  }
}

namespace {
bool ScoreOrder(const Entry& a, const Entry& b) {
  return a.score != b.score ? a.score < b.score : a.place < b.place;
}
}  // namespace

std::vector<Entry> ReferenceEvaluator::Qualified(const QuerySpec& query) {
  std::vector<uint32_t> terms;
  for (const std::string& keyword : query.keywords) {
    const auto id = kb_->vocabulary().Lookup(keyword);
    if (!id.has_value()) return {};
    if (std::find(terms.begin(), terms.end(), *id) == terms.end()) {
      terms.push_back(*id);
    }
  }
  if (terms.empty()) return {};
  std::fill(looseness_.begin(), looseness_.end(), 1.0);
  std::fill(qualified_.begin(), qualified_.end(), 1);
  for (uint32_t t : terms) AccumulateKeyword(t);

  std::vector<Entry> ranked;
  for (ksp::PlaceId p = 0; p < kb_->num_places(); ++p) {
    if (!qualified_[p]) continue;
    const ksp::Point at = kb_->place_location(p);
    const double dx = query.location.x - at.x;
    const double dy = query.location.y - at.y;
    Entry e;
    e.place = p;
    e.looseness = looseness_[p];
    e.spatial = std::sqrt(dx * dx + dy * dy);
    e.score = e.looseness * e.spatial;
    ranked.push_back(e);
  }
  return ranked;
}

std::vector<Entry> ReferenceEvaluator::RankAll(const QuerySpec& query) {
  std::vector<Entry> ranked = Qualified(query);
  std::sort(ranked.begin(), ranked.end(), ScoreOrder);
  return ranked;
}

std::vector<Entry> ReferenceEvaluator::TopK(const QuerySpec& query) {
  std::vector<Entry> ranked = Qualified(query);
  const size_t k = std::min<size_t>(query.k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    ScoreOrder);
  ranked.resize(k);
  return ranked;
}

}  // namespace kspbench
