// Independent top-k reference for kSP queries under the product ranking
// (Eq. 2). It reads only the KnowledgeBase (graph in-edges, documents,
// place registry, vocabulary) and shares no code with the executor,
// R-tree, pruning rules, accessors, semantic cache or storage layer:
//
//   for each query keyword t: one multi-source reverse BFS over in-edges
//     from every vertex whose document contains t, giving dg(p, t) for
//     every place p at once;
//   L(p) = 1 + Σ_t dg(p, t)  (places missing a keyword are unqualified);
//   S(p) = Euclidean distance from the query location;
//   f(p) = L(p) · S(p), ordered by (f, place).

#ifndef KSPBENCH_REFERENCE_H_
#define KSPBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "rdf/knowledge_base.h"

namespace kspbench {

class ReferenceEvaluator {
 public:
  /// `kb` must outlive the evaluator. Builds a term -> vertices map by
  /// scanning every document once.
  explicit ReferenceEvaluator(const ksp::KnowledgeBase* kb);

  /// The first min(k, #qualified) places in (score, place) order. A
  /// keyword absent from the vocabulary leaves no qualified place.
  std::vector<Entry> TopK(const QuerySpec& query);

  /// Every qualified place in (score, place) order.
  std::vector<Entry> RankAll(const QuerySpec& query);

 private:
  /// Every qualified place, unordered.
  std::vector<Entry> Qualified(const QuerySpec& query);
  /// Adds dg(p, term) into looseness_ for every place; marks places the
  /// term cannot reach as unqualified.
  void AccumulateKeyword(uint32_t term);

  const ksp::KnowledgeBase* kb_;
  /// term -> vertices whose document contains it (CSR).
  std::vector<uint64_t> term_offsets_;
  std::vector<ksp::VertexId> term_vertices_;

  std::vector<uint32_t> dist_;
  std::vector<ksp::VertexId> frontier_;
  std::vector<double> looseness_;
  std::vector<uint8_t> qualified_;
};

}  // namespace kspbench

#endif  // KSPBENCH_REFERENCE_H_
