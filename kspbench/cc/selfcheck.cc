// Self-check of the reference evaluator: the paper's Figure-1 example,
// where the answer is known by hand, and small synthetic KBs, where every
// place's looseness is recomputed by a plain forward BFS from the place.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "datagen/fixtures.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "reference.h"

namespace kspbench {

namespace {

int g_failures = 0;
int g_checks = 0;

void Check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

/// Definition 3 by brute force: for every place, a forward BFS over
/// out-edges until every keyword is found; L = 1 + Σ hops.
std::vector<Entry> BruteForce(const ksp::KnowledgeBase& kb,
                              const QuerySpec& query) {
  std::vector<ksp::TermId> terms;
  for (const std::string& keyword : query.keywords) {
    const auto id = kb.vocabulary().Lookup(keyword);
    if (!id.has_value()) return {};
    // q.ψ is a set: a repeated keyword counts once.
    if (std::find(terms.begin(), terms.end(), *id) == terms.end()) {
      terms.push_back(*id);
    }
  }
  std::vector<Entry> out;
  std::vector<int> depth(kb.num_vertices());
  for (ksp::PlaceId p = 0; p < kb.num_places(); ++p) {
    std::fill(depth.begin(), depth.end(), -1);
    std::vector<ksp::VertexId> queue = {kb.place_vertex(p)};
    depth[queue[0]] = 0;
    std::vector<int> best(terms.size(), -1);
    for (size_t head = 0; head < queue.size(); ++head) {
      const ksp::VertexId v = queue[head];
      for (size_t i = 0; i < terms.size(); ++i) {
        if (best[i] < 0 && kb.documents().Contains(v, terms[i])) {
          best[i] = depth[v];
        }
      }
      for (ksp::VertexId w : kb.graph().OutNeighbors(v)) {
        if (depth[w] < 0) {
          depth[w] = depth[v] + 1;
          queue.push_back(w);
        }
      }
    }
    double looseness = 1.0;
    bool qualified = true;
    for (int b : best) {
      if (b < 0) qualified = false;
      looseness += b;
    }
    if (!qualified) continue;
    const ksp::Point at = kb.place_location(p);
    const double dx = query.location.x - at.x;
    const double dy = query.location.y - at.y;
    const double spatial = std::sqrt(dx * dx + dy * dy);
    out.push_back(Entry{p, looseness, spatial, looseness * spatial});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.score != b.score ? a.score < b.score : a.place < b.place;
  });
  return out;
}

void CheckFigure1() {
  auto built = ksp::BuildFigure1KnowledgeBase();
  Check(built.ok(), "Figure-1 KB builds");
  if (!built.ok()) return;
  const ksp::KnowledgeBase& kb = **built;
  ReferenceEvaluator ref(&kb);
  auto place = [&](const char* local) {
    const auto v = kb.FindVertex(std::string("http://example.org/") + local);
    return v.has_value() ? kb.place_of(*v) : ksp::kInvalidPlace;
  };
  const ksp::PlaceId p1 = place("Montmajour_Abbey");
  const ksp::PlaceId p2 = place("Roman_Catholic_Diocese_of_Frejus_Toulon");
  // Examples 4-8: L(T_p1) = 6, L(T_p2) = 4; f(T_p1, q1) = 1.32 is the
  // top-1 at q1 and f(T_p2, q2) = 0.32 the top-1 at q2 (two decimals).
  struct Case {
    ksp::Point at;
    ksp::PlaceId top;
    double top_looseness;
    double top_score;
    ksp::PlaceId second;
    double second_looseness;
  };
  const Case cases[] = {{ksp::kQ1, p1, 6.0, 1.32, p2, 4.0},
                        {ksp::kQ2, p2, 4.0, 0.32, p1, 6.0}};
  for (const Case& c : cases) {
    QuerySpec q{c.at, 2, ksp::Figure1QueryKeywords()};
    const std::vector<Entry> got = ref.TopK(q);
    Check(got.size() == 2, "Figure 1: two qualified places");
    if (got.size() != 2) continue;
    Check(got[0].place == c.top, "Figure 1: top-1 place");
    Check(got[0].looseness == c.top_looseness, "Figure 1: top-1 looseness");
    Check(std::abs(got[0].score - c.top_score) < 0.005,
          "Figure 1: top-1 score " + std::to_string(got[0].score));
    Check(got[1].place == c.second, "Figure 1: second place");
    Check(got[1].looseness == c.second_looseness,
          "Figure 1: second looseness");
    q.k = 1;
    Check(ref.TopK(q).size() == 1, "Figure 1: k=1 truncates");
  }
  QuerySpec unknown{ksp::kQ1, 2, {"ancient", "zzznotaword"}};
  Check(ref.TopK(unknown).empty(), "Figure 1: unknown keyword, no place");
}

void CheckAgainstBruteForce(const ksp::SyntheticProfile& profile) {
  auto built = ksp::GenerateKnowledgeBase(profile);
  Check(built.ok(), profile.name + " KB builds");
  if (!built.ok()) return;
  const ksp::KnowledgeBase& kb = **built;
  ReferenceEvaluator ref(&kb);
  int nonempty = 0;
  const std::pair<ksp::QueryClass, uint32_t> configs[] = {
      {ksp::QueryClass::kOriginal, 1}, {ksp::QueryClass::kOriginal, 3},
      {ksp::QueryClass::kOriginal, 6}, {ksp::QueryClass::kSDLL, 2},
      {ksp::QueryClass::kLDLL, 1}};
  for (const auto& [query_class, num_keywords] : configs) {
    ksp::QueryGenOptions options;
    options.num_keywords = num_keywords;
    options.seed = 1000 + num_keywords;
    for (const ksp::KspQuery& q :
         ksp::GenerateQueries(kb, query_class, options, 25)) {
      QuerySpec spec{q.location, 10, {}};
      for (ksp::TermId t : q.keywords) {
        spec.keywords.push_back(kb.vocabulary().Term(t));
      }
      const std::vector<Entry> want = BruteForce(kb, spec);
      const std::string diff = DiffEntries(ref.RankAll(spec), want);
      Check(diff.empty(), profile.name + ": " + diff);
      std::vector<Entry> top = want;
      if (top.size() > spec.k) top.resize(spec.k);
      Check(DiffEntries(ref.TopK(spec), top).empty(),
            profile.name + ": top-k prefix");
      if (!want.empty()) ++nonempty;
    }
  }
  Check(nonempty >= 50, profile.name + ": enough non-empty answers (" +
                            std::to_string(nonempty) + ")");
}

void CheckDiffDetects() {
  const std::vector<Entry> base = {{1, 3.0, 0.5, 1.5}, {2, 2.0, 1.0, 2.0}};
  std::vector<Entry> moved = base;
  moved[1].spatial = std::nextafter(moved[1].spatial, 2.0);
  Check(!DiffEntries(moved, base).empty(), "one-ulp distance difference");
  std::vector<Entry> swapped = {base[1], base[0]};
  Check(!DiffEntries(swapped, base).empty(), "order difference");
  Check(!DiffEntries({base[0]}, base).empty(), "length difference");
  Check(DiffEntries(base, base).empty(), "equal lists");
}

}  // namespace

int RunSelfCheck() {
  CheckDiffDetects();
  CheckFigure1();
  ksp::SyntheticProfile dbpedia = ksp::SyntheticProfile::DBpediaLike(1500);
  dbpedia.seed = 11;
  ksp::SyntheticProfile yago = ksp::SyntheticProfile::YagoLike(1500);
  yago.seed = 12;
  CheckAgainstBruteForce(dbpedia);
  CheckAgainstBruteForce(yago);
  std::printf("selfcheck: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace kspbench
