#include "shard/remote.h"

#include <bit>
#include <limits>
#include <utility>

#include "common/varint.h"
#include "core/parallel.h"

namespace ksp {

namespace {

void PutDouble(std::string* dst, double value) {
  PutFixed64(dst, std::bit_cast<uint64_t>(value));
}

Status GetDouble(std::string_view src, size_t* offset, double* value) {
  uint64_t bits;
  KSP_RETURN_NOT_OK(GetFixed64(src, offset, &bits));
  *value = std::bit_cast<double>(bits);
  return Status::OK();
}

/// Bounds a decoded element count: each element needs at least one more
/// payload byte, so a count beyond the remaining bytes is corruption
/// (and must not drive a huge reserve).
Status CheckCount(uint64_t count, std::string_view src, size_t offset) {
  if (count > src.size() - offset) {
    return Status::Corruption("element count exceeds payload size");
  }
  return Status::OK();
}

void PutTree(std::string* dst, const SemanticPlaceTree& tree) {
  PutVarint64(dst, tree.place);
  PutVarint64(dst, tree.root);
  PutDouble(dst, tree.looseness);
  PutVarint64(dst, tree.matches.size());
  for (const SemanticPlaceTree::KeywordMatch& m : tree.matches) {
    PutVarint64(dst, m.term);
    PutVarint64(dst, m.vertex);
    PutVarint64(dst, m.distance);
    PutVarint64(dst, m.path.size());
    for (VertexId v : m.path) PutVarint64(dst, v);
  }
}

Status GetTree(std::string_view src, size_t* offset,
               SemanticPlaceTree* tree) {
  uint64_t value = 0;
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &value));
  tree->place = static_cast<PlaceId>(value);
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &value));
  tree->root = static_cast<VertexId>(value);
  KSP_RETURN_NOT_OK(GetDouble(src, offset, &tree->looseness));
  uint64_t num_matches = 0;
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &num_matches));
  KSP_RETURN_NOT_OK(CheckCount(num_matches, src, *offset));
  tree->matches.resize(num_matches);
  for (SemanticPlaceTree::KeywordMatch& m : tree->matches) {
    KSP_RETURN_NOT_OK(GetVarint64(src, offset, &value));
    m.term = static_cast<TermId>(value);
    KSP_RETURN_NOT_OK(GetVarint64(src, offset, &value));
    m.vertex = static_cast<VertexId>(value);
    KSP_RETURN_NOT_OK(GetVarint64(src, offset, &value));
    m.distance = static_cast<uint32_t>(value);
    uint64_t path_len = 0;
    KSP_RETURN_NOT_OK(GetVarint64(src, offset, &path_len));
    KSP_RETURN_NOT_OK(CheckCount(path_len, src, *offset));
    m.path.resize(path_len);
    for (VertexId& v : m.path) {
      KSP_RETURN_NOT_OK(GetVarint64(src, offset, &value));
      v = static_cast<VertexId>(value);
    }
  }
  return Status::OK();
}

void PutStats(std::string* dst, const QueryStats& stats) {
  PutDouble(dst, stats.total_ms);
  PutDouble(dst, stats.semantic_ms);
  PutVarint64(dst, stats.tqsp_computations);
  PutVarint64(dst, stats.rtree_nodes_accessed);
  PutVarint64(dst, stats.vertices_visited);
  PutVarint64(dst, stats.reachability_queries);
  PutVarint64(dst, stats.pruned_unqualified);
  PutVarint64(dst, stats.pruned_dynamic_bound);
  PutVarint64(dst, stats.pruned_alpha_place);
  PutVarint64(dst, stats.pruned_alpha_node);
  PutVarint64(dst, stats.dg_cache_hits);
  PutVarint64(dst, stats.dg_cache_misses);
  PutVarint64(dst, stats.result_cache_hits);
  PutVarint64(dst, stats.result_cache_misses);
  PutVarint64(dst, stats.cache_evictions);
  PutVarint64(dst, stats.bufferpool_hits);
  PutVarint64(dst, stats.bufferpool_misses);
  PutVarint64(dst, stats.bufferpool_evictions);
  PutVarint64(dst, stats.shards_visited);
  PutVarint64(dst, stats.shards_pruned);
  PutVarint64(dst, stats.completed ? 1 : 0);
}

Status GetStats(std::string_view src, size_t* offset, QueryStats* stats) {
  KSP_RETURN_NOT_OK(GetDouble(src, offset, &stats->total_ms));
  KSP_RETURN_NOT_OK(GetDouble(src, offset, &stats->semantic_ms));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->tqsp_computations));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->rtree_nodes_accessed));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->vertices_visited));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->reachability_queries));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->pruned_unqualified));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->pruned_dynamic_bound));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->pruned_alpha_place));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->pruned_alpha_node));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->dg_cache_hits));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->dg_cache_misses));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->result_cache_hits));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->result_cache_misses));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->cache_evictions));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->bufferpool_hits));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->bufferpool_misses));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->bufferpool_evictions));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->shards_visited));
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &stats->shards_pruned));
  uint64_t completed = 0;
  KSP_RETURN_NOT_OK(GetVarint64(src, offset, &completed));
  stats->completed = completed != 0;
  return Status::OK();
}

}  // namespace

void EncodeShardQueryRequest(const ShardQueryRequest& request,
                             std::string* payload) {
  payload->clear();
  PutVarint64(payload, static_cast<uint64_t>(request.algorithm));
  PutDouble(payload, request.location.x);
  PutDouble(payload, request.location.y);
  PutVarint64(payload, request.k);
  PutVarint64(payload, request.keywords.size());
  for (const std::string& kw : request.keywords) {
    PutLengthPrefixed(payload, kw);
  }
  PutDouble(payload, request.theta_seed);
}

Status DecodeShardQueryRequest(std::string_view payload,
                               ShardQueryRequest* request) {
  *request = ShardQueryRequest();
  size_t offset = 0;
  uint64_t value = 0;
  KSP_RETURN_NOT_OK(GetVarint64(payload, &offset, &value));
  if (value > static_cast<uint64_t>(KspAlgorithm::kKeywordOnly)) {
    return Status::Corruption("unknown shard query algorithm");
  }
  request->algorithm = static_cast<KspAlgorithm>(value);
  KSP_RETURN_NOT_OK(GetDouble(payload, &offset, &request->location.x));
  KSP_RETURN_NOT_OK(GetDouble(payload, &offset, &request->location.y));
  KSP_RETURN_NOT_OK(GetVarint64(payload, &offset, &value));
  request->k = static_cast<uint32_t>(value);
  uint64_t num_keywords = 0;
  KSP_RETURN_NOT_OK(GetVarint64(payload, &offset, &num_keywords));
  KSP_RETURN_NOT_OK(CheckCount(num_keywords, payload, offset));
  request->keywords.resize(num_keywords);
  for (std::string& kw : request->keywords) {
    KSP_RETURN_NOT_OK(GetLengthPrefixed(payload, &offset, &kw));
  }
  KSP_RETURN_NOT_OK(GetDouble(payload, &offset, &request->theta_seed));
  if (offset != payload.size()) {
    return Status::Corruption("trailing bytes in shard query request");
  }
  return Status::OK();
}

void EncodeShardQueryResponse(const ShardQueryResponse& response,
                              std::string* payload) {
  payload->clear();
  PutVarint64(payload, static_cast<uint64_t>(response.code));
  PutLengthPrefixed(payload, response.message);
  PutVarint64(payload, response.generation);
  PutVarint64(payload, response.result.entries.size());
  for (const KspResultEntry& entry : response.result.entries) {
    PutVarint64(payload, entry.place);
    PutDouble(payload, entry.score);
    PutDouble(payload, entry.looseness);
    PutDouble(payload, entry.spatial_distance);
    PutTree(payload, entry.tree);
  }
  PutStats(payload, response.stats);
}

Status DecodeShardQueryResponse(std::string_view payload,
                                ShardQueryResponse* response) {
  *response = ShardQueryResponse();
  size_t offset = 0;
  uint64_t value = 0;
  KSP_RETURN_NOT_OK(GetVarint64(payload, &offset, &value));
  if (value > static_cast<uint64_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("unknown shard response status code");
  }
  response->code = static_cast<StatusCode>(value);
  KSP_RETURN_NOT_OK(
      GetLengthPrefixed(payload, &offset, &response->message));
  KSP_RETURN_NOT_OK(GetVarint64(payload, &offset, &response->generation));
  uint64_t num_entries = 0;
  KSP_RETURN_NOT_OK(GetVarint64(payload, &offset, &num_entries));
  KSP_RETURN_NOT_OK(CheckCount(num_entries, payload, offset));
  response->result.entries.resize(num_entries);
  for (KspResultEntry& entry : response->result.entries) {
    KSP_RETURN_NOT_OK(GetVarint64(payload, &offset, &value));
    entry.place = static_cast<PlaceId>(value);
    KSP_RETURN_NOT_OK(GetDouble(payload, &offset, &entry.score));
    KSP_RETURN_NOT_OK(GetDouble(payload, &offset, &entry.looseness));
    KSP_RETURN_NOT_OK(
        GetDouble(payload, &offset, &entry.spatial_distance));
    KSP_RETURN_NOT_OK(GetTree(payload, &offset, &entry.tree));
  }
  KSP_RETURN_NOT_OK(GetStats(payload, &offset, &response->stats));
  if (offset != payload.size()) {
    return Status::Corruption("trailing bytes in shard query response");
  }
  return Status::OK();
}

InProcessShardChannel::InProcessShardChannel(const KspDatabase* db)
    : db_(db),
      executor_(db),
      seed_theta_(std::numeric_limits<double>::infinity()) {}

Status InProcessShardChannel::Query(const ShardQueryRequest& request,
                                    const std::atomic<double>* live_theta,
                                    ShardQueryResponse* response) {
  *response = ShardQueryResponse();
  response->generation = db_->index_generation();

  // Keyword strings resolve against THIS shard's generation, mirroring
  // the serving protocol. No live θ (remote-style transport): fall back
  // to the dispatch-time snapshot, still a valid upper bound on final θ.
  const KspQuery query =
      db_->MakeQuery(request.location, request.keywords, request.k);
  if (live_theta == nullptr) {
    seed_theta_.store(request.theta_seed, std::memory_order_relaxed);
    live_theta = &seed_theta_;
  }
  executor_.set_shared_theta(live_theta);
  QueryStats stats;
  Result<KspResult> result =
      ExecuteWith(&executor_, request.algorithm, query, &stats);
  executor_.set_shared_theta(nullptr);
  response->stats = stats;
  if (!result.ok()) {
    // An application-level failure is part of the response, not a
    // transport error — exactly what a remote shard would send back.
    response->code = result.status().code();
    response->message = std::string(result.status().message());
    return Status::OK();
  }
  response->result = std::move(*result);
  return Status::OK();
}

Status LoopbackShardChannel::Query(const ShardQueryRequest& request,
                                   const std::atomic<double>* live_theta,
                                   ShardQueryResponse* response) {
  (void)live_theta;  // A remote shard cannot share the live atomic.
  std::string request_payload;
  EncodeShardQueryRequest(request, &request_payload);
  ShardQueryRequest decoded_request;
  KSP_RETURN_NOT_OK(
      DecodeShardQueryRequest(request_payload, &decoded_request));

  ShardQueryResponse inner_response;
  KSP_RETURN_NOT_OK(
      inner_.Query(decoded_request, /*live_theta=*/nullptr,
                   &inner_response));

  std::string response_payload;
  EncodeShardQueryResponse(inner_response, &response_payload);
  return DecodeShardQueryResponse(response_payload, response);
}

std::vector<std::unique_ptr<ShardChannel>> MakeInProcessChannels(
    const ShardedKspDatabase& db) {
  std::vector<std::unique_ptr<ShardChannel>> channels(db.num_shards());
  for (uint32_t i = 0; i < db.num_shards(); ++i) {
    if (db.shard(i) != nullptr) {
      channels[i] = std::make_unique<InProcessShardChannel>(db.shard(i));
    }
  }
  return channels;
}

std::vector<std::unique_ptr<ShardChannel>> MakeLoopbackChannels(
    const ShardedKspDatabase& db) {
  std::vector<std::unique_ptr<ShardChannel>> channels(db.num_shards());
  for (uint32_t i = 0; i < db.num_shards(); ++i) {
    if (db.shard(i) != nullptr) {
      channels[i] = std::make_unique<LoopbackShardChannel>(db.shard(i));
    }
  }
  return channels;
}

}  // namespace ksp
