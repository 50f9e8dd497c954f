// Serving-tier load generator (DESIGN.md §11): starts a real KspServer
// on a loopback socket and drives it two ways —
//
//   closed loop   C clients issue requests back-to-back; measures the
//                 server's sustainable throughput and its latency
//                 distribution at saturation.
//   open loop     requests arrive on a fixed global schedule (a target
//                 rate), independent of completions; measures latency
//                 under a controlled offered load, where admission
//                 control (kUnavailable rejections) is allowed to shed
//                 the excess rather than queue it unboundedly.
//
// Output: a human-readable summary plus (with --json-out=FILE) a JSON
// document with the same outer shape as the figure benches
// (schema_version / bench / env) and an additive "serving" object —
// sustained QPS, p50/p95/p99 latency, and rejection/error counts per
// loop. scripts/bench_smoke.sh asserts nonzero QPS and zero protocol
// errors from it.
//
// Flags: --json-out=FILE  --clients=N (default 4)  --seconds=S (default
// 2.0 per loop)  --rate=R (open-loop target arrivals/sec, default 200)
// Env: KSP_SCALE scales the dataset like every other bench.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/client.h"
#include "service/server.h"

namespace {

using Clock = std::chrono::steady_clock;

struct LoopStats {
  uint64_t requests = 0;
  uint64_t oks = 0;
  uint64_t rejections = 0;        // typed kUnavailable (admission control)
  uint64_t deadline_exceeded = 0; // typed kDeadlineExceeded
  uint64_t protocol_errors = 0;   // transport/codec failures: must be 0
  double wall_seconds = 0;
  std::vector<double> latency_ms;

  double Qps() const {
    return wall_seconds > 0 ? static_cast<double>(oks) / wall_seconds : 0;
  }
  double PercentileMs(double q) const {
    return ksp::bench::NearestRankPercentile(latency_ms, q);
  }
};

struct WirePlan {
  ksp::KspAlgorithm algorithm = ksp::KspAlgorithm::kSp;
  std::vector<ksp::Point> locations;
  std::vector<std::vector<std::string>> keywords;
  std::vector<uint32_t> ks;
};

void RecordResponse(const ksp::Result<ksp::ServiceResponse>& response,
                    double ms, LoopStats* stats) {
  ++stats->requests;
  if (!response.ok()) {
    ++stats->protocol_errors;
    return;
  }
  if (response->code == ksp::StatusCode::kUnavailable) {
    ++stats->rejections;
    return;
  }
  if (response->code == ksp::StatusCode::kDeadlineExceeded) {
    ++stats->deadline_exceeded;
    return;
  }
  if (!response->ok()) {
    ++stats->protocol_errors;  // Unexpected typed error under pure load.
    return;
  }
  ++stats->oks;
  stats->latency_ms.push_back(ms);
}

LoopStats RunClosedLoop(uint16_t port, const WirePlan& plan, size_t clients,
                        double seconds) {
  std::vector<LoopStats> per_client(clients);
  std::vector<std::thread> threads;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const auto start = Clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ksp::KspClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++per_client[c].protocol_errors;
        return;
      }
      size_t i = c;
      while (Clock::now() < deadline) {
        const size_t qi = i++ % plan.locations.size();
        const auto t0 = Clock::now();
        auto response = client->Query(plan.algorithm, plan.locations[qi],
                                      plan.keywords[qi], plan.ks[qi]);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        RecordResponse(response, ms, &per_client[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopStats merged;
  merged.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& stats : per_client) {
    merged.requests += stats.requests;
    merged.oks += stats.oks;
    merged.rejections += stats.rejections;
    merged.deadline_exceeded += stats.deadline_exceeded;
    merged.protocol_errors += stats.protocol_errors;
    merged.latency_ms.insert(merged.latency_ms.end(),
                             stats.latency_ms.begin(),
                             stats.latency_ms.end());
  }
  return merged;
}

LoopStats RunOpenLoop(uint16_t port, const WirePlan& plan, size_t clients,
                      double seconds, double rate_per_sec) {
  // Fixed global arrival schedule, round-robined across the client
  // threads: client c owns arrivals c, c+C, c+2C, ... If a client falls
  // behind its schedule (slow responses), it fires immediately —
  // arrivals are never conditioned on completions, which is what makes
  // the loop open.
  const uint64_t total =
      static_cast<uint64_t>(seconds * rate_per_sec);
  const auto interarrival = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate_per_sec));
  std::vector<LoopStats> per_client(clients);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ksp::KspClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++per_client[c].protocol_errors;
        return;
      }
      for (uint64_t i = c; i < total; i += clients) {
        std::this_thread::sleep_until(start + interarrival * i);
        const size_t qi = i % plan.locations.size();
        const auto t0 = Clock::now();
        auto response = client->Query(plan.algorithm, plan.locations[qi],
                                      plan.keywords[qi], plan.ks[qi]);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        RecordResponse(response, ms, &per_client[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopStats merged;
  merged.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& stats : per_client) {
    merged.requests += stats.requests;
    merged.oks += stats.oks;
    merged.rejections += stats.rejections;
    merged.deadline_exceeded += stats.deadline_exceeded;
    merged.protocol_errors += stats.protocol_errors;
    merged.latency_ms.insert(merged.latency_ms.end(),
                             stats.latency_ms.begin(),
                             stats.latency_ms.end());
  }
  return merged;
}

void PrintLoop(const char* name, LoopStats* stats) {
  std::printf(
      "%-7s requests=%llu ok=%llu rejected=%llu deadline=%llu "
      "proto_err=%llu qps=%.1f p50=%.3fms p95=%.3fms p99=%.3fms\n",
      name, static_cast<unsigned long long>(stats->requests),
      static_cast<unsigned long long>(stats->oks),
      static_cast<unsigned long long>(stats->rejections),
      static_cast<unsigned long long>(stats->deadline_exceeded),
      static_cast<unsigned long long>(stats->protocol_errors),
      stats->Qps(), stats->PercentileMs(0.50), stats->PercentileMs(0.95),
      stats->PercentileMs(0.99));
}

void AppendLoopJson(const char* name, LoopStats* stats, std::string* out) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    \"%s\": {\"requests\": %llu, \"oks\": %llu, "
      "\"rejections\": %llu, \"deadline_exceeded\": %llu, "
      "\"protocol_errors\": %llu, \"wall_seconds\": %.3f, "
      "\"qps\": %.2f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
      "\"p99_ms\": %.4f}",
      name, static_cast<unsigned long long>(stats->requests),
      static_cast<unsigned long long>(stats->oks),
      static_cast<unsigned long long>(stats->rejections),
      static_cast<unsigned long long>(stats->deadline_exceeded),
      static_cast<unsigned long long>(stats->protocol_errors),
      stats->wall_seconds, stats->Qps(), stats->PercentileMs(0.50),
      stats->PercentileMs(0.95), stats->PercentileMs(0.99));
  *out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ksp::bench;
  const BenchEnv env = BenchEnv::FromEnv();
  std::string json_out;
  size_t clients = 4;
  double seconds = 2.0;
  double rate = 200.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(std::strlen("--json-out="));
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = std::strtoull(arg.c_str() + std::strlen("--clients="),
                              nullptr, 10);
    } else if (arg.rfind("--seconds=", 0) == 0) {
      seconds = std::strtod(arg.c_str() + std::strlen("--seconds="),
                            nullptr);
    } else if (arg.rfind("--rate=", 0) == 0) {
      rate = std::strtod(arg.c_str() + std::strlen("--rate="), nullptr);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (clients == 0 || seconds <= 0 || rate <= 0) {
    std::fprintf(stderr, "clients/seconds/rate must be positive\n");
    return 2;
  }

  std::printf("=== Serving-tier load: closed and open loop ===\n");
  auto kb = MakeDataset(/*dbpedia_like=*/true,
                        env.Scaled(kDBpediaBaseVertices));
  PrintDatasetSummary("dbpedia-like", *kb);

  auto db = std::make_shared<ksp::KspDatabase>(kb.get());
  db->PrepareAll(3);

  ksp::ServerOptions options;
  options.num_workers =
      std::max(2u, std::thread::hardware_concurrency() / 2);
  options.queue_capacity = 128;
  ksp::KspServer server(kb.get(), ksp::KspOptions(), options);
  if (!server.ServeDatabase(db).ok() || !server.Start().ok()) {
    std::fprintf(stderr, "failed to start the server\n");
    return 1;
  }
  std::printf("server: 127.0.0.1:%u, %zu workers, queue=%zu\n",
              server.port(), options.num_workers, options.queue_capacity);

  ksp::QueryGenOptions qopt;
  qopt.num_keywords = 3;
  qopt.k = 5;
  qopt.seed = 1101;
  const auto queries =
      ksp::GenerateQueries(*kb, ksp::QueryClass::kOriginal, qopt, 16);
  if (queries.empty()) {
    std::fprintf(stderr, "query generation produced nothing\n");
    return 1;
  }
  WirePlan plan;
  for (const auto& query : queries) {
    plan.locations.push_back(query.location);
    plan.ks.push_back(query.k);
    std::vector<std::string> kws;
    for (ksp::TermId t : query.keywords) {
      kws.push_back(kb->vocabulary().Term(t));
    }
    plan.keywords.push_back(std::move(kws));
  }

  LoopStats closed = RunClosedLoop(server.port(), plan, clients, seconds);
  PrintLoop("closed", &closed);
  LoopStats open =
      RunOpenLoop(server.port(), plan, clients, seconds, rate);
  PrintLoop("open", &open);
  server.Stop();

  if (!json_out.empty()) {
    std::string doc;
    doc += "{\n  \"schema_version\": 1,\n";
    doc += "  \"bench\": \"bench_serving_load\",\n";
    char envbuf[256];
    std::snprintf(envbuf, sizeof(envbuf),
                  "  \"env\": {\"scale\": %.3f, \"clients\": %zu, "
                  "\"seconds\": %.2f, \"rate_per_sec\": %.1f, "
                  "\"workers\": %zu},\n",
                  env.scale, clients, seconds, rate, options.num_workers);
    doc += envbuf;
    doc += "  \"serving\": {\n";
    AppendLoopJson("closed_loop", &closed, &doc);
    doc += ",\n";
    AppendLoopJson("open_loop", &open, &doc);
    doc += "\n  }\n}\n";
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
