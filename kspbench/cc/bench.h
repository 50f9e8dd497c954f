// Shared plumbing of the kSP end-to-end benchmark: run configuration,
// the operation ledger (attempted / failed with reasons), benchmark-side
// spans, metric output, and the workload entry points.

#ifndef KSPBENCH_BENCH_H_
#define KSPBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/semantic_place.h"
#include "rdf/knowledge_base.h"
#include "core/trace.h"
#include "spatial/geometry.h"

namespace kspbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line configuration of one `kspbench run`.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the generated inputs; also the scratch directory
  /// for saved indexes and spill files.
  std::string dir;
  /// Where the traced run writes its span file.
  std::string trace_out;
};

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupRepeats = 5;
/// p99 needs at least ten samples beyond it.
inline constexpr size_t kMinQueries = 1000;
/// Threads for input generation and for the checks after the measured
/// window; never used during it.
inline constexpr unsigned kHelperThreads = 4;

/// One generated query as the caller holds it: keyword strings, so the
/// same record drives the executor, the server and the reference.
struct QuerySpec {
  ksp::Point location;
  uint32_t k = 1;
  std::vector<std::string> keywords;
};

/// The comparable part of one top-k entry.
struct Entry {
  ksp::PlaceId place = ksp::kInvalidPlace;
  double looseness = 0.0;
  double spatial = 0.0;
  double score = 0.0;
};

std::vector<Entry> ToEntries(const ksp::KspResult& result);

/// Empty when `got` equals `want` exactly (places in order, looseness,
/// distance and score as doubles); otherwise a one-line description of
/// the first difference.
std::string DiffEntries(const std::vector<Entry>& got,
                        const std::vector<Entry>& want);

/// Attempted/failed operations and why each failure happened. Thread-safe.
class Ledger {
 public:
  void Attempt(uint64_t n = 1);
  /// An operation that did not produce an answer: an error, the time
  /// limit, a rejection by the server.
  void Fail(const std::string& reason, const std::string& detail);
  /// An answer that failed a check (reference mismatch, SP/SPP
  /// disagreement, shard accounting, stale generation). Counted as a
  /// failed operation, and the run is not correct.
  void FailCheck(const std::string& reason, const std::string& detail);
  uint64_t attempted() const;
  uint64_t failed() const;
  uint64_t check_failures() const;
  /// "reason=count" pairs, plus the first detail seen per reason.
  std::string Summary() const;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t check_failures_ = 0;
  std::map<std::string, uint64_t> reasons_;
  std::map<std::string, std::string> first_detail_;
};

/// Benchmark-side spans around public calls, kept in memory and written
/// once at the end of the traced run. Single-threaded use, or one
/// recorder per thread.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span; returns its id for End() and for children's parent.
  int Begin(const std::string& name, int parent = -1);
  /// Closes span `id` and returns its duration in seconds.
  double End(int id);
  /// Writes {"spans": [...]} to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = -1.0;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Metrics of one run, printed as the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Prints the result line: attempted, failed, metrics, and `correct`,
  /// which holds when the run `completed` its workload and no answer
  /// failed a check.
  void Print(bool completed, const Ledger& ledger) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Sum of per-phase exclusive µs of `trace` added into `totals`.
void AddPhaseTotals(const ksp::QueryTrace& trace,
                    double totals[ksp::kNumTracePhases]);

/// Writes the five end-to-end metrics from per-query latencies (ms),
/// the measured wall time, the set-up samples, and this process's peak
/// resident set.
void ReportEndToEnd(const std::vector<double>& latencies_ms,
                    double wall_s, const std::vector<double>& setup_s,
                    Report* report);

/// Reads the query file written by `kspbench gen`.
bool ReadQueries(const std::string& path, std::vector<QuerySpec>* out);
/// Prints the input fingerprint line: KB counts plus a checksum of every
/// input file.
void PrintFingerprint(const std::string& workload, uint64_t seed,
                      const std::string& kb_path,
                      const std::string& queries_path, uint32_t vertices,
                      uint64_t edges, uint32_t places, uint32_t terms);

/// Queries per round of `workload`: one of each generated config. Runs
/// stop only at round boundaries, so every run has the same query mix.
size_t RoundSize(const std::string& workload);

/// Per-step samples of the repeated set-up, keyed by metric name
/// ("setup_s" is the whole set-up); medians are reported.
class SetupSamples {
 public:
  void Add(const std::string& metric, double seconds) {
    samples_[metric].push_back(seconds);
  }
  std::vector<double> Of(const std::string& metric) const {
    auto it = samples_.find(metric);
    return it == samples_.end() ? std::vector<double>() : it->second;
  }
  /// Reports the median of every step except "setup_s".
  void ReportSteps(Report* report) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Loads the KB snapshot, or prints why not and returns nullptr.
std::unique_ptr<ksp::KnowledgeBase> LoadKb(const std::string& path);

/// ---- Entry points ----
int Generate(const std::string& workload, uint64_t seed,
             const std::string& dir);
int RunEngineMem(const RunConfig& config);
int RunServeDiskZipf(const RunConfig& config);
int RunShardScatter(const RunConfig& config);
int RunSelfCheck();

/// Runs fn(thread, i) for i in [0, n) on kHelperThreads threads; the
/// thread index selects per-thread scratch.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kHelperThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < n; i = next++) fn(t, i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace kspbench

#endif  // KSPBENCH_BENCH_H_
