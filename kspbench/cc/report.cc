#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/crc32c.h"
#include "rdf/kb_io.h"

namespace kspbench {

std::vector<Entry> ToEntries(const ksp::KspResult& result) {
  std::vector<Entry> out;
  out.reserve(result.entries.size());
  for (const ksp::KspResultEntry& e : result.entries) {
    out.push_back(Entry{e.place, e.looseness, e.spatial_distance, e.score});
  }
  return out;
}

std::string DiffEntries(const std::vector<Entry>& got,
                        const std::vector<Entry>& want) {
  char buf[256];
  if (got.size() != want.size()) {
    std::snprintf(buf, sizeof(buf), "%zu entries, expected %zu", got.size(),
                  want.size());
    return buf;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const Entry& g = got[i];
    const Entry& w = want[i];
    if (g.place != w.place || g.looseness != w.looseness ||
        g.spatial != w.spatial || g.score != w.score) {
      std::snprintf(buf, sizeof(buf),
                    "rank %zu: place %u L=%.17g S=%.17g f=%.17g, expected "
                    "place %u L=%.17g S=%.17g f=%.17g",
                    i, g.place, g.looseness, g.spatial, g.score, w.place,
                    w.looseness, w.spatial, w.score);
      return buf;
    }
  }
  return "";
}

void Ledger::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Ledger::Fail(const std::string& reason, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (reasons_[reason]++ == 0) first_detail_[reason] = detail;
}

void Ledger::FailCheck(const std::string& reason, const std::string& detail) {
  Fail(reason, detail);
  std::lock_guard<std::mutex> lock(mu_);
  ++check_failures_;
}

uint64_t Ledger::check_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return check_failures_;
}

uint64_t Ledger::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t Ledger::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::string Ledger::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [reason, count] : reasons_) {
    if (!out.empty()) out += "; ";
    out += reason + "=" + std::to_string(count) + " (first: " +
           first_detail_.at(reason) + ")";
  }
  return out.empty() ? "none" : out;
}

int SpanRecorder::Begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::End(int id) {
  Span& span = spans_[id];
  span.end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  return (span.end_us - span.start_us) * 1e-6;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_us\": %.1f, \"end_us\": %.1f}%s\n",
                  i, s.parent, s.name.c_str(), s.start_us, s.end_us,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Print(bool completed, const Ledger& ledger) const {
  std::printf("failures: %s\n", ledger.Summary().c_str());
  const bool correct = completed && ledger.check_failures() == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(ledger.failed());
  line += ", \"metrics\": {";
  bool first = true;
  char buf[128];
  for (const auto& [name, value_unit] : metrics_) {
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::snprintf(buf, sizeof(buf), "\"value\": %.17g, \"unit\": \"%s\"", v,
                  value_unit.second.c_str());
    line += (first ? "\"" : ", \"") + name + "\": {" + buf + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q·n values <= it.
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void AddPhaseTotals(const ksp::QueryTrace& trace,
                    double totals[ksp::kNumTracePhases]) {
  for (size_t p = 0; p < ksp::kNumTracePhases; ++p) {
    totals[p] += static_cast<double>(
        trace.PhaseExclusiveUs(static_cast<ksp::TracePhase>(p)));
  }
}

namespace {
double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}
}  // namespace

void ReportEndToEnd(const std::vector<double>& latencies_ms, double wall_s,
                    const std::vector<double>& setup_s, Report* report) {
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("query_p50_ms", Percentile(latencies_ms, 0.50), "ms");
  report->Set("query_p99_ms", Percentile(latencies_ms, 0.99), "ms");
  report->Set("throughput_qps",
              wall_s > 0 ? static_cast<double>(latencies_ms.size()) / wall_s
                         : 0.0,
              "1/s");
  report->Set("peak_rss_mib", PeakRssMib(), "MiB");
}

void SetupSamples::ReportSteps(Report* report) const {
  for (const auto& [metric, values] : samples_) {
    if (metric != "setup_s") report->Set(metric, Median(values), "s");
  }
}

std::unique_ptr<ksp::KnowledgeBase> LoadKb(const std::string& path) {
  auto kb = ksp::LoadKnowledgeBaseSnapshot(path);
  if (!kb.ok()) {
    std::fprintf(stderr, "cannot load KB %s: %s\n", path.c_str(),
                 kb.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*kb);
}

bool ReadQueries(const std::string& path, std::vector<QuerySpec>* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    QuerySpec q;
    if (!(fields >> q.location.x >> q.location.y >> q.k)) return false;
    std::string keyword;
    while (fields >> keyword) q.keywords.push_back(keyword);
    if (q.keywords.empty()) return false;
    out->push_back(std::move(q));
  }
  return !out->empty();
}

namespace {
bool FileCrc(const std::string& path, uint32_t* crc, uint64_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<char> buf(1 << 16);
  *crc = 0;
  *bytes = 0;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::streamsize n = in.gcount();
    if (n <= 0) break;
    *crc = ksp::Crc32cExtend(*crc, buf.data(), static_cast<size_t>(n));
    *bytes += static_cast<uint64_t>(n);
  }
  return true;
}
}  // namespace

void PrintFingerprint(const std::string& workload, uint64_t seed,
                      const std::string& kb_path,
                      const std::string& queries_path, uint32_t vertices,
                      uint64_t edges, uint32_t places, uint32_t terms) {
  uint32_t kb_crc = 0, q_crc = 0;
  uint64_t kb_bytes = 0, q_bytes = 0;
  FileCrc(kb_path, &kb_crc, &kb_bytes);
  FileCrc(queries_path, &q_crc, &q_bytes);
  std::printf(
      "inputs: workload=%s seed=%llu vertices=%u edges=%llu places=%u "
      "terms=%u kb_bytes=%llu kb_crc32c=%08x queries_bytes=%llu "
      "queries_crc32c=%08x\n",
      workload.c_str(), static_cast<unsigned long long>(seed), vertices,
      static_cast<unsigned long long>(edges), places, terms,
      static_cast<unsigned long long>(kb_bytes), kb_crc,
      static_cast<unsigned long long>(q_bytes), q_crc);
}

}  // namespace kspbench
