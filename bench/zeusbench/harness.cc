#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace zeusbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double TailQuantile(size_t n) {
  for (double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (rank >= 1 && n - rank >= 10) return q;
  }
  return 1.0;
}

std::string QuantileLabel(double q) {
  if (q >= 1.0) return "max";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%.0f", q * 100.0);
  return buf;
}

std::vector<double> CoverLatencies(
    const std::vector<double>& due_s, uint64_t first_epoch,
    const std::vector<std::pair<uint64_t, double>>& arrivals) {
  std::vector<double> out(due_s.size(), -1.0);
  size_t next = 0;  // first tick not yet covered
  for (const auto& [epoch, t] : arrivals) {
    while (next < due_s.size() && first_epoch + next <= epoch) {
      out[next] = t - due_s[next];
      ++next;
    }
  }
  return out;
}

double Lateness::Max() const {
  double m = 0.0;
  for (double l : late_s_) m = std::max(m, l);
  return m;
}

double SelfSeconds(const Span& span, const std::vector<Span>& all) {
  std::vector<std::pair<double, double>> cover;
  for (const Span& c : all) {
    if (c.parent != span.id || c.id == span.id) continue;
    const double b = std::max(c.start_s, span.start_s);
    const double e = std::min(c.end_s, span.end_s);
    if (e > b) cover.emplace_back(b, e);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double reach = span.start_s;
  for (const auto& [b, e] : cover) {
    const double from = std::max(b, reach);
    if (e > from) covered += e - from;
    reach = std::max(reach, e);
  }
  return (span.end_s - span.start_s) - covered;
}

int64_t SpanLog::Add(const std::string& name, int64_t op, int64_t parent,
                     Clock::time_point start, Clock::time_point end) {
  const Clock::time_point rec = Clock::now();
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = parent;
  s.op = op;
  s.start_s = Seconds(origin_, start);
  s.end_s = Seconds(origin_, end);
  spans_.push_back(std::move(s));
  overhead_s_ += Seconds(rec, Clock::now());
  return spans_.back().id;
}

SpanLog* Trace::NewLog() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  // Ids stay unique across logs: each log owns a block of 2^40 ids.
  const int64_t base = (static_cast<int64_t>(logs_.size()) + 1) << 40;
  logs_.push_back(std::make_unique<SpanLog>(origin_, base));
  return logs_.back().get();
}

std::vector<Span> Trace::AllSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  }
  return all;
}

double Trace::OverheadSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& log : logs_) total += log->overhead_s();
  return total;
}

bool Trace::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (size_t tid = 0; tid < logs_.size(); ++tid) {
    for (const Span& s : logs_[tid]->spans()) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRId64
                    ",\"parent\":%" PRId64 ",\"op\":%" PRId64 "}}",
                    first ? "" : ",", s.name.c_str(), tid + 1, s.start_s * 1e6,
                    (s.end_s - s.start_s) * 1e6, s.id, s.parent, s.op);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

// The shortest decimal that reads back as exactly `v`.
std::string ShortestDouble(double v) {
  char buf[32];
  for (int digits = 1; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

uint64_t Fnv(uint64_t h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Answer AnswerOf(const zeus::engine::QueryResult& result) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv(h, static_cast<int64_t>(result.segments.size()));
  for (const auto& s : result.segments) {
    h = Fnv(h, s.video_id);
    h = Fnv(h, s.start);
    h = Fnv(h, s.end);
  }
  const zeus::core::PrfMetrics& m = result.metrics;
  for (long v : {m.tp, m.fp, m.fn, m.tn}) h = Fnv(h, v);
  return Answer{h, m.f1};
}

std::string MetricLine(const Metric& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s %.6g %s", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string line = buf;
  if (m.samples >= 0) line += " n=" + std::to_string(m.samples);
  if (!m.note.empty()) line += " " + m.note;
  return line;
}

std::string ResultJson(bool correct, long attempted, long failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           ShortestDouble(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

HeapSampler::HeapSampler() {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      Sample();
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(10), [this] { return stop_; });
    }
  });
}

HeapSampler::~HeapSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void HeapSampler::Sample() {
  const struct mallinfo2 mi = mallinfo2();
  const size_t in_use = mi.uordblks + mi.hblkhd;
  size_t peak = peak_bytes_.load();
  while (in_use > peak && !peak_bytes_.compare_exchange_weak(peak, in_use)) {
  }
}

double HeapSampler::PeakMb() const {
  return static_cast<double>(peak_bytes_.load()) / (1024.0 * 1024.0);
}

}  // namespace zeusbench
