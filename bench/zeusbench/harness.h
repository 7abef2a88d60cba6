#ifndef ZEUSBENCH_HARNESS_H_
#define ZEUSBENCH_HARNESS_H_

// Measurement primitives of the zeusbench harness: percentiles, open-loop
// lateness, spans with self time, answer digests, the output format and the
// heap peak. Everything here is covered by selftest.cc.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"

namespace zeusbench {

using Clock = std::chrono::steady_clock;

// Seconds elapsed between two steady-clock points.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// The point `s` seconds after `t`.
inline Clock::time_point After(Clock::time_point t, double s) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

// ---- Percentiles -----------------------------------------------------------

// Nearest-rank percentile: the smallest sample with at least q * n samples
// at or below it (q in (0, 1]). Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

// The highest of p99, p95, p90, p75 and p50 that leaves at least ten samples
// beyond it at nearest rank; 1.0 (the maximum) when even p50 does not.
double TailQuantile(size_t n);

// "p99", "p95", ..., "max" for a TailQuantile value.
std::string QuantileLabel(double q);

// ---- Open loop -------------------------------------------------------------

// Update latency of an open-loop stream, per tick. Tick k is due at
// due_s[k] and commits frame epoch first_epoch + k; an update with frame
// epoch E arriving at time t covers every tick whose epoch is <= E (one
// window run may coalesce several appends). A tick's latency runs from its
// due time, not from when it was sent, so a stalled generator still charges
// the stall to every tick queued behind it. `arrivals` holds (epoch, time)
// in arrival order; a tick no update covered gets -1.
std::vector<double> CoverLatencies(
    const std::vector<double>& due_s, uint64_t first_epoch,
    const std::vector<std::pair<uint64_t, double>>& arrivals);

// Lateness of an open-loop generator: how far behind its schedule each
// send started.
class Lateness {
 public:
  void Record(double due_s, double sent_s) { late_s_.push_back(sent_s - due_s); }
  double Max() const;
  // True when some send started a full period (or more) after its due time:
  // the generator, not the system under test, set the pace.
  bool FellBehind(double period_s) const { return Max() >= period_s; }
  const std::vector<double>& samples() const { return late_s_; }

 private:
  std::vector<double> late_s_;
};

// ---- Spans -----------------------------------------------------------------

// One timed interval of the benchmark's own calls into the system. Spans of
// one operation share `op`; `parent` is the id of the enclosing span (0 for
// a root).
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t op = 0;
  double start_s = 0.0;  // seconds since the trace origin
  double end_s = 0.0;
};

// A span's duration minus the part of it covered by its children (the
// spans in `all` whose parent is `span.id`), overlaps between children
// counted once.
double SelfSeconds(const Span& span, const std::vector<Span>& all);

// Per-thread span buffer. Recording is a vector append; the seconds spent
// recording are accumulated so the trace can report its own overhead.
class SpanLog {
 public:
  SpanLog(Clock::time_point origin, int64_t id_base)
      : origin_(origin), next_id_(id_base) {}

  int64_t Add(const std::string& name, int64_t op, int64_t parent,
              Clock::time_point start, Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }
  double overhead_s() const { return overhead_s_; }

 private:
  Clock::time_point origin_;
  int64_t next_id_;
  std::vector<Span> spans_;
  double overhead_s_ = 0.0;
};

// All span logs of one run. Disabled traces hand out no logs, so untraced
// runs pay one null check per operation.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  // A new per-thread log, or nullptr when tracing is off.
  SpanLog* NewLog();
  std::vector<Span> AllSpans() const;
  double OverheadSeconds() const;
  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---- Answers ---------------------------------------------------------------

// What an answer must reproduce bit for bit: a digest of its segment list
// and evaluation counts, plus its F1.
struct Answer {
  uint64_t digest = 0;
  double f1 = 0.0;
  bool operator==(const Answer& o) const {
    return digest == o.digest && f1 == o.f1;
  }
  bool operator!=(const Answer& o) const { return !(*this == o); }
};

Answer AnswerOf(const zeus::engine::QueryResult& result);

// ---- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long samples = -1;  // printed as n=<samples> beside timings; -1 = none
  std::string note;   // e.g. the percentile a tail metric reports
};

// "<name> <value> <unit>[ n=<samples>][ <note>]"
std::string MetricLine(const Metric& m);

// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, long attempted, long failed,
                       const std::vector<Metric>& metrics);

// Peak resident set size of this process, in MB (getrusage max RSS).
double PeakRssMb();

// Peak heap in use: bytes malloc has handed out and not taken back, over
// every arena plus mmapped blocks, sampled every 10 ms by a background
// thread from construction on. Unlike the peak RSS it does not count freed
// memory the allocator keeps: two threads churning plan reloads left one
// scan_evict configuration at a peak RSS of 83 or 105 MB depending on
// which arenas they raced into.
class HeapSampler {
 public:
  HeapSampler();
  ~HeapSampler();
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  // Takes one sample now (what the thread does every 10 ms).
  void Sample();
  double PeakMb() const;

 private:
  std::atomic<size_t> peak_bytes_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

}  // namespace zeusbench

#endif  // ZEUSBENCH_HARNESS_H_
