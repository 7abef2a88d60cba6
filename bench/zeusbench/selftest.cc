// Self-test of the zeusbench harness (registered with ctest in this
// directory's CMake project): percentiles, open-loop accounting, span self
// time, answer digests across the wire codec, the output format and the
// heap peak.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/protocol.h"
#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using namespace zeusbench;

  // Nearest rank: the smallest sample with at least q*n samples at or below.
  const std::vector<double> ten = {7, 3, 10, 1, 5, 9, 2, 8, 4, 6};
  Check(Percentile(ten, 0.50) == 5, "p50 of 1..10 is 5");
  Check(Percentile(ten, 0.90) == 9, "p90 of 1..10 is 9");
  Check(Percentile(ten, 0.91) == 10, "p91 of 1..10 rounds up to 10");
  Check(Percentile(ten, 0.10) == 1, "p10 of 1..10 is 1");
  Check(Percentile(ten, 1.00) == 10, "p100 is the maximum");
  Check(Percentile({}, 0.5) == 0, "empty sample");

  // The highest percentile with at least ten samples beyond it.
  Check(TailQuantile(1000) == 0.99, "1000 samples support p99");
  Check(TailQuantile(999) == 0.95, "999 samples leave 9 beyond p99");
  Check(TailQuantile(200) == 0.95, "200 samples support p95");
  Check(TailQuantile(199) == 0.90, "199 samples leave 9 beyond p95");
  Check(TailQuantile(20) == 0.50, "20 samples support only p50");
  Check(TailQuantile(19) == 1.0, "19 samples fall back to the maximum");
  Check(QuantileLabel(0.99) == "p99" && QuantileLabel(1.0) == "max", "labels");

  // Open loop: latency from the due time; a coalesced update covers every
  // tick up to its epoch; the initial epoch covers nothing.
  const std::vector<double> due = {0.0, 0.1, 0.2, 0.3};
  const std::vector<double> lat =
      CoverLatencies(due, 1, {{0, 0.01}, {1, 0.05}, {3, 0.25}, {4, 0.45}});
  Check(Near(lat[0], 0.05) && Near(lat[1], 0.15) && Near(lat[2], 0.05) &&
            Near(lat[3], 0.15),
        "cover latencies run from the due time");
  Check(CoverLatencies(due, 1, {{2, 0.3}})[2] == -1.0, "uncovered tick is -1");
  Lateness late;
  late.Record(0.0, 0.01);
  late.Record(0.1, 0.25);
  Check(Near(late.Max(), 0.15), "lateness is sent minus due");
  Check(late.FellBehind(0.1) && !late.FellBehind(0.2), "a full period late is invalid");

  // Self time: children's union clipped to the parent; grandchildren and
  // unrelated spans do not count.
  std::vector<Span> spans = {
      {"op", 1, 0, 0, 0.0, 10.0},   {"a", 2, 1, 0, 1.0, 3.0},
      {"b", 3, 1, 0, 2.0, 5.0},     {"c", 4, 1, 0, 8.0, 12.0},
      {"a.1", 5, 2, 0, 1.0, 2.0},   {"other", 6, 0, 1, 0.0, 10.0},
  };
  Check(Near(SelfSeconds(spans[0], spans), 4.0), "self time subtracts child overlap once");
  Check(Near(SelfSeconds(spans[1], spans), 1.0), "a child's own children count for it");
  Trace trace(true);
  SpanLog* log = trace.NewLog();
  const Clock::time_point t0 = Clock::now();
  const int64_t root = log->Add("root", 7, 0, t0, t0 + std::chrono::milliseconds(4));
  const int64_t kid = log->Add("kid", 7, root, t0, t0 + std::chrono::milliseconds(1));
  Check(root != kid && log->spans()[1].parent == root, "span ids and parents");
  Check(Near(SelfSeconds(log->spans()[0], trace.AllSpans()), 0.003), "self time of a log");
  Check(Trace(false).NewLog() == nullptr, "a disabled trace hands out no logs");

  // Answer digests survive the wire codec and see every segment and count.
  zeus::engine::QueryResult r;
  r.segments = {{3, 10, 42}, {5, 0, 16}};
  r.metrics.tp = 4;
  r.metrics.fp = 1;
  r.metrics.fn = 2;
  r.metrics.tn = 40;
  r.metrics.f1 = 8.0 / 11.0;
  r.wall_seconds = 0.123;
  r.epoch = 9;
  zeus::engine::QueryResult back;
  Check(zeus::cluster::DecodeQueryResult(zeus::cluster::EncodeQueryResult(r), &back),
        "codec round trip");
  Check(AnswerOf(back) == AnswerOf(r), "digest stable across encode/decode");
  zeus::engine::QueryResult moved = r;
  moved.segments[1].end = 17;
  Check(AnswerOf(moved) != AnswerOf(r), "digest sees segment bounds");
  zeus::engine::QueryResult swapped = r;
  std::swap(swapped.segments[0], swapped.segments[1]);
  Check(AnswerOf(swapped) != AnswerOf(r), "digest sees segment order");
  zeus::engine::QueryResult recounted = r;
  recounted.metrics.tn = 41;
  Check(AnswerOf(recounted) != AnswerOf(r), "digest sees evaluation counts");
  zeus::engine::QueryResult timed = r;
  timed.wall_seconds = 9.0;
  Check(AnswerOf(timed) == AnswerOf(r), "digest ignores timings");

  // Output format.
  Check(MetricLine({"latency_p50_ms", 0.5912, "ms", 97000}) ==
            "latency_p50_ms 0.5912 ms n=97000",
        "metric line with sample count");
  Check(MetricLine({"latency_tail_ms", 1.17, "ms", 97000, "p99"}) ==
            "latency_tail_ms 1.17 ms n=97000 p99",
        "metric line with note");
  Check(MetricLine({"peak_rss_mb", 312.5, "MB"}) == "peak_rss_mb 312.5 MB",
        "metric line without samples");
  Check(ResultJson(true, 1000, 2, {{"latency_ms", 1.2034, "ms"}, {"setup_s", 0.8125, "s"}}) ==
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 2, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}}}",
        "result line");

  // The heap peak sees an allocation while it is live and keeps it after.
  {
    HeapSampler heap;
    auto block = std::make_unique<std::vector<char>>(size_t{64} << 20, 1);
    heap.Sample();
    block.reset();
    heap.Sample();
    Check(heap.PeakMb() >= 64.0, "heap peak counts a live 64 MB block");
  }

  if (failures == 0) std::printf("zeusbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
