// zeusbench: one command per workload, every metric measured on this host.
//
//   zeusbench --workload <plan_cold|serve_warm|scan_evict|stream_window>
//             [--seed N] [--seconds S] [--trace FILE] [--workdir DIR]
//
// Prints one "<name> <value> <unit>" line per metric (sample counts beside
// timings), then a JSON result line: the end-to-end metrics, or with
// --trace the per-layer metrics and a Chrome trace-event file of the
// client operations. Exits non-zero on a wrong answer. See README.md.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "common/logging.h"
#include "workload.h"

namespace zeusbench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json, in its order.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"}, {"peak_heap_mb", "MB"},
};
constexpr Declared kPerLayer[] = {
    {"client_us_p50", "us"},
    {"front_us_p50", "us"},
    {"engine.exec_us_p50", "us"},
    {"engine.self_us_p50", "us"},
    {"engine.plan_lookup_us_p50", "us"},
    {"engine.plan_hit_ratio", "ratio"},
    {"core.localize_us_p50", "us"},
    {"core.evaluate_us_p50", "us"},
    {"core.invocations_per_query", "count"},
    {"core.modeled_fps", "1/s"},
    {"core.plan_load_ms_p50", "ms"},
    {"core.plan_apfg_train_s", "s"},
    {"core.plan_profile_s", "s"},
    {"core.plan_rl_train_s", "s"},
    {"core.plan_other_s", "s"},
    {"rl.greedy_us_p50", "us"},
    {"rl.step_us_p50", "us"},
    {"apfg.process_us_p50", "us"},
    {"apfg.forward_us_p50", "us"},
    {"apfg.forward8_us_per_seg", "us"},
    {"apfg.feature_hit_ratio", "ratio"},
    {"video.decode_us_p50", "us"},
    {"video.copy_ms_p50", "ms"},
    {"video.grow_ms_p50", "ms"},
    {"video.generate_s", "s"},
    {"tensor.sgemm_gflops", "GFLOP/s"},
    {"cluster.result_encode_us_p50", "us"},
    {"cluster.result_decode_us_p50", "us"},
    {"cluster.result_bytes", "bytes"},
    {"trace_overhead_frac", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: zeusbench --workload <plan_cold|serve_warm|scan_evict|"
               "stream_window> [--seed N] [--seconds S] [--trace FILE] "
               "[--workdir DIR]\n");
  return 2;
}

std::vector<Metric> EndToEnd(const Outcome& o) {
  const size_t n = o.latency_s.size();
  const double tail_q = TailQuantile(n);
  const double completed = static_cast<double>(o.attempted - o.failed);
  return {
      {"setup_s", Percentile(o.setup_s, 0.5), "s", static_cast<long>(o.setup_s.size()),
       "median of the set-ups"},
      {"ops_per_s", o.wall_s > 0 ? completed / o.wall_s : 0.0, "1/s",
       static_cast<long>(completed), o.latency_what},
      {"latency_p50_ms", Percentile(o.latency_s, 0.5) * 1e3, "ms", static_cast<long>(n)},
      {"latency_tail_ms", Percentile(o.latency_s, tail_q) * 1e3, "ms", static_cast<long>(n),
       QuantileLabel(tail_q)},
      {"peak_heap_mb", o.peak_heap_mb, "MB", -1, "heap in use, sampled every 10 ms"},
  };
}

// Picks the declared metrics, in order, from `have`; false (with a message)
// when one is missing, mis-united or not a finite number.
bool Select(const Declared* list, size_t count, const std::vector<Metric>& have,
            std::vector<Metric>* out) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : have) by_name[m.name] = &m;
  bool ok = true;
  for (size_t i = 0; i < count; ++i) {
    auto it = by_name.find(list[i].name);
    if (it == by_name.end() || it->second->unit != list[i].unit ||
        !std::isfinite(it->second->value)) {
      std::fprintf(stderr, "zeusbench: metric %s missing or malformed\n", list[i].name);
      ok = false;
      continue;
    }
    out->push_back(*it->second);
  }
  return ok;
}

}  // namespace
}  // namespace zeusbench

int main(int argc, char** argv) {
  using namespace zeusbench;
  Args args;
  args.workdir = "zeusbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace_path = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  const std::map<std::string, Outcome (*)(const Args&, Trace*)> workloads = {
      {"plan_cold", RunPlanCold},
      {"serve_warm", RunServeWarm},
      {"scan_evict", RunScanEvict},
      {"stream_window", RunStreamWindow},
  };
  const auto run = workloads.find(args.workload);
  if (run == workloads.end() || !(args.seconds > 0.0)) return Usage();

  zeus::common::SetLogLevel(zeus::common::LogLevel::kWarning);
  args.workdir += "/" + args.workload + "-" + std::to_string(getpid());
  if (!FreshDir(args.workdir)) {
    std::fprintf(stderr, "zeusbench: cannot create %s\n", args.workdir.c_str());
    return 1;
  }
  const HeapSampler heap;
  args.heap = &heap;
  Trace trace(!args.trace_path.empty());
  std::printf("zeusbench %s seed=%llu seconds=%g trace=%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              trace.enabled() ? "on" : "off");
  std::fflush(stdout);

  Outcome o = run->second(args, &trace);
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);

  const std::vector<Metric> e2e = EndToEnd(o);
  if (trace.enabled()) {
    double busy = 0.0;
    for (double l : o.latency_s) busy += l;
    o.layer.push_back({"trace_overhead_frac", busy > 0 ? trace.OverheadSeconds() / busy : 0.0,
                       "ratio", static_cast<long>(trace.AllSpans().size()),
                       "span recording time / client operation time"});
    if (!trace.WriteChromeJson(args.trace_path)) {
      std::fprintf(stderr, "zeusbench: cannot write %s\n", args.trace_path.c_str());
    }
  }
  std::printf("# end to end\n");
  for (const Metric& m : e2e) std::printf("%s\n", MetricLine(m).c_str());
  std::printf("failed_frac %.6g ratio n=%ld\n",
              o.attempted > 0 ? static_cast<double>(o.failed) / o.attempted : 1.0,
              o.attempted);
  std::printf("answer_f1 %.6g ratio n=%ld mean F1 of checked answers\n",
              o.answers > 0 ? o.f1_sum / o.answers : 0.0, o.answers);
  std::printf("peak_rss_mb %.6g MB whole process, getrusage\n", PeakRssMb());
  std::printf("# per layer\n");
  for (const Metric& m : o.layer) std::printf("%s\n", MetricLine(m).c_str());
  std::printf("# detail\n");
  for (const Metric& m : o.info) std::printf("%s\n", MetricLine(m).c_str());
  for (const std::string& e : o.errors) std::fprintf(stderr, "zeusbench: %s\n", e.c_str());

  std::vector<Metric> result;
  bool complete = o.attempted > 0;
  if (trace.enabled()) {
    complete = Select(kPerLayer, std::size(kPerLayer), o.layer, &result) && complete;
  } else {
    complete = Select(kEndToEnd, std::size(kEndToEnd), e2e, &result) && complete;
    for (const Metric& m : result) complete = complete && m.value > 0.0;
  }
  std::printf("%s\n", ResultJson(!o.wrong_answer, o.attempted, o.failed, result).c_str());
  return o.wrong_answer || !complete ? 1 : 0;
}
