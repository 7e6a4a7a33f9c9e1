// The repository benchmark driver.  run.py builds and runs it:
//
//   perfbench --workload cold_solve|hot_hits|mixed_open --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR] [--source-id ID]
//
// --trace 0 measures the end-to-end metrics of one untraced window.
// --trace 1 runs the window untraced and then traced (one span per
// request), replays the workload's distinct inputs through each layer
// (layers.cpp), prints the per-layer metrics and writes every span as a
// Chrome trace to DIR.  Either way every metric is printed by name and
// unit, and the last line is the JSON result.  Outputs are checked in
// every run; the exit code is non-zero on a lost or duplicated response
// or a payload byte mismatch.
//
// Why exact_certificate is in no workload: an exact solve's cost is not
// a function of its size.  A seeded n=10, m=4, k=2 pool took 2.4 ms on
// one instance and 78 s on the next (decision budget exhausted,
// proven_optimal:false), so one request would set the result.  The
// solver layer gets a workload once the choice between the two exact
// engines is settled.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <thread>

#include "common.hpp"
#include "runtime/global.hpp"

using namespace perfbench;

namespace {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The gated end-to-end numbers of a window.  The window is cut into
/// equal sub-windows by request start time (about 2000 latency samples
/// each, at most 10, fewer when a sub-window would hold too few samples
/// to support its p99); each metric is the median over them of the
/// sub-window's value, so a burst of scheduler noise on a shared
/// machine moves one sub-window, not the result.
struct Gated {
  double throughput_rps = 0.0, p50 = 0.0, p99 = 0.0;
  std::size_t samples = 0, windows = 0;
  bool p99_supported = false;
};

Gated gated_over(const WindowResult& w, std::size_t windows) {
  Gated g;
  g.windows = windows;
  const double span_ns =
      static_cast<double>(w.window_ns) / static_cast<double>(windows);
  std::vector<std::vector<double>> lat(windows);
  std::vector<double> ok(windows, 0.0);
  const auto slot = [&](std::uint32_t start_us) {
    return std::min(windows - 1,
                    static_cast<std::size_t>(start_us * 1e3 / span_ns));
  };
  for (const auto& s : w.ok) {
    ok[slot(s.start_us)] += 1.0;
    lat[slot(s.start_us)].push_back(s.latency_ms);
  }
  for (const std::uint32_t start_us : w.ok_ungated_us)
    ok[slot(start_us)] += 1.0;
  g.samples = w.ok.size();
  std::vector<double> thr, p50, p99;
  g.p99_supported = true;
  for (std::size_t j = 0; j < windows; ++j) {
    const Summary s = summarize(lat[j]);
    g.p99_supported = g.p99_supported && s.p99_supported;
    thr.push_back(ok[j] / (span_ns / 1e9));
    p50.push_back(s.p50);
    p99.push_back(s.p99);
  }
  g.throughput_rps = median(thr);
  g.p50 = median(p50);
  g.p99 = median(p99);
  return g;
}

Gated gated(const WindowResult& w) {
  Gated g;
  for (std::size_t k = std::clamp<std::size_t>(w.ok.size() / 2000, 1, 10);
       k >= 1; --k) {
    g = gated_over(w, k);
    if (g.p99_supported) break;
  }
  return g;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

bool parse_args(int argc, char** argv, Args& args, std::string& source_id) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--trace-dir") args.trace_dir = value;
    else if (flag == "--source-id") source_id = value;
    else return false;
  }
  return argc % 2 == 1 && args.seconds > 0 &&
         (args.workload == "cold_solve" || args.workload == "hot_hits" ||
          args.workload == "mixed_open");
}

WindowResult run_window(const Args& args, bool traced) {
  if (args.workload == "cold_solve") return run_cold_solve(args, traced);
  if (args.workload == "hot_hits") return run_hot_hits(args, traced);
  return run_mixed_open(args, traced);
}

void print_report(const char* label, const WindowResult& w) {
  const Gated g = gated(w);
  std::printf("%s: %llu attempted, %llu ok, %llu failed (failed_share %.6g), "
              "%llu rate-limited sheds; gated latency: %zu samples in %zu "
              "sub-windows, median p50 %.4f ms, median p99 %.4f ms, %.2f rps; "
              "window peak RSS %.2f MB\n",
              label, static_cast<unsigned long long>(w.tally.attempted),
              static_cast<unsigned long long>(w.tally.ok),
              static_cast<unsigned long long>(w.tally.failed),
              w.tally.failed_share(),
              static_cast<unsigned long long>(w.tally.limited_sheds), g.samples,
              g.windows, g.p50, g.p99, g.throughput_rps, w.peak_rss_mb);
  for (const double s : w.setup_s) std::printf("%s: set-up %.4f s\n", label, s);
  for (const Metric& m : w.report)
    std::printf("%s: %s = %.6g %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& p : w.problems)
    std::printf("%s: CHECK FAILED: %s\n", label, p.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string source_id = "unknown";
  if (!parse_args(argc, argv, args, source_id)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cold_solve|hot_hits|mixed_open "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR] "
                 "[--source-id ID]\n");
    return 2;
  }
  // The solver pool at nproc lanes, sized once at start-up as the
  // serving binaries do with --threads.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  pslocal::runtime::set_global_thread_count(nproc);
  std::printf("machine: nproc=%u cpu=\"%s\" compiler=\"g++ %s\" build=%s "
              "pool_lanes=%zu seed=%llu source=%s\n",
              nproc, cpu_model().c_str(), __VERSION__,
              PERFBENCH_BUILD_TYPE, pslocal::runtime::global_thread_count(),
              static_cast<unsigned long long>(args.seed), source_id.c_str());

  try {
    std::vector<Metric> metrics;
    bool correct = true;
    Tally tally;
    const WindowResult plain = run_window(args, false);
    print_report("untraced", plain);
    correct = plain.problems.empty();
    tally.merge(plain.tally);
    const Gated lat = gated(plain);
    if (!lat.p99_supported) {
      std::fprintf(stderr,
                   "perfbench: %zu latency samples cannot support a p99\n",
                   lat.samples);
      return 1;
    }
    if (!args.trace) {
      // The p99 is printed, not gated: on a shared host, scheduling noise
      // spread cold_solve's ten-seed p99 by up to 0.59 of its median,
      // past the largest bound a gated metric may have (0.25).
      std::printf("untraced: latency_p99_ms = %.6g ms (not gated)\n", lat.p99);
      metrics = {{"throughput_rps", lat.throughput_rps, "1/s"},
                 {"latency_p50_ms", lat.p50, "ms"},
                 {"setup_s", median(plain.setup_s), "s"},
                 {"peak_rss_mb", plain.peak_rss_mb, "MB"}};
    } else {
      WindowResult traced = run_window(args, true);
      print_report("traced", traced);
      correct = correct && traced.problems.empty();
      tally.merge(traced.tally);
      std::vector<Span> spans = std::move(traced.spans);
      metrics = replay_layers(args, traced, spans);
      const double traced_p50 = gated(traced).p50;
      metrics.push_back({"harness.gen_late_p99_ms",
                         quantile(traced.harness_late_ms, 0.99), "ms"});
      metrics.push_back({"harness.tracing_overhead_pct",
                         100.0 * (traced_p50 - lat.p50) / lat.p50, "%"});
      if (!args.trace_dir.empty()) {
        // One file per workload: the next traced run replaces it.
        const std::string path = args.trace_dir + "/" + args.workload + ".json";
        if (!write_chrome_trace(path, spans)) {
          std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
          return 1;
        }
        std::printf("trace: %zu spans written to %s\n", spans.size(),
                    path.c_str());
      }
    }
    print_result(correct, tally.attempted, tally.failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
