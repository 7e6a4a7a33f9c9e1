// Shared declarations of the benchmark driver: run arguments, the
// per-window result every workload returns, the payload book behind the
// byte-compare check, and the workload entry points.
#pragma once

#include <malloc.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "service/engine.hpp"
#include "util/timer.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its Chrome trace
};

/// How a network call ended, in the benchmark's accounting.
Outcome outcome_of(const pslocal::net::Client::Result& r);

/// How many times a run builds its set-up; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// Served payloads by cache key.  A later payload for a key must equal
/// the first byte for byte; after the window every key served both as
/// a hit and as a miss, plus a seeded sample, is recomputed with a bare
/// service::execute_request and compared again.
class PayloadBook {
 public:
  /// Record one served payload; false on a byte mismatch.
  bool observe(const Request& req, std::uint64_t key, bool hit,
               const std::string& payload);

  /// Recompute the keys to verify on `sched`; returns the number of
  /// mismatches (and how many keys were recomputed in *checked).
  std::size_t verify(pslocal::runtime::Scheduler& sched, std::uint64_t seed,
                     std::size_t sample, std::size_t* checked) const;

 private:
  struct Entry {
    Request request;
    std::string payload;
    bool hit = false;
    bool miss = false;
  };
  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;
};

/// Engine counters over one timed window (deltas of Stats).
struct LiveStats {
  double requests_per_cycle = 0.0;
  double keys_per_cycle = 0.0;
  double result_hit_ratio = 0.0;
  double graph_hit_ratio = 0.0;
  double evictions = 0.0;
  double bulk_shed_share = 0.0;
};

/// Sum the stats of several engines (the shards of a cluster).
void add_stats(pslocal::service::ServiceEngine::Stats& acc,
               const pslocal::service::ServiceEngine::Stats& s);
LiveStats live_delta(const pslocal::service::ServiceEngine::Stats& before,
                     const pslocal::service::ServiceEngine::Stats& after);

/// Start the peak-RSS high-water mark afresh (Linux clear_refs), after
/// handing the heap's free pages back, so memory freed by the torn-down
/// set-ups does not count.
inline void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak RSS since the last reset_peak_rss (VmHWM), in MB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// What one timed window of a workload measured.
struct WindowResult {
  /// Eight bytes per response, reserved up front so the buffer never
  /// reallocates: the samples add a small share to peak_rss_mb.
  struct Sample {
    std::uint32_t start_us = 0;  // send (open loop: scheduled) time after
                                 // the window start
    float latency_ms = 0.0f;
  };
  std::vector<Sample> ok;  // OK responses that count toward the latency
  std::vector<std::uint32_t> ok_ungated_us;  // start times of other OKs
  std::uint64_t window_ns = 0;
  double peak_rss_mb = 0.0;  // high-water mark over the timed window
  Tally tally;
  std::vector<std::string> problems;  // any entry makes the run incorrect
  std::vector<double> harness_late_ms;  // traced windows only
  std::vector<Span> spans;      // per-request spans (traced window only)
  LiveStats live;
  std::vector<Metric> report;   // workload-specific, printed not gated
  std::vector<double> setup_s;  // one per set-up built
  // Distinct inputs for the per-layer replay.
  std::vector<Request> replay_reads;
  std::vector<Request> replay_writes;
  pslocal::service::EngineConfig engine_config;
};

WindowResult run_cold_solve(const Args& args, bool traced);
WindowResult run_hot_hits(const Args& args, bool traced);
WindowResult run_mixed_open(const Args& args, bool traced);

/// The qos-enabled engine configuration of mixed_open.
pslocal::service::EngineConfig mixed_engine_config(std::uint64_t seed);

/// The traced replay of a workload's distinct inputs through each
/// layer's public entry points (layers.cpp).  Appends its spans.
std::vector<Metric> replay_layers(const Args& args, const WindowResult& window,
                                  std::vector<Span>& spans);

/// Distinct write requests derived from a workload's own instances, for
/// workloads that send none (chains of kChainSteps over `count`
/// instances, in chain order).
std::vector<Request> derived_writes(const std::vector<Request>& reads,
                                    std::size_t count);

/// Seeded sample of `count` items of `items` (all when fewer).
std::vector<Request> sample_requests(const std::vector<Request>& items,
                                     std::size_t count, std::uint64_t seed);

/// Sample-buffer capacity for one client over a window of `seconds`.
inline std::size_t sample_capacity(double seconds) {
  return static_cast<std::size_t>(seconds * 50000);
}

/// Time `make` kSetupRepeats times, keeping only the last set-up.
template <typename T, typename Make>
std::unique_ptr<T> timed_setups(Make&& make, std::vector<double>& times) {
  std::unique_ptr<T> kept;
  for (int r = 0; r < kSetupRepeats; ++r) {
    kept.reset();  // tear the previous set-up down outside the timing
    const std::uint64_t t0 = pslocal::now_ns();
    kept = make();
    times.push_back(static_cast<double>(pslocal::now_ns() - t0) / 1e9);
  }
  return kept;
}

}  // namespace perfbench
