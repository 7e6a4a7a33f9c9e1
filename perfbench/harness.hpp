// Measurement helpers of the repository benchmark (perfbench/).
//
// Everything here is program-independent bookkeeping: quantiles, arrival
// schedules, outcome accounting, in-memory spans and their Chrome-trace
// export, and the result printer.  selftest.cpp checks the parts whose
// mistakes would silently skew a reported number.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

// --- Quantiles --------------------------------------------------------

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 for no samples.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

/// Samples strictly above the nearest-rank q-quantile's position.  A
/// percentile is reported as a gated number only when this is >= 10.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;  // >= 10 samples beyond p99
};

inline Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = quantile(samples, 0.50);
  s.p99 = quantile(samples, 0.99);
  s.p99_supported = samples_beyond(s.n, 0.99) >= 10;
  return s;
}

// --- Arrival schedules -------------------------------------------------

/// Poisson arrivals at `rate_rps` over [0, duration_ns): offsets in ns.
inline std::vector<std::uint64_t> poisson_schedule_ns(
    pslocal::Rng& rng, double rate_rps, std::uint64_t duration_ns) {
  std::vector<std::uint64_t> out;
  double t = 0.0;
  for (;;) {
    t += rng.next_exponential(rate_rps) * 1e9;
    if (t >= static_cast<double>(duration_ns)) return out;
    out.push_back(static_cast<std::uint64_t>(t));
  }
}

/// Bounded-Pareto gaps on [1, bound] with shape `alpha`, scaled so the
/// long-run rate is `rate_rps`: bursty inside, calibrated outside.
inline std::vector<std::uint64_t> pareto_schedule_ns(
    pslocal::Rng& rng, double rate_rps, double alpha, double bound,
    std::uint64_t duration_ns) {
  const double mean = (alpha / (alpha - 1.0)) *
                      (1.0 - std::pow(bound, 1.0 - alpha)) /
                      (1.0 - std::pow(bound, -alpha));
  const double scale_ns = (1e9 / rate_rps) / mean;
  const double ha = std::pow(bound, alpha);
  std::vector<std::uint64_t> out;
  double t = 0.0;
  for (;;) {
    // Inverse CDF of the bounded Pareto on [1, bound].
    const double u = rng.next_double();
    const double gap = std::pow(-(u * ha - u - ha) / ha, -1.0 / alpha);
    t += gap * scale_ns;
    if (t >= static_cast<double>(duration_ns)) return out;
    out.push_back(static_cast<std::uint64_t>(t));
  }
}

/// Zipf(s) over {0, ..., n-1}: CDF table + binary search.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, double s) {
    cdf_.reserve(n);
    double acc = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i), s);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }

  [[nodiscard]] std::size_t pick(pslocal::Rng& rng) const {
    const auto it =
        std::upper_bound(cdf_.begin(), cdf_.end(), rng.next_double());
    const auto idx = static_cast<std::size_t>(it - cdf_.begin());
    return idx < cdf_.size() ? idx : cdf_.size() - 1;
  }

 private:
  std::vector<double> cdf_;
};

/// Milliseconds from steady-clock stamp `from` to `to`.
inline double ms_between(std::uint64_t from, std::uint64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

/// Whole microseconds from `from` to `to`.
inline std::uint32_t us_between(std::uint64_t from, std::uint64_t to) {
  return static_cast<std::uint32_t>((to - from) / 1000);
}

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// --- Outcome accounting ------------------------------------------------

enum class Outcome : std::uint8_t {
  kOk,
  kShed,       // NACK(shed_retry_after): the QoS rate limit answering
  kQueueFull,  // NACK(queue_full)
  kRejected,   // kRejected response or NACK(shutdown)
  kError,      // kError response (the solver threw)
  kTransport,  // broken connection / protocol violation
  kTimeout,    // no answer within the per-request deadline
  kLost,       // sent, never resolved by the end of the run
};

/// Attempted/failed tally behind `failed_share`.  A shed of a
/// rate-limited tenant is the QoS contract working, so it is not a
/// failure; every other non-OK outcome is, sheds of unlimited tenants
/// included.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t limited_sheds = 0;

  void add(Outcome o, bool rate_limited_tenant) {
    ++attempted;
    if (o == Outcome::kOk) {
      ++ok;
    } else if (o == Outcome::kShed && rate_limited_tenant) {
      ++limited_sheds;
    } else {
      ++failed;
    }
  }

  void merge(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    limited_sheds += o.limited_sheds;
  }

  [[nodiscard]] double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// --- Spans ------------------------------------------------------------

/// One timed call, recorded by the benchmark around a call into the
/// program.  `parent` links a call to the span that caused it (0 = root).
struct Span {
  const char* name = "";
  const char* tag = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint32_t tid = 0;
  std::uint64_t request_id = 0;
};

inline std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Duration of `parent` minus the part of it covered by `children`
/// (their intervals clipped to the parent and merged).
inline std::uint64_t self_time_ns(const Span& parent,
                                  const std::vector<Span>& children) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const Span& c : children) {
    const std::uint64_t a = std::max(c.t0, parent.t0);
    const std::uint64_t b = std::min(c.t1, parent.t1);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return (parent.t1 - parent.t0) - covered;
}

/// Write spans as a Chrome-trace JSON array of complete ("X") events.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t base = ~std::uint64_t{0};
  for (const Span& s : spans) base = std::min(base, s.t0);
  out << "[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"span\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}%s\n",
                  s.name, s.tag, static_cast<double>(s.t0 - base) / 1e3,
                  static_cast<double>(s.t1 - s.t0) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request_id),
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// --- Result -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Print every metric by name and unit, then the one-line JSON result
/// as the last line of standard output.
inline void print_result(bool correct, std::uint64_t attempted,
                         std::uint64_t failed,
                         const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-44s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
