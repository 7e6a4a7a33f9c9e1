// Process-wide metric registries: named counters, gauges and
// log-bucketed histograms.
//
// Design (docs/observability.md has the full walkthrough):
//
//  * A handle (Counter / Gauge / Histogram) resolves its name to a small
//    id in a process-global registry; handles with the same name share
//    the id, so static handles in different translation units (or
//    template instantiations) aggregate into one metric.
//  * Every thread owns one page-aligned block of slots, mapped on first
//    use and registered with the registry; pages the thread never
//    writes stay unbacked.  The hot path is a relaxed load + relaxed
//    store on the calling thread's own slot — no atomic RMW, no lock,
//    no shared cache line between writers.  (Relaxed atomic_ref access
//    instead of plain reads and writes purely so the snapshot reader is
//    race-free; each slot has exactly one writer.)
//  * snapshot() merges the retired totals of exited threads with the
//    live blocks under the registry mutex.  All merge operations are
//    commutative (sum / min / max), so the merged values are
//    deterministic regardless of thread scheduling.
//  * Histograms are log2-bucketed: bucket b counts values whose
//    bit_width is b, i.e. bucket 0 holds {0}, bucket b>=1 holds
//    [2^(b-1), 2^b).  Count / sum / min / max ride along exactly.
//
// With PSLOCAL_OBS_ENABLED=0 (cmake -DPSLOCAL_OBS=OFF) every type in
// this header becomes an empty stub and all call sites compile to
// nothing; snapshot() returns an empty Snapshot.
#pragma once

#ifndef PSLOCAL_OBS_ENABLED
#define PSLOCAL_OBS_ENABLED 1
#endif

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace pslocal::obs {

inline constexpr bool kEnabled = PSLOCAL_OBS_ENABLED != 0;

/// log2 bucket of a value: 0 -> 0, v -> bit_width(v) otherwise.
[[nodiscard]] constexpr std::size_t histogram_bucket(std::uint64_t v) {
  std::size_t b = 0;
  while (v != 0) {
    v >>= 1;
    ++b;
  }
  return b;
}

/// Inclusive upper bound of bucket b (2^b - 1; bucket 0 holds only 0).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_upper(std::size_t b) {
  return b == 0 ? 0 : (b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1);
}

/// Merged view of one histogram (see bucket convention above).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 64;
  /// Tail exemplars: each bucket keeps the kExemplarSlots most recent
  /// non-zero trace_ids recorded into it, so a p99 bucket links
  /// directly to a scrapeable trace (docs/tracing.md).
  static constexpr std::size_t kExemplarSlots = 2;
  struct Exemplar {
    std::uint64_t trace_id = 0;  // 0 == empty slot
    std::uint64_t at_ns = 0;     // recording time, for recency merges
  };

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};
  /// Per bucket, newest first; empty slots have trace_id == 0.
  std::array<std::array<Exemplar, kExemplarSlots>, kBuckets> exemplars{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper bound of the bucket holding the q-quantile (0 <= q <= 1) —
  /// e.g. value_at_quantile(0.99) is a p99 with log2 resolution, the
  /// precision the buckets can support.  0 when the histogram is empty.
  [[nodiscard]] std::uint64_t value_at_quantile(double q) const {
    if (count == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the quantile observation, 1-based ceiling (q = 0 -> first).
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += buckets[b];
      if (seen >= rank && seen > 0) {
        const std::uint64_t upper = histogram_bucket_upper(b);
        return upper < max ? upper : max;
      }
    }
    return max;
  }
};

/// One deterministic, merged view of every registered metric.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Value of a counter, 0 when absent (absent == never incremented).
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  [[nodiscard]] std::int64_t gauge(const std::string& name) const {
    const auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }

  [[nodiscard]] HistogramSnapshot histogram(const std::string& name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? HistogramSnapshot{} : it->second;
  }
};

/// Canonical single-line JSON for a Snapshot, served over the wire by
/// the `stats` request kind (docs/tracing.md).  Key order is
/// byte-deterministic: metric names sorted (std::map), fixed field
/// order inside each histogram.  Exemplar trace_ids are hex64 strings.
/// Available in both OBS modes (OFF serializes the empty snapshot).
[[nodiscard]] std::string snapshot_json(const Snapshot& snap);

#if PSLOCAL_OBS_ENABLED

/// Monotone event count, merged by sum.  Cheap enough for per-chunk and
/// per-ball-query call sites; hoist the handle out of inner loops.
class Counter {
 public:
  explicit Counter(const char* name);
  void add(std::uint64_t n = 1) const;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// Signed level, merged by summing per-thread contributions (pair the
/// add(+d) with an add(-d) on the SAME thread, like a resource count).
class Gauge {
 public:
  explicit Gauge(const char* name);
  void add(std::int64_t delta) const;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// Log2-bucketed value distribution (see header comment).
class Histogram {
 public:
  explicit Histogram(const char* name);
  void record(std::uint64_t value) const;
  /// Record a value and, when exemplar_trace_id != 0, remember it as a
  /// tail exemplar for the value's bucket.
  void record(std::uint64_t value, std::uint64_t exemplar_trace_id) const;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// Deterministic merged view of all metrics (commutative merges only).
[[nodiscard]] Snapshot snapshot();

#else  // PSLOCAL_OBS_ENABLED == 0: every handle is an empty no-op stub.

class Counter {
 public:
  explicit constexpr Counter(const char*) {}
  void add(std::uint64_t = 1) const {}
  [[nodiscard]] std::uint32_t id() const { return 0; }
};

class Gauge {
 public:
  explicit constexpr Gauge(const char*) {}
  void add(std::int64_t) const {}
  [[nodiscard]] std::uint32_t id() const { return 0; }
};

class Histogram {
 public:
  explicit constexpr Histogram(const char*) {}
  void record(std::uint64_t) const {}
  void record(std::uint64_t, std::uint64_t) const {}
  [[nodiscard]] std::uint32_t id() const { return 0; }
};

[[nodiscard]] inline Snapshot snapshot() { return {}; }

#endif  // PSLOCAL_OBS_ENABLED

}  // namespace pslocal::obs
