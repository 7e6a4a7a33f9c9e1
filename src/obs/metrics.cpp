#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#if PSLOCAL_OBS_ENABLED

#include <sys/mman.h>

#include <atomic>
#include <mutex>
#include <new>
#include <vector>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace pslocal::obs {

namespace {

// Fixed slot capacities: blocks must never reallocate, because the
// snapshot reader walks live blocks while their owner threads write.
// (Raised for the per-kind service.stage.* histograms, docs/tracing.md.)
constexpr std::size_t kMaxCounters = 256;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 128;

// One thread's private slots: plain integers, zero at birth, touched
// only through relaxed atomic_ref load/store — by the single owning
// writer, plus loads from the snapshot reader.  Each block is its own
// page-aligned anonymous mapping, which keeps writers off each other's
// cache lines ("padded slots") and costs resident memory only for the
// pages a thread writes: most threads touch a few metrics, and only a
// few histograms record exemplars.
struct ThreadBlock {
  struct Exemplar {
    std::uint64_t trace_id;
    std::uint64_t at_ns;
  };

  struct HistSlots {
    std::uint64_t count;
    std::uint64_t sum;
    std::uint64_t min;
    std::uint64_t max;
    std::array<std::uint64_t, HistogramSnapshot::kBuckets> buckets;
  };

  // Per-bucket ring of the most recent exemplar trace_ids.  The cursor
  // is owner-only.  A reader may pair a new trace_id with a stale at_ns
  // for one in-flight write — exemplars are diagnostics, recency
  // ordering tolerates that.
  struct ExemplarRing {
    std::array<std::array<Exemplar, HistogramSnapshot::kExemplarSlots>,
               HistogramSnapshot::kBuckets>
        slots;
    std::array<std::uint8_t, HistogramSnapshot::kBuckets> cursor;
  };

  std::array<std::uint64_t, kMaxCounters> counters;
  std::array<std::int64_t, kMaxGauges> gauges;
  std::array<HistSlots, kMaxHistograms> hists;
  std::array<ExemplarRing, kMaxHistograms> exemplars;
};

// A zero-filled block whose pages are backed on first write.  The type
// is trivial, so default-initializing placement new writes nothing.
ThreadBlock* map_block() {
  void* mem = mmap(nullptr, sizeof(ThreadBlock), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  PSL_CHECK_MSG(mem != MAP_FAILED, "obs: cannot map a per-thread block");
  return new (mem) ThreadBlock;
}

void unmap_block(ThreadBlock* block) { munmap(block, sizeof(ThreadBlock)); }

template <typename T>
T load(const T& slot) {
  return std::atomic_ref<T>(const_cast<T&>(slot))
      .load(std::memory_order_relaxed);
}

template <typename T>
void store(T& slot, T value) {
  std::atomic_ref<T>(slot).store(value, std::memory_order_relaxed);
}

// Single-writer increment: relaxed load + relaxed store, no RMW.
template <typename T>
void bump(T& slot, T n) {
  store(slot, static_cast<T>(load(slot) + n));
}

// Keep the kExemplarSlots newest exemplars of `have` ∪ `add` in `have`,
// newest first.  Ordering by (at_ns, trace_id) makes the merge
// commutative — the result is a max-K over a set, independent of the
// order threads are visited.
void merge_exemplars(
    std::array<HistogramSnapshot::Exemplar, HistogramSnapshot::kExemplarSlots>&
        have,
    const std::array<HistogramSnapshot::Exemplar,
                     HistogramSnapshot::kExemplarSlots>& add) {
  std::array<HistogramSnapshot::Exemplar,
             2 * HistogramSnapshot::kExemplarSlots>
      merged{};
  std::size_t n = 0;
  for (const auto& e : have)
    if (e.trace_id != 0) merged[n++] = e;
  for (const auto& e : add)
    if (e.trace_id != 0) merged[n++] = e;
  std::sort(merged.begin(), merged.begin() + n,
            [](const HistogramSnapshot::Exemplar& a,
               const HistogramSnapshot::Exemplar& b) {
              if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
              return a.trace_id > b.trace_id;
            });
  for (std::size_t i = 0; i < HistogramSnapshot::kExemplarSlots; ++i)
    have[i] = i < n ? merged[i] : HistogramSnapshot::Exemplar{};
}

class Registry {
 public:
  // Leaked singleton: worker threads (and their thread-local block
  // destructors) may outlive any static destruction order we could
  // arrange, so the registry simply never dies.
  static Registry& instance() {
    static Registry* r = new Registry();
    return *r;
  }

  std::uint32_t register_counter(const char* name) {
    return register_in(counter_names_, name, kMaxCounters, "counter");
  }
  std::uint32_t register_gauge(const char* name) {
    return register_in(gauge_names_, name, kMaxGauges, "gauge");
  }
  std::uint32_t register_histogram(const char* name) {
    return register_in(hist_names_, name, kMaxHistograms, "histogram");
  }

  void attach(ThreadBlock* block) {
    std::lock_guard<std::mutex> lk(mu_);
    live_.push_back(block);
  }

  // Fold an exiting thread's block into the retired totals, so counts
  // survive worker-pool resizes and thread churn.
  void retire(ThreadBlock* block) {
    std::lock_guard<std::mutex> lk(mu_);
    merge_block(*block, retired_);
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (*it == block) {
        live_.erase(it);
        break;
      }
    }
    unmap_block(block);
  }

  Snapshot snapshot() {
    std::lock_guard<std::mutex> lk(mu_);
    Totals totals = retired_;
    for (ThreadBlock* b : live_) merge_block(*b, totals);
    Snapshot snap;
    for (std::size_t i = 0; i < counter_names_.size(); ++i)
      snap.counters[counter_names_[i]] = totals.counters[i];
    for (std::size_t i = 0; i < gauge_names_.size(); ++i)
      snap.gauges[gauge_names_[i]] = totals.gauges[i];
    for (std::size_t i = 0; i < hist_names_.size(); ++i)
      snap.histograms[hist_names_[i]] = totals.hists[i];
    return snap;
  }

 private:
  struct Totals {
    std::array<std::uint64_t, kMaxCounters> counters{};
    std::array<std::int64_t, kMaxGauges> gauges{};
    std::array<HistogramSnapshot, kMaxHistograms> hists{};
  };

  std::uint32_t register_in(std::vector<std::string>& names, const char* name,
                            std::size_t cap, const char* kind) {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == name) return static_cast<std::uint32_t>(i);
    PSL_CHECK_MSG(names.size() < cap,
                  "obs: too many distinct " << kind << " names (cap " << cap
                                            << ") registering " << name);
    names.emplace_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
  }

  // All merge ops are commutative (sum / min / max / newest-K), so
  // totals are independent of the order in which threads ran or retired.
  static void merge_block(const ThreadBlock& b, Totals& t) {
    for (std::size_t i = 0; i < kMaxCounters; ++i)
      t.counters[i] += load(b.counters[i]);
    for (std::size_t i = 0; i < kMaxGauges; ++i)
      t.gauges[i] += load(b.gauges[i]);
    for (std::size_t i = 0; i < kMaxHistograms; ++i) {
      const auto& h = b.hists[i];
      const std::uint64_t count = load(h.count);
      if (count == 0) continue;
      auto& out = t.hists[i];
      const std::uint64_t mn = load(h.min);
      const std::uint64_t mx = load(h.max);
      out.min = out.count == 0 ? mn : std::min(out.min, mn);
      out.max = out.count == 0 ? mx : std::max(out.max, mx);
      out.count += count;
      out.sum += load(h.sum);
      for (std::size_t k = 0; k < HistogramSnapshot::kBuckets; ++k) {
        out.buckets[k] += load(h.buckets[k]);
        std::array<HistogramSnapshot::Exemplar,
                   HistogramSnapshot::kExemplarSlots>
            theirs{};
        bool any = false;
        for (std::size_t s = 0; s < HistogramSnapshot::kExemplarSlots; ++s) {
          const auto& slot = b.exemplars[i].slots[k][s];
          theirs[s].trace_id = load(slot.trace_id);
          theirs[s].at_ns = load(slot.at_ns);
          any = any || theirs[s].trace_id != 0;
        }
        if (any) merge_exemplars(out.exemplars[k], theirs);
      }
    }
  }

  std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  std::vector<ThreadBlock*> live_;
  Totals retired_;
};

// Thread-local block, attached on first metric touch and folded into
// the retired totals when the thread exits.
struct BlockHolder {
  ThreadBlock* block;
  BlockHolder() : block(map_block()) { Registry::instance().attach(block); }
  ~BlockHolder() { Registry::instance().retire(block); }
};

ThreadBlock& local_block() {
  thread_local BlockHolder holder;
  return *holder.block;
}

}  // namespace

Counter::Counter(const char* name)
    : id_(Registry::instance().register_counter(name)) {}

void Counter::add(std::uint64_t n) const {
  bump(local_block().counters[id_], n);
}

Gauge::Gauge(const char* name)
    : id_(Registry::instance().register_gauge(name)) {}

void Gauge::add(std::int64_t delta) const {
  bump(local_block().gauges[id_], delta);
}

Histogram::Histogram(const char* name)
    : id_(Registry::instance().register_histogram(name)) {}

void Histogram::record(std::uint64_t value) const { record(value, 0); }

void Histogram::record(std::uint64_t value,
                       std::uint64_t exemplar_trace_id) const {
  ThreadBlock& block = local_block();
  auto& h = block.hists[id_];
  const std::uint64_t count = load(h.count);
  if (count == 0) {
    store(h.min, value);
    store(h.max, value);
  } else {
    if (value < load(h.min)) store(h.min, value);
    if (value > load(h.max)) store(h.max, value);
  }
  store(h.count, count + 1);
  bump(h.sum, value);
  const std::size_t bucket = histogram_bucket(value);
  bump(h.buckets[bucket], std::uint64_t{1});
  if (exemplar_trace_id != 0) {
    auto& ring = block.exemplars[id_];
    const std::uint8_t cur = ring.cursor[bucket];
    auto& slot = ring.slots[bucket][cur];
    store(slot.trace_id, exemplar_trace_id);
    store(slot.at_ns, now_ns());
    ring.cursor[bucket] = static_cast<std::uint8_t>(
        (cur + 1) % HistogramSnapshot::kExemplarSlots);
  }
}

Snapshot snapshot() { return Registry::instance().snapshot(); }

}  // namespace pslocal::obs

#endif  // PSLOCAL_OBS_ENABLED

// snapshot_json exists in both OBS modes: the stats wire request kind
// still answers (with an empty snapshot) when instrumentation is
// compiled out.
namespace pslocal::obs {

namespace {

void append_hex64_quoted(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", v);
  out += buf;
}

// Metric names are identifier-like ([a-z0-9._]); escape the two JSON
// metacharacters defensively anyway.
void append_name(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string snapshot_json(const Snapshot& snap) {
  std::string out;
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ',';
    first = false;
    append_name(out, name);
    out += ':';
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    append_name(out, name);
    out += ':';
    out += std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    append_name(out, name);
    out += ":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += std::to_string(h.sum);
    out += ",\"min\":";
    out += std::to_string(h.min);
    out += ",\"max\":";
    out += std::to_string(h.max);
    out += ",\"p50\":";
    out += std::to_string(h.value_at_quantile(0.5));
    out += ",\"p99\":";
    out += std::to_string(h.value_at_quantile(0.99));
    out += ",\"buckets\":[";
    bool first_b = true;
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_b) out += ',';
      first_b = false;
      out += '[';
      out += std::to_string(histogram_bucket_upper(b));
      out += ',';
      out += std::to_string(h.buckets[b]);
      out += ']';
    }
    out += "],\"exemplars\":[";
    bool first_e = true;
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      bool any = false;
      for (const auto& e : h.exemplars[b]) any = any || e.trace_id != 0;
      if (!any) continue;
      if (!first_e) out += ',';
      first_e = false;
      out += '[';
      out += std::to_string(histogram_bucket_upper(b));
      for (const auto& e : h.exemplars[b]) {
        if (e.trace_id == 0) continue;
        out += ',';
        append_hex64_quoted(out, e.trace_id);
      }
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace pslocal::obs
