// src/obs/: metric registries, histogram bucketing, span tracing.
//
// The trace test is the in-tree equivalent of the acceptance check
// `bench_local_simulation --trace-out=trace.json`: it records a session
// across several threads, then parses the file with util/json and
// validates the Chrome trace-event invariants — a well-formed JSON
// array, monotone `ts` within each `tid`, and balanced B/E pairs.
#include "obs/obs.hpp"

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "local/luby_mis.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pslocal {
namespace {

#if PSLOCAL_OBS_ENABLED

// Runs body(i) for every i in [0, n) on `threads` threads, thread t
// taking every threads-th index from t, and joins them.
template <typename Body>
void on_threads(std::size_t threads, std::size_t n, const Body& body) {
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&body, t, threads, n] {
      for (std::size_t i = t; i < n; i += threads) body(i);
    });
  for (auto& w : workers) w.join();
}

TEST(ObsMetricsTest, CounterAggregatesAcrossPoolThreads) {
  obs::Counter c("obs_test.counter_agg");
  const std::uint64_t before = obs::snapshot().counter("obs_test.counter_agg");
  on_threads(4, 10000, [&](std::size_t) { c.add(1); });
  EXPECT_EQ(obs::snapshot().counter("obs_test.counter_agg") - before, 10000u);
}

TEST(ObsMetricsTest, HandlesWithSameNameShareOneMetric) {
  obs::Counter a("obs_test.shared");
  obs::Counter b("obs_test.shared");
  EXPECT_EQ(a.id(), b.id());
  const std::uint64_t before = obs::snapshot().counter("obs_test.shared");
  a.add(2);
  b.add(3);
  EXPECT_EQ(obs::snapshot().counter("obs_test.shared") - before, 5u);
}

TEST(ObsMetricsTest, GaugeSumsSignedDeltas) {
  obs::Gauge g("obs_test.gauge");
  const std::int64_t before = obs::snapshot().gauge("obs_test.gauge");
  g.add(10);
  g.add(-3);
  EXPECT_EQ(obs::snapshot().gauge("obs_test.gauge") - before, 7);
}

TEST(ObsMetricsTest, HistogramBucketsByLog2) {
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 1u);
  EXPECT_EQ(obs::histogram_bucket(2), 2u);
  EXPECT_EQ(obs::histogram_bucket(3), 2u);
  EXPECT_EQ(obs::histogram_bucket(4), 3u);
  EXPECT_EQ(obs::histogram_bucket(1023), 10u);
  EXPECT_EQ(obs::histogram_bucket(1024), 11u);
  EXPECT_EQ(obs::histogram_bucket_upper(0), 0u);
  EXPECT_EQ(obs::histogram_bucket_upper(1), 1u);
  EXPECT_EQ(obs::histogram_bucket_upper(10), 1023u);

  obs::Histogram h("obs_test.hist");
  for (std::uint64_t v : {0ull, 1ull, 3ull, 3ull, 8ull, 1000ull}) h.record(v);
  const auto snap = obs::snapshot().histogram("obs_test.hist");
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 1015u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.buckets[0], 1u);  // {0}
  EXPECT_EQ(snap.buckets[1], 1u);  // {1}
  EXPECT_EQ(snap.buckets[2], 2u);  // {2,3}
  EXPECT_EQ(snap.buckets[4], 1u);  // [8,15]
  EXPECT_EQ(snap.buckets[10], 1u);  // [512,1023]
  EXPECT_DOUBLE_EQ(snap.mean(), 1015.0 / 6.0);
}

TEST(ObsMetricsTest, HistogramQuantilesHaveLog2Resolution) {
  obs::HistogramSnapshot empty;
  EXPECT_EQ(empty.value_at_quantile(0.5), 0u);

  obs::Histogram h("obs_test.hist_quantiles");
  // 90 fast observations in [8,15], 10 slow ones in [1024,2047].
  for (int i = 0; i < 90; ++i) h.record(10);
  for (int i = 0; i < 10; ++i) h.record(1500);
  const auto snap = obs::snapshot().histogram("obs_test.hist_quantiles");
  // p50 lands in the fast bucket, p99 in the slow one; both report the
  // bucket's inclusive upper bound (clamped to the observed max).
  EXPECT_EQ(snap.value_at_quantile(0.50), 15u);
  EXPECT_EQ(snap.value_at_quantile(0.89), 15u);
  EXPECT_EQ(snap.value_at_quantile(0.99), 1500u);  // clamped to max
  EXPECT_EQ(snap.value_at_quantile(1.0), 1500u);
  EXPECT_EQ(snap.value_at_quantile(0.0), 15u);  // rank 0 -> first bucket
}

TEST(ObsMetricsTest, QuantileEdgeCases) {
  // Empty histogram: every quantile (including out-of-range q) is 0.
  obs::HistogramSnapshot empty;
  EXPECT_EQ(empty.value_at_quantile(0.0), 0u);
  EXPECT_EQ(empty.value_at_quantile(1.0), 0u);
  EXPECT_EQ(empty.value_at_quantile(-1.0), 0u);
  EXPECT_EQ(empty.value_at_quantile(2.0), 0u);

  // A single observation is every quantile, clamped to the observed
  // max rather than its bucket's upper bound (100 lives in [64,127]).
  obs::Histogram one("obs_test.quant_single");
  one.record(100);
  const auto single = obs::snapshot().histogram("obs_test.quant_single");
  EXPECT_EQ(single.value_at_quantile(0.0), 100u);
  EXPECT_EQ(single.value_at_quantile(0.5), 100u);
  EXPECT_EQ(single.value_at_quantile(1.0), 100u);

  // All mass in one bucket: quantiles collapse to that bucket,
  // clamped to max.
  obs::Histogram flat("obs_test.quant_flat");
  for (int i = 0; i < 100; ++i) flat.record(10);
  const auto uni = obs::snapshot().histogram("obs_test.quant_flat");
  EXPECT_EQ(uni.value_at_quantile(0.01), 10u);
  EXPECT_EQ(uni.value_at_quantile(0.99), 10u);

  // q outside [0,1] clamps instead of reading past the buckets.
  EXPECT_EQ(uni.value_at_quantile(-0.5), uni.value_at_quantile(0.0));
  EXPECT_EQ(uni.value_at_quantile(1.5), uni.max);

  // Bucket-0 only (all-zero observations): quantile is bucket 0's
  // upper bound, which is 0.
  obs::Histogram zeros("obs_test.quant_zeros");
  for (int i = 0; i < 5; ++i) zeros.record(0);
  EXPECT_EQ(obs::snapshot().histogram("obs_test.quant_zeros")
                .value_at_quantile(0.5),
            0u);
}

TEST(ObsMetricsTest, ExemplarsKeepNewestPerBucket) {
  obs::Histogram h("obs_test.exemplars");
  // Three exemplar-carrying records land in bucket 4 ([8,15]); the
  // ring keeps only the kExemplarSlots == 2 newest, newest first.
  h.record(10, 0xA1);
  h.record(11, 0xA2);
  h.record(12, 0xA3);
  // trace_id 0 means "no exemplar" — must not evict anything.
  h.record(13, 0);
  // A different bucket keeps its own slots.
  h.record(1500, 0xB1);

  const auto snap = obs::snapshot().histogram("obs_test.exemplars");
  ASSERT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.exemplars[4][0].trace_id, 0xA3u);
  EXPECT_EQ(snap.exemplars[4][1].trace_id, 0xA2u);
  EXPECT_EQ(snap.exemplars[11][0].trace_id, 0xB1u);
  EXPECT_EQ(snap.exemplars[11][1].trace_id, 0u);  // empty slot
  // Newest-first within a bucket.
  EXPECT_GE(snap.exemplars[4][0].at_ns, snap.exemplars[4][1].at_ns);

  // Exemplar-free histograms stay exemplar-free.
  obs::Histogram plain("obs_test.exemplars_none");
  plain.record(10);
  plain.record(10, 0);
  const auto none = obs::snapshot().histogram("obs_test.exemplars_none");
  for (const auto& bucket : none.exemplars)
    for (const auto& e : bucket) EXPECT_EQ(e.trace_id, 0u);
}

TEST(ObsMetricsTest, ExemplarMergeKeepsNewestAcrossThreads) {
  obs::Histogram h("obs_test.exemplars_mt");
  // 64 exemplar-carrying records into one bucket from four threads; the
  // snapshot's max-K-by-recency merge must surface exactly
  // kExemplarSlots of the recorded ids, newest first.
  on_threads(4, 64, [&](std::size_t i) { h.record(10, 0x1000 + i); });
  const auto snap = obs::snapshot().histogram("obs_test.exemplars_mt");
  EXPECT_EQ(snap.count, 64u);
  const auto& slots = snap.exemplars[4];
  for (const auto& e : slots) {
    EXPECT_GE(e.trace_id, 0x1000u);
    EXPECT_LT(e.trace_id, 0x1040u);
  }
  EXPECT_NE(slots[0].trace_id, slots[1].trace_id);
  EXPECT_GE(slots[0].at_ns, slots[1].at_ns);
}

TEST(ObsMetricsTest, SnapshotJsonGoldenBytes) {
  // Pins the wire stats payload byte-for-byte: sorted metric names,
  // fixed field order, sparse [upper,count] buckets, hex64 exemplars.
  obs::Snapshot s;
  s.counters["b.count"] = 2;
  s.counters["a.count"] = 1;  // std::map orders a before b
  s.gauges["g"] = -3;
  obs::HistogramSnapshot h;
  h.count = 3;
  h.sum = 21;
  h.min = 1;
  h.max = 10;
  h.buckets[1] = 1;
  h.buckets[4] = 2;
  h.exemplars[4][0] = {0xabc, 200};
  h.exemplars[4][1] = {0x123, 100};
  s.histograms["h"] = h;

  EXPECT_EQ(obs::snapshot_json(s),
            "{\"counters\":{\"a.count\":1,\"b.count\":2},"
            "\"gauges\":{\"g\":-3},"
            "\"histograms\":{\"h\":{\"count\":3,\"sum\":21,\"min\":1,"
            "\"max\":10,\"p50\":10,\"p99\":10,"
            "\"buckets\":[[1,1],[15,2]],"
            "\"exemplars\":[[15,\"0x0000000000000abc\","
            "\"0x0000000000000123\"]]}}}");

  // The payload must parse back with util/json and round-trip the
  // numbers.
  const auto doc = json::parse(obs::snapshot_json(s));
  EXPECT_EQ(doc.at("counters").at("a.count").as_number(), 1.0);
  EXPECT_EQ(doc.at("histograms").at("h").at("p99").as_number(), 10.0);
}

TEST(ObsMetricsTest, SnapshotJsonByteDeterministicAcrossThreadCounts) {
  // The same multiset of observations recorded under different thread
  // counts must serialize to identical bytes — the merge is
  // commutative and the key order fixed, so thread scheduling can
  // never leak into the scraped payload.
  const auto run = [](const char* name, std::size_t threads) {
    obs::Histogram h(name);
    on_threads(threads, 64, [&](std::size_t i) {
      // Exactly one record carries an exemplar so the newest-K merge
      // has a schedule-independent answer.
      h.record(i + 1, i == 41 ? 0x41u : 0u);
    });
    return obs::snapshot().histogram(name);
  };
  obs::Snapshot a;
  a.histograms["h"] = run("obs_test.det_t1", 1);
  obs::Snapshot b;
  b.histograms["h"] = run("obs_test.det_t4", 4);
  EXPECT_EQ(obs::snapshot_json(a), obs::snapshot_json(b));
}

TEST(ObsMetricsTest, HistogramMergesMinMaxAcrossThreads) {
  obs::Histogram h("obs_test.hist_threads");
  // Values 1..64, spread over four threads.
  on_threads(4, 64, [&](std::size_t i) { h.record(i + 1); });
  const auto snap = obs::snapshot().histogram("obs_test.hist_threads");
  EXPECT_EQ(snap.count, 64u);
  EXPECT_EQ(snap.sum, 64u * 65u / 2u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 64u);
}

class ObsTraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Never leak an active session into later tests.
    obs::finish_tracing();
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }
};

TEST_F(ObsTraceTest, InactiveSessionIsNoop) {
  EXPECT_FALSE(obs::tracing_active());
  { PSL_OBS_SPAN("obs_test.noop"); }
  EXPECT_EQ(obs::finish_tracing(), "");
}

TEST_F(ObsTraceTest, EmitsValidBalancedMonotoneChromeTrace) {
  const std::string path = temp_path("obs_trace.json");
  obs::start_tracing(path);
  EXPECT_TRUE(obs::tracing_active());
  {
    PSL_OBS_SPAN("outer");
    {
      PSL_OBS_SPAN("inner");
    }
    // Spans on other threads land in per-thread buffers.
    on_threads(4, 64, [](std::size_t) { PSL_OBS_SPAN("chunk"); });
    // Real workload: a traced Luby-MIS run (local.round/emit/step spans).
    Rng rng(7);
    const Graph g = gnp(200, 0.05, rng);
    (void)luby_mis(g, 7, /*max_rounds=*/0);
  }
  ASSERT_EQ(obs::finish_tracing(), path);
  EXPECT_FALSE(obs::tracing_active());

  const auto doc = json::parse_file(path);
  ASSERT_TRUE(doc.is_array());
  ASSERT_GT(doc.as_array().size(), 4u);

  std::map<int, double> last_ts;
  std::map<int, std::vector<std::string>> stacks;
  bool saw_local_span = false;
  for (const auto& event : doc.as_array()) {
    ASSERT_TRUE(event.is_object());
    const std::string name = event.at("name").as_string();
    const std::string ph = event.at("ph").as_string();
    const int tid = static_cast<int>(event.at("tid").as_number());
    const double ts = event.at("ts").as_number();
    EXPECT_FALSE(name.empty());
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "M");
    if (ph == "M") {  // track-name metadata, outside the span nesting
      EXPECT_EQ(event.at("cat").as_string(), "__metadata");
      continue;
    }
    // Monotone ts within each tid.
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]);
    }
    last_ts[tid] = ts;
    // Balanced, properly nested B/E.
    if (ph == "B") {
      stacks[tid].push_back(name);
    } else {
      ASSERT_FALSE(stacks[tid].empty());
      EXPECT_EQ(stacks[tid].back(), name);
      stacks[tid].pop_back();
    }
    if (name.rfind("local.", 0) == 0) saw_local_span = true;
  }
  for (const auto& [tid, stack] : stacks) EXPECT_TRUE(stack.empty());
  EXPECT_EQ(stacks.size(), 5u);  // this thread and the four others
  EXPECT_TRUE(saw_local_span);
  std::remove(path.c_str());
}

TEST_F(ObsTraceTest, BalancesSpansLeftOpenAtFinish) {
  const std::string path = temp_path("obs_trace_unbalanced.json");
  obs::start_tracing(path);
  auto* leaked = new obs::ScopedSpan("leaked");
  ASSERT_EQ(obs::finish_tracing(), path);
  delete leaked;  // E lands after the session; writer already balanced it

  const auto doc = json::parse_file(path);
  std::map<int, int> depth;
  for (const auto& event : doc.as_array()) {
    const int tid = static_cast<int>(event.at("tid").as_number());
    if (event.at("ph").as_string() == "B")
      ++depth[tid];
    else
      --depth[tid];
    EXPECT_GE(depth[tid], 0);
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0);
  std::remove(path.c_str());
}

TEST_F(ObsTraceTest, SpansCarryAdoptedTraceContextAndThreadLabels) {
  // Ambient context is empty outside any adoption.
  EXPECT_EQ(obs::current_trace_context().trace_id, 0u);

  const std::string path = temp_path("obs_trace_ctx.json");
  obs::start_tracing(path);
  obs::set_thread_label("obs_test.labeled");
  {
    // Adopt a wire context (trace 0xabc, parent span 7), as a server
    // io loop does for an incoming frame; spans opened underneath
    // inherit the trace id and chain parent_span_id correctly.
    obs::ScopedTraceContext ctx(0xabc, 7);
    EXPECT_EQ(obs::current_trace_context().trace_id, 0xabcu);
    PSL_OBS_SPAN("obs_test.ctx_outer");
    {
      PSL_OBS_SPAN("obs_test.ctx_inner");
    }
  }
  EXPECT_EQ(obs::current_trace_context().trace_id, 0u);  // restored
  ASSERT_EQ(obs::finish_tracing(), path);

  const auto doc = json::parse_file(path);
  std::string outer_span_id;
  std::string inner_parent;
  bool saw_label = false;
  for (const auto& event : doc.as_array()) {
    const std::string ph = event.at("ph").as_string();
    const std::string name = event.at("name").as_string();
    if (ph == "M") {
      saw_label = saw_label ||
                  (name == "thread_name" &&
                   event.at("args").at("name").as_string() ==
                       "obs_test.labeled");
      continue;
    }
    if (ph != "B") continue;
    ASSERT_TRUE(event.has("args")) << name;
    const auto& args = event.at("args");
    EXPECT_EQ(args.at("trace_id").as_string(), "0x0000000000000abc");
    if (name == "obs_test.ctx_outer") {
      EXPECT_EQ(args.at("parent_span_id").as_string(),
                "0x0000000000000007");
      outer_span_id = args.at("span_id").as_string();
    } else if (name == "obs_test.ctx_inner") {
      inner_parent = args.at("parent_span_id").as_string();
    }
  }
  EXPECT_TRUE(saw_label);
  ASSERT_FALSE(outer_span_id.empty());
  EXPECT_NE(outer_span_id, "0x0000000000000000");
  EXPECT_EQ(inner_parent, outer_span_id);  // child chains to parent
  std::remove(path.c_str());
}

TEST_F(ObsTraceTest, NewTraceIdsAreUniqueAndNonZero) {
  std::uint64_t a = obs::new_trace_id();
  std::uint64_t b = obs::new_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

#else  // PSLOCAL_OBS_ENABLED == 0

TEST(ObsDisabledTest, EverythingIsCompiledOut) {
  EXPECT_FALSE(obs::kEnabled);
  obs::Counter c("obs_test.disabled");
  c.add(5);
  obs::Histogram h("obs_test.disabled_hist");
  h.record(7);
  h.record(7, /*exemplar_trace_id=*/0xabc);
  { PSL_OBS_SPAN("obs_test.disabled_span"); }
  const auto snap = obs::snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_FALSE(obs::tracing_active());
  obs::start_tracing("ignored.json");
  EXPECT_EQ(obs::finish_tracing(), "");
  // Trace-context stubs: adoption compiles, ambient stays zero.
  obs::ScopedTraceContext ctx(0xabc, 7);
  EXPECT_EQ(obs::current_trace_context().trace_id, 0u);
  EXPECT_EQ(obs::new_trace_id(), 0u);
  // The stats payload serializer still answers — with the empty maps —
  // so the wire `stats` kind works in OBS=OFF builds (docs/tracing.md).
  EXPECT_EQ(obs::snapshot_json(snap),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

#endif  // PSLOCAL_OBS_ENABLED

}  // namespace
}  // namespace pslocal
