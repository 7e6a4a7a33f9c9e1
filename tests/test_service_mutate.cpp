// mutate_hypergraph end-to-end: payload purity (sessions and caches are
// pure accelerations), session resume byte-identity, thread-count
// independence, the kQueueFull mid-script purity pin, and eviction churn
// over tiny caches.
#include <gtest/gtest.h>

#include <vector>

#include "qc/fault.hpp"
#include "runtime/thread_pool.hpp"
#include "service/engine.hpp"
#include "service/session.hpp"
#include "service/workload.hpp"
#include "util/hash.hpp"

namespace pslocal::service {
namespace {

std::shared_ptr<const Hypergraph> base_instance() {
  return std::make_shared<const Hypergraph>(
      Hypergraph(8, {{0, 1, 2}, {2, 3}, {3, 4, 5}, {5, 6, 7}, {0, 7}}));
}

Request mutate_request(std::shared_ptr<const Hypergraph> inst,
                       std::vector<Mutation> script,
                       const std::string& solver = "greedy-mindeg",
                       std::uint64_t seed = 1) {
  Request req;
  req.kind = RequestKind::kMutateHypergraph;
  req.instance_hash = hash_hypergraph(*inst);
  req.instance = std::move(inst);
  req.k = 2;
  req.seed = seed;
  req.solver = solver;
  req.script = std::move(script);
  return req;
}

std::vector<Mutation> sample_script() {
  return {Mutation::add_edge({1, 4}), Mutation::remove_edge(0),
          Mutation::add_vertex(), Mutation::remove_vertex(3)};
}

TraceParams mutate_trace_params() {
  TraceParams tp;
  tp.seed = 11;
  tp.requests = 40;
  tp.instance_pool = 3;
  tp.n = 24;
  tp.m = 18;
  tp.k = 2;
  tp.weight_mutate = 30;  // mutation-heavy mix alongside the other kinds
  return tp;
}

std::vector<ReplayEntry> serve_all(const Trace& trace,
                                   const EngineConfig& cfg) {
  ServiceEngine engine(cfg);
  engine.start();
  std::vector<ReplayEntry> entries;
  entries.reserve(trace.requests.size());
  for (const auto& req : trace.requests) {
    auto sub = engine.submit(req);
    EXPECT_EQ(sub.admission, Admission::kAccepted);
    const Response resp = sub.response.get();
    EXPECT_EQ(resp.status, Response::Status::kOk) << resp.reason;
    entries.push_back({resp.id, resp.key, resp.result});
  }
  return entries;
}

TEST(ServiceMutateTest, PayloadMatchesBareExecution) {
  // The engine adds queueing, caching, and sessions around
  // execute_request; none of that may leak into the payload bytes.
  for (const char* solver : {"greedy-mindeg", "luby", "dpll"}) {
    const Request req = mutate_request(base_instance(), sample_script(),
                                       solver);
    runtime::ThreadPool seq(1);
    const std::string bare = execute_request(req, seq);

    ServiceEngine engine{EngineConfig{}};
    engine.start();
    auto sub = engine.submit(req);
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    const Response resp = sub.response.get();
    ASSERT_EQ(resp.status, Response::Status::kOk) << resp.reason;
    EXPECT_EQ(resp.result, bare) << "solver " << solver;
  }
}

TEST(ServiceMutateTest, PayloadsIdenticalAcrossThreadCounts) {
  const Trace trace = generate_trace(mutate_trace_params());
  runtime::ThreadPool seq(1), par(4);
  EngineConfig cfg_seq;
  cfg_seq.scheduler = &seq;
  EngineConfig cfg_par;
  cfg_par.scheduler = &par;
  const auto verdict =
      verify_replay(serve_all(trace, cfg_seq), serve_all(trace, cfg_par));
  EXPECT_TRUE(verdict.identical)
      << verdict.mismatches << " mismatches, first id "
      << verdict.first_mismatch_id;
}

TEST(ServiceMutateTest, SessionResumeReproducesColdBytes) {
  const auto inst = base_instance();
  const auto script = sample_script();
  const Request prefix = mutate_request(
      inst, {script.begin(), script.begin() + 2});
  const Request full = mutate_request(inst, script);

  // Warm engine: serving the prefix stores its end state; the full
  // script must resume from that epoch instead of replaying from the
  // base — and still produce the cold engine's bytes.
  ServiceEngine warm{EngineConfig{}};
  warm.start();
  auto sub_prefix = warm.submit(prefix);
  ASSERT_EQ(sub_prefix.admission, Admission::kAccepted);
  (void)sub_prefix.response.get();
  auto sub_full = warm.submit(full);
  ASSERT_EQ(sub_full.admission, Admission::kAccepted);
  const Response warm_resp = sub_full.response.get();
  ASSERT_EQ(warm_resp.status, Response::Status::kOk) << warm_resp.reason;
  EXPECT_GE(warm.stats().sessions.hits, 1u);
  EXPECT_GE(warm.stats().sessions.entries, 1u);

  ServiceEngine cold{EngineConfig{}};
  cold.start();
  auto sub_cold = cold.submit(full);
  ASSERT_EQ(sub_cold.admission, Admission::kAccepted);
  const Response cold_resp = sub_cold.response.get();
  ASSERT_EQ(cold_resp.status, Response::Status::kOk) << cold_resp.reason;

  EXPECT_EQ(warm_resp.result, cold_resp.result);

  // Sessions off entirely: still the same bytes.
  EngineConfig no_sessions;
  no_sessions.mutation_sessions = 0;
  ServiceEngine bare{no_sessions};
  bare.start();
  auto sub_bare = bare.submit(full);
  ASSERT_EQ(sub_bare.admission, Admission::kAccepted);
  EXPECT_EQ(sub_bare.response.get().result, cold_resp.result);
}

TEST(ServiceMutateTest, QueueFullMidScriptLeavesStateUntouched) {
  // Satellite pin: a kQueueFull NACK in the middle of a stream of
  // mutation scripts happens entirely at admission — graph epochs
  // (session store), both caches, and replay bytes stay untouched.
  const auto inst = base_instance();
  const auto script = sample_script();
  std::vector<Request> stream;
  for (std::size_t len = 1; len <= script.size(); ++len)
    stream.push_back(
        mutate_request(inst, {script.begin(), script.begin() + len}));

  EngineConfig cfg;
  cfg.queue_capacity = 2;
  ServiceEngine engine(cfg);  // un-started: the queue never drains
  std::size_t rejected = 0;
  for (const auto& req : stream)
    if (engine.submit(req).admission == Admission::kQueueFull) ++rejected;
  ASSERT_EQ(rejected, stream.size() - 2);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
  EXPECT_EQ(stats.sessions.hits, 0u);
  EXPECT_EQ(stats.sessions.misses, 0u);
  EXPECT_EQ(stats.sessions.entries, 0u);
  EXPECT_EQ(stats.graph_cache.builds, 0u);
  engine.stop();

  // Replay bytes after the NACK: a fresh engine serving the full stream
  // matches the bare per-request execution byte for byte.
  runtime::ThreadPool seq(1);
  ServiceEngine fresh{EngineConfig{}};
  fresh.start();
  for (const auto& req : stream) {
    auto sub = fresh.submit(req);
    ASSERT_EQ(sub.admission, Admission::kAccepted);
    const Response resp = sub.response.get();
    ASSERT_EQ(resp.status, Response::Status::kOk) << resp.reason;
    EXPECT_EQ(resp.result, execute_request(req, seq));
  }
}

TEST(ServiceMutateTest, EvictionChurnKeepsBytesIdentical) {
  // Tiny 1..3-entry caches force eviction churn between repair steps;
  // the fault harness differentially compares every payload against the
  // bare reference execution.
  const Trace trace = generate_trace(mutate_trace_params());
  for (std::size_t entries = 1; entries <= 3; ++entries) {
    qc::FaultPlan plan;
    plan.cache_entries = entries;
    plan.graph_cache_entries = 1;
    const qc::FaultReport report = qc::run_fault_plan(plan, trace);
    EXPECT_TRUE(report.ok()) << "cache_entries=" << entries << ": "
                             << report.error << " (" << report.mismatches
                             << " mismatches)";
    EXPECT_TRUE(report.cache_untouched_on_reject);
  }
}

TEST(ServiceMutateTest, SessionStatesShareGraphRows) {
  // Memory pin (ROADMAP dynamic-tier follow-on): session states share
  // the graph structurally instead of deep-copying it.  Copies share
  // every adjacency row; a mutation applied to the copy reallocates only
  // the rows inside the edit's ball, and never writes through to rows
  // the original still points at.
  const auto inst = base_instance();
  DynamicConflictGraph base(*inst, 2);
  const std::uint64_t base_hash = base.graph_hash();

  // MutationState copy (what a partial-prefix resume makes): every row
  // of the copied graph aliases the stored one's storage.
  const MutationState stored{DynamicConflictGraph(base), {}, 7, {}};
  MutationState resumed = stored;
  EXPECT_EQ(resumed.graph.shared_rows_with(stored.graph),
            stored.graph.triple_count());

  // Divergent suffix on the copy: rows outside the mutation's dirty ball
  // stay shared, dirty/fresh rows get fresh storage (COW — the original
  // graph's bytes are untouched).
  const auto delta = resumed.graph.apply(Mutation::add_edge({1, 4}));
  const std::size_t shared = resumed.graph.shared_rows_with(stored.graph);
  EXPECT_GE(shared + delta.dirty.size(), base.triple_count());
  EXPECT_LT(shared, resumed.graph.triple_count());  // something did change
  EXPECT_GT(shared, 0u);                            // ...but not everything
  EXPECT_EQ(stored.graph.graph_hash(), base_hash);

  // Removal path (non-identity remap): rows whose neighbor ids survive
  // unrenumbered keep sharing too.
  MutationState removed = stored;
  (void)removed.graph.apply(Mutation::remove_edge(4));
  EXPECT_GT(removed.graph.shared_rows_with(stored.graph), 0u);
  EXPECT_EQ(stored.graph.graph_hash(), base_hash);
}

TEST(ServiceMutateTest, SessionStoreLruEvictsAndDisables) {
  MutationSessionStore store(2);
  const Hypergraph h(4, {{0, 1}, {2, 3}});
  const auto state = std::make_shared<const MutationState>(
      MutationState{DynamicConflictGraph(h, 2), {}, 7, {}});
  store.store(1, state);
  store.store(2, state);
  ASSERT_TRUE(store.lookup(1) != nullptr);  // 1 is now most recent
  store.store(3, state);                    // evicts 2
  EXPECT_EQ(store.lookup(2), nullptr);
  EXPECT_TRUE(store.lookup(1) != nullptr);
  EXPECT_TRUE(store.lookup(3) != nullptr);
  const auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);

  MutationSessionStore off(0);
  off.store(1, state);
  EXPECT_EQ(off.lookup(1), nullptr);
  EXPECT_EQ(off.stats().entries, 0u);
}

}  // namespace
}  // namespace pslocal::service
