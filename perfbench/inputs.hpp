// Seeded inputs of the benchmark workloads.
//
// Every instance and request is a pure function of (seed, stream,
// index), so the same --seed gives the same inputs and a request can be
// regenerated after the timed window for the byte-compare check.  The
// program only ever receives the requests built here.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hypergraph/generators.hpp"
#include "hypergraph/mutation.hpp"
#include "service/request.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

using pslocal::Hypergraph;
using pslocal::Mutation;
using pslocal::Rng;
using pslocal::service::Request;
using pslocal::service::RequestKind;

/// Planted palette size of every instance (service::TraceParams default).
inline constexpr std::size_t kPalette = 3;

/// Independent input streams: one per use, so adding a draw to one
/// never shifts another.
enum Stream : std::uint64_t {
  kColdInstances = 1,
  kColdKinds = 2,
  kWarmInstances = 3,
  kHotInstances = 4,
  kHotPicks = 5,
  kMixedInstances = 6,
  kMixedPicks = 7,
  kMixedWarm = 8,
  kMixedBulkInstances = 9,
  kInteractiveArrivals = 10,
  kBulkArrivals = 11,
  kSample = 12,
};

/// Planted CF-colourable instance `index` of `stream`.  Sizes vary over
/// indices the way service::generate_trace's pool does (n 48..80, m
/// 40..64), so requests differ in cost.
inline std::shared_ptr<const Hypergraph> planted_instance(std::uint64_t seed,
                                                          std::uint64_t stream,
                                                          std::uint64_t index) {
  Rng rng = Rng(seed).fork(stream).fork(index);
  pslocal::PlantedCfParams p;
  p.n = 48 + (index % 5) * 8;
  p.m = 40 + (index % 7) * 4;
  p.k = kPalette;
  auto inst = pslocal::planted_cf_colorable(p, rng);
  return std::make_shared<const Hypergraph>(std::move(inst.hypergraph));
}

/// The five read kinds, in the default trace mix build/greedy/luby/cf/
/// reduction = 20/30/25/15/10.
inline RequestKind draw_read_kind(Rng& rng) {
  const std::uint64_t pick = rng.next_below(100);
  if (pick < 20) return RequestKind::kBuildConflictGraph;
  if (pick < 50) return RequestKind::kGreedyMaxis;
  if (pick < 75) return RequestKind::kLubyMis;
  if (pick < 90) return RequestKind::kCfColor;
  return RequestKind::kRunReduction;
}

inline constexpr RequestKind kReadKinds[] = {
    RequestKind::kBuildConflictGraph, RequestKind::kGreedyMaxis,
    RequestKind::kLubyMis, RequestKind::kCfColor, RequestKind::kRunReduction};

/// A read request over `instance` with its parameters drawn from `rng`
/// (seed variant 1..2 and the reduction oracle, as generate_trace does).
inline Request read_request(std::shared_ptr<const Hypergraph> instance,
                            RequestKind kind, Rng& rng) {
  static constexpr const char* kOracles[] = {"greedy-mindeg", "greedy-random",
                                             "luby"};
  Request req;
  req.kind = kind;
  req.instance_hash = pslocal::hash_hypergraph(*instance);
  req.instance = std::move(instance);
  req.k = kPalette;
  req.seed = 1 + rng.next_below(2);
  if (kind == RequestKind::kRunReduction)
    req.solver = kOracles[rng.next_below(3)];
  return req;
}

/// One request of each read kind over each of `count` instances of
/// `stream`: the distinct keys of a workload that repeats keys.
inline std::vector<Request> read_keys(std::uint64_t seed, std::uint64_t stream,
                                      std::size_t count) {
  std::vector<Request> keys;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto inst = planted_instance(seed, stream, i);
    Rng rng = Rng(seed).fork(stream).fork(1000 + i);
    for (const RequestKind kind : kReadKinds)
      keys.push_back(read_request(inst, kind, rng));
  }
  return keys;
}

/// Mutation script of `steps` steps over `h` for chain `variant`: a
/// churn of duplicate-edge inserts, edge removals and vertex appends,
/// valid at every prefix.  The script of length L is a prefix of the one
/// of length L+1, so a chain served in order resumes stored sessions.
inline std::vector<Mutation> mutation_chain(const Hypergraph& h,
                                            std::uint64_t variant,
                                            std::size_t steps) {
  Rng rng(pslocal::hash_combine(pslocal::hash_hypergraph(h), variant));
  std::size_t n = h.vertex_count();
  std::vector<std::vector<pslocal::VertexId>> edges;
  for (pslocal::EdgeId e = 0; e < h.edge_count(); ++e) {
    const auto vs = h.edge(e);
    edges.emplace_back(vs.begin(), vs.end());
  }
  std::vector<Mutation> script;
  for (std::size_t i = 0; i < steps; ++i) {
    Mutation mut;
    const std::uint64_t roll = rng.next_below(3);
    if (roll == 0 && !edges.empty()) {
      mut = Mutation::add_edge(edges[rng.next_below(edges.size())]);
    } else if (roll == 1 && edges.size() > 1) {
      mut = Mutation::remove_edge(
          static_cast<pslocal::EdgeId>(rng.next_below(edges.size())));
    } else {
      mut = Mutation::add_vertex();
    }
    pslocal::apply_mutation(n, edges, mut);
    script.push_back(std::move(mut));
  }
  return script;
}

/// Write requests: chain c over instance `instance` grows one step per
/// request (lengths 1..kChainSteps), so each request is a distinct key
/// and every step after the first can resume the previous step's
/// session.  The initial-MIS leg alternates between greedy and Luby.
inline constexpr std::size_t kChainSteps = 4;

inline Request mutate_request(std::shared_ptr<const Hypergraph> instance,
                              std::uint64_t chain, std::size_t length) {
  Request req;
  req.kind = RequestKind::kMutateHypergraph;
  req.instance_hash = pslocal::hash_hypergraph(*instance);
  req.k = kPalette;
  req.seed = 1;
  req.solver = chain % 2 == 0 ? "greedy-mindeg" : "luby";
  req.script = mutation_chain(*instance, chain, length);
  req.instance = std::move(instance);
  return req;
}

}  // namespace perfbench
