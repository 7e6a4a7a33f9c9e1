#include "service/request.hpp"

#include <sstream>

#include <algorithm>
#include <iterator>

#include "coloring/cf_baselines.hpp"
#include "core/conflict_graph.hpp"
#include "core/dynamic_conflict_graph.hpp"
#include "core/reduction.hpp"
#include "local/luby_mis.hpp"
#include "mis/greedy_maxis.hpp"
#include "mis/independent_set.hpp"
#include "mis/repair.hpp"
#include "obs/obs.hpp"
#include "service/cache.hpp"
#include "service/session.hpp"
#include "solver/solver.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace pslocal::service {

namespace {

// Distinguishing constants folded into cache keys, one per kind, so two
// kinds over the same instance and parameters never collide.
constexpr std::uint64_t kKindSalt[] = {
    0x62756c64ULL,  // build_conflict_graph
    0x67726479ULL,  // greedy_maxis
    0x6c756279ULL,  // luby_mis
    0x6366636fULL,  // cf_color
    0x72656475ULL,  // run_reduction
    0x65786374ULL,  // exact_certificate
    0x6d757461ULL,  // mutate_hypergraph
};
static_assert(std::size(kKindSalt) == kRequestKindCount,
              "one cache-key salt per RequestKind");

void append_vertex_list(std::ostringstream& os, const char* field,
                        const std::vector<VertexId>& vs) {
  os << ",\"" << field << "\":[";
  for (std::size_t i = 0; i < vs.size(); ++i) os << (i ? "," : "") << vs[i];
  os << ']';
}

/// The shared G_k of the MIS-family kinds, memoized when a graph cache
/// is available (keyed by instance content and k).
std::shared_ptr<const ConflictGraph> conflict_graph_for(
    const Request& req, ConflictGraphCache* cache) {
  const auto build = [&req] {
    return std::make_shared<const ConflictGraph>(*req.instance, req.k);
  };
  if (cache == nullptr) return build();
  return cache->get_or_build(hash_combine(req.instance_hash, req.k), build);
}

std::ostringstream payload_head(const Request& req) {
  std::ostringstream os;
  os << "{\"kind\":\"" << kind_name(req.kind) << "\",\"instance\":\""
     << hex64(req.instance_hash) << '"';
  return os;
}

std::string execute_build(const Request& req,
                          ConflictGraphCache* graph_cache) {
  const auto cg_ptr = conflict_graph_for(req, graph_cache);
  const ConflictGraph& cg = *cg_ptr;
  const auto classes = cg.count_edge_classes();
  auto os = payload_head(req);
  os << ",\"k\":" << req.k << ",\"triples\":" << cg.triple_count()
     << ",\"edges\":" << classes.total << ",\"e_vertex\":" << classes.e_vertex
     << ",\"e_edge\":" << classes.e_edge << ",\"e_color\":" << classes.e_color
     << ",\"graph_hash\":\"" << hex64(hash_graph(cg.graph())) << "\"}";
  return os.str();
}

std::string execute_greedy(const Request& req,
                           ConflictGraphCache* graph_cache) {
  const auto cg_ptr = conflict_graph_for(req, graph_cache);
  const ConflictGraph& cg = *cg_ptr;
  const auto is = greedy_min_degree_maxis(cg.graph());
  auto os = payload_head(req);
  os << ",\"k\":" << req.k << ",\"is_size\":" << is.size()
     << ",\"upper\":" << cg.independence_upper_bound() << ",\"independent\":"
     << (is_independent_set(cg.graph(), is) ? "true" : "false");
  append_vertex_list(os, "is", is);
  os << '}';
  return os.str();
}

std::string execute_luby(const Request& req,
                         ConflictGraphCache* graph_cache) {
  const auto cg_ptr = conflict_graph_for(req, graph_cache);
  const ConflictGraph& cg = *cg_ptr;
  const auto luby = luby_mis(cg.graph(), req.seed);
  auto os = payload_head(req);
  os << ",\"k\":" << req.k << ",\"seed\":" << req.seed
     << ",\"is_size\":" << luby.independent_set.size()
     << ",\"rounds\":" << luby.rounds
     << ",\"completed\":" << (luby.completed ? "true" : "false");
  append_vertex_list(os, "is", luby.independent_set);
  os << '}';
  return os.str();
}

std::string execute_cf_color(const Request& req) {
  const auto res = greedy_cf_coloring(*req.instance);
  auto os = payload_head(req);
  os << ",\"colors_used\":" << res.colors_used << ",\"conflict_free\":"
     << (is_conflict_free(*req.instance, res.coloring) ? "true" : "false")
     << ",\"coloring\":[";
  for (std::size_t v = 0; v < res.coloring.size(); ++v)
    os << (v ? "," : "") << res.coloring[v];
  os << "]}";
  return os.str();
}

std::string execute_reduction(const Request& req) {
  std::unique_ptr<MaxISOracle> oracle;
  if (req.solver == "greedy-mindeg")
    oracle = std::make_unique<GreedyMinDegreeOracle>();
  else if (req.solver == "greedy-random")
    oracle = std::make_unique<RandomGreedyOracle>(req.seed);
  else if (req.solver == "luby")
    oracle = std::make_unique<LubyOracle>(req.seed);
  PSL_CHECK_MSG(oracle != nullptr,
                "service: unknown reduction solver '" << req.solver << "'");
  ReductionOptions ropts;
  ropts.k = req.k;
  const auto res = cf_multicoloring_via_maxis(*req.instance, *oracle, ropts);
  auto os = payload_head(req);
  os << ",\"k\":" << req.k << ",\"solver\":\"" << req.solver
     << "\",\"success\":" << (res.success ? "true" : "false")
     << ",\"phases\":" << res.phases << ",\"colors_used\":" << res.colors_used
     << ",\"palette_bound\":" << res.palette_bound << '}';
  return os.str();
}

std::string execute_exact_certificate(const Request& req,
                                      ConflictGraphCache* graph_cache) {
  const auto cg_ptr = conflict_graph_for(req, graph_cache);
  const ConflictGraph& cg = *cg_ptr;
  solver::SolverOptions options;
  options.seed = req.seed;
  const auto backend = solver::SolverFactory::instance().make(req.solver);
  const auto res = backend->solve_maxis(cg.graph(), options);
  auto os = payload_head(req);
  os << ",\"k\":" << req.k << ",\"solver\":\"" << req.solver
     << "\",\"seed\":" << req.seed << ",\"is_size\":"
     << res.independent_set.size() << ",\"proven_optimal\":"
     << (res.proven_optimal ? "true" : "false")
     << ",\"upper\":" << cg.independence_upper_bound() << ",\"independent\":"
     << (is_independent_set(cg.graph(), res.independent_set) ? "true"
                                                             : "false")
     << ",\"certificate\":{\"formula_vars\":" << res.formula_vars
     << ",\"formula_clauses\":" << res.formula_clauses
     << ",\"formula_hash\":\"" << hex64(res.formula_hash)
     << "\",\"decisions\":" << res.decisions
     << ",\"propagations\":" << res.propagations
     << ",\"conflicts\":" << res.conflicts
     << ",\"kernel_vertices\":" << res.kernel_vertices
     << ",\"kernel_forced\":" << res.kernel_forced << '}';
  append_vertex_list(os, "is", res.independent_set);
  os << '}';
  return os.str();
}

struct MutateMetrics {
  obs::Counter requests{"mutate.requests"};
  obs::Counter steps{"mutate.steps"};
  obs::Counter session_hits{"mutate.session_hits"};
  obs::Counter resumed_steps{"mutate.resumed_steps"};
  obs::Histogram ball_size{"mutate.repair_ball_size"};
};

const MutateMetrics& mutate_metrics() {
  static MutateMetrics m;
  return m;
}

/// Initial MIS leg of a mutate session.  All three legs are maximal:
/// greedy by construction, Luby on completion (max_rounds = 0 runs to
/// quiescence), exact because a maximum IS is inclusion maximal.
std::vector<VertexId> initial_mutate_mis(const Request& req, const Graph& g) {
  std::vector<VertexId> mis;
  if (req.solver == "greedy-mindeg") {
    mis = greedy_min_degree_maxis(g);
  } else if (req.solver == "luby") {
    mis = luby_mis(g, req.seed).independent_set;
  } else {
    solver::SolverOptions options;
    options.seed = req.seed;
    const auto backend = solver::SolverFactory::instance().make(req.solver);
    mis = backend->solve_maxis(g, options).independent_set;
  }
  std::sort(mis.begin(), mis.end());
  return mis;
}

std::string execute_mutate(const Request& req,
                           MutationSessionStore* sessions) {
  PSL_OBS_SPAN("service.mutate");
  mutate_metrics().requests.add(1);
  const auto invalid = validate_script(*req.instance, req.script);
  PSL_CHECK_MSG(!invalid.has_value(),
                "service: mutate script rejected: " << *invalid << " — "
                                                    << describe(req.script));

  const auto chain = epoch_chain(req.instance_hash, req.script);

  // Resume from the longest stored epoch prefix (pure acceleration: the
  // stored state is what the from-scratch path computes at that prefix).
  std::shared_ptr<const MutationState> stored;
  std::size_t prefix = 0;
  if (sessions != nullptr) {
    for (std::size_t p = chain.size(); p-- > 0;) {
      stored = sessions->lookup(
          session_key(chain[p], req.k, req.solver, req.seed));
      if (stored != nullptr) {
        prefix = p;
        break;
      }
    }
  }

  // cur is what we answer from.  A full-prefix hit serves the stored
  // state in place — zero copies of the graph.  A partial hit copies,
  // but the copy shares every adjacency row with the stored state
  // (DynamicConflictGraph rows are COW) and apply() below reallocates
  // only the rows the remaining script steps actually rewrite.
  MutationState state;
  const MutationState* cur = nullptr;
  if (stored != nullptr) {
    mutate_metrics().session_hits.add(1);
    mutate_metrics().resumed_steps.add(prefix);
    if (prefix == req.script.size()) {
      cur = stored.get();
    } else {
      state = *stored;
    }
  } else {
    state.graph = DynamicConflictGraph(*req.instance, req.k);
    state.mis = initial_mutate_mis(req, state.graph.snapshot());
    state.epoch = chain[0];
  }

  if (cur == nullptr) {
    for (std::size_t i = prefix; i < req.script.size(); ++i) {
      const Mutation& mut = req.script[i];
      const auto delta = state.graph.apply(mut);
      std::size_t dropped = 0;
      const auto survivors = remap_surviving(state.mis, delta.remap, &dropped);
      const auto rep = repair_mis(state.graph, survivors, delta.dirty);
      state.mis = rep.mis;
      state.epoch = chain[i + 1];
      MutationStepStat stat;
      stat.op = describe(mut);
      stat.epoch = state.epoch;
      stat.ball = rep.ball.size();
      stat.changed = dropped + rep.removed.size() + rep.added.size();
      stat.triples = state.graph.triple_count();
      stat.gk_edges = state.graph.gk_edge_count();
      state.history.push_back(std::move(stat));
      mutate_metrics().steps.add(1);
      mutate_metrics().ball_size.record(rep.ball.size(), req.trace_id);
    }
    cur = &state;
  }

  // Self-check against the patched adjacency (no snapshot materialized).
  std::vector<char> member(cur->graph.triple_count(), 0);
  for (const VertexId v : cur->mis) member[v] = 1;
  bool independent = true;
  bool maximal = true;
  for (TripleId t = 0; t < cur->graph.triple_count(); ++t) {
    bool member_neighbor = false;
    for (const TripleId nb : cur->graph.neighbors(t)) {
      if (member[nb] != 0) {
        member_neighbor = true;
        break;
      }
    }
    if (member[t] != 0 && member_neighbor) independent = false;
    if (member[t] == 0 && !member_neighbor) maximal = false;
  }

  auto os = payload_head(req);
  os << ",\"k\":" << req.k << ",\"solver\":\"" << req.solver
     << "\",\"seed\":" << req.seed << ",\"steps\":[";
  for (std::size_t i = 0; i < cur->history.size(); ++i) {
    const MutationStepStat& s = cur->history[i];
    os << (i ? "," : "") << "{\"op\":\"" << s.op << "\",\"epoch\":\""
       << hex64(s.epoch) << "\",\"ball\":" << s.ball
       << ",\"changed\":" << s.changed << ",\"triples\":" << s.triples
       << ",\"gk_edges\":" << s.gk_edges << '}';
  }
  os << "],\"epoch\":\"" << hex64(cur->epoch) << "\",\"content\":\""
     << hex64(cur->graph.content_hash()) << "\",\"gk_hash\":\""
     << hex64(cur->graph.graph_hash())
     << "\",\"n\":" << cur->graph.vertex_count()
     << ",\"m\":" << cur->graph.edge_count()
     << ",\"triples\":" << cur->graph.triple_count()
     << ",\"gk_edges\":" << cur->graph.gk_edge_count()
     << ",\"is_size\":" << cur->mis.size()
     << ",\"independent\":" << (independent ? "true" : "false")
     << ",\"maximal\":" << (maximal ? "true" : "false");
  append_vertex_list(os, "is", cur->mis);
  os << '}';

  // A full-prefix hit is already stored under this exact key; only
  // freshly computed states are (re)inserted.
  if (sessions != nullptr && cur == &state) {
    const std::uint64_t key =
        session_key(state.epoch, req.k, req.solver, req.seed);
    sessions->store(key, std::make_shared<MutationState>(std::move(state)));
  }
  return os.str();
}

}  // namespace

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kBuildConflictGraph: return "build_conflict_graph";
    case RequestKind::kGreedyMaxis: return "greedy_maxis";
    case RequestKind::kLubyMis: return "luby_mis";
    case RequestKind::kCfColor: return "cf_color";
    case RequestKind::kRunReduction: return "run_reduction";
    case RequestKind::kExactCertificate: return "exact_certificate";
    case RequestKind::kMutateHypergraph: return "mutate_hypergraph";
  }
  return "unknown";
}

RequestKind kind_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kRequestKindCount; ++i) {
    const auto kind = static_cast<RequestKind>(i);
    if (name == kind_name(kind)) return kind;
  }
  PSL_CHECK_MSG(false, "service: unknown request kind '" << name << "'");
  return RequestKind::kGreedyMaxis;  // unreachable
}

std::uint64_t cache_key(const Request& req) {
  PSL_EXPECTS(req.instance_hash != 0);
  std::uint64_t key = hash_combine(
      kKindSalt[static_cast<std::size_t>(req.kind)], req.instance_hash);
  switch (req.kind) {
    case RequestKind::kCfColor:
      break;  // greedy_cf_coloring takes no parameters
    case RequestKind::kBuildConflictGraph:
    case RequestKind::kGreedyMaxis:
      key = hash_combine(key, req.k);
      break;
    case RequestKind::kLubyMis:
      key = hash_combine(hash_combine(key, req.k), req.seed);
      break;
    case RequestKind::kRunReduction:
    case RequestKind::kExactCertificate:
      key = hash_combine(hash_combine(key, req.k), req.seed);
      key = hash_combine(key, fnv1a64(req.solver));
      break;
    case RequestKind::kMutateHypergraph:
      key = hash_combine(hash_combine(key, req.k), req.seed);
      key = hash_combine(key, fnv1a64(req.solver));
      key = hash_combine(key, fnv1a64(encode_script(req.script)));
      break;
  }
  // 0 is the "no key" sentinel in Response; remap the (vanishingly
  // unlikely) collision.
  return key == 0 ? 1 : key;
}

std::string execute_request(const Request& req, runtime::Scheduler&,
                            ConflictGraphCache* graph_cache,
                            MutationSessionStore* sessions) {
  PSL_CHECK_MSG(req.instance != nullptr, "service: request has no instance");
  switch (req.kind) {
    case RequestKind::kBuildConflictGraph:
      return execute_build(req, graph_cache);
    case RequestKind::kGreedyMaxis: return execute_greedy(req, graph_cache);
    case RequestKind::kLubyMis: return execute_luby(req, graph_cache);
    case RequestKind::kCfColor: return execute_cf_color(req);
    case RequestKind::kRunReduction: return execute_reduction(req);
    case RequestKind::kExactCertificate:
      return execute_exact_certificate(req, graph_cache);
    case RequestKind::kMutateHypergraph: return execute_mutate(req, sessions);
  }
  PSL_CHECK_MSG(false, "service: invalid request kind");
  return {};
}

}  // namespace pslocal::service
