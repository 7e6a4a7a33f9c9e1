#include "coloring/local_verifier.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "local/simulator.hpp"
#include "util/check.hpp"

namespace pslocal {

namespace {

// Incidence-graph node states: vertices carry their color set; edge
// agents carry a verdict once computed.
struct VerifierState {
  bool is_edge_agent = false;
  std::vector<std::size_t> colors;  // vertex agents
  std::optional<bool> edge_verdict; // edge agents, after round 1
  std::optional<bool> vertex_accept;  // vertex agents, after round 2
  std::size_t round = 0;
};

struct VerifierMsg {
  bool from_edge_agent = false;
  std::vector<std::size_t> colors;  // round 1 payload
  bool verdict = false;             // round 2 payload
};

class CfVerifier {
 public:
  using State = VerifierState;
  using Msg = VerifierMsg;

  CfVerifier(const Hypergraph& h, const CfMulticoloring& mc)
      : h_(h), mc_(mc) {}

  VerifierState init(VertexId v, const Graph&, Rng&) {
    VerifierState s;
    s.is_edge_agent = v >= h_.vertex_count();
    if (!s.is_edge_agent) s.colors = mc_.colors_of(v);
    return s;
  }

  std::optional<VerifierMsg> emit(VertexId, const VerifierState& s) {
    VerifierMsg m;
    m.from_edge_agent = s.is_edge_agent;
    if (!s.is_edge_agent) {
      m.colors = s.colors;
      return m;
    }
    if (s.edge_verdict.has_value()) {
      m.verdict = *s.edge_verdict;
      return m;
    }
    return std::nullopt;  // edge agents are silent in round 1
  }

  void step(VertexId, VerifierState& s, InboxView<VerifierMsg> inbox, Rng&) {
    if (s.round == 0 && s.is_edge_agent) {
      // Round 1: tally member colors; happy iff some color is unique.
      std::map<std::size_t, std::size_t> freq;
      for (const auto& m : inbox) {
        PSL_CHECK(m && !m->from_edge_agent);  // members always broadcast
        for (std::size_t c : m->colors) ++freq[c];
      }
      s.edge_verdict = std::any_of(freq.begin(), freq.end(), [](const auto& kv) {
        return kv.second == 1;
      });
    }
    if (s.round == 1 && !s.is_edge_agent) {
      // Round 2: accept iff every incident edge agent reported happy.
      bool ok = true;
      for (const auto& m : inbox)
        if (m && m->from_edge_agent && !m->verdict) ok = false;
      s.vertex_accept = ok;
    }
    ++s.round;
  }

  bool halted(VertexId, const VerifierState& s) {
    return s.round >= 2;
  }

  std::size_t message_size(const VerifierMsg& m) const {
    return sizeof(bool) * 2 + m.colors.size() * sizeof(std::size_t);
  }

 private:
  const Hypergraph& h_;
  const CfMulticoloring& mc_;
};

}  // namespace

LocalCfVerification local_cf_verify(const Hypergraph& h,
                                    const CfMulticoloring& mc) {
  PSL_EXPECTS(mc.vertex_count() == h.vertex_count());
  LocalCfVerification out;
  out.edge_happy.assign(h.edge_count(), false);
  out.vertex_accepts.assign(h.vertex_count(), true);
  if (h.vertex_count() == 0) {
    out.accept = true;
    return out;
  }

  const Graph incidence = h.incidence_graph();
  CfVerifier algo(h, mc);
  auto run = run_local(incidence, algo, /*seed=*/0, /*max_rounds=*/4);
  PSL_CHECK(run.all_halted);
  out.rounds = run.rounds;

  out.accept = true;
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    const auto& s = run.states[h.vertex_count() + e];
    PSL_CHECK(s.edge_verdict.has_value());
    out.edge_happy[e] = *s.edge_verdict;
    out.accept = out.accept && out.edge_happy[e];
  }
  for (VertexId v = 0; v < h.vertex_count(); ++v) {
    const auto& s = run.states[v];
    // Isolated vertices receive no verdicts and accept vacuously.
    out.vertex_accepts[v] = s.vertex_accept.value_or(true);
  }
  // Cross-check against the centralized predicate (they must agree).
  PSL_ENSURES(out.accept == is_conflict_free(h, mc));
  return out;
}

}  // namespace pslocal
