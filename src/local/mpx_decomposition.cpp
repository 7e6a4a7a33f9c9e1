#include "local/mpx_decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/algorithms.hpp"
#include "local/simulator.hpp"

namespace pslocal {

namespace {

struct MpxState {
  double delta = 0.0;
  double best_key = 0.0;
  VertexId best_center = 0;
  bool changed = true;  // whether last round improved the key
};

struct MpxMsg {
  double key = 0.0;
  VertexId center = 0;
};

class MpxAlgorithm {
 public:
  using State = MpxState;
  using Msg = MpxMsg;

  explicit MpxAlgorithm(double beta) : beta_(beta) {}

  MpxState init(VertexId v, const Graph&, Rng& rng) {
    MpxState s;
    s.delta = rng.next_exponential(beta_);
    s.best_key = -s.delta;  // own offer: dist 0 - delta_v
    s.best_center = v;
    return s;
  }

  std::optional<MpxMsg> emit(VertexId, const MpxState& s) {
    return MpxMsg{s.best_key, s.best_center};
  }

  void step(VertexId, MpxState& s, InboxView<MpxMsg> inbox, Rng&) {
    s.changed = false;
    for (const auto& m : inbox) {
      if (!m) continue;
      const double cand = m->key + 1.0;  // one hop further from m->center
      if (cand < s.best_key ||
          (cand == s.best_key && m->center < s.best_center)) {
        s.best_key = cand;
        s.best_center = m->center;
        s.changed = true;
      }
    }
  }

  bool halted(VertexId, const MpxState&) {
    // Termination is handled by the round cap in mpx_clustering: a node
    // cannot locally know that no better offer is still in flight.
    return false;
  }

 private:
  double beta_;
};

}  // namespace

MpxResult mpx_clustering(const Graph& g, double beta, std::uint64_t seed) {
  PSL_EXPECTS(beta > 0.0 && beta <= 1.0);
  const std::size_t n = g.vertex_count();
  MpxResult res;
  if (n == 0) return res;

  // Flood for R rounds, where R bounds max ceil(delta)+1.  We cannot peek
  // at the draws before running (the algorithm is distributed), so use the
  // w.h.p. bound 3 ln(n+1)/beta + 2 and verify afterwards.
  const auto rounds = static_cast<std::size_t>(
      std::ceil(3.0 * std::log(static_cast<double>(n) + 1.0) / beta)) + 2;

  MpxAlgorithm algo(beta);
  auto run = run_local(g, algo, seed, rounds);
  res.rounds = run.rounds;

  res.center_of.resize(n);
  res.key_of.resize(n);
  std::set<VertexId> centers;
  for (VertexId v = 0; v < n; ++v) {
    res.center_of[v] = run.states[v].best_center;
    res.key_of[v] = run.states[v].best_key;
    centers.insert(res.center_of[v]);
  }
  res.cluster_count = centers.size();

  // Post-run checks/metrics (centralized; not part of the algorithm).
  for (VertexId c : centers) {
    const auto dist = bfs_distances(g, c);
    for (VertexId v = 0; v < n; ++v) {
      if (res.center_of[v] == c) {
        PSL_CHECK_MSG(dist[v] != kUnreachable, "cluster spans components");
        res.max_cluster_radius = std::max(res.max_cluster_radius, dist[v]);
      }
    }
  }
  std::size_t cut = 0;
  for (auto [u, v] : g.edges())
    if (res.center_of[u] != res.center_of[v]) ++cut;
  res.cut_edge_fraction =
      g.edge_count() == 0
          ? 0.0
          : static_cast<double>(cut) / static_cast<double>(g.edge_count());
  return res;
}

}  // namespace pslocal
