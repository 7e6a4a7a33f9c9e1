#include "coloring/cf_baselines.hpp"

#include <algorithm>
#include <bit>
#include <vector>

namespace pslocal {

CfMulticoloring fresh_color_baseline(const Hypergraph& h) {
  CfMulticoloring mc(h.vertex_count());
  std::size_t next_color = 1;
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    const auto verts = h.edge(e);
    PSL_CHECK(!verts.empty());
    mc.add_color(verts.front(), next_color++);
  }
  PSL_ENSURES(is_conflict_free(h, mc));
  return mc;
}

CfColoring dyadic_interval_cf_coloring(std::size_t n) {
  CfColoring f(n, kCfUncolored);
  for (std::size_t v = 0; v < n; ++v) {
    // Exponent of the largest power of two dividing v+1.  Within any
    // interval the maximal exponent is attained exactly once: two
    // multiples of 2^j that are 2^j apart sandwich a multiple of 2^{j+1}.
    f[v] = 1 + static_cast<std::size_t>(std::countr_zero(v + 1));
  }
  return f;
}

GreedyCfResult greedy_cf_coloring(const Hypergraph& h, runtime::Scheduler&) {
  const std::size_t n = h.vertex_count();
  GreedyCfResult res;
  res.coloring.assign(n, kCfUncolored);

  // High-degree vertices first: they complete the most edges and benefit
  // most from small colors.
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return h.vertex_degree(a) > h.vertex_degree(b);
  });

  // Would giving v color c keep every incident edge acceptable?  An edge
  // is acceptable unless it is fully colored *and* has no unique color.
  // v's entry is still kCfUncolored and is substituted virtually.
  std::vector<std::size_t> colors;
  auto feasible = [&](VertexId v, std::size_t c) {
    for (EdgeId e : h.edges_of(v)) {
      colors.clear();
      bool complete = true;
      for (VertexId u : h.edge(e)) {
        const std::size_t cu = u == v ? c : res.coloring[u];
        if (cu == kCfUncolored) {
          complete = false;
          break;
        }
        colors.push_back(cu);
      }
      if (!complete) continue;
      std::sort(colors.begin(), colors.end());
      bool happy = false;
      for (std::size_t i = 0; i < colors.size() && !happy; ++i) {
        const bool prev_same = i > 0 && colors[i - 1] == colors[i];
        const bool next_same =
            i + 1 < colors.size() && colors[i + 1] == colors[i];
        happy = !prev_same && !next_same;  // unique color found
      }
      if (!happy) return false;
    }
    return true;
  };

  std::size_t palette = 0;
  for (VertexId v : order) {
    // The smallest feasible color; a fresh one is unique in every
    // incident edge by construction.
    std::size_t pick = 1;
    while (pick <= palette && !feasible(v, pick)) ++pick;
    if (pick > palette) ++palette;
    res.coloring[v] = pick;
  }
  res.colors_used = cf_color_count(res.coloring);
  PSL_ENSURES(is_conflict_free(h, res.coloring));
  return res;
}

bool is_interval_hypergraph(const Hypergraph& h) {
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    const auto verts = h.edge(e);  // sorted
    for (std::size_t i = 1; i < verts.size(); ++i)
      if (verts[i] != verts[i - 1] + 1) return false;
  }
  return true;
}

}  // namespace pslocal
