// Baseline conflict-free coloring algorithms the reduction is compared
// against in experiment E7 (bench_cf_baselines):
//
//  * fresh_color_baseline — the trivial SLOCAL(1) algorithm: every edge
//    grants one of its vertices a globally fresh color.  Always correct,
//    but uses up to m colors (exponentially worse than the reduction's
//    k * (λ ln m + 1) for k, λ = polylog).
//
//  * dyadic_interval_cf_coloring — the classical coloring for interval
//    hypergraphs (the family [DN18] studies): color(v) = 1 + (exponent of
//    the largest power of two dividing v+1).  Every interval of points has
//    a unique maximum-exponent element, so this single coloring is
//    conflict-free for *every* interval hypergraph, with at most
//    floor(log2 n) + 1 colors.
#pragma once

#include "coloring/conflict_free.hpp"
#include "hypergraph/hypergraph.hpp"
#include "runtime/global.hpp"

namespace pslocal {

/// One fresh color per edge (assigned to the edge's first vertex).
/// Returns a multicoloring using exactly min(m, needed) colors; always
/// conflict-free.
CfMulticoloring fresh_color_baseline(const Hypergraph& h);

/// The dyadic coloring of points 0..n-1 (see header comment).  The result
/// is conflict-free for any hypergraph whose edges are intervals of
/// consecutive points.
CfColoring dyadic_interval_cf_coloring(std::size_t n);

/// True iff every edge of h is a set of consecutive points.
bool is_interval_hypergraph(const Hypergraph& h);

struct GreedyCfResult {
  CfColoring coloring;     // single total coloring, colors 1..colors_used
  std::size_t colors_used = 0;
};

/// Direct greedy conflict-free coloring heuristic (no worst-case color
/// guarantee; the "what a practitioner would try first" baseline for E7):
/// color vertices in decreasing hypergraph-degree order, giving each the
/// smallest color under which every incident edge that just became fully
/// colored is happy.  A globally fresh color always works (it is unique
/// in every incident edge), and an edge is only checked at the moment it
/// completes — after which none of its vertices is ever recolored — so
/// the pass always ends in a valid CF coloring.  Each pick scans the
/// palette in ascending order.  The scheduler parameter is unused; it
/// stays so existing callers compile.
GreedyCfResult greedy_cf_coloring(
    const Hypergraph& h,
    runtime::Scheduler& sched = runtime::global_scheduler());

}  // namespace pslocal
