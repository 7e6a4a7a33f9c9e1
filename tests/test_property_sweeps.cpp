// Property sweeps: the library's core invariants exercised across a
// matrix of instance families, oracles and seeds.  These are the
// "fuzz-lite" tests: every case asserts the full invariant set end to
// end, not a single example.
//
// Instance families come from the QC harness (qc::make_family), so a
// failure here and a pslocal_fuzz failure speak the same reproducer
// vocabulary — each assertion message carries the fuzz command that
// replays the same family/seed pair.
#include <gtest/gtest.h>

#include <memory>

#include "coloring/cf_baselines.hpp"
#include "core/correspondence.hpp"
#include "core/reduction.hpp"
#include "core/simulation.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "local/luby_mis.hpp"
#include "mis/greedy_maxis.hpp"
#include "mis/independent_set.hpp"
#include "qc/gen.hpp"
#include "qc/property.hpp"

namespace pslocal {
namespace {

using qc::make_family;
using qc::reproducer;

MaxISOraclePtr make_oracle(const std::string& kind, std::uint64_t seed) {
  if (kind == "greedy-mindeg") return std::make_unique<GreedyMinDegreeOracle>();
  if (kind == "greedy-clique")
    return std::make_unique<CliqueCoverGreedyOracle>();
  if (kind == "greedy-random") return std::make_unique<RandomGreedyOracle>(seed);
  if (kind == "luby") return std::make_unique<LubyOracle>(seed);
  throw std::logic_error("unknown oracle " + kind);
}

// ---------------------------------------------------------------------
// Sweep 1: the reduction solves every family with every oracle, with
// per-phase verification enabled, and the result verifies against the
// original hypergraph.
struct ReductionCase {
  std::string family;
  std::string oracle;
};

// gtest's fallback printer dumps the raw object bytes, which include the
// strings' heap pointers, so the listed test names would change from run
// to run. Print the case as <family>/<oracle> instead.
void PrintTo(const ReductionCase& c, std::ostream* os) {
  *os << c.family << "/" << c.oracle;
}

class ReductionMatrixTest : public ::testing::TestWithParam<ReductionCase> {};

TEST_P(ReductionMatrixTest, SolvesWithPhaseVerification) {
  const auto& param = GetParam();
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    auto inst = make_family(param.family, seed);
    auto oracle = make_oracle(param.oracle, seed);
    const std::string repro =
        reproducer("reduction-solves", seed, param.family, param.oracle);
    ReductionOptions opts;
    opts.k = inst.k;
    opts.verify_phases = true;
    const auto res = cf_multicoloring_via_maxis(inst.hypergraph, *oracle, opts);
    ASSERT_TRUE(res.success) << param.family << "/" << param.oracle
                             << " seed " << seed << "\n  " << repro;
    EXPECT_TRUE(is_conflict_free(inst.hypergraph, res.coloring))
        << "\n  " << repro;
    EXPECT_LE(res.colors_used, res.palette_bound) << "\n  " << repro;
    // Multicoloring bookkeeping is internally consistent.
    EXPECT_LE(res.coloring.palette_size(), res.coloring.assignment_count());
    EXPECT_LE(res.coloring.max_color(), inst.k * res.phases);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReductionMatrixTest,
    ::testing::Values(
        ReductionCase{"planted-k2", "greedy-mindeg"},
        ReductionCase{"planted-k2", "greedy-clique"},
        ReductionCase{"planted-k2", "greedy-random"},
        ReductionCase{"planted-k2", "luby"},
        ReductionCase{"planted-k4", "greedy-mindeg"},
        ReductionCase{"planted-k4", "greedy-random"},
        ReductionCase{"planted-k4", "luby"},
        ReductionCase{"interval", "greedy-mindeg"},
        ReductionCase{"interval", "greedy-random"},
        ReductionCase{"interval", "luby"},
        ReductionCase{"ring-neighborhoods", "greedy-mindeg"},
        ReductionCase{"ring-neighborhoods", "greedy-clique"},
        ReductionCase{"ring-neighborhoods", "luby"}),
    [](const auto& info) {
      std::string name = info.param.family + "_" + info.param.oracle;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---------------------------------------------------------------------
// Sweep 2: Lemma 2.1 b) and host-mapping simulability hold on every
// family's conflict graph, for ISs from every oracle.
class FamilyInvariantTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FamilyInvariantTest, LemmaBAndSimulabilityAcrossSeeds) {
  for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
    auto inst = make_family(GetParam(), seed);
    const std::string repro =
        reproducer("correspondence-roundtrip", seed, GetParam());
    const ConflictGraph cg(inst.hypergraph, inst.k);
    EXPECT_TRUE(analyze_host_mapping(cg).one_round_simulable)
        << "\n  " << repro;

    RandomGreedyOracle oracle(seed);
    const auto is = oracle.solve(cg.graph());
    const auto report = check_lemma_b(cg, is);
    EXPECT_TRUE(report.independent) << "\n  " << repro;
    EXPECT_TRUE(report.well_defined) << "\n  " << repro;
    EXPECT_TRUE(report.happy_at_least_is_size) << "\n  " << repro;
    // alpha(G_k) <= m always (E_edge clique cover), so |I| <= m.
    EXPECT_LE(is.size(), cg.independence_upper_bound());
  }
}

TEST_P(FamilyInvariantTest, TripleIndexRoundtripsAcrossSeeds) {
  auto inst = make_family(GetParam(), 17);
  const ConflictGraph cg(inst.hypergraph, inst.k);
  for (TripleId t = 0; t < cg.triple_count(); ++t) {
    const Triple tr = cg.triple(t);
    EXPECT_EQ(cg.triple_id(tr.e, tr.v, tr.c), t);
    EXPECT_TRUE(inst.hypergraph.edge_contains(tr.e, tr.v));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyInvariantTest,
                         ::testing::Values("planted-k2", "planted-k4",
                                           "interval", "ring-neighborhoods"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------
// Sweep 3: every IS oracle produces valid sets on every graph family.
class OracleValidityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OracleValidityTest, ValidOnEveryGraphFamily) {
  auto oracle = make_oracle(GetParam(), 31);
  Rng rng(41);
  const std::vector<Graph> graphs = {
      ring(15),        path(20),          grid(4, 5),
      complete(9),     complete_bipartite(4, 6),
      gnp(40, 0.08, rng), gnp(40, 0.4, rng), random_tree(30, rng),
      power_law(50, 2.5, 3.0, rng),        Graph::from_edges(6, {}),
  };
  for (const auto& g : graphs) {
    const auto is = oracle->solve(g);
    EXPECT_TRUE(is_independent_set(g, is))
        << GetParam() << " on n=" << g.vertex_count();
    if (g.vertex_count() > 0) {
      EXPECT_GE(is.size(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Oracles, OracleValidityTest,
                         ::testing::Values("greedy-mindeg", "greedy-clique",
                                           "greedy-random", "luby"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------
// Sweep 4: dyadic baseline is CF on *random* interval hypergraphs (not
// just all_intervals), across sizes and seeds.
class DyadicSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DyadicSweepTest, ConflictFreeOnRandomIntervalFamilies) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed * 1000 + n);
    const auto h =
        interval_hypergraph(n, 3 * n, 1, std::min<std::size_t>(n, 9), rng);
    const auto f = dyadic_interval_cf_coloring(n);
    EXPECT_TRUE(is_conflict_free(h, f)) << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DyadicSweepTest,
                         ::testing::Values(8, 17, 32, 50, 100));

}  // namespace
}  // namespace pslocal
