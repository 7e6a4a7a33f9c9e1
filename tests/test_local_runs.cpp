// Cross-commit pin of every algorithm that runs on the LOCAL simulator:
// rounds, message accounting and a hash of each output, against
// tests/golden/local_runs.txt.  The other LOCAL tests check properties
// within one build (proper, maximal, deterministic per seed); those
// still pass when a change moves an RNG draw or a halted check of one
// algorithm.  This one fails then.  (Every in-tree algorithm ignores
// inbox order; LocalSimulatorTest.InboxIsReadInNeighborOrder pins it.)
//
// Luby runs on the G_k of MissPayloadGoldenTest's four planted
// instances (and, on the first, under CONGEST and hosted on H); the
// colouring, from-colouring and MPX algorithms run on four small graphs;
// the CF verifier runs on a valid and an invalid colouring.
//
// On a mismatch the test writes the lines it produced to
// local_runs.txt.actual in its working directory; after a deliberate
// change, review that file and copy it over the golden.
#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "coloring/local_verifier.hpp"
#include "core/conflict_graph.hpp"
#include "core/virtual_local.hpp"
#include "golden.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "local/coloring_local.hpp"
#include "local/congest.hpp"
#include "local/from_coloring.hpp"
#include "local/linial_coloring.hpp"
#include "local/luby_algorithm.hpp"
#include "local/luby_mis.hpp"
#include "local/mpx_decomposition.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pslocal {
namespace {

struct PlantedCase {
  std::size_t n, m, k;
  std::uint64_t seed;
};

// MissPayloadGoldenTest's instances.
constexpr PlantedCase kPlanted[] = {
    {48, 40, 2, 1}, {56, 48, 2, 2}, {64, 52, 3, 3}, {80, 64, 3, 4}};

PlantedCfInstance planted(const PlantedCase& c) {
  PlantedCfParams params;
  params.n = c.n;
  params.m = c.m;
  params.k = c.k;
  Rng rng(c.seed);
  return planted_cf_colorable(params, rng);
}

/// FNV-1a over the length and the values, as hex.
template <typename Range, typename Word>
std::string digest(const Range& values, Word word) {
  Fnv1a64 h;
  h.update_u64(values.size());
  for (const auto& x : values) h.update_u64(word(x));
  std::ostringstream os;
  os << std::hex << h.digest();
  return os.str();
}

template <typename Range>
std::string digest(const Range& values) {
  return digest(values, [](auto x) { return static_cast<std::uint64_t>(x); });
}

std::vector<VertexId> luby_set(const std::vector<detail::LubyState>& states) {
  std::vector<VertexId> is;
  for (VertexId v = 0; v < states.size(); ++v)
    if (states[v].status == detail::LubyStatus::kIn) is.push_back(v);
  return is;
}

void luby_lines(std::ostringstream& out) {
  for (const PlantedCase& c : kPlanted) {
    const ConflictGraph cg(planted(c).hypergraph, c.k);
    for (const std::uint64_t seed : {1u, 2u}) {
      const auto r = luby_mis(cg.graph(), seed);
      out << "luby inst=" << c.seed << " seed=" << seed
          << " rounds=" << r.rounds << " messages=" << r.messages_sent
          << " max_bytes=" << r.max_message_bytes
          << " is=" << digest(r.independent_set) << '\n';
    }
  }
  const ConflictGraph cg(planted(kPlanted[0]).hypergraph, kPlanted[0].k);
  const std::size_t cap = detail::luby_default_round_cap(cg.triple_count());
  detail::LubyAlgorithm congest_algo;
  const auto congest =
      run_congest(cg.graph(), congest_algo, 1, cap, /*bandwidth_bytes=*/4);
  out << "luby_congest inst=1 seed=1 B=4 rounds=" << congest.local.rounds
      << " halted=" << congest.local.all_halted
      << " messages=" << congest.local.messages_sent
      << " total_bytes=" << congest.local.total_message_bytes
      << " physical_rounds=" << congest.physical_rounds
      << " max_fragments=" << congest.max_fragments_per_round
      << " is=" << digest(luby_set(congest.local.states)) << '\n';
  detail::LubyAlgorithm hosted_algo;
  const auto hosted = run_local_on_hosts(cg, hosted_algo, 1, cap);
  out << "luby_hosted inst=1 seed=1 physical_rounds=" << hosted.physical_rounds
      << " halted=" << hosted.all_halted
      << " max_physical_bytes=" << hosted.max_physical_message_bytes
      << " total_physical_bytes=" << hosted.total_physical_message_bytes
      << " is=" << digest(luby_set(hosted.states)) << '\n';
}

void graph_lines(std::ostringstream& out) {
  Rng gnp_rng(5);
  // Linial takes no step on the first three (an id range of n is already
  // at its fixed point); on ring(200) it takes two (200 -> 49 -> 25).
  const std::pair<const char*, Graph> graphs[] = {
      {"grid6x6", grid(6, 6)},
      {"ring17", ring(17)},
      {"gnp60", gnp(60, 0.1, gnp_rng)},
      {"ring200", ring(200)}};
  for (const auto& [name, g] : graphs) {
    const auto random = local_random_coloring(g, /*seed=*/3);
    out << "random_coloring " << name << " rounds=" << random.rounds
        << " completed=" << random.completed
        << " coloring=" << digest(random.coloring) << '\n';

    const auto linial = linial_coloring(g);
    out << "linial " << name << " rounds=" << linial.rounds
        << " range=" << linial.colors_range
        << " trace=" << digest(linial.range_trace)
        << " coloring=" << digest(linial.coloring) << '\n';

    const auto reduced = color_reduction(g, linial.coloring);
    out << "color_reduction " << name << " rounds=" << reduced.rounds
        << " coloring=" << digest(reduced.coloring) << '\n';

    const auto mis = mis_from_coloring(g, linial.coloring);
    out << "mis_from_coloring " << name << " rounds=" << mis.rounds
        << " is=" << digest(mis.independent_set) << '\n';

    const auto mpx = mpx_clustering(g, /*beta=*/0.5, /*seed=*/3);
    out << "mpx " << name << " rounds=" << mpx.rounds
        << " clusters=" << mpx.cluster_count
        << " radius=" << mpx.max_cluster_radius << " cut_bits=" << std::hex
        << std::bit_cast<std::uint64_t>(mpx.cut_edge_fraction) << std::dec
        << " centers=" << digest(mpx.center_of) << " keys="
        << digest(mpx.key_of,
                  [](double x) { return std::bit_cast<std::uint64_t>(x); })
        << '\n';
  }
}

void verifier_lines(std::ostringstream& out) {
  const PlantedCfInstance inst = planted(kPlanted[0]);
  const Hypergraph& h = inst.hypergraph;
  // Invalid: edge 0's members share one colour no other vertex holds.
  std::vector<bool> in_edge0(h.vertex_count(), false);
  for (VertexId v : h.edge(0)) in_edge0[v] = true;
  CfMulticoloring valid(h.vertex_count()), invalid(h.vertex_count());
  for (VertexId v = 0; v < h.vertex_count(); ++v) {
    valid.add_color(v, inst.planted_coloring[v]);
    invalid.add_color(v, in_edge0[v] ? inst.k + 1 : inst.planted_coloring[v]);
  }
  for (const auto& [name, mc] : {std::pair{"valid", &valid},
                                 std::pair{"invalid", &invalid}}) {
    const auto verdict = local_cf_verify(h, *mc);
    out << "cf_verify inst=1 " << name << " accept=" << verdict.accept
        << " rounds=" << verdict.rounds
        << " edges=" << digest(verdict.edge_happy)
        << " vertices=" << digest(verdict.vertex_accepts) << '\n';
  }
}

std::string local_runs() {
  std::ostringstream out;
  luby_lines(out);
  graph_lines(out);
  verifier_lines(out);
  return out.str();
}

TEST(LocalRunsGoldenTest, MatchesCheckedInLines) {
  golden::expect_matches("local_runs.txt", local_runs());
}

}  // namespace
}  // namespace pslocal
