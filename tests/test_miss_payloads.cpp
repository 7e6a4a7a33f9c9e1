// Cross-commit pin of the MIS-family miss path: the execute_request bytes
// of build_conflict_graph, greedy_maxis and luby_mis on a few seeded
// planted instances, against tests/golden/miss_payloads.txt.  The other
// byte pins compare a build with itself (across threads or shards) or
// with the G_k definition; this one fails when a change moves a
// graph_hash, an edge-class count or an oracle's picks relative to the
// commit that wrote the golden.
//
// On a mismatch the test writes the bytes it produced to
// miss_payloads.txt.actual in its working directory; after a deliberate
// payload change, review that file and copy it over the golden.
#include <gtest/gtest.h>

#include <string>

#include "golden.hpp"
#include "hypergraph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "service/request.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pslocal::service {
namespace {

struct MissCase {
  std::size_t n, m, k;
  std::uint64_t seed;
};

constexpr MissCase kCases[] = {
    {48, 40, 2, 1}, {56, 48, 2, 2}, {64, 52, 3, 3}, {80, 64, 3, 4}};

/// One payload per line, in case order, kinds in request order.
std::string miss_payloads() {
  runtime::ThreadPool pool(1);
  std::string out;
  for (const MissCase& c : kCases) {
    PlantedCfParams params;
    params.n = c.n;
    params.m = c.m;
    params.k = c.k;
    Rng rng(c.seed);
    auto inst = std::make_shared<const Hypergraph>(
        planted_cf_colorable(params, rng).hypergraph);
    for (const RequestKind kind :
         {RequestKind::kBuildConflictGraph, RequestKind::kGreedyMaxis,
          RequestKind::kLubyMis}) {
      Request req;
      req.kind = kind;
      req.instance = inst;
      req.instance_hash = hash_hypergraph(*inst);
      req.k = c.k;
      req.seed = c.seed;
      out += execute_request(req, pool);
      out += '\n';
    }
  }
  return out;
}

TEST(MissPayloadGoldenTest, MatchesCheckedInBytes) {
  golden::expect_matches("miss_payloads.txt", miss_payloads());
}

}  // namespace
}  // namespace pslocal::service
