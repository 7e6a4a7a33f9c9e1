// Luby's randomized maximal independent set algorithm [Lub86] in the
// LOCAL simulator — the fast randomized counterpart whose missing
// deterministic analogue motivates the P-SLOCAL theory (paper, Section 1).
//
// Each iteration takes two communication rounds:
//   (A) every undecided node draws a fresh random priority and broadcasts
//       it; a node whose priority is a strict local minimum (ties broken
//       by id) tentatively joins the MIS;
//   (B) joiners announce themselves; undecided neighbors of a joiner
//       become permanently excluded.
// With high probability O(log n) iterations decide every node.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mis/oracle.hpp"
#include "runtime/global.hpp"

namespace pslocal {

struct LubyResult {
  std::vector<VertexId> independent_set;
  std::size_t rounds = 0;      // communication rounds (2 per iteration)
  std::size_t iterations = 0;  // rounds / 2
  bool completed = false;      // all nodes decided within the round cap
  std::size_t messages_sent = 0;       // simulator bandwidth accounting
  std::size_t max_message_bytes = 0;
};

/// Run Luby's algorithm; `max_rounds` caps the simulation (default scales
/// as c*log2(n) iterations, far above the w.h.p. bound).  A seed fixes
/// the result (per-vertex RNG substreams).  The scheduler parameter is
/// unused; it stays so existing callers compile.
LubyResult luby_mis(const Graph& g, std::uint64_t seed,
                    std::size_t max_rounds = 0,
                    runtime::Scheduler& sched = runtime::global_scheduler());

/// Oracle adapter: an MIS is a (Δ+1)-approximation of MaxIS (each chosen
/// vertex eliminates at most Δ optimum vertices).
class LubyOracle final : public MaxISOracle {
 public:
  explicit LubyOracle(std::uint64_t seed) : seed_(seed) {}
  [[nodiscard]] std::vector<VertexId> solve(const Graph& g) override;
  [[nodiscard]] std::string name() const override { return "luby-mis"; }

 private:
  std::uint64_t seed_;
};

}  // namespace pslocal
