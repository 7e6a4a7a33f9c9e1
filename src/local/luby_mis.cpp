#include "local/luby_mis.hpp"

#include "local/luby_algorithm.hpp"
#include "mis/independent_set.hpp"

namespace pslocal {

LubyResult luby_mis(const Graph& g, std::uint64_t seed,
                    std::size_t max_rounds, runtime::Scheduler&) {
  if (max_rounds == 0)
    max_rounds = detail::luby_default_round_cap(g.vertex_count());
  detail::LubyAlgorithm algo;
  auto run = run_local(g, algo, seed, max_rounds);

  LubyResult res;
  res.rounds = run.rounds;
  res.iterations = run.rounds / 2;
  res.completed = run.all_halted;
  res.messages_sent = run.messages_sent;
  res.max_message_bytes = run.max_message_bytes;
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    if (run.states[v].status == detail::LubyStatus::kIn)
      res.independent_set.push_back(v);
  PSL_CHECK_MSG(res.completed, "Luby did not finish in " << max_rounds
                                                         << " rounds");
  PSL_ENSURES(is_maximal_independent_set(g, res.independent_set));
  return res;
}

std::vector<VertexId> LubyOracle::solve(const Graph& g) {
  return luby_mis(g, seed_++).independent_set;
}

}  // namespace pslocal
