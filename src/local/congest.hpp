// CONGEST-mode execution: run_local()'s synchronous broadcast rounds,
// billed under a per-edge bandwidth cap of B bytes per physical round.
// A broadcast of s bytes is fragmented into ceil(s/B) fragments; the
// system stays synchronous, so an algorithm round costs
// max_v ceil(size(msg_v)/B) physical rounds (1 for a silent round).
//
// The paper's model is LOCAL precisely because the G_k simulation bundles
// up to max-host-load virtual messages into one physical message
// (core/virtual_local.hpp); running the same algorithms under a CONGEST
// cap quantifies what that unboundedness buys (experiment E9/E14 columns).
#pragma once

#include <algorithm>
#include <cstddef>

#include "local/simulator.hpp"

namespace pslocal {

template <typename State>
struct CongestRunResult {
  LocalRunResult<State> local;      // the algorithm-level run
  std::size_t bandwidth_bytes = 0;  // the cap B
  std::size_t physical_rounds = 0;  // sum of per-round fragment counts
  std::size_t max_fragments_per_round = 0;
};

/// Execute `algo` with bandwidth cap B >= 1 byte.  The run is run_local's
/// (states, outputs, algorithm rounds, message accounting); a round
/// observer adds the physical-round bill.
template <BroadcastAlgorithm Algo>
CongestRunResult<typename Algo::State> run_congest(
    const Graph& g, Algo& algo, std::uint64_t seed, std::size_t max_rounds,
    std::size_t bandwidth_bytes) {
  PSL_EXPECTS(bandwidth_bytes >= 1);
  CongestRunResult<typename Algo::State> out;
  out.bandwidth_bytes = bandwidth_bytes;
  out.local = run_local(
      g, algo, seed, max_rounds,
      [&](std::span<const std::optional<typename Algo::Msg>> outbox) {
        std::size_t max_bytes = 0;
        for (const auto& msg : outbox)
          if (msg)
            max_bytes = std::max(max_bytes, message_size_of(algo, *msg));
        const std::size_t fragments = std::max<std::size_t>(
            1, (max_bytes + bandwidth_bytes - 1) / bandwidth_bytes);
        out.physical_rounds += fragments;
        out.max_fragments_per_round =
            std::max(out.max_fragments_per_round, fragments);
      });
  return out;
}

}  // namespace pslocal
