// The LOCAL model of distributed computing [Linial 1992], as recalled in
// the paper's introduction:
//
//   "A graph is abstracted as an n-node network G = (V, E) with maximum
//    degree ∆.  Communications happen in synchronous rounds.  Per round,
//    each node can send one (unbounded size) message to each of its
//    neighbors.  At the end, each node should know its own part of the
//    output."
//
// This simulator executes *broadcast* algorithms: per round every node
// emits one message seen by all neighbors.  In the LOCAL model this is
// without loss of generality (a node can concatenate per-neighbor content
// into one unbounded message and receivers project their part); all
// algorithms in this library are natural broadcast algorithms anyway.
//
// The simulator enforces the model's single resource — rounds — exactly:
// a node's new state is a function of its previous state and the messages
// of its direct neighbors from this round only.  Per-node randomness comes
// from independent substreams of one seed, so runs are reproducible.
//
// Each round is two sweeps over the vertices on the calling thread: every
// node emits from its pre-round state, then every node steps on its
// neighbors' messages.  The model charges rounds, not host time, and each
// vertex owns a dedicated RNG substream, so a seed fixes the whole run.
// Algorithm implementations must keep emit/step/halted free of state
// shared between vertices outside the vertex's own State, or a step could
// see a neighbor's post-round state (all in-tree algorithms are;
// per-vertex-slot members like Linial's round table are fine).
//
// This is the library's only round loop.  Models that bill the same
// rounds differently pass a round observer: run_congest()
// (local/congest.hpp) charges bandwidth fragments, run_local_on_hosts()
// (core/virtual_local.hpp) charges bundled host messages.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pslocal {

/// A broadcast LOCAL algorithm over node states of type State and messages
/// of type Msg.  Implementations override the four virtuals; the simulator
/// owns the synchronous schedule.
template <typename State, typename Msg>
class BroadcastAlgorithm {
 public:
  virtual ~BroadcastAlgorithm() = default;

  /// Initial state of node v (round 0, before any communication).
  [[nodiscard]] virtual State init(VertexId v, const Graph& g, Rng& rng) = 0;

  /// Message broadcast by a node this round; nullopt = stay silent.
  [[nodiscard]] virtual std::optional<Msg> emit(VertexId v,
                                                const State& state) = 0;

  /// State transition: inbox[i] is the message of g.neighbors(v)[i]
  /// (nullopt if that neighbor stayed silent).
  virtual void step(VertexId v, State& state,
                    std::span<const std::optional<Msg>> inbox, Rng& rng) = 0;

  /// A halted node neither changes state nor needs more rounds.  The
  /// simulation stops when every node has halted (it still emits, so
  /// neighbors can read final outputs).
  [[nodiscard]] virtual bool halted(VertexId v, const State& state) = 0;

  /// Payload size of a message in bytes, for the simulator's bandwidth
  /// accounting.  LOCAL allows unbounded messages — the accounting shows
  /// where a bandwidth-limited model (CONGEST) would diverge.  Override
  /// for variable-size messages; the default charges the static size.
  [[nodiscard]] virtual std::size_t message_size(const Msg&) const {
    return sizeof(Msg);
  }
};

template <typename State>
struct LocalRunResult {
  std::vector<State> states;
  std::size_t rounds = 0;    // communication rounds executed
  bool all_halted = false;   // false iff max_rounds was hit first
  std::size_t messages_sent = 0;       // broadcasts that carried a payload
  std::size_t max_message_bytes = 0;   // largest single payload
  std::size_t total_message_bytes = 0; // sum of broadcast payload sizes
};

namespace detail {
/// Shared across every run_local instantiation (obs dedupes by name).
struct LocalSimMetrics {
  obs::Counter runs{"local.runs"};
  obs::Counter rounds{"local.rounds"};
  obs::Counter messages{"local.messages"};
  obs::Counter message_bytes{"local.message_bytes"};
  obs::Histogram run_rounds{"local.run_rounds"};
  static const LocalSimMetrics& get() {
    static LocalSimMetrics m;
    return m;
  }
};
}  // namespace detail

/// The default round observer: sees nothing.
struct NoRoundObserver {
  void operator()(const auto&) const {}
};

/// Run the algorithm until every node halts or `max_rounds` is reached.
/// After each round's emit sweep, `observe(outbox)` runs, where outbox
/// is a std::span<const std::optional<Msg>> and outbox[v] is what v
/// broadcasts this round.
template <typename State, typename Msg,
          typename RoundObserver = NoRoundObserver>
LocalRunResult<State> run_local(const Graph& g,
                                BroadcastAlgorithm<State, Msg>& algo,
                                std::uint64_t seed, std::size_t max_rounds,
                                RoundObserver&& observe = {}) {
  PSL_OBS_SPAN("local.run");
  const auto& obs_metrics = detail::LocalSimMetrics::get();
  obs_metrics.runs.add(1);
  const std::size_t n = g.vertex_count();
  Rng base(seed);
  std::vector<Rng> node_rng;
  node_rng.reserve(n);
  for (VertexId v = 0; v < n; ++v) node_rng.push_back(base.split(v));

  LocalRunResult<State> run;
  // init runs in vertex order: some algorithms size per-vertex tables
  // here, and the order is part of the seeded contract.
  run.states.reserve(n);
  for (VertexId v = 0; v < n; ++v)
    run.states.push_back(algo.init(v, g, node_rng[v]));

  auto all_halted = [&] {
    for (VertexId v = 0; v < n; ++v)
      if (!algo.halted(v, run.states[v])) return false;
    return true;
  };

  std::vector<std::optional<Msg>> outbox(n);
  std::vector<std::optional<Msg>> inbox;
  while (run.rounds < max_rounds) {
    if (all_halted()) {
      run.all_halted = true;
      break;
    }

    PSL_OBS_SPAN("local.round");

    // Synchronous round: everyone emits from the pre-round state...
    std::size_t sent = 0;
    std::size_t total_bytes = 0;
    {
      PSL_OBS_SPAN("local.emit");
      for (VertexId v = 0; v < n; ++v) {
        outbox[v] = algo.emit(v, run.states[v]);
        if (!outbox[v]) continue;
        const std::size_t bytes = algo.message_size(*outbox[v]);
        ++sent;
        total_bytes += bytes;
        run.max_message_bytes = std::max(run.max_message_bytes, bytes);
      }
    }
    run.messages_sent += sent;
    run.total_message_bytes += total_bytes;
    observe(std::span<const std::optional<Msg>>(outbox));

    // ...then everyone steps on its neighbors' messages.
    {
      PSL_OBS_SPAN("local.step");
      for (VertexId v = 0; v < n; ++v) {
        if (algo.halted(v, run.states[v])) continue;
        const auto nb = g.neighbors(v);
        inbox.assign(nb.size(), std::nullopt);
        for (std::size_t i = 0; i < nb.size(); ++i) inbox[i] = outbox[nb[i]];
        algo.step(v, run.states[v], inbox, node_rng[v]);
      }
    }
    obs_metrics.rounds.add(1);
    obs_metrics.messages.add(sent);
    obs_metrics.message_bytes.add(total_bytes);
    ++run.rounds;
  }
  if (!run.all_halted) run.all_halted = all_halted();
  obs_metrics.run_rounds.record(run.rounds);
  return run;
}

}  // namespace pslocal
