#include "local/from_coloring.hpp"

#include <algorithm>

#include "coloring/coloring.hpp"
#include "local/simulator.hpp"
#include "mis/independent_set.hpp"
#include "util/check.hpp"

namespace pslocal {

namespace {

// --- MIS by color classes ---------------------------------------------

struct ClassState {
  std::size_t color = 0;   // my (input) color class
  std::size_t round = 0;   // current sweep position
  enum : std::uint8_t { kUndecided, kIn, kOut } status = kUndecided;
};

struct ClassMsg {
  bool in_mis = false;
};

class MisByClasses {
 public:
  using State = ClassState;
  using Msg = ClassMsg;

  MisByClasses(const std::vector<std::size_t>& color, std::size_t classes)
      : color_(color), classes_(classes) {}

  ClassState init(VertexId v, const Graph&, Rng&) {
    ClassState s;
    s.color = color_[v];
    return s;
  }

  std::optional<ClassMsg> emit(VertexId, const ClassState& s) {
    return ClassMsg{s.status == ClassState::kIn};
  }

  void step(VertexId, ClassState& s, InboxView<ClassMsg> inbox, Rng&) {
    // Round i decides color class i: a node joins unless an (earlier-
    // class) neighbor is already in.
    if (s.status == ClassState::kUndecided && s.color == s.round) {
      bool blocked = false;
      for (const auto& m : inbox)
        if (m && m->in_mis) {
          blocked = true;
          break;
        }
      s.status = blocked ? ClassState::kOut : ClassState::kIn;
    }
    ++s.round;
  }

  bool halted(VertexId, const ClassState& s) {
    return s.round >= classes_;
  }

 private:
  const std::vector<std::size_t>& color_;
  std::size_t classes_;
};

// --- color reduction ----------------------------------------------------

struct ReduceState {
  std::size_t color = 0;
  std::size_t round = 0;
};

struct ReduceMsg {
  std::size_t color = 0;
};

class ReduceByClasses {
 public:
  using State = ReduceState;
  using Msg = ReduceMsg;

  ReduceByClasses(const std::vector<std::size_t>& color, std::size_t classes,
                  std::size_t target)
      : color_(color), classes_(classes), target_(target) {}

  ReduceState init(VertexId v, const Graph&, Rng&) {
    return ReduceState{color_[v], 0};
  }

  std::optional<ReduceMsg> emit(VertexId, const ReduceState& s) {
    return ReduceMsg{s.color};
  }

  void step(VertexId, ReduceState& s, InboxView<ReduceMsg> inbox, Rng&) {
    // Round i eliminates color class target_ + i: those nodes take the
    // smallest color < target_ unused by neighbors (exists: <= Δ taken).
    const std::size_t eliminated = target_ + s.round;
    if (s.color == eliminated) {
      std::vector<bool> used(target_, false);
      for (const auto& m : inbox)
        if (m && m->color < target_) used[m->color] = true;
      std::size_t c = 0;
      while (c < used.size() && used[c]) ++c;
      PSL_CHECK_MSG(c < target_, "no free color below the Δ+1 target");
      s.color = c;
    }
    ++s.round;
  }

  bool halted(VertexId, const ReduceState& s) {
    return target_ + s.round >= classes_;
  }

 private:
  const std::vector<std::size_t>& color_;
  std::size_t classes_;
  std::size_t target_;
};

}  // namespace

MisFromColoringResult mis_from_coloring(
    const Graph& g, const std::vector<std::size_t>& color) {
  PSL_EXPECTS(is_proper_coloring(g, color));
  std::size_t classes = 0;
  for (auto c : color) classes = std::max(classes, c + 1);

  MisByClasses algo(color, classes);
  auto run = run_local(g, algo, 0, classes + 1);
  PSL_CHECK(run.all_halted);

  MisFromColoringResult res;
  res.rounds = run.rounds;
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    if (run.states[v].status == ClassState::kIn)
      res.independent_set.push_back(v);
  PSL_ENSURES(is_maximal_independent_set(g, res.independent_set));
  return res;
}

ColorReductionResult color_reduction(const Graph& g,
                                     const std::vector<std::size_t>& color) {
  PSL_EXPECTS(is_proper_coloring(g, color));
  std::size_t classes = 0;
  for (auto c : color) classes = std::max(classes, c + 1);
  const std::size_t target = g.max_degree() + 1;

  ColorReductionResult res;
  if (classes <= target) {
    res.coloring = color;
    return res;
  }
  ReduceByClasses algo(color, classes, target);
  auto run = run_local(g, algo, 0, classes + 1);
  PSL_CHECK(run.all_halted);
  res.rounds = run.rounds;
  res.coloring.resize(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    res.coloring[v] = run.states[v].color;
  PSL_ENSURES(is_proper_coloring(g, res.coloring));
  PSL_ENSURES(color_count(res.coloring) <= target);
  return res;
}

}  // namespace pslocal
