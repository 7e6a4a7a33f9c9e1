#include "local/coloring_local.hpp"

#include <cmath>

#include "coloring/coloring.hpp"
#include "local/simulator.hpp"

namespace pslocal {

namespace {

struct ColorState {
  std::size_t final_color = kNoColor;
  std::size_t candidate = kNoColor;
  std::vector<bool> taken;  // palette slots taken by decided neighbors
};

struct ColorMsg {
  bool decided = false;
  std::size_t color = kNoColor;  // final color or candidate
  VertexId sender = 0;
};

class ColoringAlgorithm {
 public:
  using State = ColorState;
  using Msg = ColorMsg;

  ColorState init(VertexId v, const Graph& g, Rng& rng) {
    ColorState s;
    s.taken.assign(g.degree(v) + 1, false);
    s.candidate = draw(s, rng);
    return s;
  }

  std::optional<ColorMsg> emit(VertexId v, const ColorState& s) {
    ColorMsg m;
    m.decided = (s.final_color != kNoColor);
    m.color = m.decided ? s.final_color : s.candidate;
    m.sender = v;
    return m;
  }

  void step(VertexId v, ColorState& s, InboxView<ColorMsg> inbox, Rng& rng) {
    if (s.final_color != kNoColor) return;
    bool keep = true;
    for (const auto& m : inbox) {
      if (!m) continue;
      if (m->decided) {
        if (m->color < s.taken.size()) s.taken[m->color] = true;
        if (m->color == s.candidate) keep = false;
      } else if (m->color == s.candidate && m->sender < v) {
        keep = false;  // lower id wins equal candidates
      }
    }
    if (keep && !s.taken[s.candidate]) {
      s.final_color = s.candidate;
    } else {
      s.candidate = draw(s, rng);
    }
  }

  bool halted(VertexId, const ColorState& s) {
    return s.final_color != kNoColor;
  }

 private:
  static std::size_t draw(const ColorState& s, Rng& rng) {
    // Uniform over free palette slots; the palette {0..deg} always has a
    // free slot (at most deg neighbors can hold colors).
    std::vector<std::size_t> free;
    free.reserve(s.taken.size());
    for (std::size_t c = 0; c < s.taken.size(); ++c)
      if (!s.taken[c]) free.push_back(c);
    PSL_CHECK(!free.empty());
    return free[rng.next_below(free.size())];
  }
};

}  // namespace

LocalColoringResult local_random_coloring(const Graph& g, std::uint64_t seed,
                                          std::size_t max_rounds) {
  if (max_rounds == 0) {
    const double n = std::max<double>(2.0, static_cast<double>(g.vertex_count()));
    max_rounds = 60 + 12 * static_cast<std::size_t>(std::log2(n));
  }
  ColoringAlgorithm algo;
  auto run = run_local(g, algo, seed, max_rounds);

  LocalColoringResult res;
  res.rounds = run.rounds;
  res.completed = run.all_halted;
  res.coloring.resize(g.vertex_count(), kNoColor);
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    res.coloring[v] = run.states[v].final_color;
  PSL_CHECK_MSG(res.completed, "coloring did not finish in " << max_rounds
                                                             << " rounds");
  PSL_ENSURES(is_proper_coloring(g, res.coloring));
  return res;
}

}  // namespace pslocal
