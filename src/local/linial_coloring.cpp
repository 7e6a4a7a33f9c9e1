#include "local/linial_coloring.hpp"

#include <algorithm>
#include <cmath>

#include "coloring/coloring.hpp"
#include "local/simulator.hpp"
#include "util/check.hpp"

namespace pslocal {

namespace {

bool is_prime(std::size_t x) {
  if (x < 2) return false;
  for (std::size_t p = 2; p * p <= x; ++p)
    if (x % p == 0) return false;
  return true;
}

/// True iff base^exp >= r (early exit, overflow-safe for our ranges).
bool power_at_least(std::size_t base, std::size_t exp, std::size_t r) {
  std::size_t pow = 1;
  for (std::size_t i = 0; i < exp; ++i) {
    if (base != 0 && pow >= (r + base - 1) / base) return true;  // pow*base >= r
    pow *= base;
    if (pow >= r) return true;
  }
  return pow >= r;
}

/// Integer ceil of the (d+1)-th root of r: smallest q with q^{d+1} >= r.
std::size_t ceil_root(std::size_t r, std::size_t d_plus_1) {
  if (r <= 1) return 1;
  auto guess = static_cast<std::size_t>(std::pow(
      static_cast<double>(r), 1.0 / static_cast<double>(d_plus_1)));
  guess = guess > 2 ? guess - 2 : 1;  // start safely below, walk up
  while (!power_at_least(guess, d_plus_1, r)) ++guess;
  return guess;
}

struct StepParams {
  std::size_t q = 0;  // field size (prime)
  std::size_t d = 0;  // polynomial degree bound
  std::size_t new_range = 0;  // q^2
};

/// Best (q, d) for one Linial step from color range r with max degree
/// delta; new_range >= r means no further progress is possible.
StepParams best_step(std::size_t r, std::size_t delta) {
  StepParams best;
  for (std::size_t d = 1; d <= 12; ++d) {
    // Need q > delta*d (good evaluation point exists) and q^{d+1} >= r
    // (colors embed injectively into polynomials).
    const std::size_t q_lo = std::max(delta * d + 1, ceil_root(r, d + 1));
    std::size_t q = q_lo;
    while (!is_prime(q)) ++q;
    const std::size_t range = q * q;
    if (best.q == 0 || range < best.new_range) {
      best.q = q;
      best.d = d;
      best.new_range = range;
    }
  }
  return best;
}

std::size_t poly_eval(std::size_t color, std::size_t q, std::size_t d,
                      std::size_t x) {
  // Horner over the base-q digits of `color` (degree <= d).
  std::vector<std::size_t> coeff(d + 1, 0);
  for (std::size_t i = 0; i <= d && color > 0; ++i) {
    coeff[i] = color % q;
    color /= q;
  }
  std::size_t acc = 0;
  for (std::size_t i = d + 1; i-- > 0;) acc = (acc * x + coeff[i]) % q;
  return acc;
}

class LinialAlgorithm {
 public:
  using State = std::size_t;
  using Msg = std::size_t;

  explicit LinialAlgorithm(std::vector<StepParams> schedule)
      : schedule_(std::move(schedule)) {}

  std::size_t init(VertexId v, const Graph&, Rng&) {
    round_of_.push_back(0);
    return v;  // the trivial coloring by unique ids
  }

  std::optional<std::size_t> emit(VertexId, const std::size_t& color) {
    return color;
  }

  void step(VertexId v, std::size_t& color, InboxView<std::size_t> inbox,
            Rng&) {
    const std::size_t round = round_of_[v]++;
    PSL_CHECK(round < schedule_.size());
    const auto [q, d, new_range] = schedule_[round];
    // Find the smallest evaluation point avoiding all neighbor collisions.
    std::size_t x = 0;
    for (; x < q; ++x) {
      const std::size_t mine = poly_eval(color, q, d, x);
      bool good = true;
      for (const auto& m : inbox) {
        if (m && poly_eval(*m, q, d, x) == mine) {
          good = false;
          break;
        }
      }
      if (good) break;
    }
    PSL_CHECK_MSG(x < q, "no good evaluation point — q too small");
    color = x * q + poly_eval(color, q, d, x);
  }

  bool halted(VertexId v, const std::size_t&) {
    return round_of_[v] >= schedule_.size();
  }

 private:
  std::vector<StepParams> schedule_;
  std::vector<std::size_t> round_of_;
};

}  // namespace

std::size_t next_prime_above(std::size_t x) {
  std::size_t p = x + 1;
  while (!is_prime(p)) ++p;
  return p;
}

LinialResult linial_coloring(const Graph& g) {
  const std::size_t n = g.vertex_count();
  LinialResult res;
  if (n == 0) return res;
  const std::size_t delta = std::max<std::size_t>(1, g.max_degree());

  // Deterministic schedule from global knowledge (n, Δ) — legitimate in
  // the LOCAL model, where n and Δ are standard global parameters.
  std::vector<StepParams> schedule;
  std::size_t range = n;
  res.range_trace.push_back(range);
  while (true) {
    const auto step = best_step(range, delta);
    if (step.new_range >= range) break;  // fixed point reached
    schedule.push_back(step);
    range = step.new_range;
    res.range_trace.push_back(range);
  }

  LinialAlgorithm algo(schedule);
  auto run = run_local(g, algo, /*seed=*/0, schedule.size() + 1);
  PSL_CHECK(run.all_halted);

  res.coloring = std::move(run.states);
  res.colors_range = range;
  res.rounds = run.rounds;
  PSL_ENSURES(is_proper_coloring(g, res.coloring));
  for (auto c : res.coloring) PSL_ENSURES(c < range);
  return res;
}

}  // namespace pslocal
