// Self-tests of the benchmark's own helpers (harness.hpp).  run.py runs
// this binary before every benchmark run; a failure fails the run.
//
//   .bench_build/perfbench_selftest      # prints one line per check
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void test_quantile() {
  // 1..1000: nearest rank puts p50 at 500 and p99 at 990, with exactly
  // ten samples (991..1000) beyond it.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  check(quantile(v, 0.50) == 500.0, "quantile: p50 of 1..1000 is 500");
  check(quantile(v, 0.99) == 990.0, "quantile: p99 of 1..1000 is 990");
  check(samples_beyond(v.size(), 0.99) == 10,
        "quantile: ten samples beyond p99 of 1000");
  check(summarize(v).p99_supported, "quantile: p99 of 1000 samples supported");

  std::vector<double> small(999, 1.0);
  check(!summarize(small).p99_supported,
        "quantile: p99 of 999 samples not supported (9 beyond)");
  check(quantile({}, 0.5) == 0.0, "quantile: empty input gives 0");
  check(quantile({7.0}, 0.99) == 7.0, "quantile: single sample");
  check(quantile({1.0, 2.0}, 0.0) == 1.0 && quantile({1.0, 2.0}, 1.0) == 2.0,
        "quantile: q=0 and q=1 are min and max");
}

void test_schedules() {
  pslocal::Rng rng(42);
  const std::uint64_t duration_ns = 200'000'000'000ULL;  // 200 s
  const auto poisson = poisson_schedule_ns(rng, 500.0, duration_ns);
  const double rate = static_cast<double>(poisson.size()) / 200.0;
  // 100k arrivals: sd of the count is ~0.3%, so 2% is > 6 sigma.
  check(std::fabs(rate - 500.0) < 10.0, "poisson: mean rate within 2%");
  bool sorted = true;
  for (std::size_t i = 1; i < poisson.size(); ++i)
    sorted = sorted && poisson[i - 1] <= poisson[i];
  check(sorted && !poisson.empty() && poisson.back() < duration_ns,
        "poisson: arrivals sorted and inside the window");

  // Exponential gaps: the coefficient of variation is 1.
  double sum = 0, sq = 0, prev = 0;
  for (const std::uint64_t t : poisson) {
    const double gap = static_cast<double>(t) - prev;
    prev = static_cast<double>(t);
    sum += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(poisson.size());
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  check(std::fabs(cv - 1.0) < 0.03, "poisson: gap CV is 1");

  pslocal::Rng prng(7);
  const auto pareto = pareto_schedule_ns(prng, 100.0, 1.5, 64.0, duration_ns);
  const double prate = static_cast<double>(pareto.size()) / 200.0;
  check(std::fabs(prate - 100.0) < 5.0, "pareto: mean rate within 5%");
}

void test_tally() {
  Tally t;
  t.add(Outcome::kOk, false);
  t.add(Outcome::kShed, true);  // rate-limited tenant shed: not a failure
  check(t.failed == 0 && t.limited_sheds == 1 && t.attempted == 2,
        "tally: a bulk shed is not a failure");
  t.add(Outcome::kShed, false);  // unlimited (interactive) tenant shed
  t.add(Outcome::kLost, false);
  t.add(Outcome::kError, true);
  t.add(Outcome::kTimeout, false);
  t.add(Outcome::kTransport, false);
  t.add(Outcome::kQueueFull, true);
  check(t.failed == 6 && t.attempted == 8,
        "tally: interactive shed, lost, error, timeout, transport and "
        "queue-full are failures");
  check(std::fabs(t.failed_share() - 6.0 / 8.0) < 1e-12,
        "tally: failed_share is failed / attempted");
  check(Tally{}.failed_share() == 0.0, "tally: empty share is 0");
}

void test_self_time() {
  Span parent;
  parent.t0 = 100;
  parent.t1 = 200;
  std::vector<Span> kids(3);
  kids[0].t0 = 110, kids[0].t1 = 140;
  kids[1].t0 = 130, kids[1].t1 = 150;  // overlaps kids[0]
  kids[2].t0 = 190, kids[2].t1 = 260;  // runs past the parent
  check(self_time_ns(parent, kids) == 100 - 40 - 10,
        "spans: self time subtracts the union of clipped children");
}

}  // namespace

int main() {
  test_quantile();
  test_schedules();
  test_tally();
  test_self_time();
  std::printf("selftest: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
