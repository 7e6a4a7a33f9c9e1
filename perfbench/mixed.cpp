// mixed_open: an open loop of Poisson arrivals over TCP to one
// net::Server in front of a qos-enabled engine, one sender thread per
// tenant.
//
//   interactive (weight 4)  the five read kinds, Zipf-skewed over more
//                           keys than the 512-entry result cache and 64
//                           G_k entries hold: a steady miss trickle and
//                           ongoing evictions.
//   bulk (weight 1)         bounded-Pareto bursts of mutate_hypergraph
//                           writes, token-bucket limited below what it
//                           offers (its sheds are the qos contract, not
//                           failures).
//
// Hits and misses share dispatch cycles, so head-of-line blocking shows
// in the interactive tail.  Latency runs from each request's scheduled
// send time, so a stalled generator cannot hide queueing.  The window is
// a fixed ladder of interactive rates; every step runs on every commit
// and the gated latency is read at the nominal step.
#include <poll.h>
#include <sys/prctl.h>

#include <functional>
#include <thread>

#include "common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/global.hpp"

namespace perfbench {

namespace {

using pslocal::now_ns;
namespace service = pslocal::service;
namespace net = pslocal::net;

constexpr double kLadderRps[] = {400, 800, 1200, 1600};
constexpr double kStepShare[] = {0.1, 0.7, 0.1, 0.1};  // of --seconds
constexpr std::size_t kNominalStep = 1;
/// slo_rate_rps limit on the interactive p99 (frozen with the benchmark).
constexpr double kSloP99Ms = 25.0;

constexpr std::size_t kReadInstances = 240;  // x 5 kinds = 1200 keys
constexpr double kZipfS = 1.2;
constexpr std::size_t kWarmRequests = 3000;
constexpr std::size_t kWarmWindow = 16;

constexpr std::size_t kBulkInstances = 32;
constexpr double kBulkOfferedRps = 20.0;
constexpr double kBulkLimitRps = 12.0;
constexpr double kBulkBurst = 4.0;
constexpr double kParetoAlpha = 1.5;
constexpr double kParetoBound = 64.0;

const char* const kInteractive = "interactive";
const char* const kBulk = "bulk";

/// Block until `fd` is readable or `wait_ns` passed.
void wait_readable(int fd, std::uint64_t wait_ns) {
  pollfd pfd{fd, POLLIN, 0};
  const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ULL),
                    static_cast<long>(wait_ns % 1'000'000'000ULL)};
  (void)ppoll(&pfd, 1, &ts, nullptr);
}

struct MixedSetup {
  service::ServiceEngine engine;
  net::Server server;
  std::vector<Request> keys;  // Zipf rank order
  std::vector<std::shared_ptr<const Hypergraph>> bulk_instances;
  PayloadBook book;
  Tally warm;
  std::uint64_t warm_mismatches = 0;
  std::unique_ptr<net::Client> interactive, bulk;

  explicit MixedSetup(std::uint64_t seed)
      : engine(mixed_engine_config(seed)), server(engine, {}) {
    keys = read_keys(seed, kMixedInstances, kReadInstances);
    Rng order = Rng(seed).fork(kMixedPicks).fork(999);
    order.shuffle(keys);
    for (std::uint64_t i = 0; i < kBulkInstances; ++i)
      bulk_instances.push_back(planted_instance(seed, kMixedBulkInstances, i));

    engine.start();
    server.start();
    interactive = connect();
    bulk = connect();

    // Warm the caches to their steady hit ratio with the same Zipf
    // stream shape, kWarmWindow requests in flight.
    const ZipfPicker zipf(keys.size(), kZipfS);
    Rng picks = Rng(seed).fork(kMixedWarm);
    struct Sent {
      std::uint64_t id;
      std::size_t key;
    };
    std::vector<Sent> inflight;
    const auto settle = [&](const Sent& s) {
      const auto r = interactive->wait(s.id, 30000);
      warm.add(outcome_of(r), false);
      if (r.outcome == net::Client::Outcome::kOk &&
          !book.observe(keys[s.key], r.response.key, r.response.cache_hit,
                        r.response.result))
        ++warm_mismatches;
    };
    for (std::size_t n = 0; n < kWarmRequests; ++n) {
      if (inflight.size() == kWarmWindow) {
        settle(inflight.front());
        inflight.erase(inflight.begin());
      }
      const std::size_t key = zipf.pick(picks);
      Request req = keys[key];
      req.tenant = kInteractive;
      inflight.push_back({interactive->send(req), key});
    }
    for (const Sent& s : inflight) settle(s);
  }

  std::unique_ptr<net::Client> connect() {
    net::Client::Config cc;
    cc.port = server.port();
    auto c = std::make_unique<net::Client>(cc);
    c->connect();
    return c;
  }
};

/// One tenant's sender over one step.
struct SenderOut {
  std::vector<WindowResult::Sample> ok;  // start relative to the step
  std::vector<double> all_ms, hit_ms, miss_ms, late_ms;
  std::vector<std::size_t> backlog;  // outstanding at each send
  std::vector<Span> spans;
  Tally tally;
  std::uint64_t mismatches = 0;
};

struct SenderSpec {
  net::Client* client = nullptr;
  const std::vector<std::uint64_t>* schedule = nullptr;
  std::function<Request(std::size_t)> make;
  const char* tenant = "";
  bool rate_limited = false;
  bool writes = false;
  std::uint32_t tid = 0;
};

void run_sender(const SenderSpec& spec, std::uint64_t start, PayloadBook& book,
                bool traced, SenderOut& so) {
  // Wake-ups at the scheduled time, not up to 50 us after it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  net::Client& client = *spec.client;
  const int fd = client.native_handle();
  struct Inflight {
    std::uint64_t id;
    std::uint64_t due;
    Request req;
  };
  std::vector<Inflight> inflight;
  so.ok.reserve(spec.schedule->size());
  const auto resolve = [&](const Inflight& f, const net::Client::Result& r) {
    const std::uint64_t t = now_ns();
    const Outcome o = outcome_of(r);
    so.tally.add(o, spec.rate_limited);
    if (o != Outcome::kOk) return;
    const double ms = ms_between(f.due, t);
    const bool hit = r.response.cache_hit;
    so.ok.push_back({us_between(start, f.due), static_cast<float>(ms)});
    so.all_ms.push_back(ms);
    (hit ? so.hit_ms : so.miss_ms).push_back(ms);
    if (!book.observe(f.req, r.response.key, hit, r.response.result))
      ++so.mismatches;
    const char* tag = spec.writes ? "write" : hit ? "hit" : "miss";
    if (traced)
      so.spans.push_back(
          {"request", tag, next_span_id(), 0, f.due, t, spec.tid, f.id});
  };
  const auto pump = [&] {
    for (std::size_t i = 0; i < inflight.size();) {
      const auto r = client.try_wait(inflight[i].id);
      if (r.outcome == net::Client::Outcome::kTimeout) {
        ++i;
        continue;
      }
      resolve(inflight[i], r);
      inflight[i] = std::move(inflight.back());
      inflight.pop_back();
    }
  };

  const std::vector<std::uint64_t>& schedule = *spec.schedule;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const std::uint64_t due = start + schedule[k];
    for (std::uint64_t now = now_ns(); now < due; now = now_ns()) {
      wait_readable(fd, due - now);
      pump();
    }
    if (traced) so.late_ms.push_back(ms_between(due, now_ns()));
    Request req = spec.make(k);
    req.tenant = spec.tenant;
    try {
      const std::uint64_t id = client.send(req);
      inflight.push_back({id, due, std::move(req)});
    } catch (const std::exception&) {
      so.tally.add(Outcome::kTransport, spec.rate_limited);
    }
    so.backlog.push_back(inflight.size());
    pump();
  }
  const std::uint64_t give_up = now_ns() + 30'000'000'000ULL;
  while (!inflight.empty() && now_ns() < give_up) {
    wait_readable(fd, 10'000'000);
    pump();
  }
  for (std::size_t i = 0; i < inflight.size(); ++i)
    so.tally.add(Outcome::kLost, spec.rate_limited);
}

double mean_of(const std::vector<std::size_t>& v, std::size_t from,
               std::size_t to) {
  if (to <= from) return 0.0;
  double sum = 0;
  for (std::size_t i = from; i < to; ++i) sum += static_cast<double>(v[i]);
  return sum / static_cast<double>(to - from);
}

}  // namespace

service::EngineConfig mixed_engine_config(std::uint64_t seed) {
  service::EngineConfig cfg;
  cfg.qos.enabled = true;
  cfg.qos.seed = seed;
  pslocal::qos::TenantConfig interactive;
  interactive.name = kInteractive;
  interactive.weight = 4;
  pslocal::qos::TenantConfig bulk;
  bulk.name = kBulk;
  bulk.weight = 1;
  bulk.rate_rps = kBulkLimitRps;
  bulk.burst = kBulkBurst;
  cfg.qos.tenants = {interactive, bulk};
  return cfg;
}

WindowResult run_mixed_open(const Args& args, bool traced) {
  WindowResult out;
  auto setup = timed_setups<MixedSetup>(
      [&] { return std::make_unique<MixedSetup>(args.seed); }, out.setup_s);
  out.engine_config = mixed_engine_config(args.seed);
  if (setup->warm.failed > 0 || setup->warm_mismatches > 0)
    out.problems.push_back(
        "warm-up: " + std::to_string(setup->warm.failed) + " failed, " +
        std::to_string(setup->warm_mismatches) + " mismatched");
  const auto report = [&out](std::string name, double value, const char* unit) {
    out.report.push_back({"mixed_open." + std::move(name), value, unit});
  };

  const ZipfPicker zipf(setup->keys.size(), kZipfS);
  std::size_t bulk_sent = 0;
  std::vector<Request> writes_sent;
  const auto make_bulk = [&](std::size_t) {
    // Four chains grow side by side, one step per request.
    const std::size_t j = bulk_sent++;
    const std::size_t chain = (j / 16) * 4 + j % 4;
    const std::size_t length = (j % 16) / 4 + 1;
    Request req = mutate_request(setup->bulk_instances[chain % kBulkInstances],
                                 chain, length);
    if (writes_sent.size() < 32) writes_sent.push_back(req);
    return req;
  };

  std::uint64_t mismatches = 0;
  double slo_rate = 0.0;
  Tally bulk_tally;
  const auto before = setup->engine.stats();
  reset_peak_rss();
  for (std::size_t s = 0; s < std::size(kLadderRps); ++s) {
    const auto duration =
        static_cast<std::uint64_t>(args.seconds * kStepShare[s] * 1e9);
    Rng iarr = Rng(args.seed).fork(kInteractiveArrivals).fork(s);
    Rng barr = Rng(args.seed).fork(kBulkArrivals).fork(s);
    const auto isched = poisson_schedule_ns(iarr, kLadderRps[s], duration);
    const auto bsched = pareto_schedule_ns(barr, kBulkOfferedRps, kParetoAlpha,
                                           kParetoBound, duration);
    Rng picks = Rng(args.seed).fork(kMixedPicks).fork(s);
    SenderSpec ispec{setup->interactive.get(), &isched,
                     [&](std::size_t) { return setup->keys[zipf.pick(picks)]; },
                     kInteractive, false, false, 1};
    SenderSpec bspec{setup->bulk.get(), &bsched, make_bulk, kBulk,
                     true, true, 2};
    SenderOut iout, bout;
    const std::uint64_t start = now_ns() + 1'000'000;
    std::thread bulk_thread(
        [&] { run_sender(bspec, start, setup->book, traced, bout); });
    run_sender(ispec, start, setup->book, traced, iout);
    bulk_thread.join();

    mismatches += iout.mismatches + bout.mismatches;
    out.tally.merge(iout.tally);
    out.tally.merge(bout.tally);
    bulk_tally.merge(bout.tally);
    for (const SenderOut* so : {&iout, &bout}) {
      append(out.harness_late_ms, so->late_ms);
      append(out.spans, so->spans);
    }

    // Backlog grows when the outstanding count over the step's last
    // quarter clearly exceeds the one over its second quarter.
    const std::size_t n = iout.backlog.size();
    const bool grows = mean_of(iout.backlog, 3 * n / 4, n) >
                       2.0 * mean_of(iout.backlog, n / 4, n / 2) + 4.0;
    const Summary p = summarize(iout.all_ms);
    const bool meets = p.p99 <= kSloP99Ms && !grows && iout.tally.failed == 0;
    if (meets) slo_rate = std::max(slo_rate, kLadderRps[s]);
    const std::string step =
        "step" + std::to_string(static_cast<int>(kLadderRps[s]));
    report(step + ".interactive_p99_ms", p.p99, "ms");
    report(step + ".backlog_grows", grows ? 1.0 : 0.0, "bool");
    report(step + ".meets_slo", meets ? 1.0 : 0.0, "bool");

    if (s == kNominalStep) {
      out.ok = iout.ok;
      for (const auto& w : bout.ok) out.ok_ungated_us.push_back(w.start_us);
      out.window_ns = duration;
      const Summary hit = summarize(iout.hit_ms);
      const Summary miss = summarize(iout.miss_ms);
      const Summary write = summarize(bout.all_ms);
      report("hit_latency_p99_ms", hit.p99, "ms");
      report("hit_samples", static_cast<double>(hit.n), "count");
      report("miss_latency_p99_ms", miss.p99, "ms");
      report("miss_samples", static_cast<double>(miss.n), "count");
      report("write_latency_p99_ms", write.p99, "ms");
      report("write_samples", static_cast<double>(write.n), "count");
      report("miss_share",
             static_cast<double>(miss.n) /
                 static_cast<double>(std::max<std::size_t>(1, p.n)),
             "ratio");
    }
  }
  out.peak_rss_mb = peak_rss_mb();
  const auto after = setup->engine.stats();
  out.live = live_delta(before, after);
  out.live.bulk_shed_share =
      bulk_tally.attempted > 0 ? static_cast<double>(bulk_tally.limited_sheds) /
                                     static_cast<double>(bulk_tally.attempted)
                               : 0.0;
  report("slo_rate_rps", slo_rate, "1/s");
  report("slo_p99_limit_ms", kSloP99Ms, "ms");
  report("bulk_shed_share", out.live.bulk_shed_share, "ratio");

  for (net::Client* c : {setup->interactive.get(), setup->bulk.get()})
    if (c->inflight() != 0 || c->parked() != 0)
      out.problems.push_back("unresolved or duplicated responses: " +
                             std::to_string(c->inflight()) + " in flight, " +
                             std::to_string(c->parked()) + " unclaimed");
  const auto ss = setup->server.stats();
  if (ss.frames_rx != ss.frames_tx)
    out.problems.push_back("server answered " + std::to_string(ss.frames_tx) +
                           " frames for " + std::to_string(ss.frames_rx) +
                           " received");

  std::size_t checked = 0;
  mismatches += setup->book.verify(pslocal::runtime::global_scheduler(),
                                   args.seed, 64, &checked);
  if (mismatches > 0)
    out.problems.push_back(std::to_string(mismatches) +
                           " payload byte mismatches");
  report("verified_keys", static_cast<double>(checked), "count");

  out.replay_reads = sample_requests(setup->keys, 160, args.seed);
  out.replay_writes = std::move(writes_sent);
  return out;
}

}  // namespace perfbench
