// Open-loop overload bench for the QoS tier (docs/qos.md).
//
// Two tenants share one TCP loopback server over a qos-enabled engine:
//
//   gold   weight 4, no rate limit  — the in-SLO tenant
//   abuse  weight 1, rate-limited   — offers far more than its budget
//
// Pass 1 (uncontended): gold alone, Poisson arrivals at --rate-gold.
// Pass 2 (overload): the *same* gold schedule (same seed, so the offered
// load is byte-identical) plus the abusive tenant sending bounded-Pareto
// bursts at --rate-abuse, several times its token-bucket refill rate.
//
// The loop is open: senders hold their arrival schedules regardless of
// completions (bench/load_gen.hpp), which is what makes overload real —
// a closed loop would politely slow the abuser down.  Gates:
//
//   * zero silently dropped requests — every send resolves as a payload
//     or a typed NACK; lost == 0, errors == 0, unclaimed frames == 0;
//   * the abusive tenant is shed (NACK(shed_retry_after) > 0) while gold
//     is never shed;
//   * gold's p99 in the overload pass stays within --p99-factor (2x) of
//     its uncontended p99, floored at --p99-floor-ms to absorb scheduler
//     jitter on tiny absolute latencies.
//
// Knobs: --requests --rate-gold --rate-abuse --abuse-limit-rps
// --abuse-burst --pareto-alpha --pareto-bound --zipf-gold --zipf-abuse
// --pool --n --m --k (trace shape), --queue-capacity,
// --p99-factor --p99-floor-ms, --iters-small, --threads, --seed.
#include <atomic>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.hpp"
#include "load_gen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/engine.hpp"
#include "service/workload.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

using namespace pslocal;

namespace {

/// One tenant's sender context: a connection plus the tenant's Zipf key
/// stream.  The destructor tallies unresolved/parked frames — both must
/// be zero for a "nothing silently dropped" pass.
struct TenantCtx {
  std::unique_ptr<net::Client> client;
  Rng rng;
  benchload::ZipfPicker zipf;
  std::string tenant;
  std::atomic<std::uint64_t>* unclaimed = nullptr;

  TenantCtx(std::unique_ptr<net::Client> c, Rng r, benchload::ZipfPicker z,
            std::string name, std::atomic<std::uint64_t>* u)
      : client(std::move(c)), rng(r), zipf(std::move(z)),
        tenant(std::move(name)), unclaimed(u) {}
  TenantCtx(TenantCtx&&) = default;
  TenantCtx& operator=(TenantCtx&&) = default;
  ~TenantCtx() {
    if (client && unclaimed != nullptr)
      unclaimed->fetch_add(client->inflight() + client->parked(),
                           std::memory_order_relaxed);
  }
};

benchload::OpenOutcome classify(const net::Client::Result& r) {
  switch (r.outcome) {
    case net::Client::Outcome::kOk: return benchload::OpenOutcome::kOk;
    case net::Client::Outcome::kNack:
      return r.nack_code == net::wire::NackCode::kShedRetryAfter
                 ? benchload::OpenOutcome::kShed
                 : benchload::OpenOutcome::kNack;
    default: return benchload::OpenOutcome::kError;
  }
}

struct PassSpec {
  std::vector<benchload::OpenLoopTenant> tenants;  // arrival schedules
  std::vector<double> zipf_s;                      // per-tenant key skew
  std::uint64_t seed = 1;
};

benchload::OpenLoopResult run_pass(const PassSpec& spec,
                                   const service::Trace& trace,
                                   const std::string& host,
                                   std::uint16_t port) {
  std::atomic<std::uint64_t> unclaimed{0};
  auto result = benchload::run_open_loop(
      spec.tenants,
      [&](std::size_t ti) {
        net::Client::Config cc;
        cc.host = host;
        cc.port = port;
        auto client = std::make_unique<net::Client>(cc);
        client->connect();
        return TenantCtx(std::move(client), Rng(spec.seed).fork(ti),
                         benchload::ZipfPicker(trace.requests.size(),
                                               spec.zipf_s[ti]),
                         spec.tenants[ti].name, &unclaimed);
      },
      [&](TenantCtx& ctx, std::size_t, std::size_t) {
        service::Request req = trace.requests[ctx.zipf.pick(ctx.rng)];
        req.tenant = ctx.tenant;
        return ctx.client->send(req);
      },
      [](TenantCtx& ctx, std::uint64_t id, benchload::OpenOutcome& out) {
        const net::Client::Result r = ctx.client->try_wait(id);
        if (r.outcome == net::Client::Outcome::kTimeout) return false;
        out = classify(r);
        return true;
      },
      [](TenantCtx& ctx, std::uint64_t id, benchload::OpenOutcome& out) {
        const net::Client::Result r = ctx.client->wait(id);
        if (r.outcome == net::Client::Outcome::kTimeout) return false;
        out = classify(r);
        return true;
      });
  PSL_CHECK_MSG(unclaimed.load() == 0,
                unclaimed.load() << " duplicated/unclaimed response frames");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  return benchmain::run(argc, argv, "overload", 1, [](benchmain::Context&
                                                          ctx) {
    const bool small = ctx.opts.get_bool("iters-small", false);
    const auto requests = static_cast<std::size_t>(
        ctx.opts.get_int("requests", small ? 400 : 2000));
    const double rate_gold =
        static_cast<double>(ctx.opts.get_int("rate-gold", 800));
    const double rate_abuse =
        static_cast<double>(ctx.opts.get_int("rate-abuse", 800));
    const double abuse_limit =
        static_cast<double>(ctx.opts.get_int("abuse-limit-rps", 80));
    const double abuse_burst =
        static_cast<double>(ctx.opts.get_int("abuse-burst", 16));
    const double pareto_alpha = 1.5;
    const double pareto_bound =
        static_cast<double>(ctx.opts.get_int("pareto-bound", 64));
    const double p99_factor =
        static_cast<double>(ctx.opts.get_int("p99-factor", 2));
    const double p99_floor_ms =
        static_cast<double>(ctx.opts.get_int("p99-floor-ms", 5));

    service::TraceParams tp;
    tp.seed = ctx.seed;
    tp.requests = static_cast<std::size_t>(ctx.opts.get_int("pool", 64));
    tp.instance_pool = 8;
    tp.n = static_cast<std::size_t>(ctx.opts.get_int("n", 32));
    tp.m = static_cast<std::size_t>(ctx.opts.get_int("m", 28));
    tp.k = static_cast<std::size_t>(ctx.opts.get_int("k", 2));
    const service::Trace trace = service::generate_trace(tp);

    service::EngineConfig cfg;
    cfg.queue_capacity = static_cast<std::size_t>(
        ctx.opts.get_int("queue-capacity", 512));
    cfg.qos.enabled = true;
    cfg.qos.seed = ctx.seed;
    qos::TenantConfig gold;
    gold.name = "gold";
    gold.weight = 4;
    qos::TenantConfig abuse;
    abuse.name = "abuse";
    abuse.weight = 1;
    abuse.rate_rps = abuse_limit;
    abuse.burst = abuse_burst;
    cfg.qos.tenants = {gold, abuse};

    auto engine = std::make_unique<service::ServiceEngine>(cfg);
    engine->start();
    net::Server::Config sc;  // ephemeral loopback port
    auto server = std::make_unique<net::Server>(*engine, sc);
    server->start();

    // Both passes reuse the gold schedule: identical offered load, so
    // the p99 delta isolates what the abusive tenant's presence costs.
    Rng gold_rng = Rng(ctx.seed).fork(101);
    const auto gold_schedule =
        benchload::poisson_arrivals_ns(gold_rng, rate_gold, requests);
    Rng abuse_rng = Rng(ctx.seed).fork(202);
    const auto abuse_schedule = benchload::pareto_arrivals_ns(
        abuse_rng, rate_abuse, pareto_alpha, pareto_bound, requests);

    std::cout << "target: in-process server on " << sc.host << ":"
              << server->port() << ", pool " << trace.requests.size()
              << " requests (" << trace.unique_keys << " keys), gold "
              << rate_gold << " rps vs abuse " << rate_abuse
              << " rps offered / " << abuse_limit << " rps allowed\n";

    PassSpec base;
    base.tenants = {{"gold", gold_schedule}};
    base.zipf_s = {1.1};
    base.seed = ctx.seed;
    const auto uncontended =
        run_pass(base, trace, sc.host, server->port());

    PassSpec over;
    over.tenants = {{"gold", gold_schedule}, {"abuse", abuse_schedule}};
    over.zipf_s = {1.1, 0.8};
    over.seed = ctx.seed;
    const auto overload = run_pass(over, trace, sc.host, server->port());

    const net::Server::Stats ss = server->stats();
    const service::ServiceEngine::Stats es = engine->stats();
    server->stop();
    engine->stop();

    Table table("Open-loop overload — per-tenant outcome");
    table.header({"pass", "tenant", "offered", "ok", "shed", "lost",
                  "p50 ms", "p99 ms", "mean ms"});
    const auto rows = [&table](const char* pass,
                               const benchload::OpenLoopResult& r) {
      for (const auto& t : r.tenants)
        table.row({pass, t.name, fmt_size(t.offered), fmt_size(t.ok),
                   fmt_size(t.shed), fmt_size(t.lost),
                   fmt_double(t.p50_ms, 3), fmt_double(t.p99_ms, 3),
                   fmt_double(t.mean_ms, 3)});
    };
    rows("uncontended", uncontended);
    rows("overload", overload);
    std::cout << table.render();
    ctx.report.add_table(table);

    const auto& gold_base = uncontended.tenants[0];
    const auto& gold_over = overload.tenants[0];
    const auto& abuse_over = overload.tenants[1];

    // --- Gate 1: nothing silently dropped, in either pass.
    PSL_CHECK_MSG(uncontended.lost == 0 && overload.lost == 0,
                  "lost responses: " << uncontended.lost << " uncontended, "
                                     << overload.lost << " overload");
    PSL_CHECK_MSG(uncontended.errors == 0 && overload.errors == 0,
                  "errors: " << uncontended.errors << " uncontended, "
                             << overload.errors << " overload");

    // --- Gate 2: the abusive tenant was shed via the typed NACK path,
    // the in-SLO tenant never was.
    PSL_CHECK_MSG(abuse_over.shed > 0,
                  "abusive tenant was never shed (offered " << rate_abuse
                      << " rps against a " << abuse_limit << " rps budget)");
    PSL_CHECK_MSG(gold_over.shed == 0 && gold_base.shed == 0,
                  "in-SLO tenant was shed " << gold_over.shed << " times");
    PSL_CHECK_MSG(ss.nacks_shed >= abuse_over.shed,
                  "server counted " << ss.nacks_shed
                      << " shed NACK frames < client's " << abuse_over.shed);

    // --- Gate 3: in-SLO p99 stays flat under overload.
    const double p99_budget_ms =
        std::max(p99_factor * gold_base.p99_ms, p99_floor_ms);
    PSL_CHECK_MSG(gold_over.p99_ms <= p99_budget_ms,
                  "in-SLO p99 " << gold_over.p99_ms << " ms exceeds budget "
                      << p99_budget_ms << " ms (uncontended "
                      << gold_base.p99_ms << " ms)");

    std::cout << "gates: 0 lost, abuse shed " << abuse_over.shed << "/"
              << abuse_over.offered << " (" << ss.nacks_shed
              << " NACK frames), gold p99 " << fmt_double(gold_base.p99_ms, 3)
              << " -> " << fmt_double(gold_over.p99_ms, 3) << " ms (budget "
              << fmt_double(p99_budget_ms, 3) << ")\n";

    ctx.report.metric("requests_per_tenant", static_cast<double>(requests))
        .metric("rate_gold_rps", rate_gold)
        .metric("rate_abuse_rps", rate_abuse)
        .metric("abuse_limit_rps", abuse_limit)
        .metric("gold_p99_uncontended_ms", gold_base.p99_ms)
        .metric("gold_p99_overload_ms", gold_over.p99_ms)
        .metric("gold_p50_overload_ms", gold_over.p50_ms)
        .metric("p99_budget_ms", p99_budget_ms)
        .metric("abuse_shed", static_cast<double>(abuse_over.shed))
        .metric("abuse_ok", static_cast<double>(abuse_over.ok))
        .metric("gold_shed", static_cast<double>(gold_over.shed))
        .metric("nacks_shed_frames", static_cast<double>(ss.nacks_shed))
        .metric("lost", static_cast<double>(overload.lost))
        .metric("errors", static_cast<double>(overload.errors))
        .metric("engine_shed", static_cast<double>(es.shed))
        .metric("queue_capacity", static_cast<double>(es.queue_capacity));
    return 0;
  });
}
