// The traced replay: a workload's distinct inputs sent through each
// layer's public entry points, one span per call, timed from here.
// Nothing inside the program is instrumented; a layer's self time is
// its span minus the spans of the calls it makes, or, for
// service.payload_ms, the execute span minus the separately timed
// component calls on the same input.
#include <algorithm>
#include <functional>
#include <map>

#include "coloring/cf_baselines.hpp"
#include "common.hpp"
#include "core/conflict_graph.hpp"
#include "core/dynamic_conflict_graph.hpp"
#include "core/reduction.hpp"
#include "local/luby_mis.hpp"
#include "mis/greedy_maxis.hpp"
#include "mis/repair.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "qos/fair_queue.hpp"
#include "runtime/batch.hpp"
#include "runtime/global.hpp"
#include "runtime/thread_pool.hpp"
#include "service/batcher.hpp"
#include "service/cache.hpp"
#include "service/session.hpp"
#include "shard/cluster.hpp"
#include "shard/shard_client.hpp"

namespace perfbench {

namespace {

using pslocal::now_ns;
namespace service = pslocal::service;
namespace net = pslocal::net;
namespace shard = pslocal::shard;

/// Rounds over the inputs for the sub-millisecond calls, so their p99
/// has at least ten samples beyond it.
constexpr int kCheapRounds = 10;

/// Keeps results of timed calls observable so none is optimised away.
volatile std::size_t g_sink = 0;
void sink(std::size_t v) { g_sink = g_sink + v; }

class Recorder {
 public:
  explicit Recorder(std::vector<Span>& spans) : spans_(spans) {}

  /// Time `fn` as one span under `parent`; returns its duration in ns.
  template <typename Fn>
  std::uint64_t timed(const char* name, const char* tag, std::uint64_t parent,
                      Fn&& fn) {
    Span s{name, tag, next_span_id(), parent, now_ns(), 0, 0, 0};
    fn();
    s.t1 = now_ns();
    spans_.push_back(s);
    return s.t1 - s.t0;
  }

  void add(const Span& s) { spans_.push_back(s); }

 private:
  std::vector<Span>& spans_;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::unique_ptr<pslocal::MaxISOracle> oracle_for(const Request& r) {
  const bool reduction = r.kind == RequestKind::kRunReduction;
  if (reduction && r.solver == "greedy-random")
    return std::make_unique<pslocal::RandomGreedyOracle>(r.seed);
  if (reduction && r.solver == "luby")
    return std::make_unique<pslocal::LubyOracle>(r.seed);
  return std::make_unique<pslocal::GreedyMinDegreeOracle>();
}

constexpr RequestKind kAllKinds[] = {
    kReadKinds[0], kReadKinds[1], kReadKinds[2], kReadKinds[3], kReadKinds[4],
    RequestKind::kMutateHypergraph};

/// 1-lane time over nproc-lane time of one component, summed over inputs.
struct Gain {
  std::uint64_t one = 0, many = 0;
  [[nodiscard]] double value() const {
    return ratio(static_cast<double>(one), static_cast<double>(many));
  }
};

}  // namespace

std::vector<Metric> replay_layers(const Args& args, const WindowResult& w,
                                  std::vector<Span>& spans) {
  pslocal::runtime::Scheduler& lanes = pslocal::runtime::global_scheduler();
  pslocal::runtime::ThreadPool one_lane(1);
  Recorder rec(spans);
  std::vector<Metric> out;
  const auto tails = [&out](const std::string& name,
                            const std::vector<double>& samples,
                            const char* unit) {
    const Summary s = summarize(samples);
    out.push_back({name + ".p50", s.p50, unit});
    out.push_back({name + ".p99", s.p99, unit});
  };
  const std::vector<Request>& reads = w.replay_reads;
  const std::vector<Request>& writes = w.replay_writes;

  // --- Compute layers, and execute_request with no caches, per input.
  std::vector<double> gk_ms, greedy_ms, luby_ms, cf_ms, reduction_ms;
  std::map<RequestKind, std::vector<double>> execute_ms, payload_ms;
  Gain gain_gk, gain_greedy, gain_luby, gain_cf;
  std::vector<std::string> payloads;
  for (const Request& r : reads) {
    const std::uint64_t root = next_span_id();
    const std::uint64_t t_root = now_ns();
    const char* kind = service::kind_name(r.kind);
    std::shared_ptr<const pslocal::ConflictGraph> cg;
    const std::uint64_t gk = rec.timed("core.gk_build", kind, root, [&] {
      cg = std::make_shared<const pslocal::ConflictGraph>(*r.instance, r.k,
                                                          lanes);
    });
    gain_gk.many += gk;
    gain_gk.one += rec.timed("core.gk_build", "one_lane", root, [&] {
      sink(pslocal::ConflictGraph(*r.instance, r.k, one_lane).triple_count());
    });
    const pslocal::Graph& g = cg->graph();
    const std::uint64_t greedy =
        rec.timed("mis.greedy_mindeg", kind, root, [&] {
          sink(pslocal::greedy_min_degree_maxis(g, lanes).size());
        });
    gain_greedy.many += greedy;
    gain_greedy.one += rec.timed("mis.greedy_mindeg", "one_lane", root, [&] {
      sink(pslocal::greedy_min_degree_maxis(g, one_lane).size());
    });
    const std::uint64_t luby = rec.timed("local.luby", kind, root, [&] {
      sink(pslocal::luby_mis(g, r.seed, 0, lanes).rounds);
    });
    gain_luby.many += luby;
    gain_luby.one += rec.timed("local.luby", "one_lane", root, [&] {
      sink(pslocal::luby_mis(g, r.seed, 0, one_lane).rounds);
    });
    const std::uint64_t cf = rec.timed("coloring.cf_greedy", kind, root, [&] {
      sink(pslocal::greedy_cf_coloring(*r.instance, lanes).colors_used);
    });
    gain_cf.many += cf;
    gain_cf.one += rec.timed("coloring.cf_greedy", "one_lane", root, [&] {
      sink(pslocal::greedy_cf_coloring(*r.instance, one_lane).colors_used);
    });
    const std::uint64_t reduction =
        rec.timed("core.reduction", kind, root, [&] {
          const auto oracle = oracle_for(r);
          pslocal::ReductionOptions opts;
          opts.k = r.k;
          sink(pslocal::cf_multicoloring_via_maxis(*r.instance, *oracle, opts)
                   .phases);
        });
    std::string payload;
    const std::uint64_t execute = rec.timed("service.execute", kind, root, [&] {
      payload = service::execute_request(r, lanes);
    });
    rec.add({"replay.request", kind, root, 0, t_root, now_ns(), 0, r.id});
    payloads.push_back(std::move(payload));

    gk_ms.push_back(ms(gk));
    greedy_ms.push_back(ms(greedy));
    luby_ms.push_back(ms(luby));
    cf_ms.push_back(ms(cf));
    reduction_ms.push_back(ms(reduction));
    std::uint64_t parts = 0;
    switch (r.kind) {
      case RequestKind::kBuildConflictGraph: parts = gk; break;
      case RequestKind::kGreedyMaxis: parts = gk + greedy; break;
      case RequestKind::kLubyMis: parts = gk + luby; break;
      case RequestKind::kCfColor: parts = cf; break;
      default: parts = reduction; break;
    }
    execute_ms[r.kind].push_back(ms(execute));
    payload_ms[r.kind].push_back(ms(execute) - ms(parts));
  }

  // --- Writes: the dynamic G_k and MIS repair, step by step.
  std::vector<double> apply_ms, repair_ms;
  for (const Request& wr : writes) {
    const std::uint64_t root = next_span_id();
    const std::uint64_t t_root = now_ns();
    const char* kind = service::kind_name(wr.kind);
    const std::uint64_t execute = rec.timed("service.execute", kind, root, [&] {
      sink(service::execute_request(wr, lanes).size());
    });
    pslocal::DynamicConflictGraph g;
    std::vector<pslocal::VertexId> mis;
    std::uint64_t parts = rec.timed("core.dynamic_build", kind, root, [&] {
      g = pslocal::DynamicConflictGraph(*wr.instance, wr.k, lanes);
    });
    parts += rec.timed("mis.initial", kind, root, [&] {
      const pslocal::Graph snap = g.snapshot(lanes);
      mis = wr.solver == "luby"
                ? pslocal::luby_mis(snap, wr.seed, 0, lanes).independent_set
                : pslocal::greedy_min_degree_maxis(snap, lanes);
      std::sort(mis.begin(), mis.end());
    });
    for (const Mutation& mut : wr.script) {
      pslocal::DynamicConflictGraph::Delta delta;
      const std::uint64_t apply = rec.timed("core.dynamic_apply", kind, root,
                                            [&] { delta = g.apply(mut); });
      const std::uint64_t repair = rec.timed("mis.repair", kind, root, [&] {
        const auto survivors = pslocal::remap_surviving(mis, delta.remap);
        mis = pslocal::repair_mis(g, survivors, delta.dirty).mis;
      });
      apply_ms.push_back(ms(apply));
      repair_ms.push_back(ms(repair));
      parts += apply + repair;
    }
    rec.add({"replay.request", kind, root, 0, t_root, now_ns(), 0, wr.id});
    execute_ms[wr.kind].push_back(ms(execute));
    payload_ms[wr.kind].push_back(ms(execute) - ms(parts));
  }
  service::MutationSessionStore sessions(
      service::EngineConfig{}.mutation_sessions);
  for (const Request& wr : writes)
    sink(service::execute_request(wr, lanes, nullptr, &sessions).size());
  const auto ss = sessions.stats();

  tails("core.gk_build_ms", gk_ms, "ms");
  tails("core.reduction_ms", reduction_ms, "ms");
  tails("mis.greedy_mindeg_ms", greedy_ms, "ms");
  tails("local.luby_ms", luby_ms, "ms");
  tails("coloring.cf_greedy_ms", cf_ms, "ms");
  const std::string gain = "runtime.parallel_gain.";
  out.push_back({gain + "gk_build", gain_gk.value(), "ratio"});
  out.push_back({gain + "greedy_mindeg", gain_greedy.value(), "ratio"});
  out.push_back({gain + "luby", gain_luby.value(), "ratio"});
  out.push_back({gain + "cf_greedy", gain_cf.value(), "ratio"});

  // --- runtime: run_task_batch over one task per input, `lanes` at a
  // time (a dispatch cycle's misses); self time = span minus the union
  // of its task spans.
  std::vector<double> batch_us;
  const std::size_t width = lanes.thread_count();
  for (std::size_t i = 0; i < reads.size(); i += width) {
    const std::size_t n = std::min(width, reads.size() - i);
    std::vector<Span> kids(n);
    std::vector<std::function<void()>> tasks;
    const std::uint64_t batch_id = next_span_id();
    for (std::size_t j = 0; j < n; ++j)
      tasks.push_back([&, j] {
        const Request& r = reads[i + j];
        kids[j] = Span{"service.execute", service::kind_name(r.kind),
                       next_span_id(), batch_id, now_ns(), 0,
                       static_cast<std::uint32_t>(j + 1), r.id};
        sink(service::execute_request(r, lanes).size());
        kids[j].t1 = now_ns();
      });
    Span batch{"runtime.task_batch", "", batch_id, 0, now_ns(), 0, 0, 0};
    pslocal::runtime::run_task_batch(lanes, tasks);
    batch.t1 = now_ns();
    batch_us.push_back(us(self_time_ns(batch, kids)));
    rec.add(batch);
    for (const Span& k : kids) rec.add(k);
  }
  tails("runtime.task_batch_us", batch_us, "us");

  tails("core.dynamic_apply_ms", apply_ms, "ms");
  tails("mis.repair_ms", repair_ms, "ms");
  out.push_back({"service.session_hit_ratio",
                 ratio(static_cast<double>(ss.hits),
                       static_cast<double>(ss.hits + ss.misses)),
                 "ratio"});
  for (const RequestKind kind : kAllKinds)
    tails(std::string("service.execute_ms.") + service::kind_name(kind),
          execute_ms[kind], "ms");
  for (const RequestKind kind : kAllKinds)
    tails(std::string("service.payload_ms.") + service::kind_name(kind),
          payload_ms[kind], "ms");

  // --- Engine: each input submitted twice, the repeat four requests
  // later, eight at a time, so hits share dispatch cycles with misses.
  std::vector<double> wait_hit_ms, wait_miss_ms, engine_hit_us;
  {
    service::ServiceEngine engine(w.engine_config);
    engine.start();
    const char* tenant = w.engine_config.qos.enabled ? "interactive" : "";
    std::vector<const Request*> sequence;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      sequence.push_back(&reads[i]);
      if (i >= 4) sequence.push_back(&reads[i - 4]);
    }
    for (std::size_t i = 0; i < sequence.size(); i += 8) {
      std::vector<std::future<service::Response>> futures;
      for (std::size_t j = i; j < std::min(i + 8, sequence.size()); ++j) {
        Request req = *sequence[j];
        req.tenant = tenant;
        auto sub = engine.submit(std::move(req));
        if (sub.admission == service::Admission::kAccepted)
          futures.push_back(std::move(sub.response));
      }
      for (auto& f : futures) {
        const service::Response resp = f.get();
        (resp.cache_hit ? wait_hit_ms : wait_miss_ms)
            .push_back(ms(resp.queue_ns));
      }
    }
    for (int round = 0; round < kCheapRounds; ++round)
      for (const Request& r : reads) {
        Request req = r;
        req.tenant = tenant;
        const std::uint64_t t = rec.timed("service.engine_hit", "", 0, [&] {
          auto sub = engine.submit(std::move(req));
          if (sub.admission == service::Admission::kAccepted)
            sink(sub.response.get().result.size());
        });
        engine_hit_us.push_back(us(t));
      }
  }
  tails("service.queue_wait_ms.hit", wait_hit_ms, "ms");
  tails("service.queue_wait_ms.miss", wait_miss_ms, "ms");
  out.push_back(
      {"service.requests_per_cycle", w.live.requests_per_cycle, "count"});
  out.push_back({"service.keys_per_cycle", w.live.keys_per_cycle, "count"});
  out.push_back({"service.result_hit_ratio", w.live.result_hit_ratio, "ratio"});
  out.push_back({"service.graph_hit_ratio", w.live.graph_hit_ratio, "ratio"});
  out.push_back({"service.evictions", w.live.evictions, "count"});
  tails("service.engine_hit_us", engine_hit_us, "us");

  std::vector<double> lookup_ns;
  {
    service::SolverCache cache;
    for (std::size_t i = 0; i < reads.size(); ++i)
      cache.insert(service::cache_key(reads[i]), payloads[i]);
    for (int round = 0; round < kCheapRounds; ++round)
      for (const Request& r : reads) {
        const std::uint64_t key = service::cache_key(r);
        const std::uint64_t t = rec.timed("service.cache_lookup", "", 0, [&] {
          sink(cache.lookup(key).value_or("").size());
        });
        lookup_ns.push_back(static_cast<double>(t));
      }
  }
  tails("service.cache_lookup_ns", lookup_ns, "ns");

  std::vector<double> form_us;
  {
    constexpr std::size_t kWindow = 16;
    std::vector<service::Pending> drained;
    for (int round = 0; round < kCheapRounds; ++round)
      for (std::size_t i = 0; i + kWindow <= 2 * reads.size(); i += 2) {
        drained.clear();
        for (std::size_t j = i; j < i + kWindow; ++j) {
          service::Pending p;
          p.request = reads[(j / 2) % reads.size()];  // each input twice
          drained.push_back(std::move(p));
        }
        form_us.push_back(us(rec.timed("service.batch_form", "", 0, [&] {
          sink(service::form_batches(drained).size());
        })));
      }
  }
  tails("service.batch_form_us", form_us, "us");

  // --- qos: admit then pop one, through FairQueue and the FIFO.
  std::vector<double> fair_us, fifo_us;
  {
    pslocal::qos::FairQueue fair(mixed_engine_config(args.seed).qos, 256);
    service::RequestQueue fifo(256);
    const std::pair<service::AdmissionQueue*, std::vector<double>*> queues[] =
        {{&fair, &fair_us}, {&fifo, &fifo_us}};
    std::vector<service::Pending> popped;
    for (int round = 0; round < kCheapRounds; ++round)
      for (const Request& r : reads)
        for (const auto& [q, samples] : queues) {
          service::Pending p;
          p.request = r;
          p.request.tenant = "interactive";
          p.submit_ns = now_ns();
          const char* tag = q == &fair ? "fair" : "fifo";
          const std::uint64_t t = rec.timed("qos.admit_pop", tag, 0, [&] {
            const auto verdict = q->admit(std::move(p));
            if (verdict.admission == service::Admission::kAccepted)
              sink(q->pop_batch(popped, 1));
          });
          samples->push_back(us(t));
          popped.clear();
        }
  }
  tails("qos.admit_pop_us", fair_us, "us");
  tails("qos.admit_pop_us.fifo", fifo_us, "us");
  out.push_back({"qos.bulk_shed_share", w.live.bulk_shed_share, "ratio"});

  // --- net codecs.
  std::vector<double> enc_req, dec_req, enc_resp, dec_resp;
  for (int round = 0; round < kCheapRounds; ++round)
    for (std::size_t i = 0; i < reads.size(); ++i) {
      std::string bytes;
      std::string error;
      enc_req.push_back(us(rec.timed("net.encode_request", "", 0, [&] {
        bytes = net::wire::encode_request(reads[i]);
      })));
      dec_req.push_back(us(rec.timed("net.decode_request", "", 0, [&] {
        Request decoded;
        sink(net::wire::decode_request(bytes, decoded, &error));
      })));
      service::Response resp;
      resp.id = reads[i].id;
      resp.key = service::cache_key(reads[i]);
      resp.cache_hit = true;
      resp.result = payloads[i];
      enc_resp.push_back(us(rec.timed("net.encode_response", "", 0, [&] {
        bytes = net::wire::encode_response(resp);
      })));
      dec_resp.push_back(us(rec.timed("net.decode_response", "", 0, [&] {
        service::Response decoded;
        sink(net::wire::decode_response(bytes, decoded, &error));
      })));
    }
  tails("net.encode_request_us", enc_req, "us");
  tails("net.decode_request_us", dec_req, "us");
  tails("net.encode_response_us", enc_resp, "us");
  tails("net.decode_response_us", dec_resp, "us");

  // --- net round trips and shard routing over a 2-shard rf=1 cluster.
  std::vector<double> rtt_us, route_ns;
  double bytes_per_request = 0, sends_per_call = 0, max_shard_share = 0;
  {
    shard::LocalClusterConfig cc;
    cc.shards = 2;
    shard::LocalCluster cluster(cc);
    cluster.start();
    shard::ShardClientConfig scc;
    scc.topology = cluster.topology();
    shard::ShardClient sc(scc);
    sc.connect();
    for (const Request& r : reads) sink(sc.call(r).response.result.size());
    const auto st = sc.stats();
    sends_per_call =
        ratio(static_cast<double>(st.sends), static_cast<double>(st.calls));
    std::uint64_t total = 0, peak = 0;
    for (const std::uint64_t n : sc.routed_per_shard()) {
      total += n;
      peak = std::max(peak, n);
    }
    max_shard_share =
        ratio(static_cast<double>(peak), static_cast<double>(total));

    std::vector<std::unique_ptr<net::Client>> clients;
    for (std::size_t s = 0; s < cluster.shards(); ++s) {
      net::Client::Config ncc;
      ncc.port = cluster.topology().shards[s].port;
      clients.push_back(std::make_unique<net::Client>(ncc));
      clients.back()->connect();
    }
    for (int round = 0; round < kCheapRounds; ++round)
      for (const Request& r : reads) {
        const std::size_t owner = sc.router().owner(r);
        const std::uint64_t route = rec.timed("shard.route", "", 0, [&] {
          sink(sc.router().route(r, 1).front());
        });
        route_ns.push_back(static_cast<double>(route));
        rtt_us.push_back(us(rec.timed("net.rtt_hit", "", 0, [&] {
          sink(clients[owner]->call(r).response.result.size());
        })));
      }
    std::uint64_t bytes = 0, frames = 0;
    for (std::size_t s = 0; s < cluster.shards(); ++s) {
      const auto ns = cluster.server(s).stats();
      bytes += ns.bytes_rx + ns.bytes_tx;
      frames += ns.frames_rx;
    }
    bytes_per_request =
        ratio(static_cast<double>(bytes), static_cast<double>(frames));
  }
  tails("net.rtt_hit_us", rtt_us, "us");
  out.push_back({"net.bytes_per_request", bytes_per_request, "bytes"});
  tails("shard.route_ns", route_ns, "ns");
  out.push_back({"shard.sends_per_call", sends_per_call, "count"});
  out.push_back({"shard.max_shard_share", max_shard_share, "ratio"});
  return out;
}

}  // namespace perfbench
