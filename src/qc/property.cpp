#include "qc/property.hpp"

#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>

#include "net/wire.hpp"
#include "obs/obs.hpp"
#include "qc/fault.hpp"
#include "qc/gen.hpp"
#include "qc/oracles.hpp"
#include "qc/shrink.hpp"
#include "qos/fair_queue.hpp"
#include "service/engine.hpp"
#include "shard/shard.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pslocal::qc {

namespace {

/// Run a checker, converting a thrown exception (ContractViolation from a
/// solver, say) into a failure message — a crash is a counterexample too,
/// and the shrinker needs the predicate to be total.
template <typename Fn>
std::optional<std::string> guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

std::string describe_requests(const service::TraceParams& params,
                              const FaultPlan& plan,
                              const std::vector<service::Request>& requests) {
  std::ostringstream os;
  os << "trace seed=" << params.seed << " plan{queue=" << plan.queue_capacity
     << " burst=" << plan.burst << " cache=" << plan.cache_entries
     << " graph_cache=" << plan.graph_cache_entries
     << (plan.disable_cache ? " cache-off" : "") << "} requests=[";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i > 0) os << " ";
    os << requests[i].id << ":" << service::kind_name(requests[i].kind);
  }
  os << "]";
  return os.str();
}

Failure make_failure(std::string message, std::string counterexample,
                     const ShrinkLog& log) {
  Failure f;
  f.message = std::move(message);
  f.counterexample = std::move(counterexample);
  f.shrink_attempts = log.attempts;
  f.shrink_accepted = log.accepted;
  return f;
}

/// Shrink a failing graph against `check` and build the Failure from the
/// minimal witness.
Failure shrink_graph_failure(
    Graph g, const std::function<std::optional<std::string>(const Graph&)>&
                 check) {
  ShrinkLog log;
  const Graph minimal = shrink_graph(
      std::move(g),
      [&check](const Graph& c) { return guarded([&] { return check(c); }).has_value(); },
      &log);
  const auto msg = guarded([&] { return check(minimal); });
  return make_failure(msg.value_or("failure vanished on the minimal witness"),
                      describe(minimal), log);
}

Property mis_differential_property() {
  return {"mis-differential", [](Rng& rng) -> std::optional<Failure> {
            const std::uint64_t solver_seed = rng.next_u64();
            Graph g = arbitrary_graph(rng);
            const auto check = [solver_seed](const Graph& c) {
              return check_mis_differential(c, solver_seed);
            };
            if (!guarded([&] { return check(g); })) return std::nullopt;
            return shrink_graph_failure(std::move(g), check);
          }};
}

Property cf_differential_property() {
  return {"cf-differential", [](Rng& rng) -> std::optional<Failure> {
            Hypergraph h = arbitrary_tiny_hypergraph(rng);
            const auto check = [](const Hypergraph& c) {
              return check_cf_differential(c);
            };
            if (!guarded([&] { return check(h); })) return std::nullopt;
            ShrinkLog log;
            const Hypergraph minimal = shrink_hypergraph(
                std::move(h),
                [&check](const Hypergraph& c) {
                  return guarded([&] { return check(c); }).has_value();
                },
                /*edges_only=*/false, &log);
            const auto msg = guarded([&] { return check(minimal); });
            return make_failure(
                msg.value_or("failure vanished on the minimal witness"),
                describe(minimal), log);
          }};
}

/// Shared scaffold for the two witness-carrying instance properties:
/// generate a named-family instance, check, and shrink EDGES ONLY so the
/// CF k-colorability certificate stays valid on every candidate.
Property instance_property(
    std::string name, std::string force_family,
    std::function<std::optional<std::string>(const HyperInstance&,
                                             std::uint64_t)>
        check) {
  return {std::move(name),
          [force_family, check](Rng& rng) -> std::optional<Failure> {
            const std::uint64_t check_seed = rng.next_u64();
            HyperInstance inst = arbitrary_instance(rng, force_family);
            const auto run = [&check, check_seed](const HyperInstance& c) {
              return check(c, check_seed);
            };
            if (!guarded([&] { return run(inst); })) return std::nullopt;
            ShrinkLog log;
            HyperInstance candidate = inst;
            candidate.hypergraph = shrink_hypergraph(
                std::move(inst.hypergraph),
                [&](const Hypergraph& h) {
                  HyperInstance probe = candidate;
                  probe.hypergraph = h;
                  return guarded([&] { return run(probe); }).has_value();
                },
                /*edges_only=*/true, &log);
            const auto msg = guarded([&] { return run(candidate); });
            std::ostringstream witness;
            witness << "family=" << candidate.family
                    << " seed=" << candidate.seed << " k=" << candidate.k
                    << " " << describe(candidate.hypergraph);
            return make_failure(
                msg.value_or("failure vanished on the minimal witness"),
                witness.str(), log);
          }};
}

Property service_differential_property() {
  return {"service-differential", [](Rng& rng) -> std::optional<Failure> {
            const service::TraceParams params = arbitrary_trace_params(rng);
            const FaultPlan plan = arbitrary_fault_plan(rng);
            const service::Trace trace = service::generate_trace(params);
            const auto failing = [&plan, &trace](
                                     const std::vector<service::Request>& rs) {
              service::Trace sub;
              sub.instances = trace.instances;
              sub.instance_hashes = trace.instance_hashes;
              sub.requests = rs;
              const FaultReport r = run_fault_plan(plan, sub);
              return !r.ok();
            };
            const FaultReport report = run_fault_plan(plan, trace);
            if (report.ok()) return std::nullopt;
            ShrinkLog log;
            const auto minimal = shrink_requests(
                trace.requests,
                [&failing](const std::vector<service::Request>& rs) {
                  bool fails = false;
                  (void)guarded([&]() -> std::optional<std::string> {
                    fails = failing(rs);
                    return std::nullopt;
                  });
                  return fails;
                },
                &log);
            service::Trace sub;
            sub.instances = trace.instances;
            sub.instance_hashes = trace.instance_hashes;
            sub.requests = minimal;
            const FaultReport final_report = run_fault_plan(plan, sub);
            return make_failure(final_report.error.empty()
                                    ? report.error
                                    : final_report.error,
                                describe_requests(params, plan, minimal), log);
          }};
}

Property hash_sensitivity_property() {
  return {"hash-sensitivity", [](Rng& rng) -> std::optional<Failure> {
            // Payload streams differing in exactly one field must digest
            // differently (collision smoke over the canonical encoding).
            const std::size_t fields = 1 + rng.next_below(8);
            std::vector<std::uint64_t> payload(fields);
            for (auto& w : payload) w = rng.next_u64();
            const std::size_t flip = rng.next_below(fields);
            const std::uint64_t delta = 1ULL << rng.next_below(64);
            Fnv1a64 a, b;
            for (std::size_t i = 0; i < fields; ++i) {
              a.update_u64(payload[i]);
              b.update_u64(i == flip ? payload[i] ^ delta : payload[i]);
            }
            if (a.digest() == b.digest()) {
              Failure f;
              f.message = "one-field flip collided under Fnv1a64";
              std::ostringstream os;
              os << "fields=" << fields << " flip=" << flip
                 << " delta=" << delta;
              f.counterexample = os.str();
              return f;
            }
            // hex64 must round-trip any word.
            const std::uint64_t word = rng.next_u64();
            if (parse_hex64(hex64(word)) != word) {
              Failure f;
              f.message = "hex64 round trip failed";
              f.counterexample = hex64(word);
              return f;
            }
            return std::nullopt;
          }};
}

/// A random valid frame of a random kind; request frames carry a real
/// encoded request so the payload codec is exercised too.
net::wire::Frame arbitrary_frame(Rng& rng) {
  net::wire::Frame frame;
  frame.request_id = rng.next_u64();
  switch (rng.next_below(3)) {
    case 0: {
      frame.kind = net::wire::FrameKind::kRequest;
      service::Request req;
      req.kind = static_cast<service::RequestKind>(
          rng.next_below(service::kRequestKindCount));
      req.k = 1 + rng.next_below(5);
      req.seed = rng.next_u64();
      req.solver = rng.next_bool(0.5) ? "greedy-mindeg" : "luby";
      req.instance = std::make_shared<const Hypergraph>(
          arbitrary_tiny_hypergraph(rng));
      if (req.kind == service::RequestKind::kMutateHypergraph) {
        // Structurally arbitrary script: the codec round trip is what is
        // under test, not script semantics.
        const std::size_t steps = rng.next_below(4);
        for (std::size_t i = 0; i < steps; ++i) {
          switch (rng.next_below(4)) {
            case 0: {
              std::vector<VertexId> vs(1 + rng.next_below(3));
              for (auto& v : vs)
                v = static_cast<VertexId>(rng.next_below(16));
              req.script.push_back(Mutation::add_edge(std::move(vs)));
              break;
            }
            case 1:
              req.script.push_back(Mutation::remove_edge(
                  static_cast<EdgeId>(rng.next_below(8))));
              break;
            case 2:
              req.script.push_back(Mutation::add_vertex());
              break;
            default:
              req.script.push_back(Mutation::remove_vertex(
                  static_cast<VertexId>(rng.next_below(16))));
              break;
          }
        }
      }
      frame.payload = net::wire::encode_request(req);
      // Some requests ride with a QoS tenant id — the optional v2
      // header field (docs/qos.md); the decoder must keep it and the
      // payload apart under any chunking.
      if (rng.next_bool(0.3)) {
        for (std::size_t i = 1 + rng.next_below(12); i > 0; --i)
          frame.tenant += static_cast<char>('a' + rng.next_below(26));
      }
      break;
    }
    case 1: {
      frame.kind = net::wire::FrameKind::kResponse;
      service::Response resp;
      resp.status = static_cast<service::Response::Status>(rng.next_below(3));
      resp.cache_hit = rng.next_bool(0.5);
      resp.key = rng.next_u64();
      resp.reason = resp.status == service::Response::Status::kOk ? "" : "why";
      for (std::size_t i = rng.next_below(40); i > 0; --i)
        resp.result += static_cast<char>('a' + rng.next_below(26));
      frame.payload = net::wire::encode_response(resp);
      break;
    }
    default:
      frame.kind = net::wire::FrameKind::kNack;
      switch (rng.next_below(3)) {
        case 0:
          frame.payload =
              net::wire::encode_nack(net::wire::NackCode::kQueueFull);
          break;
        case 1:
          frame.payload =
              net::wire::encode_nack(net::wire::NackCode::kShutdown);
          break;
        default:  // shed NACK carries its retry hint in the payload
          frame.payload = net::wire::encode_nack(
              net::wire::NackCode::kShedRetryAfter, rng.next_u64() >> 20);
          break;
      }
      break;
  }
  return frame;
}

/// Feed `bytes` to a fresh decoder in random-sized chunks and collect
/// every frame it emits plus its final status.
struct DecodeRun {
  std::vector<net::wire::Frame> frames;
  bool corrupt = false;
  std::string error;
  std::size_t leftover = 0;
};

DecodeRun run_decoder(Rng& rng, std::string_view bytes) {
  net::wire::FrameDecoder decoder;
  DecodeRun run;
  std::size_t pos = 0;
  while (pos < bytes.size() && !run.corrupt) {
    const std::size_t chunk =
        1 + rng.next_below(std::min<std::uint64_t>(bytes.size() - pos, 97));
    decoder.feed(bytes.data() + pos, chunk);
    pos += chunk;
    for (;;) {
      net::wire::Frame frame;
      const auto result = decoder.next(frame);
      if (result == net::wire::FrameDecoder::Result::kFrame) {
        run.frames.push_back(std::move(frame));
        continue;
      }
      if (result == net::wire::FrameDecoder::Result::kCorrupt) {
        run.corrupt = true;
        run.error = decoder.error();
      }
      break;
    }
  }
  run.leftover = decoder.buffered();
  return run;
}

/// Frame-decoder fuzz: valid frames round-trip byte-exactly under any
/// chunking; truncated / bit-flipped / length-lied / garbage streams
/// are rejected (or starved) without a crash and never resurface as a
/// "valid" copy of the original frame.
Property net_frame_property() {
  return {"net_frame", [](Rng& rng) -> std::optional<Failure> {
            const auto fail = [](std::string msg, std::string witness) {
              Failure f;
              f.message = std::move(msg);
              f.counterexample = std::move(witness);
              return f;
            };
            // Valid round trip over a small random frame sequence.
            std::vector<net::wire::Frame> sent;
            std::string stream;
            const std::size_t count = 1 + rng.next_below(4);
            for (std::size_t i = 0; i < count; ++i) {
              sent.push_back(arbitrary_frame(rng));
              stream += net::wire::encode_frame(sent.back());
            }
            DecodeRun run = run_decoder(rng, stream);
            if (run.corrupt)
              return fail("valid stream flagged corrupt: " + run.error,
                          "frames=" + std::to_string(count));
            if (run.frames.size() != count || run.leftover != 0)
              return fail("valid stream yielded " +
                              std::to_string(run.frames.size()) + " frames, " +
                              std::to_string(run.leftover) + " bytes left",
                          "frames=" + std::to_string(count));
            for (std::size_t i = 0; i < count; ++i) {
              if (run.frames[i].kind != sent[i].kind ||
                  run.frames[i].request_id != sent[i].request_id ||
                  run.frames[i].tenant != sent[i].tenant ||
                  run.frames[i].payload != sent[i].payload)
                return fail("frame round trip not byte-exact",
                            "frame index " + std::to_string(i));
            }

            // Mutations of a single valid frame.
            const net::wire::Frame victim = arbitrary_frame(rng);
            const std::string bytes = net::wire::encode_frame(victim);
            // payload_len on the wire covers the tenant prefix too.
            const std::size_t region_size =
                victim.tenant.size() + victim.payload.size();
            switch (rng.next_below(5)) {
              case 0: {  // truncation: a torn frame is starvation, not UB
                const std::size_t keep = rng.next_below(bytes.size());
                run = run_decoder(rng, std::string_view(bytes).substr(0, keep));
                if (run.corrupt || !run.frames.empty())
                  return fail("truncated frame produced " +
                                  std::string(run.corrupt ? "corrupt"
                                                          : "a frame"),
                              "keep=" + std::to_string(keep));
                break;
              }
              case 1: {  // payload bit flip: checksum must catch it
                if (victim.payload.empty()) break;
                std::string flipped = bytes;
                const std::size_t byte_index =
                    net::wire::kHeaderSize +
                    rng.next_below(victim.payload.size());
                flipped[byte_index] ^=
                    static_cast<char>(1u << rng.next_below(8));
                run = run_decoder(rng, flipped);
                if (!run.corrupt)
                  return fail("payload bit flip not flagged corrupt",
                              "byte=" + std::to_string(byte_index));
                break;
              }
              case 2: {  // length lie: rewrite payload_len, keep the rest
                std::string lied = bytes;
                const std::uint64_t lie = rng.next_bool(0.5)
                                              ? rng.next_u64()  // often huge
                                              : rng.next_below(region_size + 64);
                for (int i = 0; i < 4; ++i)
                  lied[16 + static_cast<std::size_t>(i)] =
                      static_cast<char>(lie >> (8 * i));
                run = run_decoder(rng, lied);
                const std::uint32_t new_len =
                    static_cast<std::uint32_t>(lie);
                if (new_len != region_size && !run.frames.empty())
                  return fail("length-lied frame decoded as valid",
                              "lie=" + std::to_string(new_len));
                break;
              }
              case 3: {  // tenant-length lie beyond the payload bound:
                         // the decoder must reject before trusting it
                         // (regression pin — a lying tenant_len once
                         // sliced past the checksummed region).
                std::string lied = bytes;
                const std::uint64_t lie =
                    region_size + 1 + rng.next_below(1u << 20);
                for (int i = 0; i < 4; ++i)
                  lied[20 + static_cast<std::size_t>(i)] =
                      static_cast<char>(lie >> (8 * i));
                run = run_decoder(rng, lied);
                if (!run.corrupt)
                  return fail("tenant length beyond payload bound not "
                              "flagged corrupt",
                              "tenant_len=" + std::to_string(lie) +
                                  " payload_len=" +
                                  std::to_string(region_size));
                break;
              }
              default: {  // garbage prefix: wrong magic is caught at once
                std::string garbage;
                for (std::size_t i = 0; i < 64; ++i)
                  garbage += static_cast<char>(rng.next_below(256));
                const bool magic_fluke =
                    garbage.size() >= 4 &&
                    garbage.compare(0, 4, bytes, 0, 4) == 0;
                run = run_decoder(rng, garbage);
                if (!magic_fluke && !run.corrupt)
                  return fail("garbage stream not flagged corrupt",
                              "len=64");
                break;
              }
            }

            // The request payload codec round-trips through the decoded
            // hypergraph: content hash and re-encoded bytes both match.
            service::Request req;
            req.kind = service::RequestKind::kLubyMis;
            req.k = 1 + rng.next_below(4);
            req.seed = rng.next_u64();
            req.instance = std::make_shared<const Hypergraph>(
                arbitrary_tiny_hypergraph(rng));
            const std::string payload = net::wire::encode_request(req);
            service::Request decoded;
            std::string error;
            if (!net::wire::decode_request(payload, decoded, &error))
              return fail("valid request payload rejected: " + error,
                          describe(*req.instance));
            if (decoded.instance_hash != hash_hypergraph(*req.instance) ||
                net::wire::encode_request(decoded) != payload)
              return fail("request payload round trip not byte-exact",
                          describe(*req.instance));
            return std::nullopt;
          }};
}

/// mix64 is pinned to SplitMix64's output function and must avalanche:
/// flipping any single input bit flips each output bit with probability
/// ~1/2 (Binomial(64, 1/2) — a flip count outside [8, 56] at any of the
/// sampled bits is a ~1e-9 event per sample, i.e. a broken mixer).
Property mix64_avalanche_property() {
  return {"mix64_avalanche", [](Rng& rng) -> std::optional<Failure> {
            const auto fail = [](std::string msg, std::string witness) {
              Failure f;
              f.message = std::move(msg);
              f.counterexample = std::move(witness);
              return f;
            };
            const std::uint64_t x = rng.next_u64();
            if (mix64(x) != SplitMix64(x).next())
              return fail("mix64 diverged from SplitMix64",
                          "x=" + std::to_string(x));
            for (int sample = 0; sample < 8; ++sample) {
              const auto bit = rng.next_below(64);
              const int flips = std::popcount(
                  mix64(x) ^ mix64(x ^ (1ULL << bit)));
              if (flips < 8 || flips > 56)
                return fail("poor avalanche: " + std::to_string(flips) +
                                "/64 output bits flipped",
                            "x=" + std::to_string(x) +
                                " bit=" + std::to_string(bit));
            }
            return std::nullopt;
          }};
}

/// Ring placement is a pure function of (seed, key, topology): rebuilt
/// rings agree, replica lists are duplicate-free and owner-first, and
/// dropping the last shard relocates only that shard's keys.
Property shard_ring_property() {
  return {"shard_ring", [](Rng& rng) -> std::optional<Failure> {
            const auto fail = [](std::string msg, std::string witness) {
              Failure f;
              f.message = std::move(msg);
              f.counterexample = std::move(witness);
              return f;
            };
            shard::RingConfig cfg;
            cfg.seed = rng.next_u64();
            cfg.vnodes = 1 + rng.next_below(96);
            const std::size_t shards = 1 + rng.next_below(8);
            const shard::HashRing ring(shards, cfg);
            const shard::HashRing twin(shards, cfg);
            const shard::HashRing smaller(shards > 1 ? shards - 1 : 1, cfg);
            std::ostringstream w;
            w << "seed=" << cfg.seed << " vnodes=" << cfg.vnodes
              << " shards=" << shards;
            for (int i = 0; i < 32; ++i) {
              const std::uint64_t key = rng.next_u64();
              const std::size_t own = ring.owner(key);
              if (own >= shards)
                return fail("owner out of range", w.str());
              if (twin.owner(key) != own)
                return fail("rebuilt ring disagrees on owner", w.str());
              const std::size_t count = 1 + rng.next_below(shards);
              const auto reps = ring.replicas(key, count);
              if (reps.size() != count || reps.front() != own)
                return fail("replica list not owner-first", w.str());
              std::vector<bool> seen(shards, false);
              for (const std::size_t s : reps) {
                if (s >= shards || seen[s])
                  return fail("replica list has duplicates", w.str());
                seen[s] = true;
              }
              if (shards > 1 && own != shards - 1 &&
                  smaller.owner(key) != own)
                return fail("scale-down moved a key the removed shard "
                            "did not own",
                            w.str());
            }
            return std::nullopt;
          }};
}

/// Failover fault injection: a 2-shard cluster at replication factor 2
/// loses one shard mid-run and must still answer every request exactly
/// once (first-response-wins covers in-flight requests, transport-error
/// failover covers later ones, drain absorbs the duplicates).
Property shard_failover_property() {
  return {"shard_failover", [](Rng& rng) -> std::optional<Failure> {
            const auto fail = [](std::string msg, std::string witness) {
              Failure f;
              f.message = std::move(msg);
              f.counterexample = std::move(witness);
              return f;
            };
            service::TraceParams tp;
            tp.seed = rng.next_u64();
            tp.requests = 6 + rng.next_below(6);
            tp.instance_pool = 3;
            tp.n = 24;
            tp.m = 16;
            const service::Trace trace = service::generate_trace(tp);
            const std::size_t kill_shard = rng.next_below(2);
            const std::size_t kill_at = rng.next_below(trace.requests.size());
            std::ostringstream w;
            w << "trace seed=" << tp.seed << " requests=" << tp.requests
              << " kill shard " << kill_shard << " at request " << kill_at;

            shard::LocalClusterConfig cc;
            cc.shards = 2;
            cc.replication = 2;
            cc.ring_seed = tp.seed;
            shard::LocalCluster cluster(cc);
            cluster.start();
            shard::ShardClientConfig scc;
            scc.topology = cluster.topology();
            scc.retry.seed = tp.seed;
            shard::ShardClient client(scc);
            client.connect();
            for (std::size_t i = 0; i < trace.requests.size(); ++i) {
              if (i == kill_at) cluster.kill_shard(kill_shard);
              const net::Client::Result r = client.call(trace.requests[i]);
              if (r.outcome != net::Client::Outcome::kOk)
                return fail(std::string("request lost under failover: ") +
                                net::Client::outcome_name(r.outcome) +
                                (r.error.empty() ? "" : " (" + r.error + ")"),
                            w.str());
              if (r.response.result.empty())
                return fail("empty payload under failover", w.str());
            }
            client.drain();
            if (client.stats().pending_duplicates != 0)
              return fail("duplicates left unabsorbed after drain", w.str());
            return std::nullopt;
          }};
}

/// End-to-end trace propagation (docs/tracing.md), across 1/2/4-shard
/// topologies at rf=1/2:
///  * the response frame echoes each request's explicit trace_id,
///  * payload bytes are identical with and without trace ids on the
///    wire (tracing must never leak into canonical payloads),
///  * and — when obs is compiled in and no outer session is running —
///    the spans recorded for each request form one tree rooted at the
///    client's "shard.call", with every replica attempt a direct child.
Property trace_propagation_property() {
  return {"trace_propagation", [](Rng& rng) -> std::optional<Failure> {
            const auto fail = [](std::string msg, std::string witness) {
              Failure f;
              f.message = std::move(msg);
              f.counterexample = std::move(witness);
              return f;
            };
            const std::size_t shard_choices[] = {1, 2, 4};
            const std::size_t shards = shard_choices[rng.next_below(3)];
            const std::size_t rf = shards >= 2 ? 1 + rng.next_below(2) : 1;
            service::TraceParams tp;
            tp.seed = rng.next_u64();
            tp.requests = 4 + rng.next_below(4);
            tp.instance_pool = 3;
            tp.n = 24;
            tp.m = 16;
            const service::Trace trace = service::generate_trace(tp);
            std::ostringstream w;
            w << "trace seed=" << tp.seed << " shards=" << shards
              << " rf=" << rf << " requests=" << trace.requests.size();

            shard::LocalClusterConfig cc;
            cc.shards = shards;
            cc.replication = rf;
            cc.ring_seed = tp.seed;
            shard::LocalCluster cluster(cc);
            cluster.start();
            shard::ShardClientConfig scc;
            scc.topology = cluster.topology();
            scc.retry.seed = tp.seed;
            shard::ShardClient client(scc);
            client.connect();

            // Pass 1: no explicit trace ids (the ambient context is also
            // empty here, so the wire may still carry a minted root id —
            // what matters is the payload baseline).
            std::vector<std::string> baseline;
            for (const service::Request& req : trace.requests) {
              const net::Client::Result r = client.call(req);
              if (r.outcome != net::Client::Outcome::kOk)
                return fail(std::string("untraced request failed: ") +
                                net::Client::outcome_name(r.outcome),
                            w.str());
              baseline.push_back(r.response.result);
            }

            // Pass 2: explicit per-request trace ids, under a private
            // span session when one can be opened.
            const bool session = obs::kEnabled && !obs::tracing_active();
            std::string trace_path;
            if (session) {
              trace_path =
                  "qc_trace_propagation_" + std::to_string(tp.seed) + ".json";
              obs::start_tracing(trace_path);
            }
            std::vector<std::uint64_t> tids;
            std::optional<Failure> failure;
            for (std::size_t i = 0; i < trace.requests.size(); ++i) {
              service::Request req = trace.requests[i];
              std::uint64_t tid = rng.next_u64();
              if (tid == 0) tid = 1;
              req.trace_id = tid;
              tids.push_back(tid);
              const net::Client::Result r = client.call(req);
              if (r.outcome != net::Client::Outcome::kOk) {
                failure = fail(std::string("traced request failed: ") +
                                   net::Client::outcome_name(r.outcome),
                               w.str());
                break;
              }
              if (r.trace_id != tid) {
                std::ostringstream detail;
                detail << w.str() << " request " << i << " sent trace_id 0x"
                       << std::hex << tid << " got 0x" << r.trace_id;
                failure = fail("response did not echo the request trace_id",
                               detail.str());
                break;
              }
              if (r.response.result != baseline[i]) {
                failure = fail(
                    "payload bytes differ between traced and untraced runs",
                    w.str());
                break;
              }
            }
            client.drain();
            cluster.stop();
            if (!session) return failure;

            // Parse the private session's trace and check span ancestry.
            const std::string written = obs::finish_tracing();
            if (failure.has_value()) {
              std::remove(written.c_str());
              return failure;
            }
            struct Span {
              std::string name;
              std::uint64_t trace_id = 0, parent = 0;
            };
            std::map<std::uint64_t, Span> spans;  // span_id -> span
            std::map<std::uint64_t, std::uint64_t> roots;  // tid -> span_id
            const json::Value doc = json::parse_file(written);
            std::remove(written.c_str());
            const auto hex = [](const json::Value& v) {
              return std::stoull(v.as_string(), nullptr, 16);
            };
            for (const json::Value& ev : doc.as_array()) {
              if (ev.at("ph").as_string() != "B" || !ev.has("args")) continue;
              const json::Value& args = ev.at("args");
              if (!args.has("span_id")) continue;
              Span span;
              span.name = ev.at("name").as_string();
              span.trace_id = hex(args.at("trace_id"));
              span.parent = hex(args.at("parent_span_id"));
              const std::uint64_t span_id = hex(args.at("span_id"));
              spans[span_id] = span;
              if (span.name == "shard.call") roots[span.trace_id] = span_id;
            }
            for (const std::uint64_t tid : tids) {
              const auto root = roots.find(tid);
              if (root == roots.end())
                return fail("no shard.call root span for an explicit "
                            "trace_id",
                            w.str());
              for (const auto& [span_id, span] : spans) {
                if (span.trace_id != tid || span_id == root->second) continue;
                // Walk the ancestry; every span of this trace must reach
                // the root (shard.attempt is a direct child).
                std::uint64_t at = span_id;
                std::size_t hops = 0;
                while (at != root->second && hops++ < spans.size()) {
                  const auto it = spans.find(at);
                  if (it == spans.end()) break;
                  at = it->second.parent;
                }
                if (at != root->second) {
                  std::ostringstream detail;
                  detail << w.str() << " span \"" << span.name
                         << "\" of trace 0x" << std::hex << tid
                         << " does not reach its shard.call root";
                  return fail("span tree broken", detail.str());
                }
                if (span.name == "shard.attempt" &&
                    span.parent != root->second) {
                  return fail("shard.attempt is not a direct child of "
                              "shard.call",
                              w.str());
                }
              }
            }
            return std::nullopt;
          }};
}

Property solver_kernel_lift_property() {
  return {"solver_kernel_lift", [](Rng& rng) -> std::optional<Failure> {
            const std::uint64_t solver_seed = rng.next_u64();
            Graph g = arbitrary_graph(rng);
            const auto check = [solver_seed](const Graph& c) {
              return check_solver_kernel_lift(c, solver_seed);
            };
            if (!guarded([&] { return check(g); })) return std::nullopt;
            return shrink_graph_failure(std::move(g), check);
          }};
}

/// Repair-vs-recompute over the seed-pure mutation families, shrinking
/// the mutation script to a 1-minimal failing sequence.  Deleting a step
/// can orphan later edge ids, so candidates that fail validate_script do
/// not count as counterexamples.
Property mis_repair_property(const FuzzOptions& opts) {
  // --family and --oracle are shared flag namespaces; only pin values
  // that name a mutation family / a repair leg.
  std::string family;
  for (const auto& name : mutation_family_names())
    if (opts.family == name) family = opts.family;
  std::string oracle;
  if (opts.oracle == "greedy-mindeg" || opts.oracle == "luby" ||
      opts.oracle == "exact")
    oracle = opts.oracle;
  return {"mis_repair_vs_recompute",
          [family, oracle](Rng& rng) -> std::optional<Failure> {
            const std::uint64_t check_seed = rng.next_u64();
            MutationScript ms = arbitrary_mutation_script(rng, family);
            const auto run = [&oracle, check_seed](const MutationScript& c) {
              return check_mis_repair_vs_recompute(c, check_seed, oracle);
            };
            if (!guarded([&] { return run(ms); })) return std::nullopt;
            ShrinkLog log;
            MutationScript candidate = ms;
            candidate.script = shrink_mutations(
                std::move(ms.script),
                [&](const std::vector<Mutation>& s) {
                  if (validate_script(candidate.base.hypergraph, s)
                          .has_value())
                    return false;  // orphaned ids, not a counterexample
                  MutationScript probe = candidate;
                  probe.script = s;
                  return guarded([&] { return run(probe); }).has_value();
                },
                &log);
            const auto msg = guarded([&] { return run(candidate); });
            return make_failure(
                msg.value_or("failure vanished on the minimal witness"),
                describe(candidate), log);
          }};
}

/// qos_fairness: with every lane backlogged, one full deficit-round-
/// robin round serves exactly quantum x weight requests per tenant —
/// the weighted-throughput-share guarantee, pinned exactly rather than
/// asymptotically.  And the whole (config, admission schedule) -> pop
/// sequence map is deterministic: a second queue built from the same
/// seed pops the identical tenant sequence, and a third popped one
/// request at a time (as the engine's serving lanes pop) pops it too.
/// The queue is driven with a synthetic submit_ns clock and no worker
/// threads, so the pinned sequence is byte-identical under any
/// --threads setting.
Property qos_fairness_property() {
  return {"qos_fairness", [](Rng& rng) -> std::optional<Failure> {
            const auto fail = [](std::string msg, std::string witness) {
              Failure f;
              f.message = std::move(msg);
              f.counterexample = std::move(witness);
              return f;
            };
            qos::QosConfig config;
            config.enabled = true;
            config.seed = rng.next_u64();
            config.quantum = 1 + rng.next_below(4);
            const std::size_t tenant_count = 2 + rng.next_below(3);
            std::uint64_t total_weight = 0;
            for (std::size_t i = 0; i < tenant_count; ++i) {
              qos::TenantConfig t;
              t.name = std::string(1, static_cast<char>('a' + i));
              t.weight = 1 + rng.next_below(4);
              total_weight += t.weight;
              config.tenants.push_back(t);
            }
            std::ostringstream witness;
            witness << "seed=" << config.seed << " quantum=" << config.quantum
                    << " weights=";
            for (const auto& t : config.tenants) witness << t.weight << ",";

            // Backlog every lane with two rounds' worth of requests, in
            // a random interleave under a synthetic admission clock.
            std::vector<std::size_t> schedule;
            for (std::size_t i = 0; i < tenant_count; ++i) {
              const std::size_t n =
                  2 * config.quantum * config.tenants[i].weight;
              for (std::size_t j = 0; j < n; ++j) schedule.push_back(i);
            }
            rng.shuffle(schedule);
            const auto fill =
                [&](qos::FairQueue& q) -> std::optional<std::string> {
              std::uint64_t clock = 1;
              for (const std::size_t idx : schedule) {
                service::Pending p;
                p.request.tenant = config.tenants[idx].name;
                p.submit_ns = clock++;
                const auto v = q.admit(std::move(p));
                if (v.admission != service::Admission::kAccepted)
                  return "rate-unlimited tenant was not admitted: " +
                         std::string(service::admission_name(v.admission));
              }
              return std::nullopt;
            };
            qos::FairQueue q1(config, schedule.size() + 1);
            qos::FairQueue q2(config, schedule.size() + 1);
            qos::FairQueue q3(config, schedule.size() + 1);
            if (const auto e = fill(q1)) return fail(*e, witness.str());
            if (const auto e = fill(q2)) return fail(*e, witness.str());
            if (const auto e = fill(q3)) return fail(*e, witness.str());

            // One full DRR round over all-backlogged lanes.
            const std::size_t round = config.quantum * total_weight;
            std::vector<service::Pending> pop1, pop2;
            if (q1.pop_batch(pop1, round) != round ||
                q2.pop_batch(pop2, round) != round)
              return fail("backlogged round popped short", witness.str());
            std::map<std::string, std::size_t> counts;
            for (const auto& p : pop1) counts[p.request.tenant]++;
            for (const auto& t : config.tenants) {
              const std::size_t expect = config.quantum * t.weight;
              if (counts[t.name] != expect)
                return fail("tenant " + t.name + " served " +
                                std::to_string(counts[t.name]) +
                                " of a round, expected " +
                                std::to_string(expect),
                            witness.str());
            }
            for (std::size_t i = 0; i < round; ++i) {
              if (pop1[i].request.tenant != pop2[i].request.tenant)
                return fail("identical queues diverged at pop " +
                                std::to_string(i),
                            witness.str());
            }

            // Small pops resume the round where the last one stopped:
            // single pops across both rounds match two whole-round pops.
            if (q1.pop_batch(pop1, round) != round)
              return fail("second backlogged round popped short",
                          witness.str());
            std::vector<service::Pending> single;
            for (std::size_t i = 0; i < 2 * round; ++i) {
              if (q3.pop_batch(single, 1) != 1)
                return fail("single pop " + std::to_string(i) +
                                " returned nothing from a backlogged queue",
                            witness.str());
              if (single.back().request.tenant != pop1[i].request.tenant)
                return fail("single pops diverged from whole-round pops "
                            "at pop " + std::to_string(i) + ": tenant " +
                                single.back().request.tenant +
                                ", whole round gave " +
                                pop1[i].request.tenant,
                            witness.str());
            }
            return std::nullopt;
          }};
}

/// qos_shed_purity: shedding is an admission-time verdict with no
/// compute behind it, so a request shed by the token bucket and
/// resubmitted after the hint must produce byte-identical payload to a
/// qos-off engine — and the tenant id itself must never leak into the
/// bytes (the reference request carries no tenant at all).
Property qos_shed_purity_property() {
  return {"qos_shed_purity", [](Rng& rng) -> std::optional<Failure> {
            const auto fail = [](std::string msg, std::string witness) {
              Failure f;
              f.message = std::move(msg);
              f.counterexample = std::move(witness);
              return f;
            };
            service::TraceParams tp;
            tp.seed = rng.next_u64();
            tp.requests = 1;
            tp.instance_pool = 1;
            tp.n = 12;
            tp.m = 10;
            tp.k = 2;
            const service::Trace trace = service::generate_trace(tp);
            const std::string witness = "trace seed=" +
                                        std::to_string(tp.seed);

            // Reference bytes: qos off, no tenant field.
            service::ServiceEngine ref{service::EngineConfig{}};
            ref.start();
            auto ref_sub = ref.submit(trace.requests[0]);
            if (ref_sub.admission != service::Admission::kAccepted)
              return fail("reference engine rejected the probe", witness);
            const service::Response ref_resp = ref_sub.response.get();
            ref.stop();
            if (ref_resp.status != service::Response::Status::kOk)
              return fail("reference serve failed: " + ref_resp.reason,
                          witness);

            // QoS engine with a 1-token bucket: the first accept drains
            // it, so an immediate resubmit sheds with a refill hint.
            service::EngineConfig cfg;
            cfg.qos.enabled = true;
            cfg.qos.seed = rng.next_u64();
            qos::TenantConfig tenant;
            tenant.name = "t";
            tenant.rate_rps = 1000;  // 1 token per ms
            tenant.burst = 1;
            cfg.qos.tenants = {tenant};
            service::ServiceEngine engine(cfg);
            engine.start();
            service::Request probe = trace.requests[0];
            probe.tenant = "t";

            bool shed_seen = false;
            std::string retried_bytes;
            for (int attempt = 0; attempt < 200 && retried_bytes.empty();
                 ++attempt) {
              auto sub = engine.submit(probe);
              if (sub.admission == service::Admission::kShed) {
                if (sub.retry_after_us == 0)
                  return fail("shed verdict carried no backoff hint",
                              witness);
                shed_seen = true;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(sub.retry_after_us));
                continue;
              }
              if (sub.admission != service::Admission::kAccepted)
                return fail(
                    "unexpected admission: " +
                        std::string(service::admission_name(sub.admission)),
                    witness);
              const service::Response resp = sub.response.get();
              if (resp.status != service::Response::Status::kOk)
                return fail("qos serve failed: " + resp.reason, witness);
              if (resp.result != ref_resp.result)
                return fail("qos-on bytes diverge from qos-off bytes",
                            witness);
              if (shed_seen) retried_bytes = resp.result;
              // Not shed yet: this accept drained the bucket — the next
              // immediate submit sheds.
            }
            engine.stop();
            if (!shed_seen)
              return fail("token bucket never shed across 200 submits",
                          witness);
            if (retried_bytes != ref_resp.result)
              return fail("shed-then-retried bytes diverge from unshed run",
                          witness);
            return std::nullopt;
          }};
}

Property planted_bug_property() {
  return {"planted-bug", [](Rng& rng) -> std::optional<Failure> {
            Graph g = arbitrary_graph(rng);
            const auto check = [](const Graph& c) {
              return check_planted_bug(c);
            };
            if (!guarded([&] { return check(g); })) return std::nullopt;
            return shrink_graph_failure(std::move(g), check);
          }};
}

}  // namespace

std::vector<Property> default_properties(const FuzzOptions& opts) {
  std::vector<Property> props;
  props.push_back(mis_differential_property());
  props.push_back(cf_differential_property());
  props.push_back(instance_property(
      "correspondence-roundtrip", opts.family,
      [](const HyperInstance& inst, std::uint64_t seed) {
        return check_correspondence(inst, seed);
      }));
  const std::string oracle = opts.oracle;
  props.push_back(instance_property(
      "reduction-solves", opts.family,
      [oracle](const HyperInstance& inst, std::uint64_t seed) {
        return check_reduction(inst, seed, oracle);
      }));
  props.push_back(service_differential_property());
  props.push_back(hash_sensitivity_property());
  props.push_back(net_frame_property());
  props.push_back(mix64_avalanche_property());
  props.push_back(shard_ring_property());
  props.push_back(shard_failover_property());
  props.push_back(qos_fairness_property());
  props.push_back(qos_shed_purity_property());
  props.push_back(trace_propagation_property());
  props.push_back(solver_kernel_lift_property());
  props.push_back(mis_repair_property(opts));
  if (opts.plant_bug) props.push_back(planted_bug_property());
  return props;
}

std::string reproducer(const std::string& property, std::uint64_t iter_seed,
                       const std::string& family, const std::string& oracle) {
  std::ostringstream os;
  os << "pslocal_fuzz --property=" << property << " --seed=" << iter_seed
     << " --iters=1";
  if (!family.empty()) os << " --family=" << family;
  if (!oracle.empty()) os << " --oracle=" << oracle;
  return os.str();
}

std::size_t FuzzReport::failure_count() const {
  std::size_t count = 0;
  for (const auto& out : outcomes)
    if (out.failure.has_value()) ++count;
  return count;
}

FuzzReport run_properties(const std::vector<Property>& props,
                          const FuzzOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    if (opts.time_budget_ms <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    return elapsed.count() >= opts.time_budget_ms;
  };

  FuzzReport report;
  for (const Property& prop : props) {
    if (!opts.only.empty() && prop.name != opts.only) continue;
    PropertyOutcome outcome;
    outcome.name = prop.name;
    for (std::size_t iter = 0; iter < opts.iters; ++iter) {
      if (out_of_time()) break;
      const std::uint64_t s = iteration_seed(opts.seed, iter);
      // Splitting by the property name decorrelates the input streams of
      // different properties under one base seed.
      Rng rng = Rng(s).split(fnv1a64(prop.name));
      auto failure = prop.run(rng);
      ++outcome.iterations;
      if (failure.has_value()) {
        outcome.failure = std::move(failure);
        outcome.fail_seed = s;
        outcome.reproducer =
            reproducer(prop.name, s, opts.family, opts.oracle);
        break;
      }
    }
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

std::string report_json(const FuzzReport& report, const FuzzOptions& opts) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"format\": \"pslocal-fuzz-report\",\n";
  os << "  \"version\": 1,\n";
  os << "  \"seed\": \"" << opts.seed << "\",\n";
  os << "  \"iters\": " << opts.iters << ",\n";
  os << "  \"plant_bug\": " << (opts.plant_bug ? "true" : "false") << ",\n";
  os << "  \"properties\": [\n";
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const PropertyOutcome& out = report.outcomes[i];
    os << "    {\"name\": \"" << json::escape(out.name)
       << "\", \"iterations\": " << out.iterations << ", \"failed\": "
       << (out.failure.has_value() ? "true" : "false");
    if (out.failure.has_value()) {
      os << ", \"seed\": \"" << out.fail_seed << "\"";
      os << ", \"message\": \"" << json::escape(out.failure->message) << "\"";
      os << ", \"counterexample\": \""
         << json::escape(out.failure->counterexample) << "\"";
      os << ", \"shrink_attempts\": " << out.failure->shrink_attempts;
      os << ", \"shrink_accepted\": " << out.failure->shrink_accepted;
      os << ", \"reproducer\": \"" << json::escape(out.reproducer) << "\"";
    }
    os << "}" << (i + 1 < report.outcomes.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"failures\": " << report.failure_count() << ",\n";
  os << "  \"passed\": " << (report.passed() ? "true" : "false") << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace pslocal::qc
