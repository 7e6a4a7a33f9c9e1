// net/wire: frame encode/decode round-trips, incremental parsing under
// arbitrary chunking, and strict rejection of torn / corrupt / oversized
// / length-lying inputs (the decoder half of docs/net.md).
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hypergraph/generators.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pslocal::net::wire {
namespace {

std::shared_ptr<const Hypergraph> tiny_instance() {
  return std::make_shared<Hypergraph>(
      6, std::vector<std::vector<VertexId>>{{0, 1, 2}, {2, 3}, {3, 4, 5}});
}

service::Request tiny_request() {
  service::Request req;
  req.kind = service::RequestKind::kGreedyMaxis;
  req.instance = tiny_instance();
  req.instance_hash = hash_hypergraph(*req.instance);
  req.k = 3;
  req.seed = 42;
  req.solver = "greedy-mindeg";
  return req;
}

Frame request_frame(std::uint64_t id) {
  Frame f;
  f.kind = FrameKind::kRequest;
  f.request_id = id;
  f.payload = encode_request(tiny_request());
  return f;
}

TEST(NetWireTest, FrameRoundTripsThroughDecoder) {
  const Frame in = request_frame(7);
  const std::string bytes = encode_frame(in);
  ASSERT_EQ(bytes.size(), kHeaderSize + in.payload.size());

  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kNeedMore);
}

TEST(NetWireTest, DecoderHandlesByteAtATimeFeeding) {
  const Frame in = request_frame(99);
  const std::string bytes = encode_frame(in);
  FrameDecoder dec;
  Frame out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(&bytes[i], 1);
    ASSERT_EQ(dec.next(out), FrameDecoder::Result::kNeedMore)
        << "complete frame after " << (i + 1) << "/" << bytes.size()
        << " bytes";
  }
  dec.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.request_id, 99u);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(NetWireTest, DecoderExtractsBackToBackFrames) {
  std::string bytes;
  for (std::uint64_t id = 1; id <= 4; ++id)
    bytes += encode_frame(request_frame(id));
  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.request_id, id);
  }
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

/// Corrupting any of these header positions must yield kCorrupt, and the
/// corruption must be sticky: further feeds stay rejected.
void expect_corrupt(std::string bytes, std::size_t flip_at,
                    const char* what) {
  bytes[flip_at] = static_cast<char>(bytes[flip_at] ^ 0x40);
  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kCorrupt) << what;
  EXPECT_TRUE(dec.corrupt()) << what;
  EXPECT_FALSE(dec.error().empty()) << what;
  dec.feed(encode_frame(request_frame(1)));  // sticky: no recovery
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kCorrupt) << what;
}

TEST(NetWireTest, DecoderRejectsHeaderCorruption) {
  const std::string bytes = encode_frame(request_frame(5));
  expect_corrupt(bytes, 0, "magic");
  expect_corrupt(bytes, 4, "version");
  expect_corrupt(bytes, 5, "kind");
  expect_corrupt(bytes, 6, "reserved");
  expect_corrupt(bytes, 24, "checksum");
}

TEST(NetWireTest, TenantRoundTripsInV2Header) {
  Frame in = request_frame(13);
  in.tenant = "gold";
  const std::string bytes = encode_frame(in);
  // The tenant rides as a payload-region prefix: frame grows by exactly
  // its length, and payload_len on the wire covers tenant + payload.
  ASSERT_EQ(bytes.size(), kHeaderSize + in.tenant.size() + in.payload.size());

  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.tenant, "gold");
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_EQ(out.request_id, 13u);
}

TEST(NetWireTest, EmptyTenantLeavesWireBytesUnchanged) {
  // Compatibility pin: a pre-QoS sender and a QoS sender with no tenant
  // produce bit-identical frames — the tenant field costs zero bytes
  // when unused, so recorded pre-QoS streams stay valid forever.
  Frame in = request_frame(7);
  const std::string before = encode_frame(in);
  in.tenant = "";
  EXPECT_EQ(encode_frame(in), before);
}

TEST(NetWireTest, V1FrameWithNonzeroTenantWordIsCorrupt) {
  // v1 has no tenant field: the word at offset 20 is still reserved
  // there and must be zero.  A v1 peer that starts scribbling into it
  // is broken, not "early QoS".
  std::string bytes = encode_frame(request_frame(5), /*version=*/1);
  bytes[20] = 1;
  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kCorrupt);
  EXPECT_TRUE(dec.corrupt());
}

TEST(NetWireTest, TenantLengthBeyondPayloadBoundIsCorrupt) {
  // Regression pin (fuzz-found class): tenant_len > payload_len would
  // let a lying header move the payload split past the bytes the length
  // word accounts for.  The decoder must flag it before touching the
  // region.  Also pinned: the kMaxTenantLen cap (a tenant id is a name,
  // not a data channel).
  Frame in = request_frame(5);
  in.tenant = "t";
  std::string bytes = encode_frame(in);
  const std::uint32_t region =
      static_cast<std::uint32_t>(in.tenant.size() + in.payload.size());
  const std::uint32_t lie = region + 1;
  for (int i = 0; i < 4; ++i)
    bytes[20 + static_cast<std::size_t>(i)] =
        static_cast<char>(lie >> (8 * i));
  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kCorrupt);
  EXPECT_TRUE(dec.corrupt());

  Frame capped;
  capped.kind = FrameKind::kRequest;
  capped.tenant.assign(kMaxTenantLen + 1, 'a');
  capped.payload.assign(kMaxTenantLen + 64, 'b');
  std::string capped_bytes;
  // encode_frame contract-checks the cap, so build the oversized header
  // by patching a legal frame with a tenant_len that is in payload
  // bounds but over the tenant cap.
  capped.tenant.clear();
  capped_bytes = encode_frame(capped);
  const std::uint32_t over = static_cast<std::uint32_t>(kMaxTenantLen + 1);
  for (int i = 0; i < 4; ++i)
    capped_bytes[20 + static_cast<std::size_t>(i)] =
        static_cast<char>(over >> (8 * i));
  FrameDecoder dec2;
  dec2.feed(capped_bytes);
  EXPECT_EQ(dec2.next(out), FrameDecoder::Result::kCorrupt);
}

TEST(NetWireTest, TenantBitFlipIsCaughtByChecksum) {
  // The tenant prefix sits inside the checksummed region: corrupting it
  // is detected exactly like payload corruption, so routing decisions
  // never run on a damaged tenant id.
  Frame in = request_frame(5);
  in.tenant = "gold";
  std::string bytes = encode_frame(in);
  bytes[kHeaderSize] = static_cast<char>(bytes[kHeaderSize] ^ 1);
  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kCorrupt);
}

TEST(NetWireTest, DecoderRejectsPayloadBitFlip) {
  std::string bytes = encode_frame(request_frame(5));
  bytes[kHeaderSize + 3] = static_cast<char>(bytes[kHeaderSize + 3] ^ 1);
  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kCorrupt);
}

TEST(NetWireTest, DecoderRejectsOversizedPayloadBeforeBuffering) {
  // A header announcing a payload beyond the decoder's bound is corrupt
  // immediately — the decoder must not wait for (or allocate) the bytes.
  Frame f;
  f.kind = FrameKind::kResponse;
  f.payload.assign(512, 'x');
  std::string bytes = encode_frame(f);
  FrameDecoder dec(/*max_payload=*/128);
  dec.feed(bytes.substr(0, kHeaderSize));  // header only
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kCorrupt);
}

TEST(NetWireTest, MaxPayloadBoundaryIsExact) {
  // len == limit is a legal frame; limit + 1 is corrupt.  An off-by-one
  // here either rejects the largest legal response or admits an
  // unbounded allocation, so the boundary is pinned exactly.
  const auto frame_of = [](std::size_t payload_len) {
    Frame f;
    f.kind = FrameKind::kResponse;
    f.request_id = 11;
    f.payload.assign(payload_len, 'y');
    return encode_frame(f);
  };

  FrameDecoder at_limit(/*max_payload=*/128);
  at_limit.feed(frame_of(128));
  Frame out;
  ASSERT_EQ(at_limit.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.payload.size(), 128u);
  EXPECT_FALSE(at_limit.corrupt());

  FrameDecoder over_limit(/*max_payload=*/128);
  over_limit.feed(frame_of(129));
  EXPECT_EQ(over_limit.next(out), FrameDecoder::Result::kCorrupt);
  EXPECT_TRUE(over_limit.corrupt());
}

TEST(NetWireTest, TruncatedStreamIsNeedMoreNotCorrupt) {
  const std::string bytes = encode_frame(request_frame(3));
  FrameDecoder dec;
  dec.feed(bytes.substr(0, bytes.size() - 5));
  Frame out;
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kNeedMore);
  EXPECT_FALSE(dec.corrupt());
}

TEST(NetWireTest, TraceWordsRoundTripInV2Header) {
  Frame in = request_frame(7);
  in.trace_id = 0x0123456789abcdefull;
  in.parent_span_id = 0xfedcba9876543210ull;
  const std::string bytes = encode_frame(in);
  ASSERT_EQ(bytes.size(), kHeaderSize + in.payload.size());

  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.trace_id, in.trace_id);
  EXPECT_EQ(out.parent_span_id, in.parent_span_id);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload, in.payload);

  // An untraced sender puts zeros on the wire; they decode as zeros.
  FrameDecoder dec2;
  dec2.feed(encode_frame(request_frame(8)));
  ASSERT_EQ(dec2.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.parent_span_id, 0u);
}

TEST(NetWireTest, V1FramesDecodeWithZeroTraceFields) {
  // A version-1 peer has no trace words: its header is 32 bytes and the
  // payload starts at offset 32.  The decoder must keep accepting it.
  Frame in = request_frame(21);
  in.trace_id = 0xAAAA;  // dropped by the v1 encoding
  in.parent_span_id = 0xBBBB;
  const std::string bytes = encode_frame(in, /*version=*/1);
  ASSERT_EQ(bytes.size(), kHeaderSizeV1 + in.payload.size());

  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.request_id, 21u);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.parent_span_id, 0u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(NetWireTest, MixedVersionFramesShareOneStream) {
  // v2, v1, v2 back to back: per-frame version sniffing, no cross-talk.
  Frame traced = request_frame(1);
  traced.trace_id = 0xC0FFEE;
  std::string bytes = encode_frame(traced);
  bytes += encode_frame(request_frame(2), /*version=*/1);
  Frame traced3 = request_frame(3);
  traced3.trace_id = 0xDECAF;
  bytes += encode_frame(traced3);

  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.request_id, 1u);
  EXPECT_EQ(out.trace_id, 0xC0FFEEu);
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.request_id, 2u);
  EXPECT_EQ(out.trace_id, 0u);
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.request_id, 3u);
  EXPECT_EQ(out.trace_id, 0xDECAFu);
  EXPECT_EQ(dec.next(out), FrameDecoder::Result::kNeedMore);
}

TEST(NetWireTest, StatsFrameKindsRoundTrip) {
  EXPECT_TRUE(frame_kind_valid(
      static_cast<std::uint8_t>(FrameKind::kStatsRequest)));
  EXPECT_TRUE(frame_kind_valid(
      static_cast<std::uint8_t>(FrameKind::kStatsResponse)));
  EXPECT_FALSE(frame_kind_valid(0));
  EXPECT_FALSE(frame_kind_valid(6));

  // A stats request is an empty-payload frame; the response carries the
  // JSON payload and echoes the request's trace context.
  Frame req;
  req.kind = FrameKind::kStatsRequest;
  req.request_id = 17;
  req.trace_id = 0x5747;
  FrameDecoder dec;
  dec.feed(encode_frame(req));
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.kind, FrameKind::kStatsRequest);
  EXPECT_TRUE(out.payload.empty());
  EXPECT_EQ(out.trace_id, 0x5747u);

  Frame resp;
  resp.kind = FrameKind::kStatsResponse;
  resp.request_id = 17;
  resp.trace_id = 0x5747;
  resp.payload = "{\"engine\":{},\"obs\":{},\"server\":{}}";
  FrameDecoder dec2;
  dec2.feed(encode_frame(resp));
  ASSERT_EQ(dec2.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.kind, FrameKind::kStatsResponse);
  EXPECT_EQ(out.payload, resp.payload);
}

TEST(NetWireTest, TraceWordsAreNotChecksummed) {
  // The checksum guards the payload; the trace words are routing
  // metadata.  Flipping one changes the decoded ids but must not make
  // the frame corrupt (a relay may legitimately restamp them).
  std::string bytes = encode_frame(request_frame(9));
  bytes[33] = static_cast<char>(bytes[33] ^ 0x40);  // inside trace_id
  FrameDecoder dec;
  dec.feed(bytes);
  Frame out;
  ASSERT_EQ(dec.next(out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.trace_id, std::uint64_t{0x40} << 8);
  EXPECT_FALSE(dec.corrupt());
}

TEST(NetWireTest, RequestPayloadRoundTrips) {
  const service::Request in = tiny_request();
  const std::string payload = encode_request(in);

  service::Request out;
  std::string error;
  ASSERT_TRUE(decode_request(payload, out, &error)) << error;
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.k, in.k);
  EXPECT_EQ(out.seed, in.seed);
  EXPECT_EQ(out.solver, in.solver);
  ASSERT_NE(out.instance, nullptr);
  // The decoded instance is the same canonical object: identical bytes,
  // identical hash, so the server's cache key matches the client's.
  EXPECT_EQ(canonical_bytes(*out.instance), canonical_bytes(*in.instance));
  EXPECT_EQ(out.instance_hash, in.instance_hash);
  // Re-encoding is byte-stable.
  EXPECT_EQ(encode_request(out), payload);
}

TEST(NetWireTest, ResponsePayloadRoundTrips) {
  service::Response in;
  in.status = service::Response::Status::kOk;
  in.key = 0xDEADBEEFCAFEBABEull;
  in.cache_hit = true;
  in.result = "{\"answer\": [1, 2, 3]}";
  const std::string payload = encode_response(in);
  service::Response out;
  std::string error;
  ASSERT_TRUE(decode_response(payload, out, &error)) << error;
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.cache_hit, in.cache_hit);
  EXPECT_EQ(out.result, in.result);
  EXPECT_EQ(out.reason, in.reason);
}

TEST(NetWireTest, NackPayloadRoundTrips) {
  for (const NackCode code : {NackCode::kQueueFull, NackCode::kShutdown}) {
    const std::string payload = encode_nack(code);
    NackCode out = NackCode::kQueueFull;
    std::string error;
    ASSERT_TRUE(decode_nack(payload, out, &error)) << error;
    EXPECT_EQ(out, code);
  }
  NackCode out = NackCode::kQueueFull;
  std::string error;
  EXPECT_FALSE(decode_nack("", out, &error));
  EXPECT_FALSE(decode_nack(std::string(1, '\x7f'), out, &error));

  // kShedRetryAfter carries the deterministic backoff hint; the other
  // codes stay hint-free single bytes (wire compatibility with pre-QoS
  // receivers that only ever saw one-byte NACK payloads).
  const std::string shed = encode_nack(NackCode::kShedRetryAfter, 1500);
  EXPECT_EQ(shed.size(), 9u);
  std::uint64_t hint = 0;
  ASSERT_TRUE(decode_nack(shed, out, &error, &hint)) << error;
  EXPECT_EQ(out, NackCode::kShedRetryAfter);
  EXPECT_EQ(hint, 1500u);
  EXPECT_EQ(encode_nack(NackCode::kQueueFull, 1500).size(), 1u);
}

TEST(NetWireTest, TruncatedRequestPayloadIsRejectedNotMisread) {
  const std::string payload = encode_request(tiny_request());
  // Every strict prefix must fail cleanly (the frame checksum normally
  // guards this path; the codec must still never over-read).
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                payload.size() / 2, payload.size() - 1}) {
    service::Request out;
    std::string error;
    EXPECT_FALSE(
        decode_request(std::string_view(payload).substr(0, len), out, &error))
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(NetWireTest, HypergraphDecodeRejectsLiedCounts) {
  const auto h = tiny_instance();
  const std::string bytes = canonical_bytes(*h);
  Hypergraph out;
  std::string error;
  ASSERT_TRUE(decode_hypergraph(bytes, out, &error)) << error;
  EXPECT_EQ(hash_hypergraph(out), hash_hypergraph(*h));

  // Lie about the edge count: more edges than the bytes can hold.
  std::string lied = bytes;
  lied[8] = '\x7f';  // m lives at offset 8, little-endian
  EXPECT_FALSE(decode_hypergraph(lied, out, &error));

  // Lie about the vertex count: beyond the wire bound.
  std::string huge = bytes;
  huge[4] = '\x01';  // n |= 1 << 32... (byte 4 of the u64 at offset 0)
  EXPECT_FALSE(decode_hypergraph(huge, out, &error));

  // Trailing garbage is an error, not silently ignored.
  EXPECT_FALSE(decode_hypergraph(bytes + "x", out, &error));

  // Out-of-range vertex id inside an edge.
  std::string bad_vertex = bytes;
  bad_vertex[bytes.size() - 1] = '\x7f';
  EXPECT_FALSE(decode_hypergraph(bad_vertex, out, &error));
}

/// Appends v as 8 little-endian bytes, the canonical word.
void put_word(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>(v >> (8 * i));
}

/// Instance bytes in the canonical layout, written word by word, so a
/// test can send what canonical_bytes never writes: unsorted rows,
/// repeated vertices, empty edges, out-of-range ids.
std::string raw_instance(std::uint64_t n,
                         const std::vector<std::vector<std::uint64_t>>& edges) {
  std::string out;
  put_word(out, n);
  put_word(out, edges.size());
  for (const auto& edge : edges) {
    put_word(out, edge.size());
    for (const std::uint64_t v : edge) put_word(out, v);
  }
  return out;
}

/// A luby_mis request payload (k 3, seed 1, empty solver) around raw
/// instance bytes, in encode_request's field order.
std::string raw_request(const std::string& instance) {
  std::string out(1, static_cast<char>(service::RequestKind::kLubyMis));
  put_word(out, 3);
  put_word(out, 1);
  put_word(out, 0);
  put_word(out, instance.size());
  return out + instance;
}

TEST(NetWireTest, RequestDecodeRejectsInvalidEdgesWithTheirMessages) {
  // An empty edge and a repeated vertex reach Hypergraph's validating
  // routine, whose contract text the decoder passes on; an id >= n is
  // caught while the ids are read.
  const auto decode_error = [](const std::string& instance) {
    service::Request out;
    std::string error;
    EXPECT_FALSE(decode_request(raw_request(instance), out, &error));
    EXPECT_EQ(out.instance, nullptr);
    return error;
  };
  const auto expect_contract = [](const std::string& error,
                                  const std::string& message) {
    EXPECT_EQ(error.rfind("invalid hypergraph: Precondition failed: (", 0),
              0u)
        << error;
    EXPECT_TRUE(error.ends_with(" — " + message)) << error;
  };
  expect_contract(decode_error(raw_instance(4, {{0, 1}, {}})),
                  "hyperedge 1 is empty");
  expect_contract(decode_error(raw_instance(4, {{1, 3}, {2, 0, 2}})),
                  "hyperedge 1 has duplicate vertices");
  EXPECT_EQ(decode_error(raw_instance(4, {{0, 1}, {3, 4}})),
            "hypergraph vertex id out of range");
  EXPECT_EQ(decode_error(raw_instance(4, {{0, std::uint64_t{1} << 32}})),
            "hypergraph vertex id out of range");
}

TEST(NetWireTest, UnsortedEdgeDecodesToTheSortedInstanceAndItsHash) {
  service::Request out;
  std::string error;
  ASSERT_TRUE(decode_request(raw_request(raw_instance(6, {{2, 0, 1}, {5, 3}})),
                             out, &error))
      << error;
  const Hypergraph sorted(6, {{0, 1, 2}, {3, 5}});
  ASSERT_NE(out.instance, nullptr);
  ASSERT_EQ(out.instance->edge_count(), sorted.edge_count());
  for (EdgeId e = 0; e < sorted.edge_count(); ++e)
    EXPECT_TRUE(std::ranges::equal(out.instance->edge(e), sorted.edge(e)))
        << "edge " << e;
  EXPECT_EQ(out.instance_hash, hash_hypergraph(sorted));
  EXPECT_EQ(canonical_bytes(*out.instance), canonical_bytes(sorted));
}

// Cross-commit pin of the request bytes: encode_frame(encode_request(...))
// of a luby_mis request over each of MissPayloadGoldenTest's planted
// instances (tests/test_miss_payloads.cpp), one lowercase hex line each,
// against tests/golden/request_frames.txt.  The round-trip tests compare
// the codec with itself; this one fails when the writer moves a byte
// relative to the commit that wrote the golden, and decoding the
// golden's lines pins the reader.  On a mismatch the produced lines go
// to request_frames.txt.actual in the working directory.
struct FrameCase {
  std::size_t n, m, k;
  std::uint64_t seed;
};

constexpr FrameCase kFrameCases[] = {
    {48, 40, 2, 1}, {56, 48, 2, 2}, {64, 52, 3, 3}, {80, 64, 3, 4}};

Hypergraph frame_case_instance(const FrameCase& c) {
  PlantedCfParams params;
  params.n = c.n;
  params.m = c.m;
  params.k = c.k;
  Rng rng(c.seed);
  return planted_cf_colorable(params, rng).hypergraph;
}

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out += static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16));
  return out;
}

TEST(RequestFrameGoldenTest, MatchesCheckedInBytesAndDecodesBack) {
  std::vector<Hypergraph> instances;
  std::string actual;
  for (std::size_t i = 0; i < std::size(kFrameCases); ++i) {
    const FrameCase& c = kFrameCases[i];
    instances.push_back(frame_case_instance(c));
    service::Request req;
    req.kind = service::RequestKind::kLubyMis;
    req.instance = std::make_shared<const Hypergraph>(instances.back());
    req.k = c.k;
    req.seed = c.seed;
    Frame frame;
    frame.kind = FrameKind::kRequest;
    frame.request_id = i + 1;
    frame.payload = encode_request(req);
    actual += to_hex(encode_frame(frame)) + '\n';
  }
  std::ifstream in(std::string(PSLOCAL_GOLDEN_DIR) + "/request_frames.txt");
  EXPECT_TRUE(in.good()) << "cannot open request_frames.txt";
  std::ostringstream golden;
  golden << in.rdbuf();
  if (actual != golden.str()) {
    std::ofstream("request_frames.txt.actual") << actual;
    ADD_FAILURE() << "request frames differ from the golden; the produced "
                     "lines are in request_frames.txt.actual";
  }

  std::istringstream lines(golden.str());
  std::string line;
  std::size_t i = 0;
  for (; std::getline(lines, line); ++i) {
    ASSERT_LT(i, instances.size());
    SCOPED_TRACE(testing::Message() << "golden line " << i);
    FrameDecoder decoder;
    decoder.feed(from_hex(line));
    Frame frame;
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame)
        << decoder.error();
    EXPECT_EQ(decoder.buffered(), 0u);
    EXPECT_EQ(frame.request_id, i + 1);
    service::Request out;
    std::string error;
    ASSERT_TRUE(decode_request(frame.payload, out, &error)) << error;
    EXPECT_EQ(out.kind, service::RequestKind::kLubyMis);
    EXPECT_EQ(out.k, kFrameCases[i].k);
    EXPECT_EQ(out.seed, kFrameCases[i].seed);
    const Hypergraph& want = instances[i];
    ASSERT_EQ(out.instance->vertex_count(), want.vertex_count());
    ASSERT_EQ(out.instance->edge_count(), want.edge_count());
    for (EdgeId e = 0; e < want.edge_count(); ++e)
      EXPECT_TRUE(std::ranges::equal(out.instance->edge(e), want.edge(e)))
          << "edge " << e;
    EXPECT_EQ(hash_hypergraph(*out.instance), hash_hypergraph(want));
    EXPECT_EQ(out.instance_hash, hash_hypergraph(want));
  }
  EXPECT_EQ(i, instances.size());
}

}  // namespace
}  // namespace pslocal::net::wire
