// Binary wire protocol of the network tier (src/net/).
//
// A frame is a fixed 48-byte header (version 2) followed by
// `payload_len` payload bytes.  Every multi-byte integer is
// little-endian at a fixed width — the same canonical convention as
// util/hash — so frames are byte-identical across platforms and a
// recorded byte stream replays anywhere.  The header carries an FNV-1a
// 64 digest of the payload; a frame whose payload was bit-flipped in
// flight (or whose length field lies about where the payload ends)
// fails the checksum and is rejected as corrupt rather than mis-parsed.
//
//   offset  width  field
//        0      4  magic        "PSL1" (0x314c5350 little-endian)
//        4      1  version      kVersion (currently 2; 1 still decodes)
//        5      1  kind         FrameKind (request/response/nack/stats)
//        6      2  reserved     must be 0
//        8      8  request_id   caller-assigned; echoed in the response
//       16      4  payload_len  <= max_payload (decoder-configured)
//       20      4  tenant_len   v2: QoS tenant-id prefix length; v1: must be 0
//       24      8  payload_fnv  fnv1a64(payload region)
//       32      8  trace_id     distributed trace id (v2; 0 = untraced)
//       40      8  parent_span_id  sender's span (v2; 0 = root)
//       48      …  payload
//
// Version 1 frames (PR 5/6 peers) are the same layout without the two
// trace words — a 32-byte header with the payload at offset 32.  The
// decoder accepts both: v1 frames simply decode with zero trace fields,
// so trace context is always *on the wire* (zero when absent or when
// built with -DPSLOCAL_OBS=OFF) without breaking older byte streams.
//
// The QoS tenant id (docs/qos.md) rides as an optional prefix of the
// payload region: `tenant_len` (the former reserved2 word) names how
// many of the `payload_len` bytes are the tenant id; the logical
// payload is the remainder.  The checksum covers the whole region, so
// a bit-flipped tenant id is caught like any payload corruption.  A
// frame with no tenant (tenant_len 0 — every pre-QoS sender) is
// byte-identical to the old encoding, which keeps recorded replay
// streams valid.  The decoder rejects tenant_len > payload_len (a
// length lie cannot move the payload split past the region) and bounds
// tenant ids at kMaxTenantLen.  v1 frames cannot carry a tenant.
//
// Payload encodings reuse the canonical serialization style of
// util/hash (fixed-width little-endian words, length-prefixed strings):
// a request payload embeds canonical_bytes(instance) verbatim, so the
// server-side instance hash equals the client-side one by construction.
//
// The FrameDecoder is a strict bounded-size incremental parser: feed()
// appends raw socket bytes, next() yields complete frames.  Oversized,
// torn and garbage inputs produce kCorrupt (sticky — the connection is
// beyond repair and must be closed) or kNeedMore; no input crashes the
// decoder or indexes out of bounds (the qc property `net_frame` fuzzes
// exactly this contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "service/request.hpp"

namespace pslocal::net::wire {

inline constexpr std::uint32_t kMagic = 0x314c5350u;  // "PSL1"
inline constexpr std::uint8_t kVersion = 2;
/// Header size of a kVersion frame (v2: includes the trace words).
inline constexpr std::size_t kHeaderSize = 48;
/// Header size of a legacy version-1 frame (no trace words).
inline constexpr std::size_t kHeaderSizeV1 = 32;
/// Default payload bound: generous for request instances, small enough
/// that a length-lying frame cannot make the decoder allocate wildly.
inline constexpr std::size_t kMaxPayload = 16u << 20;
/// Vertex-count bound for wire-decoded hypergraphs.  The canonical
/// encoding carries no per-vertex bytes, so without this bound a
/// length-lied vertex count would size the incidence index at will.
inline constexpr std::uint64_t kMaxWireVertices = 1u << 24;
/// Bound on the tenant-id prefix (a tenant name, not a data channel).
inline constexpr std::size_t kMaxTenantLen = 256;

enum class FrameKind : std::uint8_t {
  kRequest = 1,        // payload: encode_request
  kResponse = 2,       // payload: encode_response
  kNack = 3,           // payload: encode_nack (admission rejected; retryable)
  kStatsRequest = 4,   // payload: empty (live telemetry scrape)
  kStatsResponse = 5,  // payload: deterministic JSON (docs/tracing.md)
};

/// True for the five defined kinds (the decoder rejects anything else).
[[nodiscard]] bool frame_kind_valid(std::uint8_t kind);

struct Frame {
  FrameKind kind = FrameKind::kRequest;
  std::uint64_t request_id = 0;
  std::string payload;
  // Distributed trace context (v2 header words; decoded as 0 from v1
  // frames and from untraced senders).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  // QoS tenant id (v2 payload-region prefix; empty = default tenant —
  // and an empty tenant leaves the wire bytes identical to pre-QoS
  // frames).  Never part of the request payload or any cache key.
  std::string tenant;
};

/// Serialize a frame (header + payload) into wire bytes.  `version`
/// must be 1 or 2; version 1 drops the trace words (compatibility
/// shim, used by tests and old-peer simulation) and requires an empty
/// tenant.  PSL_EXPECTS tenant.size() + payload.size() <= kMaxPayload
/// and tenant.size() <= kMaxTenantLen.
[[nodiscard]] std::string encode_frame(const Frame& frame,
                                       std::uint8_t version = kVersion);

/// Strict incremental frame parser (see header comment).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxPayload);

  /// Append raw bytes from the socket.  No-op after corruption.
  void feed(const char* data, std::size_t len);
  void feed(std::string_view bytes) { feed(bytes.data(), bytes.size()); }

  enum class Result : std::uint8_t {
    kFrame,     // `out` holds the next complete frame
    kNeedMore,  // buffered bytes form no complete frame yet
    kCorrupt,   // stream is invalid; close the connection (sticky)
  };

  /// Extract the next complete frame, validating magic, version,
  /// reserved fields, kind, payload bound and checksum.
  Result next(Frame& out);

  [[nodiscard]] bool corrupt() const { return corrupt_; }
  /// Human-readable reason, set once corrupt() turns true.
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Unparsed bytes currently held (0 after every frame was extracted).
  [[nodiscard]] std::size_t buffered() const {
    return buffer_.size() - consumed_;
  }

 private:
  Result fail(const std::string& why);

  std::size_t max_payload_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // bytes of buffer_ already parsed
  bool corrupt_ = false;
  std::string error_;
};

// --- Payload codecs -------------------------------------------------
//
// Decoders return false (with *error set) on malformed payloads instead
// of throwing: a hostile payload is an expected input for a server, not
// a contract violation.

/// Request payload: kind u8, k u64, seed u64, solver string,
/// canonical_bytes(instance) string.  Requires req.instance != nullptr.
[[nodiscard]] std::string encode_request(const service::Request& req);

/// Inverse of encode_request.  Decodes the instance in place from the
/// payload (decode_hypergraph, no copy of its bytes) and fills
/// out.instance_hash from the decoded content, so an edge sent unsorted
/// gets the hash of its sorted instance.  out.id is NOT set here — it
/// travels in the frame header.
[[nodiscard]] bool decode_request(std::string_view payload,
                                  service::Request& out, std::string* error);

/// Response payload: status u8, cache_hit u8, key u64, reason string,
/// result string.  Timing fields do not cross the wire (they are
/// server-local; the client measures its own RTT).
[[nodiscard]] std::string encode_response(const service::Response& resp);
[[nodiscard]] bool decode_response(std::string_view payload,
                                   service::Response& out,
                                   std::string* error);

/// Typed admission NACK: the request was not admitted and nothing was
/// or will be computed for it.  kQueueFull and kShedRetryAfter are
/// retryable by contract; kShedRetryAfter additionally carries a
/// deterministic backoff hint (microseconds) that retry paths honor.
enum class NackCode : std::uint8_t {
  kQueueFull = 1,
  kShutdown = 2,
  kShedRetryAfter = 3,
};

[[nodiscard]] const char* nack_name(NackCode code);

/// NACK payload: code u8, then for kShedRetryAfter a u64 backoff hint
/// in microseconds (0 for the other codes; their payload stays the
/// single pre-QoS byte).
[[nodiscard]] std::string encode_nack(NackCode code,
                                      std::uint64_t retry_after_us = 0);
/// Inverse of encode_nack.  `retry_after_us` (optional) receives the
/// backoff hint (0 unless the code is kShedRetryAfter).
[[nodiscard]] bool decode_nack(std::string_view payload, NackCode& out,
                               std::string* error,
                               std::uint64_t* retry_after_us = nullptr);

/// Decode the canonical hypergraph bytes produced by canonical_bytes()
/// (util/hash.hpp) in one pass, straight into Hypergraph's flat edge
/// rows (Hypergraph::from_csr): no vector per edge or per vertex.
/// Validates counts against the available bytes before allocating and
/// range-checks each vertex id as it is read; Hypergraph's one
/// validating routine then rejects empty edges and repeated vertices
/// with its own messages ("invalid hypergraph: ..."), and stores each
/// edge sorted.
[[nodiscard]] bool decode_hypergraph(std::string_view bytes, Hypergraph& out,
                                     std::string* error);

}  // namespace pslocal::net::wire
