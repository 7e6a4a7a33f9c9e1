#include "net/wire.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace pslocal::net::wire {

namespace {

void put_u8(std::string& out, std::uint8_t v) {
  out += static_cast<char>(v);
}

void put_u16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out += static_cast<char>(v >> (8 * i));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>(v >> (8 * i));
}

void put_u64(std::string& out, std::uint64_t v) {
  out.resize(out.size() + 8);
  store_le64(out.data() + out.size() - 8, v);
}

void put_string(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out += s;
}

/// Bounds-checked little-endian cursor over untrusted bytes.  Every
/// read either succeeds or returns false leaving `ok()` false; no read
/// ever touches memory past the view.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool read_u8(std::uint8_t& v) {
    if (remaining() < 1) return ok_ = false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool read_u64(std::uint64_t& v) {
    if (remaining() < 8) return ok_ = false;
    v = load_le64(bytes_.data() + pos_);
    pos_ += 8;
    return true;
  }

  /// Length-prefixed bytes whose length must fit in the remaining
  /// bytes — a lying prefix fails before any allocation.  The view
  /// points into the reader's input.
  bool read_view(std::string_view& v) {
    std::uint64_t len = 0;
    if (!read_u64(len)) return false;
    if (len > remaining()) return ok_ = false;
    v = bytes_.substr(pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

  bool read_string(std::string& v) {
    std::string_view view;
    if (!read_view(view)) return false;
    v.assign(view);
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  return v;
}

bool set_error(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

bool frame_kind_valid(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(FrameKind::kRequest) &&
         kind <= static_cast<std::uint8_t>(FrameKind::kStatsResponse);
}

std::string encode_frame(const Frame& frame, std::uint8_t version) {
  PSL_EXPECTS(frame.tenant.size() <= kMaxTenantLen);
  PSL_EXPECTS(frame.tenant.size() + frame.payload.size() <= kMaxPayload);
  PSL_EXPECTS_MSG(version == 1 || version == 2,
                  "net: unencodable frame version");
  PSL_EXPECTS_MSG(version == 2 || frame.tenant.empty(),
                  "net: v1 frames cannot carry a tenant id");
  const std::size_t header = version == 1 ? kHeaderSizeV1 : kHeaderSize;
  // The payload region is tenant-prefix + logical payload; one checksum
  // covers both, and an empty tenant reproduces the pre-QoS bytes.
  const std::size_t region = frame.tenant.size() + frame.payload.size();
  Fnv1a64 fnv;
  fnv.update_bytes(frame.tenant.data(), frame.tenant.size());
  fnv.update_bytes(frame.payload.data(), frame.payload.size());
  std::string out;
  out.reserve(header + region);
  put_u32(out, kMagic);
  put_u8(out, version);
  put_u8(out, static_cast<std::uint8_t>(frame.kind));
  put_u16(out, 0);
  put_u64(out, frame.request_id);
  put_u32(out, static_cast<std::uint32_t>(region));
  put_u32(out, static_cast<std::uint32_t>(frame.tenant.size()));
  put_u64(out, fnv.digest());
  if (version == 2) {
    put_u64(out, frame.trace_id);
    put_u64(out, frame.parent_span_id);
  }
  out += frame.tenant;
  out += frame.payload;
  PSL_ENSURES(out.size() == header + region);
  return out;
}

FrameDecoder::FrameDecoder(std::size_t max_payload)
    : max_payload_(max_payload) {}

void FrameDecoder::feed(const char* data, std::size_t len) {
  if (corrupt_ || len == 0) return;
  // Compact lazily: only once parsed bytes dominate the buffer, so a
  // steady stream of small frames doesn't memmove per frame.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, len);
}

FrameDecoder::Result FrameDecoder::fail(const std::string& why) {
  corrupt_ = true;
  error_ = why;
  buffer_.clear();
  consumed_ = 0;
  return Result::kCorrupt;
}

FrameDecoder::Result FrameDecoder::next(Frame& out) {
  if (corrupt_) return Result::kCorrupt;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderSizeV1) return Result::kNeedMore;
  const char* h = buffer_.data() + consumed_;

  if (load_u32(h) != kMagic) return fail("bad magic");
  const auto version = static_cast<std::uint8_t>(h[4]);
  if (version != 1 && version != kVersion)
    return fail("unsupported version " + std::to_string(version));
  // v1 peers stop after the checksum word; v2 appends the trace words.
  const std::size_t header_size = version == 1 ? kHeaderSizeV1 : kHeaderSize;
  const auto kind = static_cast<std::uint8_t>(h[5]);
  if (!frame_kind_valid(kind))
    return fail("unknown frame kind " + std::to_string(kind));
  if (h[6] != 0 || h[7] != 0) return fail("nonzero reserved field");
  const std::uint64_t request_id = load_le64(h + 8);
  const std::uint32_t payload_len = load_u32(h + 16);
  if (payload_len > max_payload_)
    return fail("payload length " + std::to_string(payload_len) +
                " exceeds bound " + std::to_string(max_payload_));
  const std::uint32_t tenant_len = load_u32(h + 20);
  if (version == 1) {
    // v1 has no tenant field — the word is still reserved there.
    if (tenant_len != 0) return fail("nonzero reserved field");
  } else {
    // The tenant prefix must fit inside the declared payload region: a
    // lying tenant_len cannot move the payload split past the bytes the
    // checksum covers (regression-pinned; fuzzed by qc `net_frame`).
    if (tenant_len > payload_len)
      return fail("tenant length " + std::to_string(tenant_len) +
                  " exceeds payload bound " + std::to_string(payload_len));
    if (tenant_len > kMaxTenantLen)
      return fail("tenant length " + std::to_string(tenant_len) +
                  " exceeds bound " + std::to_string(kMaxTenantLen));
  }
  const std::uint64_t payload_fnv = load_le64(h + 24);

  if (avail < header_size + payload_len) return Result::kNeedMore;
  const std::string_view region(h + header_size, payload_len);
  if (fnv1a64(region) != payload_fnv) return fail("payload checksum mismatch");

  out.kind = static_cast<FrameKind>(kind);
  out.request_id = request_id;
  out.trace_id = version == 1 ? 0 : load_le64(h + 32);
  out.parent_span_id = version == 1 ? 0 : load_le64(h + 40);
  out.tenant.assign(region.data(), tenant_len);
  out.payload.assign(region.data() + tenant_len, region.size() - tenant_len);
  consumed_ += header_size + payload_len;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return Result::kFrame;
}

std::string encode_request(const service::Request& req) {
  PSL_EXPECTS_MSG(req.instance != nullptr, "net: request has no instance");
  const std::string instance = canonical_bytes(*req.instance);
  std::string out;
  out.reserve(1 + 4 * 8 + req.solver.size() + instance.size());
  put_u8(out, static_cast<std::uint8_t>(req.kind));
  put_u64(out, req.k);
  put_u64(out, req.seed);
  put_string(out, req.solver);
  put_string(out, instance);
  // The mutation script rides as one extra length-prefixed field, only
  // for the kind that consumes it — the other kinds' bytes are
  // unchanged from the 5-field codec.
  if (req.kind == service::RequestKind::kMutateHypergraph)
    put_string(out, encode_script(req.script));
  return out;
}

bool decode_request(std::string_view payload, service::Request& out,
                    std::string* error) {
  ByteReader r(payload);
  std::uint8_t kind = 0;
  std::uint64_t k = 0, seed = 0;
  std::string solver;
  std::string_view instance_bytes;
  if (!r.read_u8(kind) || !r.read_u64(k) || !r.read_u64(seed) ||
      !r.read_string(solver) || !r.read_view(instance_bytes))
    return set_error(error, "request payload truncated");
  if (kind >= service::kRequestKindCount)
    return set_error(error,
                     "unknown request kind " + std::to_string(kind));
  std::vector<Mutation> script;
  if (kind ==
      static_cast<std::uint8_t>(service::RequestKind::kMutateHypergraph)) {
    std::string_view script_bytes;
    if (!r.read_view(script_bytes))
      return set_error(error, "request payload truncated");
    // Structural validation only; semantic applicability is checked at
    // execute time against the decoded instance.
    auto decoded = decode_script(script_bytes);
    if (!decoded.has_value())
      return set_error(error, "request mutation script malformed");
    script = std::move(*decoded);
  }
  if (!r.exhausted())
    return set_error(error, "request payload has trailing bytes");
  Hypergraph h;
  if (!decode_hypergraph(instance_bytes, h, error)) return false;

  out.kind = static_cast<service::RequestKind>(kind);
  out.k = static_cast<std::size_t>(k);
  out.seed = seed;
  out.solver = std::move(solver);
  out.script = std::move(script);
  out.instance = std::make_shared<const Hypergraph>(std::move(h));
  out.instance_hash = hash_hypergraph(*out.instance);
  return true;
}

std::string encode_response(const service::Response& resp) {
  std::string out;
  put_u8(out, static_cast<std::uint8_t>(resp.status));
  put_u8(out, resp.cache_hit ? 1 : 0);
  put_u64(out, resp.key);
  put_string(out, resp.reason);
  put_string(out, resp.result);
  return out;
}

bool decode_response(std::string_view payload, service::Response& out,
                     std::string* error) {
  ByteReader r(payload);
  std::uint8_t status = 0, cache_hit = 0;
  if (!r.read_u8(status) || !r.read_u8(cache_hit) || !r.read_u64(out.key) ||
      !r.read_string(out.reason) || !r.read_string(out.result))
    return set_error(error, "response payload truncated");
  if (!r.exhausted())
    return set_error(error, "response payload has trailing bytes");
  if (status > static_cast<std::uint8_t>(service::Response::Status::kError))
    return set_error(error,
                     "unknown response status " + std::to_string(status));
  out.status = static_cast<service::Response::Status>(status);
  out.cache_hit = cache_hit != 0;
  return true;
}

const char* nack_name(NackCode code) {
  switch (code) {
    case NackCode::kQueueFull: return "queue_full";
    case NackCode::kShutdown: return "shutdown";
    case NackCode::kShedRetryAfter: return "shed_retry_after";
  }
  return "unknown";
}

std::string encode_nack(NackCode code, std::uint64_t retry_after_us) {
  std::string out;
  put_u8(out, static_cast<std::uint8_t>(code));
  // Only the shed code carries the hint word; the pre-QoS codes keep
  // their single-byte payload so old byte streams decode unchanged.
  if (code == NackCode::kShedRetryAfter) put_u64(out, retry_after_us);
  return out;
}

bool decode_nack(std::string_view payload, NackCode& out, std::string* error,
                 std::uint64_t* retry_after_us) {
  if (retry_after_us != nullptr) *retry_after_us = 0;
  ByteReader r(payload);
  std::uint8_t code = 0;
  if (!r.read_u8(code)) return set_error(error, "nack payload truncated");
  if (code < static_cast<std::uint8_t>(NackCode::kQueueFull) ||
      code > static_cast<std::uint8_t>(NackCode::kShedRetryAfter))
    return set_error(error, "unknown nack code " + std::to_string(code));
  if (code == static_cast<std::uint8_t>(NackCode::kShedRetryAfter)) {
    std::uint64_t hint = 0;
    if (!r.read_u64(hint)) return set_error(error, "nack payload truncated");
    if (retry_after_us != nullptr) *retry_after_us = hint;
  }
  if (!r.exhausted())
    return set_error(error, "nack payload has trailing bytes");
  out = static_cast<NackCode>(code);
  return true;
}

bool decode_hypergraph(std::string_view bytes, Hypergraph& out,
                       std::string* error) {
  ByteReader r(bytes);
  std::uint64_t n = 0, m = 0;
  if (!r.read_u64(n) || !r.read_u64(m))
    return set_error(error, "hypergraph bytes truncated");
  // Each of the m edges needs at least its 8-byte size word, and each
  // vertex id costs 8 bytes — so both counts are bounded by the bytes
  // actually present before anything is allocated from them.
  if (m > r.remaining() / 8)
    return set_error(error, "hypergraph edge count exceeds payload");
  if (n > kMaxWireVertices)
    return set_error(error, "hypergraph vertex count out of range");
  // The edges go straight into Hypergraph's flat rows.  Every byte past
  // the m size words is a vertex word at most, which sizes the vertex
  // array exactly for a well-formed instance.
  std::vector<std::size_t> offsets;
  offsets.reserve(static_cast<std::size_t>(m) + 1);
  offsets.push_back(0);
  std::vector<VertexId> vertices;
  vertices.reserve((r.remaining() - 8 * static_cast<std::size_t>(m)) / 8);
  for (std::uint64_t e = 0; e < m; ++e) {
    std::uint64_t size = 0;
    if (!r.read_u64(size))
      return set_error(error, "hypergraph bytes truncated");
    if (size > r.remaining() / 8)
      return set_error(error, "hypergraph edge size exceeds payload");
    for (std::uint64_t i = 0; i < size; ++i) {
      std::uint64_t v = 0;
      if (!r.read_u64(v))
        return set_error(error, "hypergraph bytes truncated");
      if (v >= n)
        return set_error(error, "hypergraph vertex id out of range");
      vertices.push_back(static_cast<VertexId>(v));
    }
    offsets.push_back(vertices.size());
  }
  if (!r.exhausted())
    return set_error(error, "hypergraph bytes have trailing data");
  // Hypergraph still enforces non-empty edges with distinct vertices;
  // convert its contract throw into a decode error.
  try {
    out = Hypergraph::from_csr(static_cast<std::size_t>(n), std::move(offsets),
                               std::move(vertices));
  } catch (const std::exception& e) {
    return set_error(error, std::string("invalid hypergraph: ") + e.what());
  }
  return true;
}

}  // namespace pslocal::net::wire
