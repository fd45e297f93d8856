// Wire protocol v1 — the length-prefixed binary framing of the network
// front-end (docs/NET.md has the full grammar and the tenancy model).
//
// Every message is one frame: a fixed 24-byte header followed by
// `payload_bytes` of type-specific payload, all little-endian, packed
// byte-by-byte (no struct punning — the encoding is the spec, not the
// host ABI):
//
//   offset  size  field
//        0     4  magic          0x706D6C6C ("llmp" as LE bytes)
//        4     1  version        kWireVersion (1)
//        5     1  type           FrameType
//        6     2  reserved       must be 0
//        8     4  tenant         tenant id the frame is accounted to
//       12     8  request_id     caller-chosen correlation id
//       20     4  payload_bytes  length of the payload that follows
//
// Frame types: a client sends kRequest / kStatsRequest; the server
// answers each request with exactly one kResponse (success) or kError
// frame carrying the SAME request_id, and each stats request with one
// kStats frame. Responses may arrive in any order — pipelined clients
// reconcile by request_id (net/client.h does).
//
// Decoding is strict and total: every read is bounds-checked, every
// enum/range is validated, and a payload must be consumed exactly —
// trailing bytes are a protocol error. Header-level corruption (bad
// magic/version/reserved, oversized length) is unrecoverable — the
// stream cannot be resynchronised — so the server answers with a final
// kError frame and drops the connection. Payload-level errors leave the
// stream framed and cost only that request. All of it surfaces as a
// Status; nothing in this header throws on untrusted bytes.
//
// The error-code field of kError frames is llmp::wire_code(StatusCode) —
// one table in support/status.h shared with the in-process API, so every
// StatusCode survives encode/decode (pinned by tests/net_wire_test.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/stats.h"
#include "serve/stats.h"
#include "support/check.h"
#include "support/metrics.h"
#include "support/status.h"
#include "support/types.h"

namespace llmp::net {

inline constexpr std::uint32_t kWireMagic = 0x706D6C6C;  // "llmp" LE
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Hard decode bound on payload_bytes: a header advertising more is a
/// protocol error, not an allocation request. Generous enough for an
/// inline list of 2^26 nodes (4 bytes each).
inline constexpr std::uint32_t kMaxPayloadBytes = 257u << 20;

enum class FrameType : std::uint8_t {
  kRequest = 1,       ///< client → server: run a matching request
  kResponse = 2,      ///< server → client: the request's result summary
  kError = 3,         ///< server → client: the request failed (Status)
  kStatsRequest = 4,  ///< client → server: snapshot the server counters
  kStats = 5,         ///< server → client: the stats snapshot
};

struct FrameHeader {
  std::uint8_t version = kWireVersion;
  FrameType type = FrameType::kRequest;
  std::uint32_t tenant = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_bytes = 0;
};

/// How a request frame names its list.
enum class ListSpec : std::uint8_t {
  kGenerated = 0,  ///< (n, seed) — server materialises random_list(n, seed)
  kInline = 1,     ///< the successor array rides in the frame (n × u32)
};

/// Payload of kRequest.
struct RequestFrame {
  std::string algorithm = "match4";
  std::uint32_t deadline_ms = 0;  ///< relative; 0 = no deadline
  std::uint64_t memory_budget_bytes = 0;
  ListSpec list_spec = ListSpec::kGenerated;
  std::uint64_t n = 0;         ///< list size (both specs)
  std::uint64_t seed = 0;      ///< kGenerated only
  std::vector<index_t> links;  ///< kInline only: successor array, knil tail
};

/// Payload of kResponse — the result *summary* (counters and model cost),
/// not the per-node matching vector: shipping n bytes per request back
/// would dwarf the request itself, and a caller that needs the vector
/// audited server-side asks for --serve.verify. See docs/NET.md.
struct ResponseFrame {
  std::uint64_t edges = 0;
  std::uint32_t relabel_rounds = 0;
  std::uint32_t gather_rounds = 0;
  std::uint64_t partition_sets = 0;
  std::uint64_t cost_depth = 0;
  std::uint64_t cost_time_p = 0;
  std::uint64_t cost_work = 0;
};

/// Payload of kError.
struct ErrorFrame {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

/// Payload of kStats: every field of the serve layer's and the net
/// layer's stats schemas, tenant ledger included. On the wire each
/// section is a u32 entry count followed by that many u64 values in its
/// table's order (serve/stats.h, net/stats.h); no names are sent, because
/// both ends share the tables.
struct StatsFrame {
  serve::ServiceStats service;
  ServerStats server;
};

// ---------------------------------------------------------------------------
// Primitive encode/decode. Little-endian, explicit bytes.
// ---------------------------------------------------------------------------

/// Appends primitives to a byte buffer. Infallible (grows the vector).
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  /// `count` u32s back to back: one resize, then the bytes in place.
  void u32s(const std::uint32_t* v, std::size_t count) {
    const std::size_t at = out_.size();
    out_.resize(at + count * 4);
    std::uint8_t* p = out_.data() + at;
    for (std::size_t i = 0; i < count; ++i, p += 4) {
      p[0] = static_cast<std::uint8_t>(v[i]);
      p[1] = static_cast<std::uint8_t>(v[i] >> 8);
      p[2] = static_cast<std::uint8_t>(v[i] >> 16);
      p[3] = static_cast<std::uint8_t>(v[i] >> 24);
    }
  }
  /// Length-prefixed short string (u16 length).
  void str16(const std::string& s) {
    const std::size_t len = s.size() > 0xFFFF ? 0xFFFF : s.size();
    u16(static_cast<std::uint16_t>(len));
    out_.insert(out_.end(), s.begin(), s.begin() + static_cast<long>(len));
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked reads over a fixed byte range; every failure is a
/// kInvalidArgument Status naming what was being read.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }

  Status u8(std::uint8_t* v, const char* what) {
    if (remaining() < 1) return truncated(what);
    *v = data_[pos_++];
    return {};
  }
  Status u16(std::uint16_t* v, const char* what) {
    if (remaining() < 2) return truncated(what);
    *v = static_cast<std::uint16_t>(data_[pos_]) |
         static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return {};
  }
  Status u32(std::uint32_t* v, const char* what) {
    if (remaining() < 4) return truncated(what);
    *v = static_cast<std::uint32_t>(data_[pos_]) |
         static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
         static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
         static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return {};
  }
  /// `count` u32s back to back, after one bounds check: on a short
  /// buffer nothing is read or written.
  Status u32s(std::uint32_t* v, std::size_t count, const char* what) {
    if (remaining() / 4 < count) return truncated(what);
    const std::uint8_t* p = data_ + pos_;
    for (std::size_t i = 0; i < count; ++i, p += 4)
      v[i] = static_cast<std::uint32_t>(p[0]) |
             static_cast<std::uint32_t>(p[1]) << 8 |
             static_cast<std::uint32_t>(p[2]) << 16 |
             static_cast<std::uint32_t>(p[3]) << 24;
    pos_ += count * 4;
    return {};
  }
  Status u64(std::uint64_t* v, const char* what) {
    std::uint32_t lo = 0, hi = 0;
    if (Status s = u32(&lo, what); !s.ok()) return s;
    if (Status s = u32(&hi, what); !s.ok()) return s;
    *v = static_cast<std::uint64_t>(hi) << 32 | lo;
    return {};
  }
  Status str16(std::string* v, const char* what) {
    std::uint16_t len = 0;
    if (Status s = u16(&len, what); !s.ok()) return s;
    if (remaining() < len) return truncated(what);
    v->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return {};
  }
  /// The payload must be consumed exactly; call after the last field.
  Status expect_end(const char* what) const {
    if (pos_ != size_)
      return Status::invalid_argument(std::string(what) + ": " +
                                      std::to_string(size_ - pos_) +
                                      " trailing payload byte(s)");
    return {};
  }

 private:
  Status truncated(const char* what) const {
    return Status::invalid_argument(std::string("truncated frame: ") + what);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Header.
// ---------------------------------------------------------------------------

/// Encode a header for a payload of `payload_bytes` onto `out`.
inline void encode_header(const FrameHeader& h,
                          std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u32(kWireMagic);
  w.u8(h.version);
  w.u8(static_cast<std::uint8_t>(h.type));
  w.u16(0);  // reserved
  w.u32(h.tenant);
  w.u64(h.request_id);
  w.u32(h.payload_bytes);
}

/// Strict header decode from exactly kFrameHeaderBytes. A non-OK Status
/// means the stream is corrupt beyond resynchronisation (see header
/// comment); payload-level problems are reported by the payload decoders.
inline Status decode_header(const std::uint8_t* data, std::size_t size,
                            FrameHeader* out) {
  WireReader r(data, size);
  std::uint32_t magic = 0;
  std::uint16_t reserved = 0;
  std::uint8_t type = 0;
  if (Status s = r.u32(&magic, "header magic"); !s.ok()) return s;
  if (magic != kWireMagic)
    return Status::invalid_argument("bad frame magic");
  if (Status s = r.u8(&out->version, "header version"); !s.ok()) return s;
  if (out->version != kWireVersion)
    return Status::invalid_argument(
        "unsupported protocol version " + std::to_string(out->version) +
        " (expected " + std::to_string(kWireVersion) + ")");
  if (Status s = r.u8(&type, "header type"); !s.ok()) return s;
  if (type < static_cast<std::uint8_t>(FrameType::kRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kStats))
    return Status::invalid_argument("unknown frame type " +
                                    std::to_string(type));
  out->type = static_cast<FrameType>(type);
  if (Status s = r.u16(&reserved, "header reserved"); !s.ok()) return s;
  if (reserved != 0)
    return Status::invalid_argument("nonzero reserved header field");
  if (Status s = r.u32(&out->tenant, "header tenant"); !s.ok()) return s;
  if (Status s = r.u64(&out->request_id, "header request id"); !s.ok())
    return s;
  if (Status s = r.u32(&out->payload_bytes, "header payload length");
      !s.ok())
    return s;
  if (out->payload_bytes > kMaxPayloadBytes)
    return Status::invalid_argument(
        "payload length " + std::to_string(out->payload_bytes) +
        " exceeds the protocol bound");
  return {};
}

// ---------------------------------------------------------------------------
// Frame encode: header + payload in one buffer, ready to write.
// ---------------------------------------------------------------------------

namespace detail {

/// Encode `payload_fn(writer)` after a header of the given type, patching
/// the real payload length into the header afterwards.
template <class PayloadFn>
void encode_frame(FrameType type, std::uint32_t tenant,
                  std::uint64_t request_id, std::vector<std::uint8_t>& out,
                  PayloadFn&& payload_fn) {
  FrameHeader h;
  h.type = type;
  h.tenant = tenant;
  h.request_id = request_id;
  const std::size_t header_at = out.size();
  encode_header(h, out);
  const std::size_t payload_at = out.size();
  WireWriter w(out);
  payload_fn(w);
  const std::uint64_t len = out.size() - payload_at;
  LLMP_CHECK(out.size() >= header_at + kFrameHeaderBytes);
  // Every encoder either bounds its payload by construction (responses,
  // errors, stats) or validates before calling here (requests); a frame
  // above the protocol bound would wrap the u32 length field and
  // desynchronise the stream, so it is a programming error, not data.
  LLMP_CHECK(len <= kMaxPayloadBytes);
  // Patch payload_bytes (offset 20 in the header).
  for (int i = 0; i < 4; ++i)
    out[header_at + 20 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
}

/// One kStats section: the entry count, then every field in table order.
template <class Stats, std::size_t N>
void encode_section(WireWriter& w, const Stats& s,
                    const std::array<support::StatField<Stats>, N>& table) {
  w.u32(static_cast<std::uint32_t>(N));
  for (const auto& field : table) w.u64(s.*field.member);
}

/// Strict inverse of encode_section: the count must match the table.
template <class Stats, std::size_t N>
Status decode_section(WireReader& r, Stats* s,
                      const std::array<support::StatField<Stats>, N>& table,
                      const char* what) {
  std::uint32_t count = 0;
  if (Status st = r.u32(&count, what); !st.ok()) return st;
  if (count != N)
    return Status::invalid_argument(std::string(what) + ": " +
                                    std::to_string(count) +
                                    " entries, expected " + std::to_string(N));
  for (const auto& field : table)
    if (Status st = r.u64(&(s->*field.member), what); !st.ok()) return st;
  return {};
}

}  // namespace detail

/// Encode a request frame, or refuse one whose payload cannot legally
/// cross the wire: an inline list near 2^26 nodes already fills
/// kMaxPayloadBytes, and anything ≥ 4 GiB would wrap the u32 length
/// field and silently desynchronise the stream. Failing locally is the
/// only safe surface for that.
inline Status encode_request(const RequestFrame& f, std::uint32_t tenant,
                             std::uint64_t request_id,
                             std::vector<std::uint8_t>& out) {
  const std::uint64_t alg_bytes =
      f.algorithm.size() > 0xFFFF ? 0xFFFF : f.algorithm.size();
  const std::uint64_t payload =
      2 + alg_bytes + 4 + 8 + 1 + 8 +
      (f.list_spec == ListSpec::kGenerated
           ? 8
           : static_cast<std::uint64_t>(f.links.size()) * sizeof(index_t));
  if (payload > kMaxPayloadBytes)
    return Status::invalid_argument(
        "request payload of " + std::to_string(payload) +
        " bytes exceeds the protocol bound of " +
        std::to_string(kMaxPayloadBytes) +
        "; an inline list this large cannot cross the wire");
  detail::encode_frame(
      FrameType::kRequest, tenant, request_id, out, [&](WireWriter& w) {
        w.str16(f.algorithm);
        w.u32(f.deadline_ms);
        w.u64(f.memory_budget_bytes);
        w.u8(static_cast<std::uint8_t>(f.list_spec));
        w.u64(f.n);
        if (f.list_spec == ListSpec::kGenerated) {
          w.u64(f.seed);
        } else {
          w.u32s(f.links.data(), f.links.size());
        }
      });
  return {};
}

inline void encode_response(const ResponseFrame& f, std::uint32_t tenant,
                            std::uint64_t request_id,
                            std::vector<std::uint8_t>& out) {
  detail::encode_frame(
      FrameType::kResponse, tenant, request_id, out, [&](WireWriter& w) {
        w.u64(f.edges);
        w.u32(f.relabel_rounds);
        w.u32(f.gather_rounds);
        w.u64(f.partition_sets);
        w.u64(f.cost_depth);
        w.u64(f.cost_time_p);
        w.u64(f.cost_work);
      });
}

inline void encode_error(const ErrorFrame& f, std::uint32_t tenant,
                         std::uint64_t request_id,
                         std::vector<std::uint8_t>& out) {
  detail::encode_frame(FrameType::kError, tenant, request_id, out,
                       [&](WireWriter& w) {
                         w.u16(wire_code(f.code));
                         w.str16(f.message);
                       });
}

inline void encode_stats_request(std::uint32_t tenant,
                                 std::uint64_t request_id,
                                 std::vector<std::uint8_t>& out) {
  detail::encode_frame(FrameType::kStatsRequest, tenant, request_id, out,
                       [](WireWriter&) {});
}

inline void encode_stats(const StatsFrame& f, std::uint32_t tenant,
                         std::uint64_t request_id,
                         std::vector<std::uint8_t>& out) {
  detail::encode_frame(
      FrameType::kStats, tenant, request_id, out, [&](WireWriter& w) {
        detail::encode_section(w, f.service, serve::kServiceStatsFields);
        detail::encode_section(w, f.server, kServerStatsFields);
        w.u32(static_cast<std::uint32_t>(f.server.tenants.size()));
        for (const TenantStats& t : f.server.tenants)
          detail::encode_section(w, t, kTenantStatsFields);
      });
}

// ---------------------------------------------------------------------------
// Payload decode (the header was already validated by decode_header).
// ---------------------------------------------------------------------------

inline Status decode_request(const std::uint8_t* payload, std::size_t size,
                             RequestFrame* out) {
  WireReader r(payload, size);
  if (Status s = r.str16(&out->algorithm, "request algorithm"); !s.ok())
    return s;
  if (Status s = r.u32(&out->deadline_ms, "request deadline"); !s.ok())
    return s;
  if (Status s = r.u64(&out->memory_budget_bytes, "request budget"); !s.ok())
    return s;
  std::uint8_t spec = 0;
  if (Status s = r.u8(&spec, "request list spec"); !s.ok()) return s;
  if (spec > static_cast<std::uint8_t>(ListSpec::kInline))
    return Status::invalid_argument("unknown list spec " +
                                    std::to_string(spec));
  out->list_spec = static_cast<ListSpec>(spec);
  if (Status s = r.u64(&out->n, "request n"); !s.ok()) return s;
  if (out->list_spec == ListSpec::kGenerated) {
    if (Status s = r.u64(&out->seed, "request seed"); !s.ok()) return s;
    return r.expect_end("request frame");
  }
  // Inline: n successor words must be exactly what remains.
  if (out->n != r.remaining() / sizeof(index_t) ||
      r.remaining() % sizeof(index_t) != 0)
    return Status::invalid_argument(
        "inline list length mismatch: n=" + std::to_string(out->n) +
        " but " + std::to_string(r.remaining()) + " payload byte(s) follow");
  out->links.resize(out->n);
  if (Status s = r.u32s(out->links.data(), out->n, "inline list link");
      !s.ok())
    return s;
  return r.expect_end("request frame");
}

inline Status decode_response(const std::uint8_t* payload, std::size_t size,
                              ResponseFrame* out) {
  WireReader r(payload, size);
  if (Status s = r.u64(&out->edges, "response edges"); !s.ok()) return s;
  if (Status s = r.u32(&out->relabel_rounds, "response relabel rounds");
      !s.ok())
    return s;
  if (Status s = r.u32(&out->gather_rounds, "response gather rounds");
      !s.ok())
    return s;
  if (Status s = r.u64(&out->partition_sets, "response partition sets");
      !s.ok())
    return s;
  if (Status s = r.u64(&out->cost_depth, "response depth"); !s.ok()) return s;
  if (Status s = r.u64(&out->cost_time_p, "response time_p"); !s.ok())
    return s;
  if (Status s = r.u64(&out->cost_work, "response work"); !s.ok()) return s;
  return r.expect_end("response frame");
}

inline Status decode_error(const std::uint8_t* payload, std::size_t size,
                           ErrorFrame* out) {
  WireReader r(payload, size);
  std::uint16_t code = 0;
  if (Status s = r.u16(&code, "error code"); !s.ok()) return s;
  if (!status_code_from_wire(code, &out->code))
    return Status::invalid_argument("unknown wire error code " +
                                    std::to_string(code));
  if (out->code == StatusCode::kOk)
    return Status::invalid_argument("error frame carrying OK");
  if (Status s = r.str16(&out->message, "error message"); !s.ok()) return s;
  return r.expect_end("error frame");
}

inline Status decode_stats_request(const std::uint8_t* /*payload*/,
                                   std::size_t size) {
  if (size != 0)
    return Status::invalid_argument("stats request carries a payload");
  return {};
}

inline Status decode_stats(const std::uint8_t* payload, std::size_t size,
                           StatsFrame* out) {
  WireReader r(payload, size);
  if (Status s = detail::decode_section(r, &out->service,
                                        serve::kServiceStatsFields,
                                        "stats service section");
      !s.ok())
    return s;
  if (Status s = detail::decode_section(r, &out->server, kServerStatsFields,
                                        "stats server section");
      !s.ok())
    return s;
  std::uint32_t tenants = 0;
  if (Status s = r.u32(&tenants, "stats tenant count"); !s.ok()) return s;
  // Every tenant section has one size; a count the remaining bytes cannot
  // hold is a protocol error, not a resize request.
  constexpr std::uint64_t kTenantBytes = 4 + 8 * kTenantStatsFields.size();
  if (static_cast<std::uint64_t>(tenants) * kTenantBytes != r.remaining())
    return Status::invalid_argument("stats tenant count mismatch");
  out->server.tenants.assign(tenants, TenantStats{});
  for (TenantStats& t : out->server.tenants)
    if (Status s = detail::decode_section(r, &t, kTenantStatsFields,
                                          "stats tenant section");
        !s.ok())
      return s;
  return r.expect_end("stats frame");
}

}  // namespace llmp::net
