// Wire-protocol unit suite: every frame type round-trips bit-exactly,
// every StatusCode survives the error-frame encoding (the vocabulary is
// iterated from kAllStatusCodes, so a code added to the status table
// without a wire mapping fails here, not in production), and malformed
// bytes — truncations, bad magic/version, oversized lengths, trailing
// garbage — decode to an error Status, never a crash or a bogus value.
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "list/generators.h"
#include "net/stats.h"
#include "net/wire.h"
#include "serve/stats.h"
#include "support/status.h"

namespace llmp::net {
namespace {

std::vector<std::uint8_t> encode_one(const RequestFrame& f,
                                     std::uint32_t tenant = 7,
                                     std::uint64_t id = 99) {
  std::vector<std::uint8_t> out;
  const Status s = encode_request(f, tenant, id, out);
  EXPECT_TRUE(s.ok()) << s.to_string();
  return out;
}

FrameHeader decode_header_ok(const std::vector<std::uint8_t>& bytes) {
  FrameHeader h;
  const Status s = decode_header(bytes.data(), kFrameHeaderBytes, &h);
  EXPECT_TRUE(s.ok()) << s.to_string();
  return h;
}

TEST(NetWire, HeaderRoundTrip) {
  FrameHeader h;
  h.type = FrameType::kResponse;
  h.tenant = 0xDEADBEEF;
  h.request_id = 0x0123456789ABCDEFull;
  h.payload_bytes = 1234;
  std::vector<std::uint8_t> bytes;
  encode_header(h, bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);

  FrameHeader d;
  ASSERT_TRUE(decode_header(bytes.data(), bytes.size(), &d).ok());
  EXPECT_EQ(d.version, kWireVersion);
  EXPECT_EQ(d.type, FrameType::kResponse);
  EXPECT_EQ(d.tenant, h.tenant);
  EXPECT_EQ(d.request_id, h.request_id);
  EXPECT_EQ(d.payload_bytes, h.payload_bytes);
}

TEST(NetWire, RequestGeneratedRoundTrip) {
  RequestFrame f;
  f.algorithm = "match2-erew";
  f.deadline_ms = 250;
  f.memory_budget_bytes = 1 << 20;
  f.list_spec = ListSpec::kGenerated;
  f.n = 1 << 16;
  f.seed = 424242;
  const auto bytes = encode_one(f, /*tenant=*/3, /*id=*/17);

  const FrameHeader h = decode_header_ok(bytes);
  EXPECT_EQ(h.type, FrameType::kRequest);
  EXPECT_EQ(h.tenant, 3u);
  EXPECT_EQ(h.request_id, 17u);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + h.payload_bytes);

  RequestFrame d;
  const Status s =
      decode_request(bytes.data() + kFrameHeaderBytes, h.payload_bytes, &d);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(d.algorithm, f.algorithm);
  EXPECT_EQ(d.deadline_ms, f.deadline_ms);
  EXPECT_EQ(d.memory_budget_bytes, f.memory_budget_bytes);
  EXPECT_EQ(d.list_spec, ListSpec::kGenerated);
  EXPECT_EQ(d.n, f.n);
  EXPECT_EQ(d.seed, f.seed);
  EXPECT_TRUE(d.links.empty());
}

TEST(NetWire, RequestInlineRoundTrip) {
  const auto list = list::generators::random_list(257, 5);
  RequestFrame f;
  f.algorithm = "sequential";
  f.list_spec = ListSpec::kInline;
  f.n = list.size();
  f.links = list.next_array();
  const auto bytes = encode_one(f);

  const FrameHeader h = decode_header_ok(bytes);
  RequestFrame d;
  ASSERT_TRUE(
      decode_request(bytes.data() + kFrameHeaderBytes, h.payload_bytes, &d)
          .ok());
  EXPECT_EQ(d.list_spec, ListSpec::kInline);
  EXPECT_EQ(d.n, f.n);
  EXPECT_EQ(d.links, f.links);  // bit-exact successor array
}

TEST(NetWire, OversizedInlineListIsRefusedLocallyNotEncoded) {
  // An inline list whose successor array exceeds kMaxPayloadBytes must
  // fail at the encoder with a Status — emitting it would produce a frame
  // every server rejects, and one past 4 GiB would wrap the u32 length
  // field and silently desynchronise the stream.
  RequestFrame f;
  f.algorithm = "sequential";
  f.list_spec = ListSpec::kInline;
  f.links.assign(kMaxPayloadBytes / sizeof(index_t) + 1, 0);
  f.n = f.links.size();
  std::vector<std::uint8_t> out;
  const Status s = encode_request(f, 0, 1, out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());  // nothing was written to the stream
}

TEST(NetWire, ResponseRoundTrip) {
  ResponseFrame f;
  f.edges = 12345;
  f.relabel_rounds = 4;
  f.gather_rounds = 3;
  f.partition_sets = 17;
  f.cost_depth = 99;
  f.cost_time_p = 1ull << 40;
  f.cost_work = 1ull << 50;
  std::vector<std::uint8_t> bytes;
  encode_response(f, 1, 2, bytes);

  const FrameHeader h = decode_header_ok(bytes);
  EXPECT_EQ(h.type, FrameType::kResponse);
  ResponseFrame d;
  ASSERT_TRUE(
      decode_response(bytes.data() + kFrameHeaderBytes, h.payload_bytes, &d)
          .ok());
  EXPECT_EQ(d.edges, f.edges);
  EXPECT_EQ(d.relabel_rounds, f.relabel_rounds);
  EXPECT_EQ(d.gather_rounds, f.gather_rounds);
  EXPECT_EQ(d.partition_sets, f.partition_sets);
  EXPECT_EQ(d.cost_depth, f.cost_depth);
  EXPECT_EQ(d.cost_time_p, f.cost_time_p);
  EXPECT_EQ(d.cost_work, f.cost_work);
}

// The satellite guarantee: the single status table in support/status.h is
// the wire mapping, so EVERY code round-trips — including ones added
// later (kAllStatusCodes is generated from the same table).
TEST(NetWire, EveryStatusCodeRoundTripsThroughErrorFrames) {
  for (const StatusCode code : kAllStatusCodes) {
    StatusCode back = StatusCode::kInternal;
    ASSERT_TRUE(status_code_from_wire(wire_code(code), &back))
        << to_string(code);
    EXPECT_EQ(back, code) << to_string(code);
    if (code == StatusCode::kOk) continue;  // error frames never carry OK

    ErrorFrame f;
    f.code = code;
    f.message = std::string("injected ") + to_string(code);
    std::vector<std::uint8_t> bytes;
    encode_error(f, 9, 1ull << 33, bytes);
    const FrameHeader h = decode_header_ok(bytes);
    EXPECT_EQ(h.type, FrameType::kError);
    ErrorFrame d;
    const Status s =
        decode_error(bytes.data() + kFrameHeaderBytes, h.payload_bytes, &d);
    ASSERT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(d.code, code);
    EXPECT_EQ(d.message, f.message);
  }
}

TEST(NetWire, UnknownWireCodeIsRejectedNotCast) {
  StatusCode out;
  EXPECT_FALSE(status_code_from_wire(0x7777, &out));

  // An error frame carrying an unknown code fails decode.
  std::vector<std::uint8_t> bytes;
  encode_error({StatusCode::kInternal, "x"}, 0, 0, bytes);
  bytes[kFrameHeaderBytes] = 0x77;  // low byte of the u16 code
  bytes[kFrameHeaderBytes + 1] = 0x77;
  ErrorFrame d;
  EXPECT_FALSE(
      decode_error(bytes.data() + kFrameHeaderBytes,
                   bytes.size() - kFrameHeaderBytes, &d)
          .ok());
}

TEST(NetWire, ErrorFrameCarryingOkIsRejected) {
  // Hand-build an error payload with wire code 0 (OK). (Reserved up
  // front: GCC 12 misreads the growth path here as an overflow.)
  std::vector<std::uint8_t> payload;
  payload.reserve(16);
  WireWriter w(payload);
  w.u16(0);
  w.str16("not an error");
  ErrorFrame d;
  EXPECT_FALSE(decode_error(payload.data(), payload.size(), &d).ok());
}

/// A stats frame with a distinct value in every field of every section,
/// filled through the tables so a new field is covered without an edit.
StatsFrame sample_stats(std::size_t tenants) {
  StatsFrame f;
  std::uint64_t v = 1;
  for (const auto& field : serve::kServiceStatsFields)
    f.service.*field.member = v++;
  for (const auto& field : kServerStatsFields) f.server.*field.member = v++;
  f.server.tenants.resize(tenants);
  for (TenantStats& t : f.server.tenants)
    for (const auto& field : kTenantStatsFields) t.*field.member = v++;
  return f;
}

std::vector<std::uint8_t> stats_payload(const StatsFrame& f) {
  std::vector<std::uint8_t> bytes;
  encode_stats(f, 0, 5, bytes);
  return {bytes.begin() + kFrameHeaderBytes, bytes.end()};
}

/// Payload offsets of the three section kinds' entry counts.
constexpr std::size_t kServerSectionAt =
    4 + 8 * serve::kServiceStatsFields.size();
constexpr std::size_t kTenantCountAt =
    kServerSectionAt + 4 + 8 * kServerStatsFields.size();

TEST(NetWire, StatsRoundTripWithTenants) {
  const StatsFrame f = sample_stats(2);
  std::vector<std::uint8_t> bytes;
  encode_stats(f, 0, 5, bytes);

  const FrameHeader h = decode_header_ok(bytes);
  EXPECT_EQ(h.type, FrameType::kStats);
  // Each section is a u32 entry count and its table's u64 values.
  EXPECT_EQ(h.payload_bytes,
            kTenantCountAt + 4 + 2 * (4 + 8 * kTenantStatsFields.size()));
  StatsFrame d;
  ASSERT_TRUE(
      decode_stats(bytes.data() + kFrameHeaderBytes, h.payload_bytes, &d)
          .ok());
  for (const auto& field : serve::kServiceStatsFields)
    EXPECT_EQ(d.service.*field.member, f.service.*field.member)
        << field.name;
  for (const auto& field : kServerStatsFields)
    EXPECT_EQ(d.server.*field.member, f.server.*field.member) << field.name;
  ASSERT_EQ(d.server.tenants.size(), 2u);
  for (std::size_t t = 0; t < 2; ++t)
    for (const auto& field : kTenantStatsFields)
      EXPECT_EQ(d.server.tenants[t].*field.member,
                f.server.tenants[t].*field.member)
          << field.name;
}

TEST(NetWire, StatsRequestMustBeEmpty) {
  std::vector<std::uint8_t> bytes;
  encode_stats_request(0, 1, bytes);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
  EXPECT_TRUE(decode_stats_request(nullptr, 0).ok());
  const std::uint8_t junk[1] = {0};
  EXPECT_FALSE(decode_stats_request(junk, 1).ok());
}

// ---------------------------------------------------------------------------
// Malformed frames: the fuzz-shaped corner suite. Every case must come
// back as a non-OK Status with no crash, read overrun (ASan run in CI),
// or misdecoded value.
// ---------------------------------------------------------------------------

TEST(NetWireFuzz, TruncatedHeaderEveryPrefixLength) {
  RequestFrame f;
  f.list_spec = ListSpec::kGenerated;
  f.n = 8;
  const auto bytes = encode_one(f);
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    FrameHeader h;
    EXPECT_FALSE(decode_header(bytes.data(), len, &h).ok()) << len;
  }
}

TEST(NetWireFuzz, TruncatedPayloadEveryPrefixLength) {
  const auto list = list::generators::random_list(64, 3);
  RequestFrame f;
  f.algorithm = "match4";
  f.list_spec = ListSpec::kInline;
  f.n = list.size();
  f.links = list.next_array();
  const auto bytes = encode_one(f);
  const std::size_t payload = bytes.size() - kFrameHeaderBytes;
  for (std::size_t len = 0; len < payload; ++len) {
    RequestFrame d;
    EXPECT_FALSE(
        decode_request(bytes.data() + kFrameHeaderBytes, len, &d).ok())
        << len;
  }
}

TEST(NetWireFuzz, BadMagic) {
  RequestFrame f;
  f.list_spec = ListSpec::kGenerated;
  f.n = 8;
  auto bytes = encode_one(f);
  bytes[0] ^= 0xFF;
  FrameHeader h;
  const Status s = decode_header(bytes.data(), kFrameHeaderBytes, &h);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("magic"), std::string::npos);
}

TEST(NetWireFuzz, BadVersion) {
  RequestFrame f;
  f.list_spec = ListSpec::kGenerated;
  f.n = 8;
  auto bytes = encode_one(f);
  bytes[4] = kWireVersion + 1;
  FrameHeader h;
  const Status s = decode_header(bytes.data(), kFrameHeaderBytes, &h);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(NetWireFuzz, BadFrameTypeAndReserved) {
  RequestFrame f;
  f.list_spec = ListSpec::kGenerated;
  f.n = 8;
  auto bytes = encode_one(f);
  auto mutated = bytes;
  mutated[5] = 0;  // below kRequest
  FrameHeader h;
  EXPECT_FALSE(decode_header(mutated.data(), kFrameHeaderBytes, &h).ok());
  mutated = bytes;
  mutated[5] = 200;  // above kStats
  EXPECT_FALSE(decode_header(mutated.data(), kFrameHeaderBytes, &h).ok());
  mutated = bytes;
  mutated[6] = 1;  // reserved must be zero
  EXPECT_FALSE(decode_header(mutated.data(), kFrameHeaderBytes, &h).ok());
}

TEST(NetWireFuzz, OversizedPayloadLength) {
  RequestFrame f;
  f.list_spec = ListSpec::kGenerated;
  f.n = 8;
  auto bytes = encode_one(f);
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i)
    bytes[20 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  FrameHeader h;
  const Status s = decode_header(bytes.data(), kFrameHeaderBytes, &h);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("payload length"), std::string::npos);
}

TEST(NetWireFuzz, TrailingBytesAreAnError) {
  RequestFrame f;
  f.list_spec = ListSpec::kGenerated;
  f.n = 8;
  const auto bytes = encode_one(f);
  std::vector<std::uint8_t> payload(bytes.begin() + kFrameHeaderBytes,
                                    bytes.end());
  payload.push_back(0xAB);
  RequestFrame d;
  const Status s = decode_request(payload.data(), payload.size(), &d);
  ASSERT_FALSE(s.ok());
}

TEST(NetWireFuzz, InlineListLengthMismatch) {
  const auto list = list::generators::random_list(16, 1);
  RequestFrame f;
  f.list_spec = ListSpec::kInline;
  f.n = list.size();
  f.links = list.next_array();
  const auto bytes = encode_one(f);
  std::vector<std::uint8_t> payload(bytes.begin() + kFrameHeaderBytes,
                                    bytes.end());
  // Claim one more node than the links that follow.
  RequestFrame probe;
  {
    // n sits after algorithm (u16 len + bytes) + u32 + u64 + u8.
    const std::size_t n_at = 2 + f.algorithm.size() + 4 + 8 + 1;
    payload[n_at] = static_cast<std::uint8_t>(f.n + 1);
  }
  EXPECT_FALSE(decode_request(payload.data(), payload.size(), &probe).ok());
  // And a payload whose link area is not a multiple of 4 bytes.
  payload = std::vector<std::uint8_t>(bytes.begin() + kFrameHeaderBytes,
                                      bytes.end());
  payload.pop_back();
  EXPECT_FALSE(decode_request(payload.data(), payload.size(), &probe).ok());
}

TEST(NetWireFuzz, StatsTenantCountMismatch) {
  auto payload = stats_payload(sample_stats(1));
  // Bump the tenant count without appending a tenant section.
  payload[kTenantCountAt] = 2;
  StatsFrame d;
  EXPECT_FALSE(decode_stats(payload.data(), payload.size(), &d).ok());
}

TEST(NetWireFuzz, StatsEveryStrictPrefixAndATrailingByte) {
  auto payload = stats_payload(sample_stats(1));
  for (std::size_t len = 0; len < payload.size(); ++len) {
    StatsFrame d;
    const Status s = decode_stats(payload.data(), len, &d);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << len;
  }
  payload.push_back(0);
  StatsFrame d;
  EXPECT_EQ(decode_stats(payload.data(), payload.size(), &d).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireFuzz, StatsWrongSectionCount) {
  const auto good = stats_payload(sample_stats(1));
  // The service, server and tenant sections' entry counts, each off by
  // one in both directions with the bytes left as they are.
  for (const std::size_t at : {std::size_t{0}, kServerSectionAt,
                               kTenantCountAt + 4}) {
    for (const int delta : {-1, 1}) {
      auto payload = good;
      payload[at] = static_cast<std::uint8_t>(payload[at] + delta);
      StatsFrame d;
      const Status s = decode_stats(payload.data(), payload.size(), &d);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << at << delta;
    }
  }
  // A peer whose service table is one entry shorter sends a consistent
  // frame; the count alone refuses it.
  std::vector<std::uint8_t> shorter;
  WireWriter w(shorter);
  w.u32(static_cast<std::uint32_t>(serve::kServiceStatsFields.size() - 1));
  shorter.insert(shorter.end(), good.begin() + 4 + 8, good.end());
  StatsFrame d;
  const Status s = decode_stats(shorter.data(), shorter.size(), &d);
  ASSERT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("entries, expected"), std::string::npos)
      << s.message();
}

TEST(NetWireFuzz, UnknownListSpec) {
  RequestFrame f;
  f.list_spec = ListSpec::kGenerated;
  f.n = 8;
  const auto bytes = encode_one(f);
  std::vector<std::uint8_t> payload(bytes.begin() + kFrameHeaderBytes,
                                    bytes.end());
  const std::size_t spec_at = 2 + f.algorithm.size() + 4 + 8;
  payload[spec_at] = 9;
  RequestFrame d;
  EXPECT_FALSE(decode_request(payload.data(), payload.size(), &d).ok());
}

}  // namespace
}  // namespace llmp::net
