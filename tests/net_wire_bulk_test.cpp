// The wire codec's bulk link transfer: WireReader::u32s and
// WireWriter::u32s move an inline list's successor array in one bounds
// check and one resize. Round trips at the edge sizes, the byte order on
// the wire, and a truncated inline frame that is refused before any link
// is read.
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "list/generators.h"
#include "net/wire.h"
#include "support/status.h"

namespace llmp::net {
namespace {

RequestFrame inline_request(std::size_t n, std::uint64_t seed) {
  RequestFrame f;
  f.algorithm = "sequential";
  f.list_spec = ListSpec::kInline;
  f.n = n;
  f.links = list::generators::random_list(n, seed).next_array();
  return f;
}

/// The link area as the byte-at-a-time spec writes it.
std::vector<std::uint8_t> little_endian(const std::vector<index_t>& links) {
  std::vector<std::uint8_t> bytes;
  for (const index_t link : links)
    for (int i = 0; i < 4; ++i)
      bytes.push_back(static_cast<std::uint8_t>(link >> (8 * i)));
  return bytes;
}

TEST(NetWireBulk, InlineRoundTripsAtEdgeSizes) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{1} << 15}) {
    const RequestFrame f = inline_request(n, n);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(encode_request(f, 7, 99, bytes).ok());
    const std::size_t fixed = 2 + f.algorithm.size() + 4 + 8 + 1 + 8;
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes + fixed + 4 * n);
    const std::vector<std::uint8_t> wire(
        bytes.begin() + static_cast<long>(kFrameHeaderBytes + fixed),
        bytes.end());
    EXPECT_EQ(wire, little_endian(f.links)) << "n=" << n;

    FrameHeader h;
    ASSERT_TRUE(decode_header(bytes.data(), kFrameHeaderBytes, &h).ok());
    RequestFrame d;
    d.links.assign(n + 5, 1);  // a reused frame's stale links
    ASSERT_TRUE(
        decode_request(bytes.data() + kFrameHeaderBytes, h.payload_bytes, &d)
            .ok());
    EXPECT_EQ(d.n, n);
    EXPECT_EQ(d.links, f.links) << "n=" << n;
  }
}

TEST(NetWireBulk, TruncatedInlineFrameIsRefusedBeforeAnyLinkIsRead) {
  const RequestFrame f = inline_request(64, 3);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(encode_request(f, 7, 99, bytes).ok());
  // Cut one whole link off the payload: n still says 64.
  const std::size_t size = bytes.size() - kFrameHeaderBytes - 4;
  RequestFrame d;
  const std::vector<index_t> sentinel(3, 0xABCD);
  d.links = sentinel;
  const Status s = decode_request(bytes.data() + kFrameHeaderBytes, size, &d);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(),
            "inline list length mismatch: n=64 but 252 payload byte(s) "
            "follow");
  EXPECT_EQ(d.links, sentinel);

  // The bulk read itself checks the whole span before touching a word.
  const std::vector<std::uint8_t> three = little_endian({1, 2, 3});
  WireReader r(three.data(), three.size() + 2);
  std::uint32_t out[4] = {7, 7, 7, 7};
  const Status t = r.u32s(out, 4, "inline list link");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.message(), "truncated frame: inline list link");
  EXPECT_EQ(r.remaining(), three.size() + 2);
  for (const std::uint32_t w : out) EXPECT_EQ(w, 7u);
  ASSERT_TRUE(r.u32s(out, 3, "inline list link").ok());
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[2], 3u);
  EXPECT_EQ(out[3], 7u);
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(NetWireBulk, WriterAppendsAfterWhatIsThere) {
  std::vector<std::uint8_t> out = {0xEE};
  WireWriter w(out);
  const std::vector<std::uint32_t> words = {0x04030201u, knil, 0};
  w.u32s(words.data(), words.size());
  w.u32s(words.data(), 0);
  std::vector<std::uint8_t> want = {0xEE};
  for (const std::uint8_t b : little_endian(words)) want.push_back(b);
  EXPECT_EQ(out, want);
}

}  // namespace
}  // namespace llmp::net
