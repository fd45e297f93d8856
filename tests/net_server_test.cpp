// End-to-end suite for the network front door: a real Service behind a
// real Server on an ephemeral loopback port, driven by net::Client and —
// for the malformed-byte cases — by a raw socket that speaks deliberately
// broken protocol. Every test asserts from counters (server stats, client
// stats, admission ledger), so lost/duplicated responses cannot hide.
#include <arpa/inet.h>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <netinet/in.h>
#include <optional>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "gtest/gtest.h"
#include "llmp.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "support/failpoint.h"

namespace llmp::net {
namespace {

namespace failpoint = support::failpoint;

/// A raw loopback connection for speaking broken bytes at the server.
class RawConn {
 public:
  /// rcvbuf_bytes > 0 shrinks SO_RCVBUF before connecting, so backpressure
  /// tests can fill the kernel's buffering deterministically.
  explicit RawConn(std::uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf_bytes > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { close(); }
  bool connected() const { return connected_; }
  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  bool send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t at = 0;
    while (at < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + at, bytes.size() - at,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      at += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// Read until EOF or timeout; returns bytes received.
  std::vector<std::uint8_t> read_to_eof() {
    std::vector<std::uint8_t> out;
    std::uint8_t buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.insert(out.end(), buf, buf + n);
    }
    return out;
  }
  /// Non-blocking read of whatever is available right now.
  std::vector<std::uint8_t> read_some() {
    std::vector<std::uint8_t> out;
    std::uint8_t buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) break;
      out.insert(out.end(), buf, buf + n);
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

serve::ServiceOptions service_opts(std::size_t workers = 2,
                                   std::size_t queue = 64) {
  serve::ServiceOptions o;
  o.workers = workers;
  o.queue_capacity = queue;
  return o;
}

ClientOptions client_opts(std::uint16_t port,
                          std::uint64_t recv_timeout_ms = 30'000) {
  ClientOptions o;
  o.port = port;
  o.recv_timeout_ms = recv_timeout_ms;
  return o;
}

/// Service + Server + connected Client, the common fixture kit.
struct Stack {
  explicit Stack(serve::ServiceOptions sopt = service_opts(),
                 ServerOptions nopt = {})
      : svc(sopt), server(svc, nopt) {
    const Status s = server.start();
    EXPECT_TRUE(s.ok()) << s.to_string();
    client.emplace(client_opts(server.port()));
    const Status c = client->connect();
    EXPECT_TRUE(c.ok()) << c.to_string();
  }
  serve::Service svc;
  Server server;
  std::optional<Client> client;
};

/// Spin until the predicate holds (or ~5 s pass); returns its last value.
template <class Fn>
bool eventually(Fn&& fn) {
  for (int i = 0; i < 500; ++i) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fn();
}

TEST(NetServer, GeneratedRequestRoundTrip) {
  Stack s;
  auto r = s.client->submit(
      RequestBuilder().algorithm("sequential").generated(512, 42));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_GT(r->edges, 0u);
  EXPECT_TRUE(r->in_matching.empty());  // summaries only, by design
}

TEST(NetServer, InlineListMatchesInProcessResult) {
  const auto list = list::generators::random_list(300, 9);
  llmp::Context ctx;
  const auto local = llmp::run(ctx, "sequential", list);
  ASSERT_TRUE(local.ok());

  Stack s;
  auto r =
      s.client->submit(RequestBuilder().algorithm("sequential").list(list));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  // Same algorithm, same list, shipped over the wire: same matching size.
  EXPECT_EQ(r->edges, local->edges);
}

TEST(NetServer, PipelinedBatchReconcilesEveryRequest) {
  Stack s;
  constexpr std::size_t kBatch = 100;
  std::vector<RequestBuilder> batch;
  for (std::size_t i = 0; i < kBatch; ++i)
    batch.push_back(RequestBuilder()
                        .algorithm("sequential")
                        .generated(256, 1000 + (i % 4)));
  const auto results = s.client->submit_batch(batch);
  ASSERT_EQ(results.size(), kBatch);
  for (std::size_t i = 0; i < kBatch; ++i)
    EXPECT_TRUE(results[i].ok()) << i << ": " << results[i].status().to_string();
  const ClientStats cs = s.client->stats();
  EXPECT_EQ(cs.requests, kBatch);
  EXPECT_EQ(cs.responses, kBatch);
  EXPECT_EQ(cs.ok, kBatch);
  EXPECT_EQ(cs.duplicates, 0u);   // no response delivered twice
  EXPECT_EQ(cs.unknown_ids, 0u);  // none invented
}

TEST(NetServer, ServeErrorsCrossTheWireWithTheirCode) {
  Stack s;
  // Unknown algorithm: rejected by the registry at submit.
  auto r = s.client->submit(
      RequestBuilder().algorithm("no-such-algorithm").generated(64, 1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);

  // A builder naming no list fails client-side, before any bytes move.
  auto r2 = s.client->submit(RequestBuilder().algorithm("sequential"));
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  // A structurally broken inline list (a cycle) is refused by the
  // server's LinkedList::make, not a crash.
  std::vector<std::uint8_t> wire;
  RequestFrame f;
  f.algorithm = "sequential";
  f.list_spec = ListSpec::kInline;
  f.n = 2;
  f.links = {1, 0};  // cycle, no tail
  ASSERT_TRUE(encode_request(f, 0, 77, wire).ok());
  RawConn raw(s.server.port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.send_bytes(wire));
  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(eventually([&] {
    const auto chunk = raw.read_some();
    reply.insert(reply.end(), chunk.begin(), chunk.end());
    return reply.size() >= kFrameHeaderBytes;
  }));
  FrameHeader h;
  ASSERT_TRUE(decode_header(reply.data(), kFrameHeaderBytes, &h).ok());
  EXPECT_EQ(h.type, FrameType::kError);
  EXPECT_EQ(h.request_id, 77u);
}

TEST(NetServer, StatsFrameReportsServiceAndTenants) {
  Stack s;
  std::vector<RequestBuilder> batch;
  for (int i = 0; i < 10; ++i)
    batch.push_back(
        RequestBuilder().algorithm("sequential").generated(128, 5).tenant(3));
  for (const auto& r : s.client->submit_batch(batch)) ASSERT_TRUE(r.ok());

  auto stats = s.client->server_stats();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_GE(stats->service.submitted, 10u);
  EXPECT_GE(stats->service.ok, 10u);
  const std::vector<TenantStats>& tenants = stats->server.tenants;
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].tenant, 3u);
  EXPECT_EQ(tenants[0].admitted, 10u);
  EXPECT_EQ(tenants[0].completed, 10u);
  EXPECT_EQ(tenants[0].in_flight, 0u);
}

TEST(NetServer, RateQuotaRejectsOverBudgetDeterministically) {
  ServerOptions nopt;
  nopt.admission.default_quota.tokens_per_sec = 0.001;  // ~never refills
  nopt.admission.default_quota.burst = 2;
  Stack s(service_opts(1), nopt);

  std::vector<RequestBuilder> batch;
  for (int i = 0; i < 3; ++i)
    batch.push_back(
        RequestBuilder().algorithm("sequential").generated(64, 1).tenant(5));
  const auto results = s.client->submit_batch(batch);
  EXPECT_TRUE(results[0].ok()) << results[0].status().to_string();
  EXPECT_TRUE(results[1].ok()) << results[1].status().to_string();
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), StatusCode::kResourceExhausted);

  const ServerStats st = s.server.stats();
  ASSERT_EQ(st.tenants.size(), 1u);
  EXPECT_EQ(st.tenants[0].admitted, 2u);
  EXPECT_EQ(st.tenants[0].rejected_quota, 1u);
}

TEST(NetServer, InFlightCapRejectsWhileWorkerBusy) {
  // Hold the single worker on its first request so the second one is
  // provably still in flight when the third frame arrives.
  std::mutex mu;
  std::condition_variable cv;
  bool hold = true;
  serve::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.queue_capacity = 8;
  sopt.on_dequeue = [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !hold; });
  };
  ServerOptions nopt;
  nopt.admission.default_quota.max_in_flight = 1;
  Stack s(sopt, nopt);

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::lock_guard<std::mutex> lock(mu);
    hold = false;
    cv.notify_all();
  });
  std::vector<RequestBuilder> batch;
  for (int i = 0; i < 2; ++i)
    batch.push_back(
        RequestBuilder().algorithm("sequential").generated(64, 2).tenant(8));
  const auto results = s.client->submit_batch(batch);
  releaser.join();
  EXPECT_TRUE(results[0].ok()) << results[0].status().to_string();
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kResourceExhausted);
  const ServerStats st = s.server.stats();
  ASSERT_EQ(st.tenants.size(), 1u);
  EXPECT_EQ(st.tenants[0].rejected_in_flight, 1u);
}

// ---------------------------------------------------------------------------
// Malformed bytes against a LIVE server (the decode-level cases live in
// net_wire_test.cpp): the server answers with an error frame or drops the
// connection, never crashes, and keeps serving others. CI runs this
// binary under ASan.
// ---------------------------------------------------------------------------

TEST(NetServer, GarbageMagicGetsErrorFrameAndDisconnect) {
  Stack s;
  RawConn raw(s.server.port());
  ASSERT_TRUE(raw.connected());
  std::vector<std::uint8_t> junk(64, 0x5A);
  ASSERT_TRUE(raw.send_bytes(junk));
  const auto reply = raw.read_to_eof();  // server closes after the error
  ASSERT_GE(reply.size(), kFrameHeaderBytes);
  FrameHeader h;
  ASSERT_TRUE(decode_header(reply.data(), kFrameHeaderBytes, &h).ok());
  EXPECT_EQ(h.type, FrameType::kError);
  EXPECT_TRUE(eventually([&] { return s.server.stats().protocol_errors >= 1; }));
  // The server is still alive for everyone else.
  auto r = s.client->submit(
      RequestBuilder().algorithm("sequential").generated(64, 1));
  EXPECT_TRUE(r.ok()) << r.status().to_string();
}

TEST(NetServer, OversizedLengthIsRefusedNotAllocated) {
  Stack s;
  RawConn raw(s.server.port());
  ASSERT_TRUE(raw.connected());
  FrameHeader h;
  h.type = FrameType::kRequest;
  h.payload_bytes = 0;  // encode, then forge the length field
  std::vector<std::uint8_t> bytes;
  encode_header(h, bytes);
  const std::uint32_t huge = 0xFFFFFFFF;
  for (int i = 0; i < 4; ++i)
    bytes[20 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  ASSERT_TRUE(raw.send_bytes(bytes));
  const auto reply = raw.read_to_eof();
  ASSERT_GE(reply.size(), kFrameHeaderBytes);
  FrameHeader rh;
  ASSERT_TRUE(decode_header(reply.data(), kFrameHeaderBytes, &rh).ok());
  EXPECT_EQ(rh.type, FrameType::kError);
}

TEST(NetServer, MidFrameDisconnectLeaksNothing) {
  Stack s;
  const ServerStats before = s.server.stats();
  {
    RawConn raw(s.server.port());
    ASSERT_TRUE(raw.connected());
    // A valid header promising 1000 payload bytes, then only 10, then gone.
    FrameHeader h;
    h.type = FrameType::kRequest;
    h.payload_bytes = 1000;
    std::vector<std::uint8_t> bytes;
    encode_header(h, bytes);
    bytes.resize(bytes.size() + 10, 0xCC);
    ASSERT_TRUE(raw.send_bytes(bytes));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // disconnect mid-frame
  EXPECT_TRUE(eventually([&] {
    return s.server.stats().disconnects >= before.disconnects + 1;
  }));
  // No half-frame state poisons the next connection.
  Client fresh(client_opts(s.server.port()));
  ASSERT_TRUE(fresh.connect().ok());
  auto r = fresh.submit(
      RequestBuilder().algorithm("sequential").generated(64, 1));
  EXPECT_TRUE(r.ok()) << r.status().to_string();
}

TEST(NetServer, TruncatedHeaderThenDisconnectIsHarmless) {
  Stack s;
  {
    RawConn raw(s.server.port());
    ASSERT_TRUE(raw.connected());
    std::vector<std::uint8_t> half(kFrameHeaderBytes / 2, 0);
    // A correct magic prefix, cut mid-header.
    half[0] = 0x6C;
    half[1] = 0x6C;
    half[2] = 0x6D;
    half[3] = 0x70;
    ASSERT_TRUE(raw.send_bytes(half));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  auto r = s.client->submit(
      RequestBuilder().algorithm("sequential").generated(64, 1));
  EXPECT_TRUE(r.ok()) << r.status().to_string();
}

TEST(NetServer, ClientOnlyFrameTypesAreRejected) {
  Stack s;
  RawConn raw(s.server.port());
  ASSERT_TRUE(raw.connected());
  std::vector<std::uint8_t> bytes;
  encode_response(ResponseFrame{}, 0, 1, bytes);  // server→client type
  ASSERT_TRUE(raw.send_bytes(bytes));
  const auto reply = raw.read_to_eof();
  ASSERT_GE(reply.size(), kFrameHeaderBytes);
  FrameHeader h;
  ASSERT_TRUE(decode_header(reply.data(), kFrameHeaderBytes, &h).ok());
  EXPECT_EQ(h.type, FrameType::kError);
}

// A connection that pipelines frames but never reads responses must not
// grow server memory without bound — stats requests included, which
// bypass admission. The server stops answering once the per-connection
// flow-control window fills, and resumes when the peer drains it.
TEST(NetServer, ResponseBacklogIsBoundedWhenThePeerStopsReading) {
  ServerOptions nopt;
  nopt.max_conn_backlog_bytes = 4096;  // tiny flow-control window
  nopt.sndbuf_bytes = 4096;            // and tiny kernel buffering
  Stack s(service_opts(), nopt);
  RawConn raw(s.server.port(), /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(raw.connected());
  constexpr std::uint64_t kFlood = 2000;
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < kFlood; ++i)
    encode_stats_request(0, i + 1, wire);
  ASSERT_TRUE(raw.send_bytes(wire));
  // Without reading a byte back, only as many responses exist as the
  // window plus kernel buffering absorb — not ~kFlood of them.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_LT(s.server.stats().frames_out, kFlood / 2);
  // The stalled connection costs nobody else anything.
  auto r = s.client->submit(
      RequestBuilder().algorithm("sequential").generated(64, 1));
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  // Reading reopens the window; every response eventually arrives.
  std::vector<std::uint8_t> got;
  EXPECT_TRUE(eventually([&] {
    const auto chunk = raw.read_some();
    got.insert(got.end(), chunk.begin(), chunk.end());
    std::size_t frames = 0, at = 0;
    while (got.size() - at >= kFrameHeaderBytes) {
      FrameHeader h;
      if (!decode_header(got.data() + at, kFrameHeaderBytes, &h).ok())
        return false;
      if (got.size() - at < kFrameHeaderBytes + h.payload_bytes) break;
      at += kFrameHeaderBytes + h.payload_bytes;
      frames++;
    }
    return frames == kFlood;
  }));
}

// A failed stats read leaves the byte stream desynchronised; the client
// must drop the connection (as submit_batch does) instead of letting the
// next call misparse leftover bytes as fresh frames.
TEST(NetClient, StatsReadFailureClosesTheConnection) {
  // A hand-rolled server that answers the stats request with half a
  // frame header and hangs up.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  std::thread fake([&] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) return;
    std::uint8_t buf[64];
    (void)::recv(cfd, buf, sizeof(buf), 0);  // the stats request
    std::vector<std::uint8_t> full;
    encode_stats(StatsFrame{}, 0, 1, full);
    (void)::send(cfd, full.data(), kFrameHeaderBytes / 2, MSG_NOSIGNAL);
    ::close(cfd);
  });

  Client client(client_opts(ntohs(addr.sin_port), /*recv_timeout_ms=*/500));
  ASSERT_TRUE(client.connect().ok());
  auto stats = client.server_stats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  // The desynchronised stream was dropped: the client reports
  // not-connected until connect() is called again.
  auto again = client.server_stats();
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.status().message().find("not connected"),
            std::string::npos);
  fake.join();
  ::close(lfd);
}

// ---------------------------------------------------------------------------
// Chaos: injected socket faults reconcile exactly against the server's
// fault counters and the admission ledger (nothing admitted stays
// in-flight once the dust settles).
// ---------------------------------------------------------------------------

class NetChaos : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(NetChaos, EveryCounterCrossesTheWire) {
  // Retries and repairs on, with faults that exercise both, so the
  // resilience and data-healing counters are nonzero too.
  serve::ServiceOptions sopt = service_opts();
  sopt.retry.max_attempts = 3;
  sopt.audit = serve::AuditPolicy::kRepair;
  Stack s(sopt);
  ASSERT_TRUE(failpoint::arm_from_string(
                  "serve.worker.run=status(unavailable):n=3;"
                  "stabilize.corrupt.match=status(data_loss):n=2")
                  .ok());
  std::vector<RequestBuilder> batch;
  for (int i = 0; i < 16; ++i)
    batch.push_back(RequestBuilder().algorithm("match4").generated(512, 9)
                        .tenant(static_cast<std::uint32_t>(1 + i % 2)));
  for (const auto& r : s.client->submit_batch(batch))
    EXPECT_TRUE(r.ok()) << r.status().to_string();
  failpoint::disarm_all();

  const std::uint64_t client_bytes_in = s.client->stats().bytes_in;
  auto wire = s.client->server_stats();
  ASSERT_TRUE(wire.ok()) << wire.status().to_string();
  const std::uint64_t stats_frame_bytes =
      s.client->stats().bytes_in - client_bytes_in;
  // The server counts the stats frame it sent after taking the snapshot:
  // one frame out at once, its bytes once the write returns.
  ServerStats srv = s.server.stats();
  ASSERT_TRUE(eventually([&] {
    srv = s.server.stats();
    return srv.bytes_out == wire->server.bytes_out + stats_frame_bytes;
  }));
  const serve::ServiceStats svc = s.svc.stats();

  EXPECT_EQ(svc.retries, 3u);
  EXPECT_EQ(svc.audits_failed, 2u);
  EXPECT_EQ(svc.repairs, 2u);
  for (const auto& f : serve::kServiceStatsFields)
    EXPECT_EQ(wire->service.*f.member, svc.*f.member) << f.name;
  for (const auto& f : kServerStatsFields) {
    std::uint64_t expected = srv.*f.member;
    if (f.member == &ServerStats::frames_out) expected -= 1;
    if (f.member == &ServerStats::bytes_out) expected -= stats_frame_bytes;
    EXPECT_EQ(wire->server.*f.member, expected) << f.name;
  }
  ASSERT_EQ(wire->server.tenants.size(), 2u);
  ASSERT_EQ(srv.tenants.size(), 2u);
  for (std::size_t t = 0; t < 2; ++t)
    for (const auto& f : kTenantStatsFields)
      EXPECT_EQ(wire->server.tenants[t].*f.member, srv.tenants[t].*f.member)
          << f.name;
}

TEST_F(NetChaos, AcceptFaultIsCountedAndConnectionRefused) {
  Stack s;
  // A full round trip first: Client::connect() returns at the TCP
  // handshake, so without this the server-side accept() of the fixture's
  // own connection could land after arm() and eat the fault.
  auto warm = s.client->submit(
      RequestBuilder().algorithm("sequential").generated(64, 1));
  ASSERT_TRUE(warm.ok());
  failpoint::arm("net.conn.accept",
                 {failpoint::Action::kStatus, 1.0, 1,
                  std::chrono::milliseconds(0), StatusCode::kUnavailable});
  // The TCP connect succeeds (the fault hits after accept), but the
  // server closes immediately; the first request gets no answer.
  Client victim(client_opts(s.server.port(), 2000));
  ASSERT_TRUE(victim.connect().ok());
  auto r = victim.submit(
      RequestBuilder().algorithm("sequential").generated(64, 1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  const auto counts = failpoint::counts("net.conn.accept");
  EXPECT_TRUE(eventually([&] {
    return s.server.stats().accept_faults == counts.faults();
  }));
  EXPECT_EQ(counts.faults(), 1u);
  // A later connection (failpoint exhausted, n=1) sails through.
  Client fresh(client_opts(s.server.port()));
  ASSERT_TRUE(fresh.connect().ok());
  auto r2 = fresh.submit(
      RequestBuilder().algorithm("sequential").generated(64, 1));
  EXPECT_TRUE(r2.ok()) << r2.status().to_string();
}

TEST_F(NetChaos, ReadFaultDisconnectsAndReconciles) {
  Stack s;
  // Let the Stack client's handshake traffic settle first, then arm.
  auto warm = s.client->submit(
      RequestBuilder().algorithm("sequential").generated(64, 1).tenant(2));
  ASSERT_TRUE(warm.ok());
  const ServerStats before = s.server.stats();
  failpoint::arm("net.conn.read",
                 {failpoint::Action::kStatus, 1.0, 1,
                  std::chrono::milliseconds(0), StatusCode::kUnavailable});
  auto r = s.client->submit(
      RequestBuilder().algorithm("sequential").generated(64, 1).tenant(2));
  ASSERT_FALSE(r.ok());  // the connection died under the request

  const auto counts = failpoint::counts("net.conn.read");
  EXPECT_EQ(counts.faults(), 1u);
  EXPECT_TRUE(eventually([&] {
    const ServerStats st = s.server.stats();
    return st.read_faults == counts.faults() &&
           st.disconnects >= before.disconnects + 1;
  }));
  // Ledger balance: everything admitted has completed; nothing leaks.
  EXPECT_TRUE(eventually([&] {
    for (const TenantStats& t : s.server.stats().tenants)
      if (t.in_flight != 0 || t.admitted != t.completed) return false;
    return true;
  }));
}

TEST_F(NetChaos, WriteFaultDropsTheResponseNotTheServer) {
  Stack s;
  auto warm = s.client->submit(
      RequestBuilder().algorithm("sequential").generated(64, 1).tenant(6));
  ASSERT_TRUE(warm.ok());
  failpoint::arm("net.conn.write",
                 {failpoint::Action::kThrow, 1.0, 1,
                  std::chrono::milliseconds(0), StatusCode::kUnavailable});
  auto r = s.client->submit(
      RequestBuilder().algorithm("sequential").generated(64, 1).tenant(6));
  ASSERT_FALSE(r.ok());  // response write was killed

  const auto counts = failpoint::counts("net.conn.write");
  EXPECT_EQ(counts.faults(), 1u);
  EXPECT_TRUE(eventually([&] {
    return s.server.stats().write_faults == counts.faults();
  }));
  // The admission ledger still balances after the dropped response.
  EXPECT_TRUE(eventually([&] {
    for (const TenantStats& t : s.server.stats().tenants)
      if (t.in_flight != 0 || t.admitted != t.completed) return false;
    return true;
  }));
  // And the server keeps serving fresh connections.
  Client fresh(client_opts(s.server.port()));
  ASSERT_TRUE(fresh.connect().ok());
  auto r2 = fresh.submit(
      RequestBuilder().algorithm("sequential").generated(64, 1));
  EXPECT_TRUE(r2.ok()) << r2.status().to_string();
}

}  // namespace
}  // namespace llmp::net
