// llmp::net::Client — the client side of the wire protocol.
//
// A thin blocking library over one TCP connection: requests are described
// with the same llmp::RequestBuilder the in-process API uses, encoded as
// wire frames (net/wire.h), and answered as Result<core::MatchResult> —
// the identical success/error vocabulary of llmp::run and
// serve::Service::submit, so calling code cannot tell the transports
// apart. One caveat the wire imposes: responses carry the result
// *summary* (edges, rounds, model cost), never the per-node in_matching
// vector, which comes back empty (docs/NET.md explains the trade).
//
//   net::Client client({.port = server_port});
//   if (Status s = client.connect(); !s.ok()) die(s);
//   auto r = client.submit(llmp::RequestBuilder()
//                              .algorithm("match4")
//                              .generated(1 << 16, 42));
//   if (r.ok()) use(r->edges);
//
// submit() is one request, one response. submit_batch() pipelines: every
// frame is written before any response is read, and responses — which the
// server may deliver in ANY order — are reconciled positionally by
// request id. Duplicate and unknown ids are counted (stats()), never
// trusted. A connection that dies mid-batch fails the still-unanswered
// requests with kUnavailable and leaves the answered ones intact.
//
// Not thread-safe: one Client per thread (the load generator in
// bench/bench_serve_net.cpp runs one per connection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/match_result.h"
#include "llmp.h"
#include "net/wire.h"
#include "support/metrics.h"
#include "support/status.h"

namespace llmp::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Default tenant for requests whose builder leaves tenant() at 0.
  std::uint32_t tenant = 0;
  /// Blocking-read timeout; an idle wait past this fails kUnavailable.
  std::uint32_t recv_timeout_ms = 30'000;
};

/// Client-side counters; latencies are response arrival minus the batch's
/// first write, from the log2 support::LatencyHistogram (each percentile
/// is its bucket's upper bound, exact to within 2×).
struct ClientStats {
  std::uint64_t requests = 0;   ///< request frames written
  std::uint64_t responses = 0;  ///< response/error frames consumed
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;      ///< error frames (admission, decode, …)
  std::uint64_t duplicates = 0;  ///< second answer for a reconciled id
  std::uint64_t unknown_ids = 0; ///< answers for ids this client never sent
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t p50_latency_us = 0;
  std::uint64_t p99_latency_us = 0;
};

class Client {
 public:
  explicit Client(ClientOptions options = {});
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Dial the server. kUnavailable with the errno diagnostic on failure.
  Status connect();
  void close();
  bool connected() const { return fd_ >= 0; }

  /// One request, blocking until its answer arrives.
  Result<core::MatchResult> submit(const RequestBuilder& req);

  /// Pipelined: write every request frame, then read until each has its
  /// answer. Results are positional. Out-of-order, duplicate and unknown
  /// responses are handled per the header comment.
  std::vector<Result<core::MatchResult>> submit_batch(
      const std::vector<RequestBuilder>& reqs);

  /// Fetch the server's stats frame: every ServiceStats and ServerStats
  /// field, tenant ledger included.
  Result<StatsFrame> server_stats();

  ClientStats stats() const;

 private:
  Status write_all(const std::vector<std::uint8_t>& bytes);
  /// Read exactly one frame; header is validated, payload sized by it.
  Status read_frame(FrameHeader* header, std::vector<std::uint8_t>* payload);
  Status encode_builder(const RequestBuilder& req, std::uint64_t request_id,
                        std::vector<std::uint8_t>& out);

  ClientOptions options_;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  ClientStats stats_;
  support::LatencyHistogram latency_;
};

}  // namespace llmp::net
