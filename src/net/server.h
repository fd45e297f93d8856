// llmp::net::Server — the TCP front door of the serve layer.
//
// One IO thread owns every socket: it accepts connections, reassembles
// wire-protocol frames from per-connection read buffers (net/wire.h),
// passes each request through multi-tenant admission control
// (net/admission.h), and submits admitted work to an existing
// serve::Service. Workers never touch a socket — when a request's future
// becomes ready, the serve layer's on_ready hook posts a completion token
// to the IO thread (through a wake pipe), which encodes the response or
// error frame and writes it back on the owning connection. Responses to
// one connection can therefore interleave out of submission order; clients
// reconcile by request_id (net/client.h does). Cold kGenerated lists are
// materialised on a dedicated generator thread (the request stays
// admitted meanwhile), so one large random_list() never stalls the IO
// loop for every other connection.
//
// Per-connection memory is bounded by a flow-control window
// (max_conn_backlog_bytes): once a connection's unflushed response bytes
// exceed it, the server stops reading — and therefore stops parsing and
// answering — on that connection until the peer drains its responses.
// Writes use send(MSG_NOSIGNAL), so a peer that resets mid-response
// costs a disconnect, never a process-killing SIGPIPE.
//
// Error containment mirrors the wire spec: payload-level decode errors
// and admission rejections cost one error frame and keep the connection;
// header-level corruption (bad magic/version, oversized length) gets a
// final error frame and a disconnect, because the byte stream cannot be
// resynchronised. A connection that dies with requests in flight leaks
// nothing: the pending entries drain when their futures complete and the
// responses are simply dropped.
//
// Fault injection: the failpoints `net.conn.accept`, `net.conn.read` and
// `net.conn.write` gate the three socket operations; an injected fault
// closes the affected connection and increments the matching fault
// counter, which the chaos suite reconciles against failpoint::counts().
//
//   serve::Service svc({.workers = 2});
//   net::Server server(svc, {.port = 0});          // 0 = ephemeral
//   if (Status s = server.start(); !s.ok()) die(s);
//   connect_clients_to(server.port());
//   server.stop();                                  // drains in-flight work
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "net/admission.h"
#include "net/stats.h"
#include "net/wire.h"
#include "serve/service.h"
#include "support/status.h"

namespace llmp::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// port() after start()).
  std::uint16_t port = 0;
  std::size_t max_connections = 64;
  /// Per-frame payload bound for THIS server (≤ the protocol's hard
  /// kMaxPayloadBytes); a header advertising more is a protocol error.
  std::uint32_t max_frame_bytes = kMaxPayloadBytes;
  /// Largest list a request may name, generated or inline.
  std::uint64_t max_list_nodes = 1ull << 26;
  /// Per-connection flow-control window: once a connection holds this
  /// many encoded-but-unflushed response bytes, the server stops reading
  /// (and so stops parsing) from it until the backlog drains. A client
  /// that pipelines requests but never reads responses therefore stalls
  /// itself instead of growing server memory without bound.
  std::size_t max_conn_backlog_bytes = 4u << 20;
  /// Generated lists are cached by (n, seed) so a load of identical
  /// requests materialises each list once; FIFO-evicted once the cached
  /// successor arrays together exceed this many bytes.
  std::size_t list_cache_bytes = 256u << 20;
  /// When nonzero, shrink each accepted socket's kernel send buffer
  /// (SO_SNDBUF) to this. Tests use it to exercise the backlog window
  /// deterministically; production leaves the kernel default.
  int sndbuf_bytes = 0;
  AdmissionOptions admission;
};

class Server {
 public:
  /// The Service is borrowed and must outlive the Server; admission and
  /// framing wrap it without changing its in-process behaviour.
  explicit Server(serve::Service& service, ServerOptions options = {});
  ~Server();  ///< calls stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the IO thread. kUnavailable with the errno
  /// diagnostic when the address cannot be bound.
  Status start();

  /// Stop accepting, close every connection, and block until all requests
  /// this server submitted have completed (their lists stay alive until
  /// then). Idempotent; the destructor calls it.
  void stop();

  /// The bound port (resolves 0 → the kernel-assigned ephemeral port).
  /// Valid after a successful start().
  std::uint16_t port() const;

  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace llmp::net
