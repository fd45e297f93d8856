// The llmp_serve command line, as a library.
//
// llmp_serve grew from a single-purpose load generator into the front
// door of three transports (in-process, listening server, network
// client), so its flags are namespaced by the subsystem they configure:
//
//   --serve.*   workload + serve::ServiceOptions (workers, queue, policy)
//   --fault.*   fault injection / resilience (failpoints, retries, …)
//   --net.*     the wire layer (listen / connect, tenancy, quotas)
//
// plus the un-namespaced --csv output toggle. tests/net_cli_test.cpp pins
// the flags and the --help text.
//
// Parsing lives here — not in tools/ — so the test suite can drive it
// directly; the tool's main() is a thin shell around parse_serve_cli().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/service.h"
#include "support/status.h"

namespace llmp::net {

/// Sentinel for --serve.warmup "not given": the default depends on the
/// worker count and is resolved by the tool (8 × workers + 8).
inline constexpr std::uint64_t kAutoWarmup = ~0ull;

struct ServeCliOptions {
  // --serve.*: the workload and the Service under it.
  std::uint64_t requests = 2000;
  std::size_t n = 10000;
  std::size_t lists = 8;
  std::string alg = "match4";
  std::uint64_t deadline_ms = 0;
  std::uint64_t warmup = kAutoWarmup;
  serve::ServiceOptions service;

  // --fault.*
  std::string failpoints;  ///< armed after warmup, verbatim spec string

  // --net.*: absent both, the tool runs the classic in-process loop.
  bool listen = false;          ///< --net.listen PORT was given
  std::uint16_t listen_port = 0;
  std::string connect_host;     ///< --net.connect HOST:PORT was given
  std::uint16_t connect_port = 0;
  std::uint32_t tenant = 0;
  double quota_rps = 0;         ///< default-tenant token rate (0 = none)
  double quota_burst = 0;       ///< bucket depth (0 = rate)
  std::uint32_t max_in_flight = 0;
  std::size_t conns = 1;        ///< client connections in --net.connect mode

  bool csv = false;
};

/// The --help text (every flag).
std::string serve_cli_usage();

/// Parse argv into *out. Sets *help and returns OK when --help/-h was
/// given. Unknown flags and malformed values are kInvalidArgument with a
/// message naming the flag.
Status parse_serve_cli(int argc, const char* const* argv,
                       ServeCliOptions* out, bool* help);

}  // namespace llmp::net
