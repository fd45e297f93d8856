// llmp_serve — load generator, network server and network client for the
// serve layer, in one binary. Three modes, chosen by the --net.* flags
// (src/net/cli.h owns the flag grammar):
//
//   (default)            classic in-process loop: spin up a Service, fire
//                        the request stream at it from this thread, print
//                        the ServiceStats snapshot. This binary
//                        instruments global operator new, so the
//                        steady-state allocation counter is live — it
//                        must read 0 after warmup.
//   --net.listen PORT    serve the wire protocol (docs/NET.md) on PORT
//                        until SIGINT/SIGTERM; per-tenant quotas from
//                        --net.quota-rps / --net.max-in-flight.
//   --net.connect H:P    same request stream, sent to a remote llmp_serve
//                        over --net.conns pipelined connections.
//
//   llmp_serve --serve.requests 2000 --serve.n 10000 --serve.workers 8
//   llmp_serve --serve.alg match2 --serve.verify --serve.policy reject
//   llmp_serve --net.listen 7070 --net.quota-rps 500 &
//   llmp_serve --net.connect 127.0.0.1:7070 --net.conns 4 --csv
//
// Resilience knobs (docs/RESILIENCE.md): --fault.failpoints arms fault
// injection for the run, --fault.retries / --fault.wedge-ms /
// --fault.degrade turn on the self-healing machinery so injected faults
// are absorbed instead of surfacing to the client.
//   llmp_serve --fault.failpoints 'serve.worker.run=throw:p=0.01'
//              --fault.retries 3  (one command line)
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "llmp.h"
#include "net/cli.h"
#include "net/client.h"
#include "net/server.h"
#include "support/alloc_counter.h"
#include "support/failpoint.h"
#include "support/format.h"

// Instrument the global allocator so ServiceStats::steady_allocs counts
// (see support/alloc_counter.h; only in-AllocScope allocations tally).
void* operator new(std::size_t size) {
  llmp::support::note_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Nothrow forms too: libstdc++ internals (std::get_temporary_buffer) pair
// new(nothrow) with plain delete, which must land on the same allocator.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  llmp::support::note_alloc();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace llmp;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

net::AdmissionOptions admission_from(const net::ServeCliOptions& opt) {
  net::AdmissionOptions adm;
  adm.default_quota.tokens_per_sec = opt.quota_rps;
  adm.default_quota.burst = opt.quota_burst;
  adm.default_quota.max_in_flight = opt.max_in_flight;
  return adm;
}

int arm_failpoints(const std::string& spec) {
  if (spec.empty()) return 0;
  const Status s = support::failpoint::arm_from_string(spec);
  if (!s.ok()) {
    std::cerr << "llmp_serve: bad --fault.failpoints spec: " << s.message()
              << "\n";
    return 2;
  }
  return 0;
}

/// --net.listen: Service + Server until a signal arrives.
int run_listen(const net::ServeCliOptions& opt) {
  serve::Service svc(opt.service);
  net::ServerOptions sopt;
  sopt.port = opt.listen_port;
  sopt.admission = admission_from(opt);
  net::Server server(svc, sopt);
  if (Status s = server.start(); !s.ok()) {
    std::cerr << "llmp_serve: " << s.to_string() << "\n";
    return 2;
  }
  if (int rc = arm_failpoints(opt.failpoints); rc != 0) return rc;
  std::cout << "llmp_serve: listening on " << server.port() << " ("
            << opt.service.workers << " workers, queue "
            << opt.service.queue_capacity << ")" << std::endl;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const net::ServerStats st = server.stats();
  server.stop();
  svc.shutdown();
  std::cout << "llmp_serve: shut down;";
  for (const auto& f : net::kServerStatsFields)
    std::cout << ' ' << f.name << '=' << st.*f.member;
  std::cout << "\n";
  return 0;
}

/// --net.connect: the workload loop, over the wire.
int run_connect(const net::ServeCliOptions& opt) {
  const std::size_t conns = opt.conns;
  const std::uint64_t requests = opt.requests;
  std::vector<std::uint64_t> ok(conns, 0), errors(conns, 0);
  std::vector<net::ClientStats> cstats(conns);
  std::vector<int> failures(conns, 0);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      net::Client client({.host = opt.connect_host,
                          .port = opt.connect_port,
                          .tenant = opt.tenant});
      if (Status s = client.connect(); !s.ok()) {
        std::cerr << "llmp_serve: " << s.to_string() << "\n";
        failures[c] = 1;
        return;
      }
      const std::uint64_t mine =
          requests / conns + (c < requests % conns ? 1 : 0);
      constexpr std::uint64_t kBatch = 64;
      std::uint64_t sent = 0;
      while (sent < mine) {
        const std::uint64_t count = std::min(kBatch, mine - sent);
        std::vector<RequestBuilder> batch;
        batch.reserve(count);
        for (std::uint64_t k = 0; k < count; ++k) {
          RequestBuilder b;
          b.algorithm(opt.alg)
              .generated(opt.n, 1000 + (sent + k) % opt.lists)
              .tenant(opt.tenant);
          if (opt.deadline_ms != 0)
            b.deadline_after(std::chrono::milliseconds(opt.deadline_ms));
          batch.push_back(std::move(b));
        }
        for (const auto& r : client.submit_batch(batch))
          (r.ok() ? ok[c] : errors[c])++;
        sent += count;
        if (!client.connected()) {
          failures[c] = 1;
          break;
        }
      }
      cstats[c] = client.stats();
    });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t total_ok = 0, total_err = 0, p99 = 0, bytes = 0;
  bool failed = false;
  for (std::size_t c = 0; c < conns; ++c) {
    total_ok += ok[c];
    total_err += errors[c];
    p99 = std::max(p99, cstats[c].p99_latency_us);
    bytes += cstats[c].bytes_in + cstats[c].bytes_out;
    failed = failed || failures[c] != 0;
  }
  const double rps =
      secs > 0 ? static_cast<double>(total_ok + total_err) / secs : 0;
  if (opt.csv) {
    std::cout << "mode,conns,requests,ok,errors,seconds,rps,p99_us,bytes\n"
              << "connect," << conns << ',' << requests << ',' << total_ok
              << ',' << total_err << ',' << secs << ',' << rps << ',' << p99
              << ',' << bytes << "\n";
  } else {
    fmt::Table t({"metric", "value"});
    t.add_row({"connections", fmt::num(conns)});
    t.add_row({"ok", fmt::num(total_ok)});
    t.add_row({"errors", fmt::num(total_err)});
    t.add_row({"throughput (req/s)", fmt::num(static_cast<std::uint64_t>(rps))});
    t.add_row({"p99 latency (us)", fmt::num(p99)});
    t.add_row({"wire bytes", fmt::num(bytes)});
    t.print();
  }
  return !failed && total_ok == requests ? 0 : 1;
}

/// Default mode: the classic in-process loop.
int run_in_process(const net::ServeCliOptions& opt) {
  // A small pool of pre-generated lists, cycled — request generation must
  // not dominate the measurement.
  std::vector<list::LinkedList> lists;
  lists.reserve(opt.lists);
  for (std::size_t i = 0; i < opt.lists; ++i)
    lists.push_back(list::generators::random_list(opt.n, /*seed=*/1000 + i));

  serve::Service svc(opt.service);
  auto make_request = [&](std::uint64_t k) {
    RequestBuilder b;
    b.algorithm(opt.alg).list(lists[k % opt.lists]).tenant(opt.tenant);
    if (opt.deadline_ms != 0)
      b.deadline_after(std::chrono::milliseconds(opt.deadline_ms));
    return b.build();
  };

  // Warmup fills every worker's arena pool, then the steady-state window
  // starts from a clean slate (reset_stats rebases the alloc baseline).
  // Default generously: requests are not balanced across workers, so a
  // few times the worker count is needed before every arena is warm.
  const std::uint64_t warmup = opt.warmup != net::kAutoWarmup
                                   ? opt.warmup
                                   : 8 * opt.service.workers + 8;
  {
    std::vector<std::future<Result<core::MatchResult>>> futs;
    for (std::uint64_t k = 0; k < warmup; ++k)
      futs.push_back(svc.submit(make_request(k)));
    for (auto& f : futs) f.get();
  }
  svc.reset_stats();

  // Arm failpoints only after warmup: the warm arena pool is part of the
  // steady state the fault run is supposed to stress.
  if (int rc = arm_failpoints(opt.failpoints); rc != 0) return rc;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<Result<core::MatchResult>>> futs;
  futs.reserve(opt.requests);
  for (std::uint64_t k = 0; k < opt.requests; ++k)
    futs.push_back(svc.submit(make_request(k)));
  std::uint64_t got_ok = 0;
  for (auto& f : futs) got_ok += f.get().ok() ? 1 : 0;
  // Both output formats exit 1 unless every request was answered.
  const int rc = got_ok == opt.requests ? 0 : 1;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServiceStats st = svc.stats();
  svc.shutdown();
  const double rps =
      secs > 0 ? static_cast<double>(opt.requests) / secs : 0;

  if (opt.csv) {
    std::cout << "alg,n,queue,requests,seconds,rps";
    for (const auto& f : serve::kServiceStatsFields) std::cout << ',' << f.name;
    std::cout << '\n'
              << opt.alg << ',' << opt.n << ',' << opt.service.queue_capacity
              << ',' << opt.requests << ',' << secs << ',' << rps;
    for (const auto& f : serve::kServiceStatsFields)
      std::cout << ',' << st.*f.member;
    std::cout << '\n';
    return rc;
  }

  std::cout << "llmp_serve: " << opt.requests << " x " << opt.alg
            << " on n=" << opt.n << " lists, " << opt.service.workers
            << " workers, queue " << opt.service.queue_capacity << " ("
            << (opt.service.overflow == serve::OverflowPolicy::kReject
                    ? "reject"
                    : "block")
            << ")\n\n";
  fmt::Table t({"metric", "value"});
  t.add_row({"throughput (req/s)", fmt::num(static_cast<std::uint64_t>(rps))});
  t.add_row({"wall seconds", std::to_string(secs)});
  for (const auto& f : serve::kServiceStatsFields)
    t.add_row({f.name, fmt::num(st.*f.member)});
  t.print();
  if (st.steady_allocs != 0)
    std::cout << "\nWARNING: steady-state allocations nonzero — arena pool "
                 "not covering the algorithm path\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServeCliOptions opt;
  bool help = false;
  if (Status s = net::parse_serve_cli(argc, argv, &opt, &help); !s.ok()) {
    std::cerr << "llmp_serve: " << s.message() << "\n\n"
              << net::serve_cli_usage();
    return 2;
  }
  if (help) {
    std::cout << net::serve_cli_usage();
    return 0;
  }
  if (opt.listen) return run_listen(opt);
  if (!opt.connect_host.empty()) return run_connect(opt);
  return run_in_process(opt);
}
