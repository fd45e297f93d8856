// Served phases: an in-process net::Server on loopback over a 2-worker
// serve::Service, driven by the benchmark's own load generator.
//
// The generator speaks the wire protocol over plain sockets with the
// public net/wire.h encoders, because net::Client blocks per batch and
// cannot send on a schedule. Request frames are encoded once at set-up;
// each send writes a fresh 24-byte header and the shared payload.
//
//   open loop    one sender thread spins to each due time (a fixed rate,
//                alternating connections) while one receiver thread reads
//                both; latency runs from the due time to the response,
//                lateness from the due time to the send.
//   closed loop  one thread per connection keeps `window` requests in
//                flight and refills the window as each response lands.
//   ladder       (traced) the request stream replayed one at a time at
//                each rung: core::run_matching_into on a warm Context,
//                serve::Service::submit, net::Client::submit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/service.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

class Serving {
 public:
  /// Set-up: Service and Server construction, start, and the load
  /// generator's connections. With `traced`, the Service reports each
  /// dequeue through ServiceOptions::on_dequeue for the queue-wait metric.
  Serving(const WorkloadSpec& spec, const Inputs& inputs,
          const Oracles& oracles, bool traced);
  ~Serving();
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  bool start_ok() const { return start_ok_; }

  /// Set-up warm-up: every pool list requested over each connection, so
  /// the server's list cache and the workers' arenas are warm.
  void warm(Ledger& ledger);

  /// Forget the results of earlier open and closed loops.
  void clear();
  /// Each loop adds its windows and counts to those since clear().
  void open_loop(double seconds, Tracer& tracer, Ledger& ledger);
  void closed_loop(double seconds, Tracer& tracer, Ledger& ledger);
  /// Traced only: the rung ladder, the in-process Service closed loop and
  /// the data-path micro timings on the workload's own frames.
  void ladder(double seconds, Tracer& tracer, Ledger& ledger, Report& report);

  /// cycles_per_request (the closed loop's process CPU time per answer,
  /// counted at the core clock the kernel phase measured, `clock_ghz`),
  /// the open loop's p50 and the closed loop's throughput (printed, and
  /// per-layer metrics when traced), and the other printed-not-gated lines.
  void report(Report& report, bool traced, double clock_ghz) const;
  std::uint64_t data_loss_errors() const { return data_loss_.load(); }

 private:
  /// Check one answer frame against the in-process answer; true if OK.
  bool check_answer(const llmp::net::FrameHeader& h,
                    const std::uint8_t* payload, Ledger& ledger);
  bool send_request(int fd, std::uint64_t id);
  llmp::net::RequestFrame request_frame(std::size_t k) const;

  const WorkloadSpec& spec_;
  const Inputs& in_;
  const Oracles& oracles_;

  std::atomic<std::int64_t> last_dequeue_ns_{0};
  std::unique_ptr<llmp::serve::Service> service_;
  std::unique_ptr<llmp::net::Server> server_;
  std::vector<int> fds_;
  bool start_ok_ = false;
  std::uint64_t next_id_ = 1;
  std::atomic<std::uint64_t> data_loss_{0};

  // Open-loop results: each window's p50 (latency_p50_us is their
  // median), every latency and every send's lateness.
  std::vector<double> open_window_p50_us_;
  std::vector<double> open_latency_us_;
  std::vector<double> open_late_us_;
  std::size_t open_sent_ = 0;
  // Closed-loop results: each window's completions per second (their
  // median is the printed throughput), and the process CPU time and the
  // answers over the whole loop (cycles_per_request).
  std::vector<double> closed_window_rps_;
  double closed_cpu_s_ = 0;
  std::uint64_t closed_answered_ = 0;
  // Lost/duplicate answers across the phases (ledger shares them too).
  std::uint64_t lost_ = 0, duplicates_ = 0;
  // Server counters around the open- and closed-loop phases.
  llmp::net::ServerStats server_before_, server_after_;
  std::uint64_t requests_measured_ = 0;
};

}  // namespace perfbench
