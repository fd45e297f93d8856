// perfbench — one workload per run, every output checked, every metric
// printed by name and unit. The last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Any failed check makes the run exit 1.
//
//   perfbench --workload offline|net_bulk --seed N --seconds S
//             --trace 0|1 [--failpoints SPEC] [--oracle-skew K]
//             [--out-dir DIR]
//
// --failpoints arms support/failpoint.h sites (the self-test arms
// stabilize.corrupt.match); --oracle-skew shifts every matcher's expected
// edge count. Both exist to prove the checks catch bad output.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "common.h"
#include "kernels.h"
#include "serving.h"
#include "support/failpoint.h"
#include "trace.h"
#include "workload.h"

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string failpoints;
  std::int64_t oracle_skew = 0;
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload offline|net_bulk "
               "--seed N --seconds S --trace 0|1 [--failpoints SPEC] "
               "[--oracle-skew K] [--out-dir DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--failpoints") a.failpoints = v;
      else if (flag == "--oracle-skew") a.oracle_skew = std::stoll(v);
      else if (flag == "--out-dir") a.out_dir = v;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

/// Slices per measured block. The kernel phase, the open loop and the
/// closed loop take turns in this many slices, so each metric samples the
/// whole run instead of one stretch of it: a shared host's speed drifts
/// from one second to the next and over tens of seconds.
constexpr int kSlices = 8;
/// Share of the measured time in the kernel phase; the open and closed
/// loops share the rest. Counted in cycles, the kernels need less time for
/// a steady figure than the served latencies.
constexpr double kKernelShare = 0.3;

/// The kernel phase and the open and closed loops over `seconds`, then
/// every metric they give.
void measure(double seconds, Kernels& kernels, Serving& serving,
             Tracer& tracer, Ledger& ledger, Report& report) {
  const double slice = seconds / kSlices;
  const double served = slice * (1 - kKernelShare) / 2;
  kernels.clear();
  serving.clear();
  for (int i = 0; i < kSlices; ++i) {
    kernels.measure(slice * kKernelShare, tracer, ledger);
    serving.open_loop(served, tracer, ledger);
    serving.closed_loop(served, tracer, ledger);
  }
  kernels.report(report, tracer);
  serving.report(report, tracer.enabled(), kernels.clock_ghz());
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    say("metric " + m.name + " = " + fmt(m.value) + " " + m.unit);
}

void print_json(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ledger.bad() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.bad()));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload '" + args.workload + "'");
  if (!args.failpoints.empty()) {
    if (llmp::Status s =
            llmp::support::failpoint::arm_from_string(args.failpoints);
        !s.ok())
      usage("bad --failpoints: " + s.to_string());
  }
  std::error_code ec;
  const std::string spill_dir = args.out_dir + "/spill";
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) usage("cannot create " + spill_dir + ": " + ec.message());

  say("perfbench workload " + std::string(spec->name) + " seed " +
      std::to_string(args.seed) + " seconds " + fmt(args.seconds) +
      (args.trace ? " traced" : ""));
  Ledger ledger;
  const Oracles oracles = [&] {
    const Inputs in = make_inputs(*spec, args.seed);
    return compute_oracles(in, args.oracle_skew);
  }();

  // Set up kSetups times; the last one is measured.
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Kernels> kernels;
  std::unique_ptr<Serving> serving;
  std::vector<double> setup_s, setup_cpu_s, init_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    serving.reset();
    kernels.reset();
    inputs.reset();
    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    inputs = std::make_unique<Inputs>(make_inputs(*spec, args.seed));
    kernels = std::make_unique<Kernels>(*inputs, oracles, spill_dir);
    serving =
        std::make_unique<Serving>(*spec, *inputs, oracles, args.trace);
    if (!kernels->init_ok() || !serving->start_ok()) {
      std::cerr << "perfbench: set-up failed (engine init or server start)\n";
      return 1;
    }
    kernels->warm(ledger);
    serving->warm(ledger);
    setup_s.push_back(seconds_between(t0, now_ns()));
    setup_cpu_s.push_back(process_cpu_s() - cpu0);
    init_s.push_back(kernels->init_s());
  }

  Report report;
  Tracer tracer(args.trace);
  Tracer off(false);
  if (!args.trace) {
    measure(args.seconds, *kernels, *serving, off, ledger, report);
  } else {
    // Every phase untraced, then traced, over half the time each; the
    // difference is the tracing overhead. Then the rung ladder.
    Report plain;
    const double half = args.seconds / 2;
    measure(half, *kernels, *serving, off, ledger, plain);
    measure(half, *kernels, *serving, tracer, ledger, report);
    serving->ladder(half, tracer, ledger, report);
    report.layer("engine.init_s", median(init_s), "s");
    for (const Metric& m : report.end_to_end)
      if (const Metric* base = plain.find_e2e(m.name))
        say("tracing overhead " + m.name + ": untraced " + fmt(base->value) +
            ", traced " + fmt(m.value) + " " + m.unit + " (" +
            fmt(100.0 * (m.value - base->value) / base->value, 3) + "%)");
    for (const SpanSummary& s : tracer.summarize())
      say("span " + s.name + ": count " + std::to_string(s.count) +
          ", p50 " + fmt(s.median_us) + " us, self p50 " +
          fmt(s.median_self_us) + " us, self total " + fmt(s.total_self_ms) +
          " ms");
    const std::string path = args.out_dir + "/trace-" + spec->name + "-seed" +
                              std::to_string(args.seed) + ".jsonl";
    say(tracer.write(path) ? "spans written to " + path
                           : "could not write spans to " + path);
  }
  report.e2e("setup_s", median(setup_s), "s");
  say("set-up CPU time: median " + fmt(median(setup_cpu_s)) + " s");
  if (serving->data_loss_errors() > 0)
    say("kDataLoss answers: " + std::to_string(serving->data_loss_errors()));
  serving.reset();
  kernels.reset();
  inputs.reset();
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");

  print_metrics(report.end_to_end);
  if (args.trace) print_metrics(report.per_layer);
  say("error_ratio = " +
      fmt(static_cast<double>(ledger.bad()) /
          static_cast<double>(std::max<std::uint64_t>(1, ledger.attempted))) +
      " ratio (failed " + std::to_string(ledger.failed) + ", wrong " +
      std::to_string(ledger.wrong) + ", lost " + std::to_string(ledger.lost) +
      ", duplicated " + std::to_string(ledger.duplicated) + " of " +
      std::to_string(ledger.attempted) + " checked)");
  std::cout.flush();
  print_json(ledger, args.trace ? report.per_layer : report.end_to_end);
  std::fflush(stdout);
  return ledger.bad() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(parse(argc, argv)); }
