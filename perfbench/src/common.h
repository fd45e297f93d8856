// Shared vocabulary of the benchmark: clocks, order statistics, the
// correctness ledger and the metric report.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// A point on the wall clock and on the calling thread's CPU clock, or
/// the difference of two. The kernel does not count time the host took
/// the thread's vCPU away (steal) as CPU time.
struct Stamp {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;

  static Stamp now();
  Stamp operator-(const Stamp& o) const {
    return {wall_ns - o.wall_ns, cpu_ns - o.cpu_ns};
  }
  Stamp& operator+=(const Stamp& o) {
    wall_ns += o.wall_ns;
    cpu_ns += o.cpu_ns;
    return *this;
  }
};

/// Quantile by linear interpolation between order statistics (q in [0,1]).
/// Takes a copy: callers keep their samples in arrival order.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// splitmix64 — derives every input seed from the one workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t k);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// CPU time all threads of this process have used, user and system, in
/// seconds. The kernel does not count time the host took a vCPU away
/// (steal), so on a shared virtual machine this moves far less than wall
/// time with the other guests' load.
double process_cpu_s();

/// Every output check lands here. `attempted` counts operations whose
/// output was checked; the rest count the ways one can go wrong.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< an error status where success was due
  std::uint64_t wrong = 0;       ///< a result that disagrees with its oracle
  std::uint64_t lost = 0;        ///< a request that never got an answer
  std::uint64_t duplicated = 0;  ///< a second answer, or one for no request

  std::uint64_t bad() const { return failed + wrong + lost + duplicated; }
  Ledger& operator+=(const Ledger& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    lost += o.lost;
    duplicated += o.duplicated;
    return *this;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Named metrics in print order. The final JSON line carries one of the
/// two lists; everything else is printed as readable lines above it.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  const Metric* find_e2e(const std::string& name) const;
};

/// One line of diagnostic output (stdout, never the last line).
void say(const std::string& line);
std::string fmt(double v, int precision = 4);

}  // namespace perfbench
