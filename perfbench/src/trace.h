// In-memory span recorder for the traced run.
//
// Each span wraps one call the benchmark makes into a layer's public
// functions: name, start, end, parent span and request id. Spans stay in
// memory while the workload runs and are written out once at exit, so
// recording costs a clock read and a vector append. A span's self time is
// its duration minus the durations of its child spans.
//
// The spans live in the benchmark, around calls into the library; nothing
// inside src/ is instrumented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< a string literal: spans never own names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for roots
  std::uint64_t request = 0;
};

/// Per-name rollup of recorded spans.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double median_us = 0;       ///< median duration
  double median_self_us = 0;  ///< median duration minus child spans
  double total_self_ms = 0;
};

class Tracer {
 public:
  /// Disabled tracers record nothing and cost one branch per call site.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span under the calling thread's innermost open span.
  std::int64_t begin(const char* name, std::uint64_t request = 0);
  void end(std::int64_t span);
  /// Record a span whose interval was measured elsewhere (e.g. a request
  /// sent by one thread and answered on another).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request);

  /// Durations in ns of every span with this name, in record order.
  std::vector<double> durations(const std::string& name) const;
  std::vector<SpanSummary> summarize() const;
  /// Write every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span over the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint64_t request = 0)
      : tracer_(t), span_(t.enabled() ? t.begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (span_ >= 0) tracer_.end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t span_;
};

}  // namespace perfbench
