#include "trace.h"

#include <fstream>
#include <map>

#include "common.h"

namespace perfbench {

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> t_open;
}  // namespace

std::int64_t Tracer::begin(const char* name, std::uint64_t request) {
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, parent, request});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t span) {
  const std::int64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == span) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = t;
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request) {
  if (!enabled_) return;
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

std::vector<SpanSummary> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    auto& [dur, self] = by_name[spans_[i].name];
    dur.push_back(d);
    self.push_back(d - child_ns[i]);
  }
  std::vector<SpanSummary> out;
  for (const auto& [name, samples] : by_name) {
    SpanSummary s;
    s.name = name;
    s.count = samples.first.size();
    s.median_us = median(samples.first) / 1e3;
    s.median_self_us = median(samples.second) / 1e3;
    for (const double v : samples.second) s.total_self_ms += v / 1e6;
    out.push_back(std::move(s));
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
