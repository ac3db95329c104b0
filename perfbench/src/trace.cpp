#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

thread_local SpanLog* tl_log = nullptr;

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

LogScope::LogScope(SpanLog* log) : prev_(tl_log) { tl_log = log; }
LogScope::~LogScope() { tl_log = prev_; }

Span::Span(const char* name, std::uint32_t op) : log_(tl_log) {
  if (log_ == nullptr) return;
  idx_ = static_cast<std::int32_t>(log_->spans.size());
  const std::int32_t parent = log_->open.empty() ? -1 : log_->open.back();
  log_->spans.push_back({name, now_ns(), 0, parent, op});
  log_->open.push_back(idx_);
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<std::size_t>(idx_)].end_ns = now_ns();
  log_->open.pop_back();
}

void SpanStats::fold(const SpanLog& log) {
  std::vector<double> child_ns(log.spans.size(), 0.0);
  for (const SpanRecord& s : log.spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    const SpanRecord& s = log.spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    PerName& p = by_name[s.name];
    p.self_ns += dur - child_ns[i];
    p.dur_ns.push_back(dur);
  }
  spans += log.spans.size();
}

std::map<std::string, double> SpanStats::self_ns_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, p] : by_name) {
    out[name.substr(0, name.find('.'))] += p.self_ns;
  }
  return out;
}

bool write_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                 const SpanStats& stats, std::size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [", f);
  std::size_t written = 0;
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->spans.size() && written < max_spans; ++i) {
      const SpanRecord& s = log->spans[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"op\": %u, \"parent\": %d}}",
                   written == 0 ? "" : ",", s.name, log->tid,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op,
                   static_cast<int>(s.parent));
      ++written;
    }
  }
  std::fputs("\n], \"displayTimeUnit\": \"ns\", \"otherData\": {", f);
  bool first = true;
  for (const auto& [layer, ns] : stats.self_ns_by_layer()) {
    std::fprintf(f, "%s\"self_ms.%s\": %.6f", first ? "" : ", ", layer.c_str(),
                 ns / 1e6);
    first = false;
  }
  std::fprintf(f, "%s\"spans_recorded\": %llu, \"spans_written\": %zu}}\n",
               first ? "" : ", ", static_cast<unsigned long long>(stats.spans),
               written);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
