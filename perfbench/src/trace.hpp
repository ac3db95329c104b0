// In-memory spans around the benchmark's calls into each layer.
//
// A span has a name ("<layer>.<what>"), start and end host time, the span
// that encloses it and an operation id.  Spans are kept in a SpanLog owned
// by the code that runs the traced work; a thread records into the log
// installed with LogScope, and a Span records nothing when no log is
// installed, so the untraced runs pay one thread-local load per span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host nanoseconds on the steady clock since the process started.
std::int64_t now_ns();

struct SpanRecord {
  const char* name;  // string literal
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index in the same log, -1 at top level
  std::uint32_t op;     // operation the span belongs to
};

struct SpanLog {
  std::uint32_t tid = 0;  // which host thread recorded it (trace viewer lane)
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  // stack of unfinished spans
};

/// Installs `log` as this thread's span log for the scope's lifetime.
class LogScope {
 public:
  explicit LogScope(SpanLog* log);
  ~LogScope();
  LogScope(const LogScope&) = delete;
  LogScope& operator=(const LogScope&) = delete;

 private:
  SpanLog* prev_;
};

/// Records one span from construction to destruction.
class Span {
 public:
  explicit Span(const char* name, std::uint32_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_ = -1;
};

/// Durations per span name, folded from any number of logs.
struct SpanStats {
  struct PerName {
    double self_ns = 0;  // durations minus the time covered by direct children
    std::vector<double> dur_ns;
  };
  std::map<std::string, PerName> by_name;
  std::uint64_t spans = 0;

  void fold(const SpanLog& log);
  /// Self time summed over the names of one layer (the text before '.').
  std::map<std::string, double> self_ns_by_layer() const;
};

/// Writes `logs` as Chrome trace-event JSON (at most `max_spans` spans),
/// with the per-layer self times of `stats` under "otherData".  Returns
/// false when the file cannot be written.
bool write_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                 const SpanStats& stats, std::size_t max_spans);

}  // namespace perfbench
