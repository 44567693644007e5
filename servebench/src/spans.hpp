// In-memory span log for the traced run.
//
// The traced run wraps each public call into a layer (wire encode/decode,
// ring lookup, service batch, store append, loopback round trip) in a span:
// name, start, end, parent span and the request id every span of one
// request shares. Spans stay in a vector while the run replays and are
// written out as JSON lines when it ends, so recording costs two clock
// reads and a push per span. A span's self time is its duration minus the
// part of it its children cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace sb {

class SpanLog {
 public:
  static constexpr int kRoot = -1;

  /// A log that does not `record` keeps no spans: open() returns kRoot
  /// without reading the clock, so a replay through it does the same work
  /// as a traced one, less the recording.
  explicit SpanLog(Clock::time_point epoch, bool record = true)
      : epoch_(epoch), record_(record) {}

  /// Opens a span; `ops` > 1 marks a span that wraps a loop of that many
  /// identical calls (per-call figures divide by it). Returns its id.
  int open(const char* name, std::uint64_t request, int parent = kRoot,
           std::uint32_t ops = 1);
  void close(int id);

  /// Median self time per call of every span named `name`, in seconds
  /// (0 when none was recorded).
  double median_self(const std::string& name) const;
  /// Duration of span `id`, in seconds (0 for kRoot).
  double duration_seconds(int id) const;
  std::size_t size() const { return spans_.size(); }

  /// Writes one JSON object per span (name, request, id, parent, start_ns,
  /// end_ns, self_ns, ops). Returns false when the file cannot be written.
  bool dump(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    std::uint64_t request = 0;
    int parent = kRoot;
    std::uint32_t ops = 1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::int64_t now_ns() const;
  void index_children() const;
  /// Self time of one span, in seconds (whole span, not per call).
  double self_seconds(int id) const;

  Clock::time_point epoch_;
  bool record_;
  std::vector<Span> spans_;
  mutable std::vector<std::vector<int>> children_;  // built lazily
};

/// RAII helper: closes the span when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t request,
             int parent = SpanLog::kRoot, std::uint32_t ops = 1)
      : log_(log), id_(log.open(name, request, parent, ops)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace sb
