// Host-time spans recorded from the benchmark's own call sites.
//
// A span wraps one call into a layer (a runner call, a Testbed phase, an
// isolated layer probe). Spans live in memory for the whole run and are
// written out once at the end, so recording costs two clock reads and a
// vector append. A disabled recorder records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder was created
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the recorder's spans, -1 = root
  int cell = -1;              // cell id shared by every span of one cell
};

class SpanRecorder {
 public:
  SpanRecorder();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled). Spans must close in LIFO order.
  int open(std::string name, int cell = -1);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes <prefix>.perfetto.json (Chrome trace events, one track per
  /// cell), <prefix>.collapsed (flamegraph stacks weighted by self ns) and
  /// <prefix>.spans.json (name/start/end/parent/cell). False on I/O error.
  bool write(const std::string& prefix) const;

 private:
  std::int64_t now_ns() const;
  /// Per span: duration minus the time its direct children cover.
  std::vector<std::int64_t> self_ns() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, int cell = -1)
      : rec_(rec), index_(rec != nullptr ? rec->open(std::move(name), cell) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace perfbench
