#include "spans.h"

#include <map>

#include "base/json.h"
#include "trace/export.h"

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 12);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::open(std::string name, int cell) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.cell = cell >= 0 || s.parent < 0 ? cell : spans_[s.parent].cell;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] += s.end_ns - s.start_ns;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

bool SpanRecorder::write(const std::string& prefix) const {
  std::vector<es2::PerfettoSlice> slices;
  slices.reserve(spans_.size());
  for (const Span& s : spans_) {
    slices.push_back({s.name, s.cell < 0 ? 0 : s.cell + 1, s.start_ns, s.end_ns});
  }
  if (!es2::write_file(prefix + ".perfetto.json",
                       es2::to_perfetto_json({}, {}, slices))) {
    return false;
  }

  // Collapsed stacks: root-to-leaf span names, weighted by self time.
  std::map<std::string, std::int64_t> stacks;
  const std::vector<std::int64_t> self = self_ns();
  std::vector<std::string> path(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    path[i] = s.parent < 0 ? s.name
                           : path[static_cast<std::size_t>(s.parent)] + ";" + s.name;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (self[i] > 0) stacks["host;" + path[i]] += self[i];
  }
  std::string collapsed;
  for (const auto& [stack, ns] : stacks) {
    collapsed += stack + " " + std::to_string(ns) + "\n";
  }
  if (!es2::write_file(prefix + ".collapsed", collapsed)) return false;

  es2::Json list = es2::Json::array();
  for (const Span& s : spans_) {
    es2::Json j = es2::Json::object();
    j.set("name", es2::Json::string(s.name));
    j.set("start_ns", es2::Json::number(static_cast<double>(s.start_ns)));
    j.set("end_ns", es2::Json::number(static_cast<double>(s.end_ns)));
    j.set("parent", es2::Json::number(s.parent));
    j.set("cell", es2::Json::number(s.cell));
    list.push_back(std::move(j));
  }
  return es2::write_file(prefix + ".spans.json", list.dump());
}

}  // namespace perfbench
