// Latency-blame CLI: who owns each nanosecond of the virtio event path?
//
// Three modes, picked by the inputs:
//
//  * `latency_blame trace.bin` — read a raw ES2T binary trace (exported by
//    any bench via `--profile=<path>`, written next to it as
//    `<path>.trace.bin`, or by `to_binary`), run the critical-path
//    analyzer, and print the markdown latency-budget table plus the
//    worst-journey ledger. `--json=<path>` additionally writes the
//    es2-blame-v1 report.
//  * `latency_blame blame.json` — re-render an existing es2-blame-v1
//    report as the same markdown table (for eyeballing a CI artifact).
//  * `latency_blame --diff a.json b.json` — diff two es2-blame-v1 reports
//    and name the component whose share of the journey total grew the
//    most: the answer to "which stage regressed between these runs?".
//
// Exit codes: 0 = ok (diff mode: no component regressed by more than
// --threshold), 1 = diff found a regression past the threshold, 2 = usage
// (an unknown flag, a wrong operand count or a malformed number) or
// unreadable/malformed input.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/json.h"
#include "profile/blame.h"
#include "profile/blame_export.h"
#include "trace/export.h"
#include "trace/trace.h"

using namespace es2;

namespace {

bool slurp(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool load_summary(const char* path, BlameSummary* out) {
  std::string text;
  if (!slurp(path, &text)) {
    std::fprintf(stderr, "latency_blame: cannot read %s\n", path);
    return false;
  }
  std::string error;
  if (!blame_summary_from_json(text, out, &error)) {
    std::fprintf(stderr, "latency_blame: %s: %s\n", path, error.c_str());
    return false;
  }
  return true;
}

/// Whole-string parses of a non-negative number: false on empty input,
/// trailing junk, overflow or a negative or non-finite value.
bool parse_count(const char* text, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 0 || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool parse_real(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v < 0) {
    return false;
  }
  *out = v;
  return true;
}

int usage(const char* bad = nullptr) {
  if (bad != nullptr) {
    std::fprintf(stderr, "latency_blame: bad argument '%s'\n", bad);
  }
  std::fprintf(stderr,
               "usage: latency_blame <trace.bin> [--json=<out.json>] "
               "[--top=N] [--k=F]\n"
               "       latency_blame <blame.json>\n"
               "       latency_blame --diff <a.json> <b.json> "
               "[--threshold=F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> inputs;
  std::string json_out;
  bool diff = false;
  double threshold = 0.05;
  BlameOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (std::strcmp(arg, "--diff") == 0) {
      diff = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_out = arg + 7;
      ok = !json_out.empty();
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      ok = parse_count(arg + 6, &options.ledger_top_n);
    } else if (std::strncmp(arg, "--k=", 4) == 0) {
      ok = parse_real(arg + 4, &options.ledger_k);
    } else if (std::strncmp(arg, "--threshold=", 12) == 0) {
      ok = parse_real(arg + 12, &threshold);
    } else if (arg[0] == '-') {
      ok = false;
    } else {
      inputs.push_back(arg);
    }
    if (!ok) return usage(arg);
  }

  if (diff) {
    if (inputs.size() != 2) return usage();
    BlameSummary a, b;
    if (!load_summary(inputs[0], &a) || !load_summary(inputs[1], &b)) return 2;
    const BlameDiff d = diff_blame(a, b);
    std::printf("%s", render_blame_diff_markdown(d).c_str());
    if (!d.regressed.empty() && d.regressed_delta > threshold) {
      std::printf("REGRESSED: %s (+%.1f%% of journey total)\n",
                  d.regressed.c_str(), d.regressed_delta * 100.0);
      return 1;
    }
    std::printf("no component grew by more than %.1f%% of the total\n",
                threshold * 100.0);
    return 0;
  }

  if (inputs.size() != 1) return usage();
  std::string data;
  if (!slurp(inputs[0], &data)) {
    std::fprintf(stderr, "latency_blame: cannot read %s\n", inputs[0]);
    return 2;
  }

  std::vector<TraceRecord> records;
  if (read_binary(data, &records)) {
    const BlameBreakdown blame = analyze_blame(records, options);
    if (blame.journeys == 0) {
      std::fprintf(stderr, "latency_blame: %s holds no journeys\n",
                   inputs[0]);
      return 2;
    }
    std::printf("%s", render_blame_markdown(blame_summary(blame)).c_str());
    if (!json_out.empty()) {
      if (!write_blame_file(json_out, blame)) {
        std::fprintf(stderr, "latency_blame: cannot write %s\n",
                     json_out.c_str());
        return 2;
      }
      std::printf("[es2-blame-v1 report written to %s]\n", json_out.c_str());
    }
    return 0;
  }

  // Not an ES2T binary: try an existing es2-blame-v1 report.
  BlameSummary s;
  if (!load_summary(inputs[0], &s)) return 2;
  std::printf("%s", render_blame_markdown(s).c_str());
  return 0;
}
