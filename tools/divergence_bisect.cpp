// Divergence bisector: where did two same-seed runs split, and whose
// fault was it?
//
// Input: two es2-hash-v1 JSON files exported with `--hash-epochs=<path>`
// (any bench) or harvested via `Testbed::hash_log()`. Each records, per
// epoch of simulated time, an FNV digest of every registered component
// plus the folded world digest. Two deterministic same-seed runs must
// produce identical series; when they do not, the first divergent epoch
// bounds the bug in time and the component column(s) whose digest split
// name the guilty subsystem — "cfs diverged at epoch 31 (t=310ms)" is a
// far smaller haystack than "the CSV differs".
//
// `--ignore=<component>` (repeatable) drops that column from both series
// before comparing, so `--ignore=sim` exits 0 exactly when every model
// component agrees in every epoch: the check for a change meant to move
// only the event kernel's own state (fewer live events).
//
// Exit codes: 0 = identical series, 1 = divergence found, 2 = usage or
// incomparable inputs (different epoch period / component sets).
//
// Usage: divergence_bisect A.json B.json [--quiet] [--ignore=<component>]...
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "snapshot/state_hash.h"

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

bool load_series(const char* path, HashSeries* out) {
  std::string text;
  if (!slurp(path, &text)) {
    std::fprintf(stderr, "divergence_bisect: cannot read %s\n", path);
    return false;
  }
  std::string error;
  if (!HashSeries::parse(text, out, &error)) {
    std::fprintf(stderr, "divergence_bisect: %s: %s\n", path, error.c_str());
    return false;
  }
  return true;
}

int usage(const char* bad) {
  if (bad != nullptr) {
    std::fprintf(stderr, "divergence_bisect: unexpected argument '%s'\n", bad);
  }
  std::fprintf(stderr,
               "usage: divergence_bisect A.json B.json [--quiet] "
               "[--ignore=<component>]...\n"
               "  A/B: es2-hash-v1 epoch-hash series "
               "(bench --hash-epochs=<path>)\n"
               "  --ignore: skip that component's column (repeatable)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path_a = nullptr;
  const char* path_b = nullptr;
  bool quiet = false;
  std::vector<std::string> ignore;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strncmp(argv[i], "--ignore=", 9) == 0 &&
               argv[i][9] != '\0') {
      ignore.emplace_back(argv[i] + 9);
    } else if (argv[i][0] == '-' || path_b != nullptr) {
      return usage(argv[i]);  // an unknown flag or a third operand
    } else {
      (path_a == nullptr ? path_a : path_b) = argv[i];
    }
  }
  if (path_b == nullptr) return usage(nullptr);

  HashSeries a, b;
  if (!load_series(path_a, &a) || !load_series(path_b, &b)) return 2;
  for (const std::string& name : ignore) {
    const auto has = [&name](const HashSeries& s) {
      return std::find(s.component_names.begin(), s.component_names.end(),
                       name) != s.component_names.end();
    };
    if (!has(a) && !has(b)) {
      std::fprintf(stderr, "divergence_bisect: no component '%s'\n",
                   name.c_str());
      return usage(nullptr);
    }
  }
  if (!ignore.empty()) {
    a = without_components(a, ignore);
    b = without_components(b, ignore);
  }

  const Divergence d = find_divergence(a, b);
  if (d.epoch == -2) {
    std::fprintf(stderr, "divergence_bisect: incomparable series: %s\n",
                 d.detail.c_str());
    return 2;
  }
  if (d.epoch == -1) {
    if (!quiet) {
      std::printf("identical: %s (%zu epochs x %zu components)\n",
                  d.detail.c_str(), a.entries.size(),
                  a.component_names.size());
    }
    return 0;
  }

  std::printf("DIVERGENCE at epoch %lld (t=%.3f ms): %s\n",
              static_cast<long long>(d.epoch),
              static_cast<double>(d.t) / 1e6, d.detail.c_str());
  if (!quiet) {
    for (const std::string& name : d.components) {
      std::printf("  component: %s\n", name.c_str());
    }
    if (d.epoch > 0) {
      std::printf("  last agreeing epoch: %lld (t=%.3f ms)\n",
                  static_cast<long long>(d.epoch - 1),
                  static_cast<double>(
                      a.entries[static_cast<std::size_t>(d.epoch - 1)].t) /
                      1e6);
    }
  }
  return 1;
}
