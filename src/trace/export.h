// Trace exporters: Perfetto/chrome://tracing JSON and a compact binary
// format with a reader.
//
// The JSON form targets ui.perfetto.dev / chrome://tracing directly:
// records become instant events on (vm, vcpu) tracks and journeys become
// async begin/end pairs, so a kick->EOI path reads as one horizontal bar.
// The binary form is fixed-width little-endian — 24 bytes per record after
// a 16-byte header — and is what the determinism tests compare: two runs
// are byte-identical iff their binary traces are.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/journey.h"
#include "trace/trace.h"

namespace es2 {

/// A generic duration slice other layers (the profiler) can hand to the
/// Perfetto exporter so their scopes render next to the journey bars.
/// Slices draw as complete ("X") events on a dedicated profiler pid with
/// one tid lane per `track`.
struct PerfettoSlice {
  std::string name;
  int track = 0;
  SimTime begin = 0;
  SimTime end = 0;
};

/// Chrome trace-event JSON ("traceEvents" array). `journeys` adds async
/// bars on top of the instant records, one per journey that reached its
/// EOI; pass an empty vector to export records only. `extra_slices`
/// appends duration events from outside the tracer (profiler component
/// scopes).
std::string to_perfetto_json(const std::vector<TraceRecord>& records,
                             const std::vector<Journey>& journeys = {},
                             const std::vector<PerfettoSlice>& extra_slices = {});

/// Compact binary form: "ES2T" magic, u32 version, u64 record count, then
/// 24 bytes per record, everything little-endian regardless of host.
std::string to_binary(const std::vector<TraceRecord>& records);

/// Parses `data` produced by to_binary. Returns false (leaving `out`
/// empty) on bad magic, version or truncation.
bool read_binary(const std::string& data, std::vector<TraceRecord>* out);

/// Writes `data` to `path` (binary mode). Returns false on I/O failure.
bool write_file(const std::string& path, const std::string& data);

/// Reads all of `path` into `out`. Returns false on I/O failure.
bool read_file(const std::string& path, std::string* out);

/// Strict structural JSON check (objects/arrays/strings/numbers/bools/
/// null, full-input consumption). No external dependency; used by smoke
/// tests to assert exported traces parse.
bool json_valid(const std::string& text);

}  // namespace es2
