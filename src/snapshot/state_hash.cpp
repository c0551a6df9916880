#include "snapshot/state_hash.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "base/json.h"

namespace es2 {

namespace {

// 64-bit digests exceed double precision, so JSON carries them as
// fixed-width hex strings.
std::string hash_to_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

bool hex_to_hash(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9')
      digit = c - '0';
    else if (c >= 'a' && c <= 'f')
      digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F')
      digit = c - 'A' + 10;
    else
      return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = v;
  return true;
}

// World digest folded from (name, digest) pairs — identical to
// SnapshotWriter::world_hash over the same sections.
std::uint64_t fold_world(const std::vector<std::string>& names,
                         const std::vector<std::uint64_t>& components) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < components.size(); ++i) {
    h = fnv1a(names[i].data(), names[i].size(), h);
    h = fnv1a(&components[i], sizeof(components[i]), h);
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// WorldSnapshotter
// ---------------------------------------------------------------------------

void WorldSnapshotter::add(std::string name, const Snapshottable& component) {
#ifndef NDEBUG
  for (const Entry& e : components_) assert(e.name != name);
#endif
  components_.push_back(Entry{std::move(name), &component});
}

std::vector<std::string> WorldSnapshotter::names() const {
  std::vector<std::string> out;
  out.reserve(components_.size());
  for (const Entry& e : components_) out.push_back(e.name);
  return out;
}

void WorldSnapshotter::write(SnapshotWriter& w) const {
  for (const Entry& e : components_) {
    w.begin_section(e.name);
    e.component->snapshot_state(w);
  }
}

std::string WorldSnapshotter::serialize() const {
  scratch_.clear();
  write(scratch_);
  std::string bytes = scratch_.serialize();
  scratch_.clear();
  return bytes;
}

std::uint64_t WorldSnapshotter::world_hash() const {
  scratch_.clear();
  write(scratch_);
  const std::uint64_t h = scratch_.world_hash();
  scratch_.clear();
  return h;
}

std::vector<std::uint64_t> WorldSnapshotter::component_hashes() const {
  scratch_.clear();
  write(scratch_);
  std::vector<std::uint64_t> out;
  out.reserve(components_.size());
  for (std::size_t i = 0; i < scratch_.sections().size(); ++i)
    out.push_back(scratch_.section_hash(i));
  scratch_.clear();
  return out;
}

// ---------------------------------------------------------------------------
// HashSeries <-> es2-hash-v1 JSON
// ---------------------------------------------------------------------------

Json HashSeries::to_json() const {
  Json doc = Json::object();
  doc.set("schema", Json::string("es2-hash-v1"));
  doc.set("seed", Json::number(static_cast<double>(seed)));
  doc.set("epoch_ns", Json::number(static_cast<double>(epoch)));
  Json comps = Json::array();
  for (const std::string& name : component_names)
    comps.push_back(Json::string(name));
  doc.set("components", std::move(comps));
  Json epochs = Json::array();
  for (const EpochHash& e : entries) {
    Json row = Json::object();
    row.set("t", Json::number(static_cast<double>(e.t)));
    row.set("world", Json::string(hash_to_hex(e.world)));
    Json comp = Json::array();
    for (std::uint64_t h : e.components)
      comp.push_back(Json::string(hash_to_hex(h)));
    row.set("comp", std::move(comp));
    epochs.push_back(std::move(row));
  }
  doc.set("epochs", std::move(epochs));
  return doc;
}

std::string HashSeries::to_json_text() const { return to_json().dump(2); }

bool HashSeries::from_json(const Json& doc, HashSeries* out,
                           std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!doc.is_object()) return fail("not a JSON object");
  if (doc.string_or("schema", "") != "es2-hash-v1")
    return fail("unsupported schema: expected es2-hash-v1");
  out->seed = static_cast<std::uint64_t>(doc.number_or("seed", 0));
  out->epoch = static_cast<SimDuration>(doc.number_or("epoch_ns", 0));
  out->component_names.clear();
  out->entries.clear();
  const Json* comps = doc.find("components");
  if (comps == nullptr || !comps->is_array())
    return fail("missing components array");
  for (std::size_t i = 0; i < comps->size(); ++i) {
    if (!comps->at(i).is_string()) return fail("non-string component name");
    out->component_names.push_back(comps->at(i).as_string());
  }
  const Json* epochs = doc.find("epochs");
  if (epochs == nullptr || !epochs->is_array())
    return fail("missing epochs array");
  for (std::size_t i = 0; i < epochs->size(); ++i) {
    const Json& row = epochs->at(i);
    if (!row.is_object()) return fail("epoch entry is not an object");
    EpochHash e;
    e.t = static_cast<SimTime>(row.number_or("t", 0));
    if (!hex_to_hash(row.string_or("world", ""), &e.world))
      return fail("bad world hash in epoch entry");
    const Json* comp = row.find("comp");
    if (comp == nullptr || !comp->is_array())
      return fail("missing comp array in epoch entry");
    if (comp->size() != out->component_names.size())
      return fail("comp array length does not match components");
    for (std::size_t j = 0; j < comp->size(); ++j) {
      std::uint64_t h = 0;
      if (!comp->at(j).is_string() || !hex_to_hash(comp->at(j).as_string(), &h))
        return fail("bad component hash in epoch entry");
      e.components.push_back(h);
    }
    out->entries.push_back(std::move(e));
  }
  return true;
}

bool HashSeries::parse(const std::string& text, HashSeries* out,
                       std::string* error) {
  Json doc;
  if (!Json::parse(text, &doc, error)) return false;
  return from_json(doc, out, error);
}

// ---------------------------------------------------------------------------
// Divergence
// ---------------------------------------------------------------------------

Divergence find_divergence(const HashSeries& a, const HashSeries& b) {
  Divergence d;
  if (a.epoch != b.epoch) {
    d.epoch = -2;
    d.detail = "series not comparable: epoch periods differ (" +
               std::to_string(a.epoch) + "ns vs " + std::to_string(b.epoch) +
               "ns)";
    return d;
  }
  if (a.component_names != b.component_names) {
    d.epoch = -2;
    d.detail = "series not comparable: component sets differ";
    return d;
  }
  if (a.seed != b.seed) {
    // Different seeds diverge by construction; still useful, but flag it.
    d.detail = "note: seeds differ (" + std::to_string(a.seed) + " vs " +
               std::to_string(b.seed) + "); ";
  }
  const std::size_t n = std::min(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < n; ++i) {
    const EpochHash& ea = a.entries[i];
    const EpochHash& eb = b.entries[i];
    if (ea.world == eb.world) continue;
    d.epoch = static_cast<std::int64_t>(i);
    d.t = ea.t;
    for (std::size_t j = 0; j < ea.components.size(); ++j) {
      if (ea.components[j] != eb.components[j])
        d.components.push_back(a.component_names[j]);
    }
    d.detail += "first divergence at epoch " + std::to_string(i) + " (t=" +
                std::to_string(ea.t) + "ns)";
    if (!d.components.empty()) {
      d.detail += ", components: ";
      for (std::size_t j = 0; j < d.components.size(); ++j) {
        if (j > 0) d.detail += ", ";
        d.detail += d.components[j];
      }
    } else {
      d.detail += " (world hash differs but no component digest does; "
                  "component set changed mid-run?)";
    }
    return d;
  }
  if (a.entries.size() != b.entries.size()) {
    d.epoch = static_cast<std::int64_t>(n);
    d.t = n < a.entries.size() ? a.entries[n].t : b.entries[n].t;
    d.detail += "runs agree for " + std::to_string(n) +
                " epochs, then one run ends early (" +
                std::to_string(a.entries.size()) + " vs " +
                std::to_string(b.entries.size()) + " epochs)";
    return d;
  }
  d.detail += "no divergence across " + std::to_string(n) + " epochs";
  return d;
}

HashSeries without_components(const HashSeries& s,
                              const std::vector<std::string>& names) {
  std::vector<std::size_t> keep;
  HashSeries out;
  out.seed = s.seed;
  out.epoch = s.epoch;
  for (std::size_t j = 0; j < s.component_names.size(); ++j) {
    if (std::find(names.begin(), names.end(), s.component_names[j]) ==
        names.end()) {
      keep.push_back(j);
      out.component_names.push_back(s.component_names[j]);
    }
  }
  for (const EpochHash& e : s.entries) {
    EpochHash kept;
    kept.t = e.t;
    for (std::size_t j : keep) kept.components.push_back(e.components[j]);
    kept.world = fold_world(out.component_names, kept.components);
    out.entries.push_back(std::move(kept));
  }
  return out;
}

// ---------------------------------------------------------------------------
// EpochHashLog
// ---------------------------------------------------------------------------

EpochHashLog::EpochHashLog(const WorldSnapshotter& world,
                           SnapshotOptions options, std::uint64_t seed)
    : world_(world), options_(options) {
  series_.seed = seed;
  series_.epoch = options_.epoch;
  series_.component_names = world_.names();
}

void EpochHashLog::record(SimTime now) {
  if (series_.entries.size() >= options_.max_epochs) return;
  EpochHash e;
  e.t = now;
  e.components = world_.component_hashes();
  e.world = fold_world(series_.component_names, e.components);
  series_.entries.push_back(std::move(e));
}

std::uint64_t EpochHashLog::last_world_hash() const {
  if (series_.entries.empty()) return 0;
  return series_.entries.back().world;
}

}  // namespace es2
