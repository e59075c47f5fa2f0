#include "obs/perf.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include "core/file_io.h"
#include "core/json.h"
#include "obs/export.h"

namespace ys::obs::perf {

namespace {

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::kHigherIsBetter: return "higher";
    case Direction::kLowerIsBetter: return "lower";
    case Direction::kInfo: return "info";
  }
  return "info";
}

std::optional<Direction> direction_from(const std::string& s) {
  if (s == "higher") return Direction::kHigherIsBetter;
  if (s == "lower") return Direction::kLowerIsBetter;
  if (s == "info") return Direction::kInfo;
  return std::nullopt;
}

/// Rebuild a Snapshot from the parsed "snapshot" member (the obs::to_json
/// layout). Unknown members are ignored so the reader stays compatible
/// with additive exporter changes.
Snapshot snapshot_from(const json::Value& v) {
  Snapshot snap;
  if (const json::Value* counters = v.find("counters")) {
    for (const auto& [name, val] : counters->object) {
      if (val.is_number()) snap.counters[name] = static_cast<u64>(val.number);
    }
  }
  if (const json::Value* gauges = v.find("gauges")) {
    for (const auto& [name, val] : gauges->object) {
      if (val.is_number()) snap.gauges[name] = val.number;
    }
  }
  if (const json::Value* hists = v.find("histograms")) {
    for (const auto& [name, val] : hists->object) {
      HistogramSnapshot h;
      if (const json::Value* b = val.find("bounds")) {
        for (const auto& e : b->array) h.bounds.push_back(e.number);
      }
      if (const json::Value* c = val.find("counts")) {
        for (const auto& e : c->array) h.counts.push_back(static_cast<u64>(e.number));
      }
      if (const json::Value* c = val.find("count")) h.count = static_cast<u64>(c->number);
      if (const json::Value* s = val.find("sum")) h.sum = s->number;
      snap.histograms[name] = std::move(h);
    }
  }
  return snap;
}

}  // namespace

BenchReport make_report(const std::string& name) {
  BenchReport r;
  r.name = name;
#if defined(__linux__)
  r.env["os"] = "linux";
#elif defined(__APPLE__)
  r.env["os"] = "darwin";
#else
  r.env["os"] = "other";
#endif
#if defined(__aarch64__)
  r.env["arch"] = "aarch64";
#elif defined(__x86_64__)
  r.env["arch"] = "x86_64";
#else
  r.env["arch"] = "other";
#endif
#if defined(__clang__)
  r.env["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  r.env["compiler"] = std::string("gcc ") + __VERSION__;
#else
  r.env["compiler"] = "unknown";
#endif
#if defined(NDEBUG)
  r.env["build"] = "release";
#else
  r.env["build"] = "debug";
#endif
  std::string san;
#if defined(__SANITIZE_ADDRESS__)
  san += "+asan";
#endif
#if defined(__SANITIZE_THREAD__)
  san += "+tsan";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  san += "+asan";
#endif
#if __has_feature(thread_sanitizer)
  san += "+tsan";
#endif
#endif
  r.env["sanitizer"] = san.empty() ? "none" : san.substr(1);
#if defined(YS_OBS_DISABLE)
  r.env["obs"] = "compiled-out";
#else
  r.env["obs"] = "enabled";
#endif
  r.env["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  // Wall-clock creation stamp lives in config (a number), not env, so the
  // env-mismatch caveat in diffs never fires on it.
  r.config["created_unix"] =
      static_cast<double>(std::time(nullptr));
  return r;
}

std::string BenchReport::to_json() const {
  std::string out = "{\n";
  out += "  \"schema\": " + std::to_string(schema) + ",\n";
  out += "  \"name\": " + json::quote(name) + ",\n";

  out += "  \"env\": {";
  bool first = true;
  for (const auto& [k, v] : env) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json::quote(k) + ": " + json::quote(v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"config\": {";
  first = true;
  for (const auto& [k, v] : config) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json::quote(k) + ": " + json::number(v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"wall_seconds\": " + json::number(wall_seconds) + ",\n";

  out += "  \"metrics\": {";
  first = true;
  for (const auto& [k, m] : metrics) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json::quote(k) + ": {\"value\": " +
           json::number(m.value) + ", \"unit\": " + json::quote(m.unit) +
           ", \"better\": \"" + direction_name(m.direction) + "\"}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"phases\": [";
  first = true;
  for (const auto& p : phases) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": " + json::quote(p.name) +
           ", \"count\": " + std::to_string(p.count) +
           ", \"wall_us\": " + json::number(p.wall_us) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  // Splice the canonical snapshot document in as-is: its own pretty
  // indentation nests oddly but the result is valid JSON, and the two
  // writers can never drift apart.
  std::string snap_json = obs::to_json(snapshot);
  while (!snap_json.empty() &&
         (snap_json.back() == '\n' || snap_json.back() == ' ')) {
    snap_json.pop_back();
  }
  out += "  \"snapshot\": " + snap_json + "\n";
  out += "}\n";
  return out;
}

std::optional<BenchReport> BenchReport::from_json(const std::string& text,
                                                  std::string* error) {
  const auto fail = [error](const char* why) -> std::optional<BenchReport> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::optional<json::Value> doc = json::parse(text);
  if (!doc || !doc->is_object()) return fail("not a JSON object");
  const json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_number()) {
    return fail("missing \"schema\"");
  }
  BenchReport r;
  r.schema = static_cast<int>(schema->number);
  if (r.schema < 1 || r.schema > kSchema) {
    return fail("unsupported schema version (report from a newer build?)");
  }
  const json::Value* name = doc->find("name");
  if (name == nullptr || !name->is_string()) return fail("missing \"name\"");
  r.name = name->string;
  if (const json::Value* env = doc->find("env")) {
    for (const auto& [k, v] : env->object) {
      if (v.is_string()) r.env[k] = v.string;
    }
  }
  if (const json::Value* cfg = doc->find("config")) {
    for (const auto& [k, v] : cfg->object) {
      if (v.is_number()) r.config[k] = v.number;
    }
  }
  if (const json::Value* w = doc->find("wall_seconds")) {
    if (!w->is_number()) return fail("\"wall_seconds\" is not a number");
    r.wall_seconds = w->number;
  }
  const json::Value* metrics = doc->find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return fail("missing \"metrics\"");
  }
  for (const auto& [k, v] : metrics->object) {
    const json::Value* value = v.find("value");
    const json::Value* unit = v.find("unit");
    const json::Value* better = v.find("better");
    if (value == nullptr || !value->is_number() || better == nullptr ||
        !better->is_string()) {
      return fail("malformed metric entry");
    }
    const auto dir = direction_from(better->string);
    if (!dir) return fail("unknown metric direction");
    MetricValue m;
    m.value = value->number;
    m.unit = unit != nullptr && unit->is_string() ? unit->string : "";
    m.direction = *dir;
    r.metrics[k] = std::move(m);
  }
  if (const json::Value* phases = doc->find("phases")) {
    for (const auto& p : phases->array) {
      PhaseTotal pt;
      const json::Value* pn = p.find("name");
      if (pn == nullptr || !pn->is_string()) return fail("malformed phase");
      pt.name = pn->string;
      if (const json::Value* c = p.find("count")) {
        pt.count = static_cast<u64>(c->number);
      }
      if (const json::Value* w = p.find("wall_us")) pt.wall_us = w->number;
      r.phases.push_back(std::move(pt));
    }
  }
  if (const json::Value* snap = doc->find("snapshot")) {
    r.snapshot = snapshot_from(*snap);
  }
  return r;
}

bool BenchReport::write(const std::string& path) const {
  return write_file(path, to_json());
}

std::optional<BenchReport> BenchReport::load(const std::string& path,
                                             std::string* error) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  auto report = from_json(*text, error);
  if (!report && error != nullptr) *error = path + ": " + *error;
  return report;
}

// ------------------------------------------------------------------ diff

const char* to_string(DiffStatus s) {
  switch (s) {
    case DiffStatus::kOk: return "ok";
    case DiffStatus::kImproved: return "IMPROVED";
    case DiffStatus::kRegressed: return "REGRESSED";
    case DiffStatus::kInfo: return "info";
    case DiffStatus::kMissingOld: return "new metric";
    case DiffStatus::kMissingNew: return "MISSING";
  }
  return "?";
}

DiffResult diff_reports(const BenchReport& old_report,
                        const BenchReport& new_report, double tolerance) {
  return diff_reports(old_report, new_report, tolerance, {});
}

DiffResult diff_reports(
    const BenchReport& old_report, const BenchReport& new_report,
    double tolerance,
    const std::map<std::string, double>& tolerance_overrides) {
  DiffResult res;
  for (const auto& [key, value] : old_report.env) {
    auto it = new_report.env.find(key);
    if (it != new_report.env.end() && it->second != value) {
      res.env_mismatches.push_back(key + ": " + value + " -> " + it->second);
    }
  }

  for (const auto& [name, old_m] : old_report.metrics) {
    DiffRow row;
    row.metric = name;
    row.unit = old_m.unit;
    row.direction = old_m.direction;
    row.old_value = old_m.value;
    auto it = new_report.metrics.find(name);
    if (it == new_report.metrics.end()) {
      row.status = old_m.direction == Direction::kInfo ? DiffStatus::kInfo
                                                       : DiffStatus::kMissingNew;
      if (row.status == DiffStatus::kMissingNew) ++res.regressions;
      res.rows.push_back(std::move(row));
      continue;
    }
    row.new_value = it->second.value;
    row.delta = old_m.value != 0.0
                    ? (row.new_value - row.old_value) / std::fabs(row.old_value)
                    : 0.0;
    if (old_m.direction == Direction::kInfo) {
      row.status = DiffStatus::kInfo;
    } else {
      const auto override_it = tolerance_overrides.find(name);
      const double band = override_it != tolerance_overrides.end()
                              ? override_it->second
                              : tolerance;
      row.tolerance = band;
      // Signed "goodness": positive = moved in the good direction.
      const double gain = old_m.direction == Direction::kHigherIsBetter
                              ? row.delta
                              : -row.delta;
      if (gain < -band) {
        row.status = DiffStatus::kRegressed;
        ++res.regressions;
      } else if (gain > band) {
        row.status = DiffStatus::kImproved;
        ++res.improvements;
      } else {
        row.status = DiffStatus::kOk;
      }
    }
    res.rows.push_back(std::move(row));
  }
  // Metrics the new report added: shown, never gated.
  for (const auto& [name, new_m] : new_report.metrics) {
    if (old_report.metrics.find(name) != old_report.metrics.end()) continue;
    DiffRow row;
    row.metric = name;
    row.unit = new_m.unit;
    row.direction = new_m.direction;
    row.new_value = new_m.value;
    row.status = DiffStatus::kMissingOld;
    res.rows.push_back(std::move(row));
  }
  std::sort(res.rows.begin(), res.rows.end(),
            [](const DiffRow& a, const DiffRow& b) { return a.metric < b.metric; });
  return res;
}

std::string DiffResult::to_json() const {
  std::string out = "{\n";
  out += "  \"regressions\": " + std::to_string(regressions) + ",\n";
  out += "  \"improvements\": " + std::to_string(improvements) + ",\n";
  out += std::string("  \"ok\": ") + (ok() ? "true" : "false") + ",\n";
  out += "  \"env_mismatches\": [";
  for (std::size_t i = 0; i < env_mismatches.size(); ++i) {
    if (i != 0) out += ", ";
    json::append_string(out, env_mismatches[i]);
  }
  out += "],\n";
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DiffRow& row = rows[i];
    out += "    {\"metric\": " + json::quote(row.metric) + ", \"unit\": " +
           json::quote(row.unit) + ", \"direction\": \"" +
           direction_name(row.direction) + "\", \"old\": " +
           json::number(row.old_value) + ", \"new\": " +
           json::number(row.new_value) + ", \"delta\": " +
           json::number(row.delta) + ", \"tolerance\": " +
           json::number(row.tolerance) + ", \"status\": \"" +
           to_string(row.status) + "\"}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string DiffResult::render() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %14s %14s %9s  %s\n", "metric",
                "old", "new", "delta", "status");
  out += line;
  for (const DiffRow& row : rows) {
    char old_buf[32] = "-";
    char new_buf[32] = "-";
    char delta_buf[32] = "-";
    if (row.status != DiffStatus::kMissingOld) {
      std::snprintf(old_buf, sizeof(old_buf), "%.6g", row.old_value);
    }
    if (row.status != DiffStatus::kMissingNew) {
      std::snprintf(new_buf, sizeof(new_buf), "%.6g", row.new_value);
    }
    if (row.status != DiffStatus::kMissingOld &&
        row.status != DiffStatus::kMissingNew) {
      std::snprintf(delta_buf, sizeof(delta_buf), "%+.1f%%", row.delta * 100.0);
    }
    const std::string label =
        row.metric + (row.unit.empty() ? "" : " (" + row.unit + ")");
    std::snprintf(line, sizeof(line), "%-28s %14s %14s %9s  %s\n",
                  label.c_str(), old_buf, new_buf, delta_buf,
                  to_string(row.status));
    out += line;
  }
  if (!env_mismatches.empty()) {
    out += "note: environments differ — wall-time comparisons are only "
           "indicative:\n";
    for (const std::string& m : env_mismatches) out += "  " + m + "\n";
  }
  char tail[128];
  std::snprintf(tail, sizeof(tail), "%d regression(s), %d improvement(s)\n",
                regressions, improvements);
  out += tail;
  return out;
}

}  // namespace ys::obs::perf
