#include "obs/export.h"

#include <cstdio>

#include "core/file_io.h"
#include "core/json.h"

namespace ys::obs {

std::string to_table(const Snapshot& snap) {
  std::string out;
  char line[160];
  for (const auto& [name, value] : snap.counters) {
    std::snprintf(line, sizeof(line), "%-44s counter   %12llu\n",
                  name.c_str(), static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : snap.gauges) {
    std::snprintf(line, sizeof(line), "%-44s gauge     %12.3f\n",
                  name.c_str(), value);
    out += line;
  }
  for (const auto& [name, h] : snap.histograms) {
    std::snprintf(line, sizeof(line),
                  "%-44s histogram %12llu  sum=%.1f  p50=%.1f  p95=%.1f  "
                  "p99=%.1f\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.sum, h.percentile(0.50), h.percentile(0.95),
                  h.percentile(0.99));
    out += line;
  }
  return out;
}

std::string to_json(const Snapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_string(out, name);
    out += ": ";
    json::append_uint(out, value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_string(out, name);
    out += ": ";
    json::append_number(out, value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_string(out, name);
    out += ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      json::append_number(out, h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      json::append_uint(out, h.counts[i]);
    }
    out += "], \"count\": ";
    json::append_uint(out, h.count);
    out += ", \"sum\": ";
    json::append_number(out, h.sum);
    out += '}';
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool write_metrics_out(const std::string& path) {
  if (path.empty()) return true;
  const std::string json = to_json(MetricsRegistry::global().snapshot()) + '\n';
  const bool ok = path == "-"
                      ? std::fwrite(json.data(), 1, json.size(), stdout) ==
                            json.size()
                      : write_file(path, json);
  if (!ok) {
    std::fprintf(stderr, "cannot write --metrics-out file %s\n", path.c_str());
  }
  return ok;
}

bool OutputFlags::parse(std::string_view arg) {
  const auto take = [arg](std::string_view flag, std::string& field) {
    if (arg.substr(0, flag.size()) != flag) return false;
    field = arg.substr(flag.size());
    return true;
  };
  return take("--metrics-out=", metrics_out) ||
         take("--timeline-out=", timeline_out) ||
         take("--timeline-csv=", timeline_csv);
}

}  // namespace ys::obs
