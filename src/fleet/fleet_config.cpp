#include "fleet/fleet_config.h"

#include <algorithm>
#include <cstdlib>

#include "core/file_io.h"
#include "core/json.h"

namespace ys::fleet {

namespace {

/// "50ms" / "2s" / "300us" / bare number (= ms) -> SimTime. Same grammar
/// the fault-plan parser uses, so soak boundaries and plan clauses read
/// identically.
bool parse_time(const std::string& text, SimTime& out) {
  if (text.empty()) return false;
  double scale = 1000.0;  // bare numbers are milliseconds
  std::string digits = text;
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return digits.size() > n &&
           digits.compare(digits.size() - n, n, suffix) == 0;
  };
  if (ends_with("us")) {
    scale = 1.0;
    digits.resize(digits.size() - 2);
  } else if (ends_with("ms")) {
    scale = 1000.0;
    digits.resize(digits.size() - 2);
  } else if (ends_with("s")) {
    scale = 1'000'000.0;
    digits.resize(digits.size() - 1);
  }
  char* end = nullptr;
  const double value = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str() || *end != '\0' || value < 0) return false;
  out = SimTime::from_us(static_cast<i64>(value * scale));
  return true;
}

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

bool parse_int(const std::string& text, int& out) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_share(const std::string& text, ShareMode& out) {
  if (text == "shared") {
    out = ShareMode::kShared;
  } else if (text == "per-client") {
    out = ShareMode::kPerClient;
  } else if (text == "cold") {
    out = ShareMode::kCold;
  } else {
    return false;
  }
  return true;
}

/// One soak phase "30s:rst-storm". The plan spec must not contain ':' or
/// ',' in the inline grammar, which every shipped name and "none" satisfy.
bool parse_soak_entry(const std::string& text, SoakPhase& out,
                      std::string& error) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    error = "soak phase '" + text + "' is not at:plan";
    return false;
  }
  if (!parse_time(text.substr(0, colon), out.at)) {
    error = "soak phase '" + text + "' has a bad time";
    return false;
  }
  out.spec = text.substr(colon + 1);
  if (out.spec == "none") return true;
  out.plan = faults::parse_fault_plan(out.spec, error);
  return error.empty();
}

bool apply_field(FleetConfig& cfg, const std::string& key,
                 const std::string& value, std::string& error) {
  bool ok = true;
  if (key == "clients") {
    ok = parse_int(value, cfg.clients) && cfg.clients > 0;
  } else if (key == "flows") {
    ok = parse_int(value, cfg.flows) && cfg.flows > 0;
  } else if (key == "servers") {
    ok = parse_int(value, cfg.servers) && cfg.servers > 0;
  } else if (key == "vantages") {
    ok = parse_int(value, cfg.vantages) && cfg.vantages >= 0;
  } else if (key == "arrival") {
    ok = parse_double(value, cfg.arrival_rate) && cfg.arrival_rate > 0;
  } else if (key == "churn") {
    ok = parse_double(value, cfg.churn) && cfg.churn >= 0 && cfg.churn <= 1;
  } else if (key == "share") {
    ok = parse_share(value, cfg.share);
  } else if (key == "seed") {
    char* end = nullptr;
    cfg.seed = std::strtoull(value.c_str(), &end, 10);
    ok = end != value.c_str() && *end == '\0';
  } else if (key == "soak") {
    std::string entry;
    std::vector<std::string> entries;
    for (char c : value) {
      if (c == ',') {
        entries.push_back(entry);
        entry.clear();
      } else {
        entry += c;
      }
    }
    if (!entry.empty()) entries.push_back(entry);
    for (const std::string& e : entries) {
      SoakPhase phase;
      if (!parse_soak_entry(e, phase, error)) return false;
      cfg.soak.push_back(std::move(phase));
    }
  } else {
    error = "unknown fleet field '" + key + "'";
    return false;
  }
  if (!ok) error = "bad fleet value '" + key + "=" + value + "'";
  return ok;
}

FleetConfig parse_json_config(const std::string& path, std::string& error) {
  FleetConfig cfg;
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    error = "cannot read fleet config file " + path;
    return cfg;
  }
  auto doc = json::parse(*text);
  if (!doc || !doc->is_object()) {
    error = "fleet config file " + path + " is not a JSON object";
    return cfg;
  }
  const auto num_field = [&](const char* key, auto apply) {
    if (const json::Value* v = doc->find(key); v != nullptr) {
      if (!v->is_number()) {
        error = std::string("fleet field '") + key + "' must be a number";
        return false;
      }
      apply(v->number);
    }
    return true;
  };
  if (!num_field("clients", [&](double v) { cfg.clients = static_cast<int>(v); }) ||
      !num_field("flows", [&](double v) { cfg.flows = static_cast<int>(v); }) ||
      !num_field("servers", [&](double v) { cfg.servers = static_cast<int>(v); }) ||
      !num_field("vantages", [&](double v) { cfg.vantages = static_cast<int>(v); }) ||
      !num_field("arrival", [&](double v) { cfg.arrival_rate = v; }) ||
      !num_field("churn", [&](double v) { cfg.churn = v; }) ||
      !num_field("seed", [&](double v) { cfg.seed = static_cast<u64>(v); })) {
    return cfg;
  }
  if (const json::Value* v = doc->find("share"); v != nullptr) {
    if (!v->is_string() || !parse_share(v->string, cfg.share)) {
      error = "fleet field 'share' must be shared | per-client | cold";
      return cfg;
    }
  }
  if (const json::Value* v = doc->find("soak"); v != nullptr) {
    if (!v->is_array()) {
      error = "fleet field 'soak' must be an array of {at, plan}";
      return cfg;
    }
    for (const json::Value& entry : v->array) {
      SoakPhase phase;
      const json::Value* at = entry.find("at");
      const json::Value* plan = entry.find("plan");
      if (at == nullptr || !at->is_string() ||
          !parse_time(at->string, phase.at) || plan == nullptr ||
          !plan->is_string()) {
        error = "soak entries need string fields 'at' and 'plan'";
        return cfg;
      }
      phase.spec = plan->string;
      if (phase.spec != "none") {
        // JSON soak entries may carry full inline clause specs — the ';'
        // and ',' separators are free here.
        phase.plan = faults::parse_fault_plan(phase.spec, error);
        if (!error.empty()) return cfg;
      }
      cfg.soak.push_back(std::move(phase));
    }
  }
  return cfg;
}

}  // namespace

const char* to_string(ShareMode mode) {
  switch (mode) {
    case ShareMode::kShared: return "shared";
    case ShareMode::kPerClient: return "per-client";
    case ShareMode::kCold: return "cold";
  }
  return "?";
}

std::string FleetConfig::summary() const {
  std::string out = std::to_string(clients) + " clients x " +
                    std::to_string(flows) + " flows, " +
                    std::to_string(servers) + " servers, " +
                    to_string(share) + " cache";
  if (!soak.empty()) {
    out += ", soak:";
    for (const SoakPhase& p : soak) {
      out += " " + std::to_string(p.at.us / 1'000'000) + "s:" + p.spec;
    }
  }
  return out;
}

std::string FleetConfig::signature() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "a=%g;c=%g", arrival_rate, churn);
  std::string out = "clients=" + std::to_string(clients) +
                    ";flows=" + std::to_string(flows) +
                    ";servers=" + std::to_string(servers) +
                    ";vantages=" + std::to_string(vantages) + ";" + buf +
                    ";share=" + to_string(share) +
                    ";seed=" + std::to_string(seed);
  for (const SoakPhase& p : soak) {
    out += ";soak=" + std::to_string(p.at.us) + ":" + p.spec;
  }
  return out;
}

FleetConfig parse_fleet_config(const std::string& spec, std::string& error) {
  error.clear();
  if (!spec.empty() && spec[0] == '@') {
    FleetConfig cfg = parse_json_config(spec.substr(1), error);
    if (error.empty()) {
      std::sort(cfg.soak.begin(), cfg.soak.end(),
                [](const SoakPhase& a, const SoakPhase& b) {
                  return a.at < b.at;
                });
    }
    return cfg;
  }
  FleetConfig cfg;
  std::string field;
  std::vector<std::string> fields;
  for (char c : spec) {
    if (c == ';') {
      fields.push_back(field);
      field.clear();
    } else if (c != ' ' && c != '\t') {
      field += c;
    }
  }
  if (!field.empty()) fields.push_back(field);
  for (const std::string& f : fields) {
    if (f.empty()) continue;
    const std::size_t eq = f.find('=');
    if (eq == std::string::npos) {
      error = "fleet field '" + f + "' is not key=value";
      return cfg;
    }
    if (!apply_field(cfg, f.substr(0, eq), f.substr(eq + 1), error)) {
      return cfg;
    }
  }
  std::sort(cfg.soak.begin(), cfg.soak.end(),
            [](const SoakPhase& a, const SoakPhase& b) { return a.at < b.at; });
  return cfg;
}

}  // namespace ys::fleet
