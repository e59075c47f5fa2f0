#include "faults/fault_plan.h"

#include <cstdio>
#include <cstdlib>

#include "core/file_io.h"
#include "core/json.h"

namespace ys::faults {

namespace {

std::string time_str(SimTime t) {
  char buf[32];
  if (t.us % 1'000'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%llds",
                  static_cast<long long>(t.us / 1'000'000));
  } else if (t.us % 1000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldms",
                  static_cast<long long>(t.us / 1000));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(t.us));
  }
  return buf;
}

std::string prob_str(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

/// "50ms" / "2s" / "300us" / bare number (= ms) -> SimTime.
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

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else if (c != ' ' && c != '\t') {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// One clause: "kind:key=value,key=value". Fields are collected into a
/// small key/value list the per-kind handlers read.
struct Clause {
  std::string kind;
  std::vector<std::pair<std::string, std::string>> fields;

  const std::string* find(const char* key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

bool parse_clause_text(const std::string& text, Clause& out,
                       std::string& error) {
  const std::size_t colon = text.find(':');
  out.kind = text.substr(0, colon);
  if (colon == std::string::npos) return true;  // bare kind, no fields
  for (const std::string& field : split(text.substr(colon + 1), ',')) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      error = "fault plan field '" + field + "' is not key=value";
      return false;
    }
    out.fields.emplace_back(field.substr(0, eq), field.substr(eq + 1));
  }
  return true;
}

bool clause_time(const Clause& c, const char* key, SimTime fallback,
                 SimTime& out, std::string& error) {
  const std::string* raw = c.find(key);
  if (raw == nullptr) {
    out = fallback;
    return true;
  }
  if (!parse_time(*raw, out)) {
    error = "fault plan: bad duration '" + *raw + "' for " + c.kind + ":" +
            key;
    return false;
  }
  return true;
}

bool clause_double(const Clause& c, const char* key, double fallback,
                   double& out, std::string& error) {
  const std::string* raw = c.find(key);
  if (raw == nullptr) {
    out = fallback;
    return true;
  }
  if (!parse_double(*raw, out)) {
    error = "fault plan: bad number '" + *raw + "' for " + c.kind + ":" + key;
    return false;
  }
  return true;
}

bool clause_int(const Clause& c, const char* key, int fallback, int& out,
                std::string& error) {
  const std::string* raw = c.find(key);
  if (raw == nullptr) {
    out = fallback;
    return true;
  }
  if (!parse_int(*raw, out)) {
    error = "fault plan: bad integer '" + *raw + "' for " + c.kind + ":" + key;
    return false;
  }
  return true;
}

bool apply_clause(const Clause& c, FaultPlan& plan, std::string& error) {
  if (c.kind == "loss") {
    LossBurst b;
    if (!clause_time(c, "at", SimTime::zero(), b.at, error) ||
        !clause_time(c, "dur", SimTime::from_sec(2), b.duration, error) ||
        !clause_double(c, "p", 0.2, b.p, error)) {
      return false;
    }
    plan.loss_bursts.push_back(b);
    return true;
  }
  if (c.kind == "dup") {
    return clause_double(c, "p", 0.05, plan.duplicate_p, error);
  }
  if (c.kind == "corrupt") {
    return clause_double(c, "p", 0.05, plan.corrupt_p, error);
  }
  if (c.kind == "reorder") {
    ReorderWindow w;
    SimTime delay;
    if (!clause_time(c, "at", SimTime::zero(), w.at, error) ||
        !clause_time(c, "dur", SimTime::from_sec(5), w.duration, error) ||
        !clause_time(c, "delay", SimTime::from_ms(6), delay, error)) {
      return false;
    }
    w.max_extra_delay_us = delay.us;
    plan.reorder_windows.push_back(w);
    return true;
  }
  if (c.kind == "rststorm") {
    RstStorm s;
    if (!clause_time(c, "at", SimTime::from_ms(30), s.at, error) ||
        !clause_time(c, "dur", SimTime::from_sec(3), s.duration, error) ||
        !clause_int(c, "pos", 1, s.position, error) ||
        !clause_double(c, "p", 0.3, s.per_packet, error)) {
      return false;
    }
    plan.rst_storms.push_back(s);
    return true;
  }
  if (c.kind == "gfwflap") {
    GfwFlap f;
    SimTime latency;
    if (!clause_time(c, "at", SimTime::zero(), f.at, error) ||
        !clause_time(c, "dur", SimTime::from_ms(150), f.duration, error) ||
        !clause_time(c, "latency", SimTime::zero(), latency, error)) {
      return false;
    }
    f.extra_latency_us = latency.us;
    // A latency flap is not an outage unless asked for explicitly.
    int outage = 0;
    if (!clause_int(c, "outage", f.extra_latency_us > 0 ? 0 : 1, outage,
                    error)) {
      return false;
    }
    f.outage = outage != 0;
    plan.gfw_flaps.push_back(f);
    return true;
  }
  if (c.kind == "pathflap") {
    PathFlap f;
    if (!clause_time(c, "at", SimTime::from_ms(60), f.at, error) ||
        !clause_int(c, "delta", 3, f.delta, error)) {
      return false;
    }
    plan.path_flaps.push_back(f);
    return true;
  }
  if (c.kind == "shard-kill" || c.kind == "shard-stall" ||
      c.kind == "shard-slow-heartbeat") {
    ShardChaos s;
    s.kind = c.kind == "shard-kill"
                 ? ShardChaos::Kind::kKill
                 : (c.kind == "shard-stall" ? ShardChaos::Kind::kStall
                                            : ShardChaos::Kind::kSlowHeartbeat);
    if (!clause_int(c, "shard", 0, s.shard, error) ||
        !clause_int(c, "after", -1, s.after, error) ||
        !clause_int(c, "attempts", 1, s.attempts, error) ||
        !clause_double(c, "factor", 4.0, s.factor, error)) {
      return false;
    }
    plan.shard_chaos.push_back(s);
    return true;
  }
  error = "fault plan: unknown clause kind '" + c.kind + "'";
  return false;
}

FaultPlan parse_inline(const std::string& spec, std::string& error) {
  FaultPlan plan;
  plan.name = "inline";
  for (const std::string& text : split(spec, ';')) {
    if (text.empty()) continue;
    Clause clause;
    if (!parse_clause_text(text, clause, error) ||
        !apply_clause(clause, plan, error)) {
      return FaultPlan{};
    }
  }
  if (plan.empty()) {
    error = "fault plan '" + spec + "' has no clauses";
    return FaultPlan{};
  }
  return plan;
}

/// JSON form: each clause array entry is an object with the same keys the
/// inline syntax uses; times are strings with suffixes or numbers (= ms).
bool json_time(const json::Value& obj, const char* key, SimTime fallback,
               SimTime& out, std::string& error) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    out = fallback;
    return true;
  }
  if (v->is_number()) {
    out = SimTime::from_us(static_cast<i64>(v->number * 1000.0));
    return true;
  }
  if (v->is_string() && parse_time(v->string, out)) return true;
  error = std::string("fault plan json: bad time for '") + key + "'";
  return false;
}

bool json_double(const json::Value& obj, const char* key, double fallback,
                 double& out) {
  const json::Value* v = obj.find(key);
  out = (v != nullptr && v->is_number()) ? v->number : fallback;
  return true;
}

FaultPlan parse_json(const std::string& path, std::string& error) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    error = "fault plan: cannot read '" + path + "'";
    return FaultPlan{};
  }
  const std::optional<json::Value> doc = json::parse(*text);
  if (!doc || !doc->is_object()) {
    error = "fault plan: '" + path + "' is not a JSON object";
    return FaultPlan{};
  }
  FaultPlan plan;
  plan.name = "file:" + path;
  if (const json::Value* v = doc->find("name"); v != nullptr && v->is_string())
    plan.name = v->string;
  if (const json::Value* arr = doc->find("loss_bursts");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& e : arr->array) {
      LossBurst b;
      if (!json_time(e, "at", SimTime::zero(), b.at, error) ||
          !json_time(e, "dur", SimTime::from_sec(2), b.duration, error))
        return FaultPlan{};
      json_double(e, "p", 0.2, b.p);
      plan.loss_bursts.push_back(b);
    }
  }
  json_double(*doc, "duplicate_p", 0.0, plan.duplicate_p);
  json_double(*doc, "corrupt_p", 0.0, plan.corrupt_p);
  if (const json::Value* arr = doc->find("reorder_windows");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& e : arr->array) {
      ReorderWindow w;
      SimTime delay;
      if (!json_time(e, "at", SimTime::zero(), w.at, error) ||
          !json_time(e, "dur", SimTime::from_sec(5), w.duration, error) ||
          !json_time(e, "delay", SimTime::from_ms(6), delay, error))
        return FaultPlan{};
      w.max_extra_delay_us = delay.us;
      plan.reorder_windows.push_back(w);
    }
  }
  if (const json::Value* arr = doc->find("rst_storms");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& e : arr->array) {
      RstStorm s;
      if (!json_time(e, "at", SimTime::from_ms(30), s.at, error) ||
          !json_time(e, "dur", SimTime::from_sec(3), s.duration, error))
        return FaultPlan{};
      if (const json::Value* v = e.find("pos"); v != nullptr && v->is_number())
        s.position = static_cast<int>(v->number);
      json_double(e, "p", 0.3, s.per_packet);
      plan.rst_storms.push_back(s);
    }
  }
  if (const json::Value* arr = doc->find("gfw_flaps");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& e : arr->array) {
      GfwFlap f;
      SimTime latency;
      if (!json_time(e, "at", SimTime::zero(), f.at, error) ||
          !json_time(e, "dur", SimTime::from_ms(150), f.duration, error) ||
          !json_time(e, "latency", SimTime::zero(), latency, error))
        return FaultPlan{};
      f.extra_latency_us = latency.us;
      const json::Value* v = e.find("outage");
      f.outage = v != nullptr ? (v->is_bool() ? v->boolean : v->number != 0)
                              : latency.us == 0;
      plan.gfw_flaps.push_back(f);
    }
  }
  if (const json::Value* arr = doc->find("path_flaps");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& e : arr->array) {
      PathFlap f;
      if (!json_time(e, "at", SimTime::from_ms(60), f.at, error))
        return FaultPlan{};
      if (const json::Value* v = e.find("delta");
          v != nullptr && v->is_number())
        f.delta = static_cast<int>(v->number);
      plan.path_flaps.push_back(f);
    }
  }
  if (const json::Value* arr = doc->find("shard_chaos");
      arr != nullptr && arr->is_array()) {
    for (const json::Value& e : arr->array) {
      ShardChaos s;
      const json::Value* kv = e.find("kind");
      const std::string kind =
          kv != nullptr && kv->is_string() ? kv->string : "kill";
      if (kind == "kill") {
        s.kind = ShardChaos::Kind::kKill;
      } else if (kind == "stall") {
        s.kind = ShardChaos::Kind::kStall;
      } else if (kind == "slow-heartbeat") {
        s.kind = ShardChaos::Kind::kSlowHeartbeat;
      } else {
        error = "fault plan json: bad shard_chaos kind '" + kind + "'";
        return FaultPlan{};
      }
      if (const json::Value* v = e.find("shard");
          v != nullptr && v->is_number())
        s.shard = static_cast<int>(v->number);
      if (const json::Value* v = e.find("after");
          v != nullptr && v->is_number())
        s.after = static_cast<int>(v->number);
      if (const json::Value* v = e.find("attempts");
          v != nullptr && v->is_number())
        s.attempts = static_cast<int>(v->number);
      json_double(e, "factor", 4.0, s.factor);
      plan.shard_chaos.push_back(s);
    }
  }
  if (plan.empty()) {
    error = "fault plan: '" + path + "' defines no faults";
    return FaultPlan{};
  }
  return plan;
}

std::vector<FaultPlan> build_shipped() {
  std::vector<FaultPlan> plans;
  std::string err;

  FaultPlan p = parse_inline("loss:at=50ms,dur=2s,p=0.25", err);
  p.name = "loss-burst";
  plans.push_back(p);

  p = parse_inline("dup:p=0.08;corrupt:p=0.05", err);
  p.name = "dup-corrupt";
  plans.push_back(p);

  p = parse_inline("reorder:at=0ms,dur=5s,delay=6ms", err);
  p.name = "reorder";
  plans.push_back(p);

  p = parse_inline("rststorm:at=30ms,dur=3s,pos=1,p=0.35", err);
  p.name = "rst-storm";
  plans.push_back(p);

  p = parse_inline("gfwflap:at=0ms,dur=150ms,outage=1", err);
  p.name = "gfw-flap";
  plans.push_back(p);

  p = parse_inline("pathflap:at=60ms,delta=3", err);
  p.name = "path-flap";
  plans.push_back(p);

  p = parse_inline(
      "loss:at=40ms,dur=1s,p=0.15;dup:p=0.04;"
      "reorder:at=0ms,dur=3s,delay=4ms;rststorm:at=30ms,dur=2s,pos=1,p=0.2;"
      "pathflap:at=80ms,delta=2",
      err);
  p.name = "chaos";
  plans.push_back(p);

  return plans;
}

}  // namespace

std::string FaultPlan::summary() const {
  std::string out = name + ":";
  for (const LossBurst& b : loss_bursts) {
    out += " loss@" + time_str(b.at) + "+" + time_str(b.duration) +
           " p=" + prob_str(b.p);
  }
  if (duplicate_p > 0) out += " dup=" + prob_str(duplicate_p);
  if (corrupt_p > 0) out += " corrupt=" + prob_str(corrupt_p);
  for (const ReorderWindow& w : reorder_windows) {
    out += " reorder@" + time_str(w.at) + "+" + time_str(w.duration) +
           " <=" + time_str(SimTime::from_us(w.max_extra_delay_us));
  }
  for (const RstStorm& s : rst_storms) {
    out += " rststorm@" + time_str(s.at) + "+" + time_str(s.duration) +
           " pos=" + std::to_string(s.position) + " p=" + prob_str(s.per_packet);
  }
  for (const GfwFlap& f : gfw_flaps) {
    out += " gfwflap@" + time_str(f.at) + "+" + time_str(f.duration) +
           (f.outage ? " outage"
                     : " +" + time_str(SimTime::from_us(f.extra_latency_us)));
  }
  for (const PathFlap& f : path_flaps) {
    out += " pathflap@" + time_str(f.at) +
           " delta=" + std::to_string(f.delta);
  }
  for (const ShardChaos& s : shard_chaos) {
    const char* kind = s.kind == ShardChaos::Kind::kKill
                           ? "shard-kill"
                           : (s.kind == ShardChaos::Kind::kStall
                                  ? "shard-stall"
                                  : "shard-slow-heartbeat");
    out += std::string(" ") + kind + "[shard=" + std::to_string(s.shard) +
           " after=" + (s.after < 0 ? "seeded" : std::to_string(s.after)) +
           " x" + std::to_string(s.attempts);
    if (s.kind == ShardChaos::Kind::kSlowHeartbeat) {
      out += " factor=" + prob_str(s.factor);
    }
    out += "]";
  }
  return out;
}

const std::vector<FaultPlan>& shipped_fault_plans() {
  static const std::vector<FaultPlan> plans = build_shipped();
  return plans;
}

const FaultPlan* find_shipped_plan(const std::string& name) {
  for (const FaultPlan& p : shipped_fault_plans()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

FaultPlan parse_fault_plan(const std::string& spec, std::string& error) {
  error.clear();
  if (spec.empty() || spec == "none") return FaultPlan{};
  if (const FaultPlan* shipped = find_shipped_plan(spec)) return *shipped;
  if (spec[0] == '@') return parse_json(spec.substr(1), error);
  if (spec.find(':') != std::string::npos) return parse_inline(spec, error);
  std::string names;
  for (const FaultPlan& p : shipped_fault_plans()) {
    if (!names.empty()) names += ", ";
    names += p.name;
  }
  error = "unknown fault plan '" + spec + "' (shipped: " + names +
          "; or inline clauses / @file.json)";
  return FaultPlan{};
}

}  // namespace ys::faults
