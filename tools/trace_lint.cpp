// trace_lint — validates Chrome trace-event JSON files emitted by
// obs::write_chrome_trace (and archived by the runner's flight recorder).
//
//   trace_lint FILE [FILE...]
//
// Checks, per file:
//   - the document parses as JSON and has a `traceEvents` array;
//   - every event is an object with a string `ph` and numeric `pid`/`tid`,
//     and every non-metadata event carries a numeric `ts`;
//   - `ts` is non-decreasing per (pid,tid) track over the `ph:"X"` slice
//     events (ring order is virtual-time order, so an exporter bug shows
//     up here immediately);
//   - every `args.caused_by` resolves to some event's `args.id`;
//   - every flow-finish (`ph:"f"`) has a matching flow-start (`ph:"s"`)
//     with the same `id`, and vice versa.
//
// Exit 0 iff every file passes; 1 on lint findings; 2 on usage/IO errors.
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/file_io.h"
#include "core/json.h"

namespace ys {
namespace {

struct Lint {
  const char* file;
  int findings = 0;

  void fail(std::size_t index, const std::string& what) {
    std::fprintf(stderr, "%s: event %zu: %s\n", file, index, what.c_str());
    ++findings;
  }
  void fail(const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", file, what.c_str());
    ++findings;
  }
};

int lint_file(const char* path) {
  const std::optional<std::string> file = read_file(path);
  if (!file) {
    std::fprintf(stderr, "%s: cannot read\n", path);
    return 2;
  }
  const std::string& text = *file;
  const auto doc = json::parse(text);
  Lint lint{path};
  if (!doc.has_value()) {
    lint.fail("not valid JSON");
    return 1;
  }
  const json::Value* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    lint.fail("missing traceEvents array");
    return 1;
  }

  std::set<double> ids;           // args.id values seen on any event
  std::set<double> flow_starts;   // ph:"s" ids
  std::set<double> flow_ends;     // ph:"f" ids
  std::map<std::pair<double, double>, double> last_ts;  // per (pid,tid), "X"

  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const json::Value& ev = events->array[i];
    if (!ev.is_object()) {
      lint.fail(i, "not an object");
      continue;
    }
    const json::Value* ph = ev.find("ph");
    const json::Value* pid = ev.find("pid");
    const json::Value* tid = ev.find("tid");
    if (ph == nullptr || !ph->is_string()) {
      lint.fail(i, "missing string ph");
      continue;
    }
    if (pid == nullptr || !pid->is_number() || tid == nullptr ||
        !tid->is_number()) {
      lint.fail(i, "missing numeric pid/tid");
      continue;
    }
    const json::Value* ts = ev.find("ts");
    if (ph->string != "M" && (ts == nullptr || !ts->is_number())) {
      lint.fail(i, "ph \"" + ph->string + "\" event without numeric ts");
      continue;
    }
    if (ph->string == "X") {
      const auto track = std::make_pair(pid->number, tid->number);
      auto it = last_ts.find(track);
      if (it != last_ts.end() && ts->number < it->second) {
        lint.fail(i, "ts went backwards on track (pid=" +
                         std::to_string(static_cast<long long>(pid->number)) +
                         ", tid=" +
                         std::to_string(static_cast<long long>(tid->number)) +
                         ")");
      }
      last_ts[track] = ts->number;
    }
    if (ph->string == "s" || ph->string == "f") {
      const json::Value* fid = ev.find("id");
      if (fid == nullptr || !fid->is_number()) {
        lint.fail(i, "flow event without numeric id");
        continue;
      }
      (ph->string == "s" ? flow_starts : flow_ends).insert(fid->number);
    }
    if (const json::Value* args = ev.find("args");
        args != nullptr && args->is_object()) {
      if (const json::Value* id = args->find("id");
          id != nullptr && id->is_number()) {
        ids.insert(id->number);
      }
    }
  }

  // Second pass: caused_by resolvability (all ids collected above).
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const json::Value& ev = events->array[i];
    const json::Value* args = ev.is_object() ? ev.find("args") : nullptr;
    if (args == nullptr || !args->is_object()) continue;
    const json::Value* cb = args->find("caused_by");
    if (cb == nullptr) continue;
    if (!cb->is_number()) {
      lint.fail(i, "args.caused_by is not a number");
    } else if (ids.count(cb->number) == 0) {
      lint.fail(i, "args.caused_by=" +
                       std::to_string(static_cast<long long>(cb->number)) +
                       " does not resolve to any args.id");
    }
  }
  for (double id : flow_ends) {
    if (flow_starts.count(id) == 0) {
      lint.fail("flow finish id=" +
                std::to_string(static_cast<long long>(id)) +
                " has no matching start");
    }
  }
  for (double id : flow_starts) {
    if (flow_ends.count(id) == 0) {
      lint.fail("flow start id=" +
                std::to_string(static_cast<long long>(id)) +
                " has no matching finish");
    }
  }

  if (lint.findings == 0) {
    std::printf("%s: ok (%zu events, %zu causal ids, %zu flows)\n", path,
                events->array.size(), ids.size(), flow_starts.size());
    return 0;
  }
  return 1;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: trace_lint FILE [FILE...]\n");
    return 2;
  }
  int worst = 0;
  for (int i = 1; i < argc; ++i) {
    worst = std::max(worst, lint_file(argv[i]));
  }
  return worst;
}

}  // namespace
}  // namespace ys

int main(int argc, char** argv) { return ys::run(argc, argv); }
