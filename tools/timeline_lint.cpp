// timeline_lint — validates "ys.timeline.v1" JSON files emitted by
// obs::write_timeline_json (bench --timeline-out, yourstate fleet/search
// --timeline-out), and optionally an HTML report built from them.
//
//   timeline_lint [--html=REPORT.html] FILE [FILE...]
//
// Checks, per timeline file:
//   - the document parses as JSON with schema "ys.timeline.v1" and a
//     positive numeric bucket_us;
//   - every series has a non-empty name, an object of string labels, a
//     kind of "counter" or "gauge", and a points array;
//   - no two series share a (name, labels) identity;
//   - per series, bucket indices are strictly increasing (the exporter
//     walks a sorted map — anything else is an exporter bug), every point
//     has count >= 1, min <= max, and min*count <= sum <= max*count;
//   - annotations are {bucket, category, text} with non-decreasing
//     buckets (they serialize from a sorted set).
//
// With --html=FILE, additionally checks the report is self-contained SVG
// (contains "<svg") and that every series its embedded
// `timeline-manifest` lists exists in at least one of the given timeline
// files — the report never charts a series that was not recorded.
//
// Exit 0 iff everything passes; 1 on lint findings; 2 on usage/IO errors.
#include <cmath>
#include <cstdio>
#include <cstring>
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

  void fail(const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", file, what.c_str());
    ++findings;
  }
};

bool is_int(const json::Value* v) {
  return v != nullptr && v->is_number() &&
         v->number == std::floor(v->number);
}

int lint_file(const char* path, std::set<std::string>& all_series_names) {
  const std::optional<std::string> file = read_file(path);
  if (!file) {
    std::fprintf(stderr, "%s: cannot read\n", path);
    return 2;
  }
  const std::string& text = *file;
  const auto doc = json::parse(text);
  Lint lint{path};
  if (!doc.has_value() || !doc->is_object()) {
    lint.fail("not a JSON object");
    return 1;
  }
  const json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "ys.timeline.v1") {
    lint.fail("schema is not \"ys.timeline.v1\"");
    return 1;
  }
  const json::Value* bucket_us = doc->find("bucket_us");
  if (!is_int(bucket_us) || bucket_us->number <= 0) {
    lint.fail("bucket_us missing or not a positive integer");
  }

  const json::Value* series = doc->find("series");
  if (series == nullptr || !series->is_array()) {
    lint.fail("series missing or not an array");
    return 1;
  }
  std::set<std::string> identities;  // "name|k=v|k=v" duplicate guard
  std::size_t points_total = 0;
  for (std::size_t i = 0; i < series->array.size(); ++i) {
    const json::Value& s = series->array[i];
    const std::string where = "series " + std::to_string(i);
    if (!s.is_object()) {
      lint.fail(where + ": not an object");
      continue;
    }
    const json::Value* name = s.find("name");
    if (name == nullptr || !name->is_string() || name->string.empty()) {
      lint.fail(where + ": name missing or empty");
      continue;
    }
    const std::string tag = where + " (" + name->string + ")";
    all_series_names.insert(name->string);

    std::string identity = name->string;
    const json::Value* labels = s.find("labels");
    if (labels == nullptr || !labels->is_object()) {
      lint.fail(tag + ": labels missing or not an object");
    } else {
      for (const auto& [k, v] : labels->object) {
        if (!v.is_string()) {
          lint.fail(tag + ": label \"" + k + "\" is not a string");
        } else {
          identity += "|" + k + "=" + v.string;
        }
      }
    }
    if (!identities.insert(identity).second) {
      lint.fail(tag + ": duplicate (name, labels) identity");
    }

    const json::Value* kind = s.find("kind");
    if (kind == nullptr || !kind->is_string() ||
        (kind->string != "counter" && kind->string != "gauge")) {
      lint.fail(tag + ": kind must be \"counter\" or \"gauge\"");
    }

    const json::Value* points = s.find("points");
    if (points == nullptr || !points->is_array()) {
      lint.fail(tag + ": points missing or not an array");
      continue;
    }
    bool have_prev = false;
    double prev_bucket = 0;
    for (std::size_t j = 0; j < points->array.size(); ++j) {
      const json::Value& p = points->array[j];
      const std::string pw = tag + ", point " + std::to_string(j);
      if (!p.is_object()) {
        lint.fail(pw + ": not an object");
        continue;
      }
      const json::Value* bucket = p.find("bucket");
      const json::Value* sum = p.find("sum");
      const json::Value* count = p.find("count");
      const json::Value* min = p.find("min");
      const json::Value* max = p.find("max");
      if (!is_int(bucket) || !is_int(sum) || !is_int(count) || !is_int(min) ||
          !is_int(max)) {
        lint.fail(pw + ": bucket/sum/count/min/max must be integers");
        continue;
      }
      ++points_total;
      if (have_prev && bucket->number <= prev_bucket) {
        lint.fail(pw + ": bucket " +
                  std::to_string(static_cast<long long>(bucket->number)) +
                  " not strictly increasing");
      }
      have_prev = true;
      prev_bucket = bucket->number;
      if (count->number < 1) {
        lint.fail(pw + ": count < 1 (empty buckets must be absent)");
      }
      if (min->number > max->number) {
        lint.fail(pw + ": min > max");
      }
      if (sum->number < min->number * count->number ||
          sum->number > max->number * count->number) {
        lint.fail(pw + ": sum outside [min*count, max*count]");
      }
    }
  }

  std::size_t ann_count = 0;
  if (const json::Value* annotations = doc->find("annotations");
      annotations != nullptr) {
    if (!annotations->is_array()) {
      lint.fail("annotations is not an array");
    } else {
      bool have_prev = false;
      double prev_bucket = 0;
      for (std::size_t i = 0; i < annotations->array.size(); ++i) {
        const json::Value& a = annotations->array[i];
        const std::string where = "annotation " + std::to_string(i);
        if (!a.is_object()) {
          lint.fail(where + ": not an object");
          continue;
        }
        const json::Value* bucket = a.find("bucket");
        const json::Value* category = a.find("category");
        const json::Value* ann_text = a.find("text");
        if (!is_int(bucket) || category == nullptr ||
            !category->is_string() || ann_text == nullptr ||
            !ann_text->is_string()) {
          lint.fail(where + ": needs integer bucket + string category/text");
          continue;
        }
        ++ann_count;
        if (have_prev && bucket->number < prev_bucket) {
          lint.fail(where + ": bucket order went backwards");
        }
        have_prev = true;
        prev_bucket = bucket->number;
      }
    }
  }

  if (lint.findings == 0) {
    std::printf("%s: ok (%zu series, %zu points, %zu annotations)\n", path,
                series->array.size(), points_total, ann_count);
    return 0;
  }
  return 1;
}

int lint_html(const char* path, const std::set<std::string>& series_names) {
  const std::optional<std::string> file = read_file(path);
  if (!file) {
    std::fprintf(stderr, "%s: cannot read\n", path);
    return 2;
  }
  const std::string& text = *file;
  Lint lint{path};
  if (text.find("<svg") == std::string::npos) {
    lint.fail("no inline <svg> — not a rendered report");
  }
  // Self-containment: a report must not fetch anything.
  if (text.find("<link") != std::string::npos ||
      text.find("src=\"http") != std::string::npos) {
    lint.fail("external reference found — report must be self-contained");
  }
  const std::string marker = "id=\"timeline-manifest\">";
  const std::size_t start = text.find(marker);
  if (start == std::string::npos) {
    lint.fail("no timeline-manifest script tag");
    return 1;
  }
  const std::size_t body = start + marker.size();
  const std::size_t end = text.find("</script>", body);
  if (end == std::string::npos) {
    lint.fail("unterminated timeline-manifest script tag");
    return 1;
  }
  const auto manifest = json::parse(text.substr(body, end - body));
  if (!manifest.has_value() || !manifest->is_object()) {
    lint.fail("timeline-manifest is not valid JSON");
    return 1;
  }
  const json::Value* listed = manifest->find("series");
  if (listed == nullptr || !listed->is_array()) {
    lint.fail("timeline-manifest has no series array");
    return 1;
  }
  std::size_t checked = 0;
  for (const json::Value& v : listed->array) {
    if (!v.is_string()) {
      lint.fail("timeline-manifest series entry is not a string");
      continue;
    }
    ++checked;
    if (series_names.count(v.string) == 0) {
      lint.fail("report charts series \"" + v.string +
                "\" absent from every given timeline file");
    }
  }
  if (lint.findings == 0) {
    std::printf("%s: ok (manifest: %zu series, all present)\n", path, checked);
    return 0;
  }
  return 1;
}

int run(int argc, char** argv) {
  const char* html = nullptr;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--html=", 7) == 0) {
      html = argv[i] + 7;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: timeline_lint [--html=REPORT.html] FILE [FILE...]\n");
    return 2;
  }
  int worst = 0;
  std::set<std::string> series_names;
  for (const char* f : files) {
    worst = std::max(worst, lint_file(f, series_names));
  }
  if (html != nullptr) {
    worst = std::max(worst, lint_html(html, series_names));
  }
  return worst;
}

}  // namespace
}  // namespace ys

int main(int argc, char** argv) { return ys::run(argc, argv); }
