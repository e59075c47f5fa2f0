#include "obs/timeline_export.h"

#include "core/file_io.h"
#include "core/json.h"

namespace ys::obs {

namespace {

void append_labels_json(std::string& out, const TimelineLabels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, k);
    out += ':';
    json::append_string(out, v);
  }
  out += '}';
}

/// "k1=v1;k2=v2" — labels flattened for the CSV cell (labels never
/// contain ';' or '=' in practice; values are simple identifiers).
std::string labels_csv(const TimelineLabels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ';';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

bool read_i64(const json::Value* v, i64* out) {
  if (v == nullptr || !v->is_number()) return false;
  *out = static_cast<i64>(v->number);
  return true;
}

}  // namespace

std::string timeline_to_json(const Timeline& tl) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"ys.timeline.v1\",\"bucket_us\":";
  json::append_int(out, tl.bucket_width().us);
  out += ",\"series\":[";
  bool first_series = true;
  for (const auto& [key, series] : tl.series()) {
    if (!first_series) out += ',';
    first_series = false;
    out += "{\"name\":";
    json::append_string(out, key.name);
    out += ",\"labels\":";
    append_labels_json(out, key.labels);
    out += ",\"kind\":\"";
    out += to_string(series.kind);
    out += "\",\"points\":[";
    bool first_point = true;
    for (const auto& [bucket, v] : series.buckets) {
      if (!first_point) out += ',';
      first_point = false;
      out += "{\"bucket\":";
      json::append_int(out, bucket);
      out += ",\"sum\":";
      json::append_int(out, v.sum);
      out += ",\"count\":";
      json::append_uint(out, v.count);
      out += ",\"min\":";
      json::append_int(out, v.min);
      out += ",\"max\":";
      json::append_int(out, v.max);
      out += '}';
    }
    out += "]}";
  }
  out += "],\"annotations\":[";
  bool first_ann = true;
  for (const auto& a : tl.annotations()) {
    if (!first_ann) out += ',';
    first_ann = false;
    out += "{\"bucket\":";
    json::append_int(out, a.bucket);
    out += ",\"category\":";
    json::append_string(out, a.category);
    out += ",\"text\":";
    json::append_string(out, a.text);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string timeline_to_csv(const Timeline& tl) {
  std::string out = "name,labels,kind,bucket,bucket_start_us,sum,count,min,max\n";
  for (const auto& [key, series] : tl.series()) {
    const std::string labels = labels_csv(key.labels);
    for (const auto& [bucket, v] : series.buckets) {
      out += key.name;
      out += ',';
      out += labels;
      out += ',';
      out += to_string(series.kind);
      out += ',';
      json::append_int(out, bucket);
      out += ',';
      json::append_int(out, tl.bucket_start(bucket).us);
      out += ',';
      json::append_int(out, v.sum);
      out += ',';
      json::append_uint(out, v.count);
      out += ',';
      json::append_int(out, v.min);
      out += ',';
      json::append_int(out, v.max);
      out += '\n';
    }
  }
  return out;
}

bool write_timeline_json(const std::string& path, const Timeline& tl) {
  return write_file(path, timeline_to_json(tl));
}

bool write_timeline_csv(const std::string& path, const Timeline& tl) {
  return write_file(path, timeline_to_csv(tl));
}

i64 TimelineDoc::total(const std::string& name) const {
  i64 total = 0;
  for (const Series& s : series) {
    if (s.name != name) continue;
    for (const Point& p : s.points) total += p.sum;
  }
  return total;
}

std::optional<TimelineDoc> parse_timeline_json(const std::string& text,
                                               std::string* error) {
  auto fail = [error](const std::string& why) -> std::optional<TimelineDoc> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::optional<json::Value> root = json::parse(text);
  if (!root.has_value() || !root->is_object()) {
    return fail("not a JSON object");
  }
  const json::Value* schema = root->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "ys.timeline.v1") {
    return fail("schema is not \"ys.timeline.v1\"");
  }
  TimelineDoc doc;
  if (!read_i64(root->find("bucket_us"), &doc.bucket_us) ||
      doc.bucket_us <= 0) {
    return fail("bucket_us missing or not a positive number");
  }
  const json::Value* series = root->find("series");
  if (series == nullptr || !series->is_array()) {
    return fail("series missing or not an array");
  }
  for (const json::Value& s : series->array) {
    if (!s.is_object()) return fail("series entry is not an object");
    TimelineDoc::Series out;
    const json::Value* name = s.find("name");
    if (name == nullptr || !name->is_string() || name->string.empty()) {
      return fail("series name missing or empty");
    }
    out.name = name->string;
    const json::Value* labels = s.find("labels");
    if (labels == nullptr || !labels->is_object()) {
      return fail("series '" + out.name + "': labels missing");
    }
    for (const auto& [k, v] : labels->object) {
      if (!v.is_string()) {
        return fail("series '" + out.name + "': label '" + k +
                    "' is not a string");
      }
      out.labels[k] = v.string;
    }
    const json::Value* kind = s.find("kind");
    if (kind == nullptr || !kind->is_string() ||
        (kind->string != "counter" && kind->string != "gauge")) {
      return fail("series '" + out.name + "': bad kind");
    }
    out.kind = kind->string;
    const json::Value* points = s.find("points");
    if (points == nullptr || !points->is_array()) {
      return fail("series '" + out.name + "': points missing");
    }
    for (const json::Value& p : points->array) {
      if (!p.is_object()) {
        return fail("series '" + out.name + "': point is not an object");
      }
      TimelineDoc::Point pt;
      i64 count = 0;
      if (!read_i64(p.find("bucket"), &pt.bucket) ||
          !read_i64(p.find("sum"), &pt.sum) ||
          !read_i64(p.find("count"), &count) ||
          !read_i64(p.find("min"), &pt.min) ||
          !read_i64(p.find("max"), &pt.max)) {
        return fail("series '" + out.name + "': point field missing");
      }
      pt.count = static_cast<u64>(count);
      out.points.push_back(pt);
    }
    doc.series.push_back(std::move(out));
  }
  const json::Value* annotations = root->find("annotations");
  if (annotations != nullptr) {
    if (!annotations->is_array()) return fail("annotations is not an array");
    for (const json::Value& a : annotations->array) {
      if (!a.is_object()) return fail("annotation is not an object");
      TimelineDoc::Annotation out;
      const json::Value* category = a.find("category");
      const json::Value* ann_text = a.find("text");
      if (!read_i64(a.find("bucket"), &out.bucket) || category == nullptr ||
          !category->is_string() || ann_text == nullptr ||
          !ann_text->is_string()) {
        return fail("annotation field missing");
      }
      out.category = category->string;
      out.text = ann_text->string;
      doc.annotations.push_back(std::move(out));
    }
  }
  return doc;
}

std::optional<TimelineDoc> load_timeline_file(const std::string& path,
                                              std::string* error) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return parse_timeline_json(*text, error);
}

}  // namespace ys::obs
