#include "obs/report.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/json.h"
#include "obs/timeline.h"

namespace ys::obs {

namespace {

constexpr const char* kPalette[] = {
    "#2563eb", "#dc2626", "#059669", "#d97706",
    "#7c3aed", "#0891b2", "#be185d", "#4d7c0f",
};
constexpr int kPaletteSize = 8;

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  if (std::fabs(v - std::llround(v)) < 1e-9 && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(std::llround(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

std::string fmt_i64(i64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

struct ChartLine {
  std::string label;
  std::vector<std::pair<double, double>> points;  // (x, y)
};

struct VLine {
  double x = 0;
  std::string label;
};

struct Chart {
  std::string title;
  std::string x_label;
  std::string y_label;
  std::vector<ChartLine> lines;
  std::vector<VLine> vlines;
  /// Force the y range to [0, 1] (rate charts).
  bool unit_y = false;
};

/// Inline SVG polyline chart: fixed frame, 4 y gridlines, dashed
/// annotation verticals, legend under the plot.
std::string render_chart(const Chart& chart) {
  constexpr double kW = 860, kH = 240;
  constexpr double kL = 64, kR = 16, kT = 18, kB = 34;
  const double plot_w = kW - kL - kR;
  const double plot_h = kH - kT - kB;

  double x_min = 0, x_max = 1, y_min = 0, y_max = 1;
  bool have = false;
  for (const ChartLine& line : chart.lines) {
    for (const auto& [x, y] : line.points) {
      if (!have) {
        x_min = x_max = x;
        y_min = y_max = y;
        have = true;
      } else {
        x_min = std::min(x_min, x);
        x_max = std::max(x_max, x);
        y_min = std::min(y_min, y);
        y_max = std::max(y_max, y);
      }
    }
  }
  for (const VLine& v : chart.vlines) {
    if (!have) continue;
    x_min = std::min(x_min, v.x);
    x_max = std::max(x_max, v.x);
  }
  if (chart.unit_y) {
    y_min = 0;
    y_max = 1;
  } else {
    if (y_min > 0) y_min = 0;
    if (y_max <= y_min) y_max = y_min + 1;
  }
  if (x_max <= x_min) x_max = x_min + 1;

  auto sx = [&](double x) { return kL + (x - x_min) / (x_max - x_min) * plot_w; };
  auto sy = [&](double y) { return kT + (1.0 - (y - y_min) / (y_max - y_min)) * plot_h; };

  std::ostringstream svg;
  svg << "<div class=\"chart\"><h3>" << html_escape(chart.title) << "</h3>\n";
  svg << "<svg viewBox=\"0 0 " << kW << " " << kH << "\" width=\"" << kW
      << "\" height=\"" << kH << "\" role=\"img\">\n";
  svg << "<rect x=\"" << kL << "\" y=\"" << kT << "\" width=\"" << plot_w
      << "\" height=\"" << plot_h
      << "\" fill=\"#fafafa\" stroke=\"#d4d4d8\"/>\n";
  for (int i = 0; i <= 4; ++i) {
    const double y = y_min + (y_max - y_min) * i / 4.0;
    const double py = sy(y);
    svg << "<line x1=\"" << kL << "\" y1=\"" << py << "\" x2=\"" << (kW - kR)
        << "\" y2=\"" << py << "\" stroke=\"#e4e4e7\"/>\n";
    svg << "<text x=\"" << (kL - 6) << "\" y=\"" << (py + 4)
        << "\" text-anchor=\"end\" font-size=\"11\" fill=\"#52525b\">"
        << fmt(y) << "</text>\n";
  }
  for (int i = 0; i <= 4; ++i) {
    const double x = x_min + (x_max - x_min) * i / 4.0;
    svg << "<text x=\"" << sx(x) << "\" y=\"" << (kH - kB + 16)
        << "\" text-anchor=\"middle\" font-size=\"11\" fill=\"#52525b\">"
        << fmt(x) << "</text>\n";
  }
  svg << "<text x=\"" << (kL + plot_w / 2) << "\" y=\"" << (kH - 4)
      << "\" text-anchor=\"middle\" font-size=\"11\" fill=\"#3f3f46\">"
      << html_escape(chart.x_label) << "</text>\n";
  for (const VLine& v : chart.vlines) {
    const double px = sx(v.x);
    svg << "<line x1=\"" << px << "\" y1=\"" << kT << "\" x2=\"" << px
        << "\" y2=\"" << (kT + plot_h)
        << "\" stroke=\"#a1a1aa\" stroke-dasharray=\"4 3\"/>\n";
    svg << "<text x=\"" << (px + 3) << "\" y=\"" << (kT + 11)
        << "\" font-size=\"10\" fill=\"#71717a\">" << html_escape(v.label)
        << "</text>\n";
  }
  int color = 0;
  for (const ChartLine& line : chart.lines) {
    if (line.points.empty()) continue;
    svg << "<polyline fill=\"none\" stroke=\"" << kPalette[color % kPaletteSize]
        << "\" stroke-width=\"1.6\" points=\"";
    for (const auto& [x, y] : line.points) {
      svg << fmt(sx(x)) << ',' << fmt(sy(y)) << ' ';
    }
    svg << "\"/>\n";
    if (line.points.size() == 1) {
      svg << "<circle cx=\"" << fmt(sx(line.points[0].first)) << "\" cy=\""
          << fmt(sy(line.points[0].second)) << "\" r=\"2.5\" fill=\""
          << kPalette[color % kPaletteSize] << "\"/>\n";
    }
    ++color;
  }
  svg << "</svg>\n<div class=\"legend\">";
  color = 0;
  for (const ChartLine& line : chart.lines) {
    svg << "<span><i style=\"background:" << kPalette[color % kPaletteSize]
        << "\"></i>" << html_escape(line.label) << "</span> ";
    ++color;
  }
  svg << "</div></div>\n";
  return svg.str();
}

std::string labels_text(const std::map<std::string, std::string>& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  return out.empty() ? "(no labels)" : out;
}

/// bucket -> sum, folded over every series with this name whose labels
/// include `key`=`value` (empty key = every label set).
std::map<i64, i64> bucket_sums(const TimelineDoc& doc, const std::string& name,
                               const std::string& key = "",
                               const std::string& value = "") {
  std::map<i64, i64> out;
  for (const auto& s : doc.series) {
    if (s.name != name) continue;
    if (!key.empty()) {
      auto it = s.labels.find(key);
      if (it == s.labels.end() || it->second != value) continue;
    }
    for (const auto& p : s.points) out[p.bucket] += p.sum;
  }
  return out;
}

std::set<std::string> label_values(const TimelineDoc& doc,
                                   const std::string& name,
                                   const std::string& key) {
  std::set<std::string> out;
  for (const auto& s : doc.series) {
    if (s.name != name) continue;
    auto it = s.labels.find(key);
    if (it != s.labels.end()) out.insert(it->second);
  }
  return out;
}

double bucket_seconds(const TimelineDoc& doc, i64 bucket) {
  return static_cast<double>(bucket) * static_cast<double>(doc.bucket_us) / 1e6;
}

}  // namespace

std::string render_timeline_html(const TimelineDoc& doc,
                                 const ReportOptions& opt) {
  std::ostringstream out;
  std::set<std::string> consumed;

  out << "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n"
      << "<title>" << html_escape(opt.title) << "</title>\n"
      << "<style>\n"
         "body{font:14px/1.5 system-ui,sans-serif;margin:24px auto;"
         "max-width:920px;color:#18181b}\n"
         "h1{font-size:22px}h2{font-size:17px;border-bottom:1px solid #e4e4e7;"
         "padding-bottom:4px;margin-top:32px}h3{font-size:13px;margin:12px 0 4px}\n"
         ".meta{color:#52525b;font-size:12px}\n"
         ".legend{font-size:12px;color:#3f3f46}\n"
         ".legend i{display:inline-block;width:10px;height:10px;"
         "margin-right:4px;border-radius:2px}\n"
         ".legend span{margin-right:14px}\n"
         "table{border-collapse:collapse;font-size:13px}\n"
         "td,th{border:1px solid #d4d4d8;padding:3px 10px;text-align:right}\n"
         "th{background:#f4f4f5}td:first-child,th:first-child{text-align:left}\n"
         "pre{background:#f4f4f5;padding:8px;font-size:12px;overflow-x:auto}\n"
         ".coverage{background:#fef3c7;border:1px solid #f59e0b;"
         "border-radius:4px;padding:8px 12px;font-weight:600}\n"
         "</style></head><body>\n";
  out << "<h1>" << html_escape(opt.title) << "</h1>\n";
  out << "<p class=\"meta\">schema ys.timeline.v1 · bucket "
      << fmt(static_cast<double>(doc.bucket_us) / 1e6) << " s · "
      << doc.series.size() << " series · " << doc.annotations.size()
      << " annotations";
  if (!opt.source.empty()) out << " · source " << html_escape(opt.source);
  out << "</p>\n";

  // A "coverage" annotation means a degraded shard left holes: banner it
  // up front so no chart below is mistaken for a complete sweep.
  for (const auto& a : doc.annotations) {
    if (a.category != "coverage") continue;
    out << "<p class=\"coverage\">&#9888; " << html_escape(a.text)
        << "</p>\n";
  }

  // Soak-phase boundaries overlay every virtual-time chart.
  std::vector<VLine> phase_lines;
  for (const auto& a : doc.annotations) {
    if (a.category != "soak-phase") continue;
    phase_lines.push_back(VLine{bucket_seconds(doc, a.bucket), a.text});
  }

  // ---- Fleet convergence: cumulative rates per vantage. ----------------
  const std::set<std::string> vantages =
      label_values(doc, "fleet.flows", "vantage");
  if (!vantages.empty()) {
    Chart success{"Cumulative success rate by vantage", "virtual time (s)",
                  "rate", {}, phase_lines, true};
    Chart cache{"Cumulative cache-hit rate by vantage", "virtual time (s)",
                "rate", {}, phase_lines, true};
    for (const std::string& v : vantages) {
      const auto flows = bucket_sums(doc, "fleet.flows", "vantage", v);
      const auto succ = bucket_sums(doc, "fleet.flow_success", "vantage", v);
      const auto hits = bucket_sums(doc, "fleet.cache_hit", "vantage", v);
      ChartLine sline{v, {}}, cline{v, {}};
      i64 cf = 0, cs = 0, ch = 0;
      for (const auto& [bucket, n] : flows) {
        cf += n;
        auto si = succ.find(bucket);
        if (si != succ.end()) cs += si->second;
        auto hi = hits.find(bucket);
        if (hi != hits.end()) ch += hi->second;
        const double x = bucket_seconds(doc, bucket);
        sline.points.emplace_back(x, static_cast<double>(cs) / cf);
        cline.points.emplace_back(x, static_cast<double>(ch) / cf);
      }
      success.lines.push_back(std::move(sline));
      cache.lines.push_back(std::move(cline));
    }
    out << "<h2>Fleet convergence</h2>\n"
        << render_chart(success) << render_chart(cache);
    consumed.insert({"fleet.flows", "fleet.flow_success", "fleet.cache_hit"});
  }

  // ---- Flap response: per-bucket success rate + fault density. ---------
  const auto all_flows = bucket_sums(doc, "fleet.flows");
  if (!all_flows.empty()) {
    const auto all_succ = bucket_sums(doc, "fleet.flow_success");
    Chart flap{"Per-bucket success rate (all vantages)", "virtual time (s)",
               "rate", {}, phase_lines, true};
    ChartLine rate{"success rate", {}};
    for (const auto& [bucket, n] : all_flows) {
      auto si = all_succ.find(bucket);
      const i64 s = si == all_succ.end() ? 0 : si->second;
      rate.points.emplace_back(bucket_seconds(doc, bucket),
                               static_cast<double>(s) / n);
    }
    flap.lines.push_back(std::move(rate));
    out << "<h2>Flap response</h2>\n" << render_chart(flap);

    const std::set<std::string> kinds =
        label_values(doc, "faults.injected", "kind");
    if (!kinds.empty()) {
      Chart faults{"Injected-fault density", "virtual time (s)",
                   "events/bucket", {}, phase_lines, false};
      for (const std::string& k : kinds) {
        ChartLine line{k, {}};
        for (const auto& [bucket, n] :
             bucket_sums(doc, "faults.injected", "kind", k)) {
          line.points.emplace_back(bucket_seconds(doc, bucket),
                                   static_cast<double>(n));
        }
        faults.lines.push_back(std::move(line));
      }
      out << render_chart(faults);
      consumed.insert("faults.injected");
    }
  }

  // ---- Search-front progress per variant. ------------------------------
  const std::set<std::string> variants =
      label_values(doc, "search.best_success", "variant");
  if (!variants.empty()) {
    Chart front{"Search front: best/mean success by variant", "generation",
                "success rate", {}, {}, true};
    const double scale = static_cast<double>(Timeline::kRatioScale);
    for (const std::string& v : variants) {
      for (const char* name : {"search.best_success", "search.mean_success"}) {
        ChartLine line{std::string(v) + (std::string(name).find("best") !=
                                                 std::string::npos
                                             ? " best"
                                             : " mean"),
                       {}};
        for (const auto& s : doc.series) {
          if (s.name != name) continue;
          auto it = s.labels.find("variant");
          if (it == s.labels.end() || it->second != v) continue;
          for (const auto& p : s.points) {
            const double mean =
                p.count == 0 ? 0.0
                             : static_cast<double>(p.sum) /
                                   static_cast<double>(p.count) / scale;
            line.points.emplace_back(static_cast<double>(p.bucket), mean);
          }
        }
        front.lines.push_back(std::move(line));
      }
    }
    out << "<h2>Search progress</h2>\n" << render_chart(front);
    consumed.insert({"search.best_success", "search.mean_success"});

    std::vector<const TimelineDoc::Annotation*> lineage;
    for (const auto& a : doc.annotations) {
      if (a.category == "lineage") lineage.push_back(&a);
    }
    if (!lineage.empty()) {
      out << "<h3>Archive lineage (" << lineage.size() << " survivors)</h3>\n<pre>";
      for (const auto* a : lineage) {
        out << "gen " << a->bucket << ": " << html_escape(a->text) << "\n";
      }
      out << "</pre>\n";
    }
  }

  // ---- Anomalous buckets with explain coordinates. ---------------------
  if (!all_flows.empty()) {
    const auto all_succ = bucket_sums(doc, "fleet.flow_success");
    i64 total_flows = 0, total_succ = 0;
    for (const auto& [b, n] : all_flows) total_flows += n;
    for (const auto& [b, n] : all_succ) total_succ += n;
    const double overall =
        total_flows == 0 ? 0.0
                         : static_cast<double>(total_succ) / total_flows;
    struct Anomaly {
      i64 bucket;
      double rate;
      double deficit;
    };
    std::vector<Anomaly> anomalies;
    for (const auto& [bucket, n] : all_flows) {
      if (n < 5) continue;
      auto si = all_succ.find(bucket);
      const double rate =
          static_cast<double>(si == all_succ.end() ? 0 : si->second) / n;
      if (rate < overall - 0.15) {
        anomalies.push_back(Anomaly{bucket, rate, overall - rate});
      }
    }
    std::sort(anomalies.begin(), anomalies.end(),
              [](const Anomaly& a, const Anomaly& b) {
                if (a.deficit != b.deficit) return a.deficit > b.deficit;
                return a.bucket < b.bucket;
              });
    if (anomalies.size() > 10) anomalies.resize(10);
    out << "<h2>Anomalous buckets</h2>\n";
    if (anomalies.empty()) {
      out << "<p class=\"meta\">No bucket with ≥5 flows fell more than 15 "
             "points below the overall success rate ("
          << fmt(overall) << ").</p>\n";
    } else {
      out << "<p class=\"meta\">Buckets ≥15 points below the overall success "
             "rate ("
          << fmt(overall)
          << "). Replay one flow from the worst vantage with:</p>\n<pre>";
      for (const Anomaly& a : anomalies) {
        // Worst vantage in the bucket, its index label, and the highest
        // flow index seen there (fleet.flow_index gauge max) give exact
        // explain coordinates.
        std::string worst_vi;
        std::string worst_name;
        double worst_rate = 2.0;
        i64 trial = -1;
        for (const auto& s : doc.series) {
          if (s.name != "fleet.flows") continue;
          auto vi = s.labels.find("vantage_index");
          if (vi == s.labels.end()) continue;
          i64 flows_here = 0;
          for (const auto& p : s.points) {
            if (p.bucket == a.bucket) flows_here += p.sum;
          }
          if (flows_here == 0) continue;
          i64 succ_here = 0;
          for (const auto& s2 : doc.series) {
            if (s2.name != "fleet.flow_success" || s2.labels != s.labels) {
              continue;
            }
            for (const auto& p : s2.points) {
              if (p.bucket == a.bucket) succ_here += p.sum;
            }
          }
          const double r = static_cast<double>(succ_here) / flows_here;
          if (r < worst_rate) {
            worst_rate = r;
            worst_vi = vi->second;
            auto vn = s.labels.find("vantage");
            worst_name = vn == s.labels.end() ? "?" : vn->second;
            trial = -1;
            for (const auto& s3 : doc.series) {
              if (s3.name != "fleet.flow_index" || s3.labels != s.labels) {
                continue;
              }
              for (const auto& p : s3.points) {
                if (p.bucket == a.bucket) trial = std::max(trial, p.max);
              }
            }
          }
        }
        out << "# bucket " << a.bucket << " @ "
            << fmt(bucket_seconds(doc, a.bucket)) << "s: rate "
            << fmt(a.rate);
        if (!worst_name.empty()) {
          out << ", worst vantage " << html_escape(worst_name);
        }
        out << "\n";
        if (!worst_vi.empty() && trial >= 0) {
          out << "yourstate explain --bench=fleet";
          if (!opt.fleet_spec.empty()) {
            out << " --fleet=\"" << html_escape(opt.fleet_spec) << "\"";
          }
          out << " --vantage=" << worst_vi << " --trial=" << trial << "\n";
        }
      }
      out << "</pre>\n";
    }
    consumed.insert("fleet.flow_index");
  }

  // ---- Shard lifecycle (supervised sweeps). ----------------------------
  std::set<std::string> super_names;
  for (const auto& s : doc.series) {
    if (s.name.rfind("supervisor.", 0) == 0) super_names.insert(s.name);
  }
  if (!super_names.empty()) {
    out << "<h2>Shard lifecycle</h2>\n";
    if (super_names.count("supervisor.shard_done") > 0) {
      Chart prog{"Shard progress (tasks done, per heartbeat)",
                 "wall time (s)", "tasks", {}, {}, false};
      for (const auto& s : doc.series) {
        if (s.name != "supervisor.shard_done") continue;
        auto it = s.labels.find("shard");
        ChartLine line{"shard " + (it == s.labels.end() ? std::string("?")
                                                        : it->second),
                       {}};
        for (const auto& p : s.points) {
          line.points.emplace_back(bucket_seconds(doc, p.bucket),
                                   static_cast<double>(p.max));
        }
        prog.lines.push_back(std::move(line));
      }
      out << render_chart(prog);
    }
    Chart events{"Lifecycle events (spawn / gap / restart / degraded)",
                 "wall time (s)", "events/bucket", {}, {}, false};
    for (const std::string& name : super_names) {
      if (name == "supervisor.shard_done") continue;
      ChartLine line{name.substr(std::string("supervisor.").size()), {}};
      for (const auto& [bucket, n] : bucket_sums(doc, name)) {
        line.points.emplace_back(bucket_seconds(doc, bucket),
                                 static_cast<double>(n));
      }
      events.lines.push_back(std::move(line));
    }
    if (!events.lines.empty()) out << render_chart(events);

    std::vector<const TimelineDoc::Annotation*> shard_notes;
    for (const auto& a : doc.annotations) {
      if (a.category == "shard") shard_notes.push_back(&a);
    }
    if (!shard_notes.empty()) {
      out << "<h3>Event log (" << shard_notes.size() << " events)</h3>\n<pre>";
      for (const auto* a : shard_notes) {
        out << "bucket " << a->bucket << ": " << html_escape(a->text) << "\n";
      }
      out << "</pre>\n";
    }
    consumed.insert(super_names.begin(), super_names.end());
  }

  // ---- Everything else, so no recorded series is invisible. ------------
  std::set<std::string> remaining;
  for (const auto& s : doc.series) {
    if (consumed.count(s.name) == 0) remaining.insert(s.name);
  }
  if (!remaining.empty()) {
    out << "<h2>Other series</h2>\n";
    for (const std::string& name : remaining) {
      Chart chart{name, doc.bucket_us == 0 ? "bucket" : "virtual time (s)",
                  "", {}, {}, false};
      bool gauge = false;
      for (const auto& s : doc.series) {
        if (s.name != name) continue;
        gauge = s.kind == "gauge";
        ChartLine line{labels_text(s.labels), {}};
        for (const auto& p : s.points) {
          const double y =
              gauge ? (p.count == 0
                           ? 0.0
                           : static_cast<double>(p.sum) /
                                 static_cast<double>(p.count))
                    : static_cast<double>(p.sum);
          line.points.emplace_back(bucket_seconds(doc, p.bucket), y);
        }
        chart.lines.push_back(std::move(line));
      }
      chart.y_label = gauge ? "mean" : "sum/bucket";
      out << render_chart(chart);
    }
  }

  // ---- Whole-run totals (the metrics cross-check) + manifest. ----------
  std::map<std::string, i64> totals;
  for (const auto& s : doc.series) {
    if (s.kind != "counter") continue;
    for (const auto& p : s.points) totals[s.name] += p.sum;
  }
  out << "<h2>Whole-run counter totals</h2>\n"
      << "<p class=\"meta\">Each total is the sum over every bucket and "
         "label set; for fleet runs these match the aggregate "
         "<code>fleet.*</code> metrics counters.</p>\n"
      << "<table><tr><th>counter</th><th>total</th></tr>\n";
  for (const auto& [name, total] : totals) {
    out << "<tr><td>" << html_escape(name) << "</td><td>" << fmt_i64(total)
        << "</td></tr>\n";
  }
  out << "</table>\n";

  std::set<std::string> names;
  for (const auto& s : doc.series) names.insert(s.name);
  out << "<script type=\"application/json\" id=\"timeline-manifest\">{"
         "\"series\":[";
  bool first = true;
  for (const std::string& n : names) {
    if (!first) out << ',';
    first = false;
    out << json::quote(n);
  }
  out << "]}</script>\n";
  out << "<script type=\"application/json\" id=\"timeline-totals\">{";
  first = true;
  for (const auto& [name, total] : totals) {
    if (!first) out << ',';
    first = false;
    out << json::quote(name) << ':' << fmt_i64(total);
  }
  out << "}</script>\n";
  out << "</body></html>\n";
  return out.str();
}

}  // namespace ys::obs
