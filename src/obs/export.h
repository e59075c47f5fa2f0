// Snapshot exporters: a human-readable aligned table and a JSON document
// (consumed by `yourstate stats` and by downstream analysis scripts). Both
// render metrics in sorted-name order so output is diffable across runs.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace ys::obs {

/// Aligned text table, one metric per line; histograms additionally carry
/// bucket-interpolated p50/p95/p99 summaries:
///   gfw.packets_seen              counter        42
///   exp.vtime.success.intang      histogram      12  sum=1841.0  p50=...
std::string to_table(const Snapshot& snap);

/// JSON document:
/// {
///   "counters":   {"name": 42, ...},
///   "gauges":     {"name": 1.5, ...},
///   "histograms": {"name": {"bounds": [...], "counts": [...],
///                            "count": N, "sum": S}, ...}
/// }
std::string to_json(const Snapshot& snap);

/// The --metrics-out writer of every bench and `yourstate` command: the
/// global registry's to_json() and one more newline, to `path` ("-" =
/// stdout; empty = off). On failure prints "cannot write --metrics-out
/// file" to stderr and returns false.
bool write_metrics_out(const std::string& path);

/// The export-file flags every bench binary and the `yourstate` run
/// commands share. Empty = that export is off.
struct OutputFlags {
  std::string metrics_out;   // --metrics-out=FILE ("-" = stdout)
  std::string timeline_out;  // --timeline-out=FILE ("ys.timeline.v1" JSON)
  std::string timeline_csv;  // --timeline-csv=FILE (same, as CSV rows)

  /// Take `arg` when it is one of the three flags; false leaves it to the
  /// caller's own parse.
  bool parse(std::string_view arg);
  bool timeline() const { return !timeline_out.empty() || !timeline_csv.empty(); }
};

}  // namespace ys::obs
