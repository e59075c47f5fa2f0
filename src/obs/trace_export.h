// Chrome trace-event JSON exporter for TraceRecorder.
//
// Emits the "JSON Object Format" ({"traceEvents": [...]}) understood by
// Perfetto and chrome://tracing. Mapping:
//   - one track (pid 1, tid N) per actor, named via "M"/thread_name
//     metadata, tids assigned in first-appearance order;
//   - every trace event becomes a ph "X" slice, ts = virtual time in µs,
//     dur = 1, with the structured payload under "args" (event id,
//     caused_by, packet fields, GFW transition, detail);
//   - causal links become flow-event pairs (ph "s" on the causing event's
//     track, ph "f" on the effect's) so the UI draws arrows from the
//     trigger packet to the injected response. Pairs are emitted only when
//     both ends are still retained in the ring, so every flow id in the
//     file resolves (tools/trace_lint checks this).
//
// TraceEventWriter is the one place that writes the trace-event envelope
// and event framing; the phase profiler's flamegraph export
// (write_phase_trace) goes through it too.
#pragma once

#include <string>
#include <string_view>

#include "obs/trace.h"

namespace ys::obs {

/// Builds one compact Chrome trace-event document,
/// {"displayTimeUnit":"ms","traceEvents":[...]}, every event on pid 1.
/// Timestamps are microseconds in the canonical JSON number format.
class TraceEventWriter {
 public:
  TraceEventWriter();

  /// "M" metadata event naming track `tid`.
  void thread_name(u64 tid, std::string_view name);
  /// Open a complete ("X") slice; add its args with arg() before the next
  /// event or finish().
  void complete(u64 tid, double ts_us, double dur_us, std::string_view cat,
                std::string_view name);
  void arg(std::string_view key, u64 value);
  void arg(std::string_view key, std::string_view value);
  /// One end of a flow arrow: the start ("s") or the finish ("f", bound to
  /// the enclosing slice) of flow `id`, category and name `name`.
  void flow(bool start, u64 tid, double ts_us, std::string_view name, u64 id);

  /// Close the document and hand it over.
  std::string finish();

 private:
  void begin_event();
  void begin_arg(std::string_view key);

  std::string out_;
  bool first_event_ = true;
  bool args_open_ = false;
  bool first_arg_ = true;
};

/// Render the retained trace as a Chrome trace-event JSON document.
std::string to_chrome_trace(const TraceRecorder& trace);

/// Write to_chrome_trace() to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path, const TraceRecorder& trace);

}  // namespace ys::obs
