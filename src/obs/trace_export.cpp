#include "obs/trace_export.h"

#include <unordered_map>

#include "core/file_io.h"
#include "core/json.h"

namespace ys::obs {

TraceEventWriter::TraceEventWriter()
    : out_("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[") {}

void TraceEventWriter::begin_event() {
  if (args_open_) out_ += "}}";
  args_open_ = false;
  if (!first_event_) out_ += ',';
  first_event_ = false;
  out_ += '{';
}

void TraceEventWriter::thread_name(u64 tid, std::string_view name) {
  begin_event();
  out_ += "\"ph\":\"M\",\"pid\":1,\"tid\":";
  json::append_uint(out_, tid);
  out_ += ",\"name\":\"thread_name\",\"args\":{\"name\":";
  json::append_string(out_, name);
  out_ += "}}";
}

void TraceEventWriter::complete(u64 tid, double ts_us, double dur_us,
                                std::string_view cat, std::string_view name) {
  begin_event();
  out_ += "\"ph\":\"X\",\"pid\":1,\"tid\":";
  json::append_uint(out_, tid);
  out_ += ",\"ts\":";
  json::append_number(out_, ts_us);
  out_ += ",\"dur\":";
  json::append_number(out_, dur_us);
  out_ += ",\"cat\":";
  json::append_string(out_, cat);
  out_ += ",\"name\":";
  json::append_string(out_, name);
  out_ += ",\"args\":{";
  args_open_ = true;
  first_arg_ = true;
}

void TraceEventWriter::begin_arg(std::string_view key) {
  if (!first_arg_) out_ += ',';
  first_arg_ = false;
  json::append_string(out_, key);
  out_ += ':';
}

void TraceEventWriter::arg(std::string_view key, u64 value) {
  begin_arg(key);
  json::append_uint(out_, value);
}

void TraceEventWriter::arg(std::string_view key, std::string_view value) {
  begin_arg(key);
  json::append_string(out_, value);
}

void TraceEventWriter::flow(bool start, u64 tid, double ts_us,
                            std::string_view name, u64 id) {
  begin_event();
  out_ += start ? "\"ph\":\"s\",\"pid\":1,\"tid\":"
                : "\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":";
  json::append_uint(out_, tid);
  out_ += ",\"ts\":";
  json::append_number(out_, ts_us);
  out_ += ",\"cat\":";
  json::append_string(out_, name);
  out_ += ",\"name\":";
  json::append_string(out_, name);
  out_ += ",\"id\":";
  json::append_uint(out_, id);
  out_ += '}';
}

std::string TraceEventWriter::finish() {
  if (args_open_) out_ += "}}";
  args_open_ = false;
  out_ += "]}";
  return std::move(out_);
}

std::string to_chrome_trace(const TraceRecorder& trace) {
  const std::vector<TraceEvent> events = trace.events();

  // Tracks: one tid per actor, in first-appearance order (deterministic).
  std::unordered_map<std::string, u64> tids;
  std::vector<std::string> actors;
  for (const auto& ev : events) {
    if (tids.emplace(ev.actor, tids.size() + 1).second) {
      actors.push_back(ev.actor);
    }
  }

  // Which event ids survive in the ring (flow arrows need both ends).
  std::unordered_map<u64, const TraceEvent*> retained;
  retained.reserve(events.size());
  for (const auto& ev : events) retained.emplace(ev.id, &ev);

  TraceEventWriter w;
  for (std::size_t i = 0; i < actors.size(); ++i) w.thread_name(i + 1, actors[i]);

  for (const auto& ev : events) {
    std::string name = to_string(ev.kind);
    if (ev.gfw.valid()) {
      name += ':';
      name += to_string(ev.gfw.behavior);
    }
    w.complete(tids[ev.actor], static_cast<double>(ev.at.us), 1, "trace", name);
    w.arg("id", ev.id);
    if (ev.caused_by != 0) w.arg("caused_by", ev.caused_by);
    if (ev.packet.id != 0) {
      w.arg("packet", ev.packet.id);
      if (ev.packet.is_tcp) {
        w.arg("seq", ev.packet.seq);
        w.arg("ack", ev.packet.ack);
        w.arg("flags", ev.packet.flags);
      }
      w.arg("payload_len", ev.packet.payload_len);
      w.arg("ttl", ev.packet.ttl);
      w.arg("dir", ev.packet.dir == 0 ? "c2s" : "s2c");
      if (ev.packet.crafted) w.arg("crafted", u64{1});
    }
    if (ev.gfw.valid()) {
      w.arg("gfw_from", to_string(ev.gfw.from));
      w.arg("gfw_to", to_string(ev.gfw.to));
    }
    if (!ev.detail.empty()) w.arg("detail", ev.detail);
  }

  // Flow arrows for causal links with both ends retained.
  for (const auto& ev : events) {
    if (ev.caused_by == 0) continue;
    auto it = retained.find(ev.caused_by);
    if (it == retained.end()) continue;
    const TraceEvent& cause = *it->second;
    w.flow(true, tids[cause.actor], static_cast<double>(cause.at.us), "cause",
           ev.id);
    w.flow(false, tids[ev.actor], static_cast<double>(ev.at.us), "cause",
           ev.id);
  }
  return w.finish();
}

bool write_chrome_trace(const std::string& path, const TraceRecorder& trace) {
  return write_file(path, to_chrome_trace(trace));
}

}  // namespace ys::obs
