#include "obs/phase_profiler.h"

#include <atomic>
#include <memory>
#include <mutex>

#include "core/file_io.h"
#include "obs/trace_export.h"

namespace ys::obs::perf {

namespace {

std::atomic<bool> g_phases_enabled{true};

/// Global registry of per-thread tables. Threads come and go (the runner
/// spawns fresh workers every run), so the registry holds shared_ptrs that
/// outlive their owning threads; tables are merged by label at snapshot
/// time. Guarded by g_tables_mu for registration and snapshotting; the
/// owning thread mutates its table without the lock (snapshots promise to
/// run only after workers joined).
std::mutex g_tables_mu;
std::vector<std::shared_ptr<ThreadPhases>>& tables() {
  static auto* t = new std::vector<std::shared_ptr<ThreadPhases>>();
  return *t;
}

ThreadPhases& local_table() {
  thread_local std::shared_ptr<ThreadPhases> table = [] {
    auto t = std::make_shared<ThreadPhases>();
    t->label = "main";
    std::lock_guard<std::mutex> lock(g_tables_mu);
    tables().push_back(t);
    return t;
  }();
  return *table;
}

}  // namespace

bool PhaseProfiler::enabled() {
  return g_phases_enabled.load(std::memory_order_relaxed);
}

void PhaseProfiler::set_enabled(bool on) {
  g_phases_enabled.store(on, std::memory_order_relaxed);
}

void PhaseProfiler::record(const char* name, u64 wall_ns) {
  if (!enabled()) return;
  PhaseAgg& agg = local_table().phases[name];
  ++agg.count;
  agg.wall_ns += wall_ns;
}

void PhaseProfiler::set_thread_label(const std::string& label) {
  local_table().label = label;
}

std::map<std::string, PhaseAgg> PhaseProfiler::snapshot() {
  std::map<std::string, PhaseAgg> merged;
  std::lock_guard<std::mutex> lock(g_tables_mu);
  for (const auto& table : tables()) {
    for (const auto& [name, agg] : table->phases) {
      PhaseAgg& m = merged[name];
      m.count += agg.count;
      m.wall_ns += agg.wall_ns;
    }
  }
  return merged;
}

std::vector<ThreadPhases> PhaseProfiler::by_thread() {
  std::vector<ThreadPhases> out;
  std::lock_guard<std::mutex> lock(g_tables_mu);
  out.reserve(tables().size());
  for (const auto& table : tables()) {
    if (!table->phases.empty()) out.push_back(*table);
  }
  return out;
}

void PhaseProfiler::reset() {
  std::lock_guard<std::mutex> lock(g_tables_mu);
  for (const auto& table : tables()) table->phases.clear();
}

bool write_phase_trace(const std::string& path) {
  TraceEventWriter w;
  u64 tid = 0;
  for (const ThreadPhases& t : PhaseProfiler::by_thread()) {
    w.thread_name(tid, t.label);
    double at_us = 0.0;
    for (const auto& [name, agg] : t.phases) {
      const double dur_us = static_cast<double>(agg.wall_ns) / 1000.0;
      w.complete(tid, at_us, dur_us, "phase", name);
      w.arg("count", agg.count);
      at_us += dur_us;
    }
    ++tid;
  }
  return write_file(path, w.finish());
}

}  // namespace ys::obs::perf
