// Shared plumbing for the table/figure reproduction binaries.
//
// Every binary accepts:
//   --trials=N        repetitions per (vantage point, server) pair
//                     (the paper uses 50; defaults here are smaller so the
//                      whole suite runs in seconds — pass --trials=50 for
//                      paper scale)
//   --servers=N       size of the probed server population
//   --seed=S          master seed (default 2017)
//   --jobs=N          worker threads for the trial grid (default 1 = the
//                     exact serial reference; 0 = hardware concurrency).
//                     Results are bit-identical for every N.
//   --metrics-out=F   write the final merged metrics snapshot to F as JSON
//                     at exit (use "-" for stdout)
//   --flight-dir=D    enable the flight recorder: cells whose success rate
//                     falls outside the paper-expected band get one
//                     representative trial re-run traced, archived to D as
//                     Chrome trace JSON + pcap named by grid coordinates
//   --faults=SPEC     run the grid under a deterministic fault plan: a
//                     shipped plan name (see EXPERIMENTS.md), inline
//                     clauses like "loss:at=50ms,dur=2s,p=0.25", or
//                     @plan.json
//   --resume-dir=D    persist per-slot results under D; a rerun with the
//                     same parameters skips completed chains and matches
//                     the uninterrupted run exactly
//   --report=F        write a versioned BenchReport (obs/perf.h) to F as
//                     JSON at exit: environment fingerprint, wall time,
//                     throughput, per-trial allocation churn, per-phase
//                     timings, and the merged metrics snapshot. Feed pairs
//                     of reports to `yourstate perf --diff` for regression
//                     tables and CI gates. Enables the allocator hook
//                     (perf.alloc.* counters) for the run.
//   --heartbeat=S     print a live progress line to stderr every S seconds
//                     (tasks done, rate, ETA, bench-specific extras).
//                     Monitoring only — results and merged metrics stay
//                     bit-identical; the stderr stream itself is
//                     wall-clock-driven and outside the determinism
//                     contract.
//   --phase-trace=F   write the aggregated phase profile as a Chrome
//                     trace-event JSON (chrome://tracing / Perfetto) to F
//                     at exit.
//   --timeline-out=F  record an opt-in virtual-time timeline
//                     (obs/timeline.h) for the whole run and write it as
//                     "ys.timeline.v1" JSON at exit — the input of
//                     `yourstate report`. Off by default so the
//                     bench_obs_overhead gate path is untouched.
//   --timeline-csv=F  same, flattened to CSV rows
//   --timeline-bucket-ms=N  timeline bucket width (default 1000)
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exp/calibration.h"
#include "exp/scenario.h"
#include "exp/stats.h"
#include "exp/table.h"
#include "exp/trial.h"
#include "exp/vantage.h"
#include "obs/export.h"
#include "obs/perf.h"
#include "obs/phase_profiler.h"
#include "obs/timeline.h"
#include "obs/timeline_export.h"
#include "runner/runner.h"

namespace ys::bench {

struct RunConfig {
  int trials = 0;       // 0 = use the binary's default
  int servers = 0;      // 0 = use the binary's default
  u64 seed = 2017;
  int jobs = 1;         // 1 = serial reference; 0 = hardware concurrency
  obs::OutputFlags outputs;  // --metrics-out, --timeline-out, --timeline-csv
  std::string flight_dir;  // empty = flight recorder off
  std::string faults;      // fault plan spec; empty = fault-free
  std::string resume_dir;  // empty = no persistent results store
  std::string report;      // BenchReport JSON path; empty = no report
  double heartbeat = 0.0;  // stderr heartbeat interval; 0 = off
  std::string phase_trace;  // Chrome trace JSON path; empty = off
  int timeline_bucket_ms = 1000;
};

// ------------------------------------------------------------ bench report
//
// The report rides the same atexit pattern as --metrics-out: parse_args
// seeds a pending report (environment fingerprint + config), the bench
// accumulates wall time / trial counts into it via report_note_run() (done
// automatically by print_runner_report) and names result metrics via
// report_add_metric(), and the atexit hook finalizes throughput +
// allocation-churn metrics, phase totals, and the merged snapshot, then
// writes the file. Everything is a no-op when --report was not given.

struct PendingReport {
  obs::perf::BenchReport report;
  std::string path;
  bool enabled = false;
  double wall_seconds = 0.0;  // accumulated across runs (smoke = several)
  u64 trials = 0;
};

inline PendingReport& pending_report() {
  static PendingReport pending;
  return pending;
}

inline bool report_enabled() { return pending_report().enabled; }

/// Fold one runner run into the pending report (wall time + trial count).
inline void report_note_run(const runner::RunnerReport& report) {
  PendingReport& p = pending_report();
  if (!p.enabled) return;
  p.wall_seconds += report.wall_seconds;
  p.trials += report.trials_executed;
}

/// Name a bench-specific result metric (success rate, flows/s, speedup...).
inline void report_add_metric(const std::string& name, double value,
                              const std::string& unit,
                              obs::perf::Direction direction) {
  PendingReport& p = pending_report();
  if (!p.enabled) return;
  p.report.metrics[name] = obs::perf::MetricValue{value, unit, direction};
}

/// Finalize and write the pending report (atexit: all worker registries
/// have been merged into the global one by now).
inline void write_bench_report() {
  PendingReport& p = pending_report();
  if (!p.enabled) return;
  obs::perf::BenchReport& r = p.report;
  r.wall_seconds = p.wall_seconds;
  r.snapshot = obs::MetricsRegistry::global().snapshot();

  using obs::perf::Direction;
  r.metrics["wall_seconds"] =
      obs::perf::MetricValue{p.wall_seconds, "s", Direction::kInfo};
  if (p.trials > 0) {
    r.config["trials_executed"] = static_cast<double>(p.trials);
    if (p.wall_seconds > 0.0 && r.metrics.count("trials_per_sec") == 0) {
      r.metrics["trials_per_sec"] = obs::perf::MetricValue{
          static_cast<double>(p.trials) / p.wall_seconds, "trials/s",
          Direction::kHigherIsBetter};
    }
    // Allocation churn per trial, from the counting-allocator hook the
    // runner sampled around every task (PoolOptions::track_allocs).
    const auto count_it = r.snapshot.counters.find("perf.alloc.count");
    const auto bytes_it = r.snapshot.counters.find("perf.alloc.bytes");
    if (count_it != r.snapshot.counters.end() && count_it->second > 0 &&
        r.metrics.count("allocs_per_trial") == 0) {
      r.metrics["allocs_per_trial"] = obs::perf::MetricValue{
          static_cast<double>(count_it->second) / static_cast<double>(p.trials),
          "allocs", Direction::kLowerIsBetter};
    }
    if (bytes_it != r.snapshot.counters.end() && bytes_it->second > 0 &&
        r.metrics.count("bytes_per_trial") == 0) {
      r.metrics["bytes_per_trial"] = obs::perf::MetricValue{
          static_cast<double>(bytes_it->second) / static_cast<double>(p.trials),
          "B", Direction::kLowerIsBetter};
    }
  }

  for (const auto& [name, agg] : obs::perf::PhaseProfiler::snapshot()) {
    obs::perf::PhaseTotal total;
    total.name = name;
    total.count = agg.count;
    total.wall_us = static_cast<double>(agg.wall_ns) / 1e3;
    r.phases.push_back(total);
  }

  if (!r.write(p.path)) {
    std::fprintf(stderr, "cannot write --report file %s\n", p.path.c_str());
  }
}

/// The bench's opt-in timeline (--timeline-out / --timeline-csv), or
/// nullptr when recording is off. Installed on the main thread by
/// parse_args for the whole bench lifetime; the runner pool mirrors it
/// into worker-private timelines and merges them back after each run, so
/// the atexit writer sees every producer's points.
inline obs::Timeline*& bench_timeline() {
  static obs::Timeline* tl = nullptr;
  return tl;
}

/// The parsed export flags, kept for the atexit writers (atexit can't
/// capture state).
inline obs::OutputFlags& bench_outputs() {
  static obs::OutputFlags outputs;
  return outputs;
}

inline void write_timeline_out() {
  const obs::Timeline* tl = bench_timeline();
  if (tl == nullptr) return;
  const std::string& json = bench_outputs().timeline_out;
  if (!json.empty() && !obs::write_timeline_json(json, *tl)) {
    std::fprintf(stderr, "cannot write --timeline-out file %s\n",
                 json.c_str());
  }
  const std::string& csv = bench_outputs().timeline_csv;
  if (!csv.empty() && !obs::write_timeline_csv(csv, *tl)) {
    std::fprintf(stderr, "cannot write --timeline-csv file %s\n",
                 csv.c_str());
  }
}

/// atexit hook for --phase-trace.
inline std::string& phase_trace_path() {
  static std::string path;
  return path;
}

inline void write_phase_trace_out() {
  const std::string& path = phase_trace_path();
  if (path.empty()) return;
  if (!obs::perf::write_phase_trace(path)) {
    std::fprintf(stderr, "cannot write --phase-trace file %s\n", path.c_str());
  }
}

inline runner::PoolOptions pool_options(const RunConfig& cfg) {
  runner::PoolOptions opt;
  opt.jobs = cfg.jobs;
  opt.heartbeat_seconds = cfg.heartbeat;
  // A report wants per-trial allocation churn; digests that must stay
  // jobs-invariant exclude perf.alloc.* (see the bench determinism
  // checks).
  opt.track_allocs = report_enabled();
  return opt;
}

/// --metrics-out runs at exit so every code path of every binary archives
/// its metrics; by then all worker registries have been merged back into
/// the global one.
inline void write_metrics_out() {
  obs::write_metrics_out(bench_outputs().metrics_out);
}

inline RunConfig parse_args(int argc, char** argv,
                            const char* bench_name = "bench") {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (cfg.outputs.parse(argv[i])) continue;
    if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      cfg.trials = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--servers=", 10) == 0) {
      cfg.servers = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      cfg.seed = static_cast<u64>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      cfg.jobs = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--flight-dir=", 13) == 0) {
      cfg.flight_dir = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      cfg.faults = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--resume-dir=", 13) == 0) {
      cfg.resume_dir = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
      cfg.report = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--heartbeat=", 12) == 0) {
      cfg.heartbeat = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--phase-trace=", 14) == 0) {
      cfg.phase_trace = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--timeline-bucket-ms=", 21) == 0) {
      cfg.timeline_bucket_ms = std::atoi(argv[i] + 21);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trials=N] [--servers=N] [--seed=S]"
                   " [--jobs=N] [--metrics-out=FILE] [--flight-dir=DIR]"
                   " [--faults=SPEC] [--resume-dir=DIR] [--report=FILE]"
                   " [--heartbeat=SECONDS] [--phase-trace=FILE]"
                   " [--timeline-out=FILE] [--timeline-csv=FILE]"
                   " [--timeline-bucket-ms=N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  bench_outputs() = cfg.outputs;
  if (!cfg.outputs.metrics_out.empty()) {
    std::atexit(write_metrics_out);
  }
  if (!cfg.report.empty()) {
    PendingReport& p = pending_report();
    p.report = obs::perf::make_report(bench_name);
    p.report.config["trials"] = cfg.trials;
    p.report.config["servers"] = cfg.servers;
    p.report.config["seed"] = static_cast<double>(cfg.seed);
    p.report.config["jobs"] = cfg.jobs;
    p.path = cfg.report;
    p.enabled = true;
    std::atexit(write_bench_report);
  }
  if (!cfg.phase_trace.empty()) {
    phase_trace_path() = cfg.phase_trace;
    std::atexit(write_phase_trace_out);
  }
  if (cfg.outputs.timeline()) {
    static obs::Timeline timeline{
        SimTime::from_ms(std::max(1, cfg.timeline_bucket_ms))};
    // Kept installed for the process lifetime; never popped, so the scope
    // object can live next to the timeline it points at.
    static obs::ScopedTimeline scope(&timeline);
    bench_timeline() = &timeline;
    std::atexit(write_timeline_out);
  }
  return cfg;
}

inline void print_banner(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

/// Per-strategy success-time profile from the exp.vtime.success.* virtual
/// time histograms (satellite view of the runner report: how fast each
/// strategy's successful trials complete in simulated time).
inline void print_vtime_profile() {
  const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
  bool header = false;
  for (const auto& [name, h] : snap.histograms) {
    constexpr const char* kPrefix = "exp.vtime.success.";
    if (name.rfind(kPrefix, 0) != 0 || h.count == 0) continue;
    if (!header) {
      std::printf("\nsuccess virtual-time profile (sim ms):\n");
      header = true;
    }
    std::printf("  %-32s n=%-6llu mean=%.1f\n",
                name.c_str() + std::strlen(kPrefix),
                static_cast<unsigned long long>(h.count), h.sum / h.count);
  }
}

/// Print the runner report and fold it into the global registry so
/// --metrics-out archives it. Quiet for the serial reference (jobs == 1,
/// no steals) to keep default bench output byte-identical to the
/// pre-runner era.
inline void print_runner_report(const runner::RunnerReport& report) {
  report.publish(obs::MetricsRegistry::global());
  report_note_run(report);
  if (report.jobs == 1) return;
  std::printf("\n%s", report.to_string().c_str());
  print_vtime_profile();
}

}  // namespace ys::bench
