// Measures what the obs layer costs on the hot path: the bench_micro
// end-to-end workload (full HTTP trials through the event loop, path, GFW
// devices, TCP stacks and INTANG) is timed with metric updates enabled and
// with the runtime kill switch off (`obs::set_metrics_enabled(false)`,
// which reduces every update to the same predictable branch the
// -DYS_OBS_DISABLE compile-out leaves behind). The acceptance bar for the
// observability layer is <5% overhead with tracing off (the default);
// structured tracing and timeline recording (obs/timeline.h) are opt-in
// axes whose cost is measured and reported separately but not gated —
// with no timeline installed their producer sites are the same
// thread-local read + branch the gate already covers.
//
//   bench_obs_overhead [--smoke] [--trials=N] [--reps=K] [--max-overhead=P]
//                      [--report=FILE]
//
// Exit status 0 iff measured metrics overhead <= P percent (default 5).
// A rep runs batches of N trials of every mode round-robin until each mode
// has run for at least kMinRepSeconds, so a faster hot path does not
// shrink the reps below what the clock can time reliably, and machine
// drift within a rep hits every mode alike. Each rep yields one time ratio
// per mode against metrics-off; the gate compares the median over K reps.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <optional>

#include "exp/scenario.h"
#include "exp/trial.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/timeline.h"

namespace ys {
namespace {

double run_workload(const gfw::DetectionRules* rules, int trials, u64 seed,
                    bool tracing, bool timeline = false) {
  // Installed around the timed loop: the measured delta is what every
  // producer site pays to resolve + fold into buckets during a
  // --timeline-out run (export cost happens once, at exit).
  std::optional<obs::Timeline> tl;
  std::optional<obs::ScopedTimeline> tl_scope;
  if (timeline) {
    tl.emplace(SimTime::from_sec(1));
    tl_scope.emplace(&*tl);
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < trials; ++i) {
    exp::ScenarioOptions opt;
    opt.vp = exp::china_vantage_points()[0];
    opt.server.host = "site-0.example";
    opt.server.ip = net::make_ip(93, 184, 216, 34);
    opt.cal = exp::Calibration::standard();
    opt.seed = seed + static_cast<u64>(i);
    opt.tracing = tracing;
    exp::Scenario sc(rules, opt);
    exp::HttpTrialOptions http;
    http.with_keyword = true;
    http.strategy = strategy::StrategyId::kImprovedTeardown;
    volatile bool sink = exp::run_http_trial(sc, http).response_received;
    (void)sink;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

constexpr double kMinRepSeconds = 0.05;

/// A measured configuration of the obs layer.
struct Mode {
  bool metrics;
  bool tracing;
  bool timeline;
};

/// One rep: the modes' trial batches run round-robin, one batch each in
/// turn, until every mode has run for kMinRepSeconds, so drift hits all
/// modes alike. Returns seconds per trial for each mode.
std::vector<double> time_rep(const gfw::DetectionRules* rules, int trials,
                             const std::vector<Mode>& modes) {
  std::vector<double> elapsed(modes.size(), 0.0);
  int batches = 0;
  while (*std::min_element(elapsed.begin(), elapsed.end()) < kMinRepSeconds) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      obs::set_metrics_enabled(modes[m].metrics);
      elapsed[m] +=
          run_workload(rules, trials, 1, modes[m].tracing, modes[m].timeline);
    }
    ++batches;
  }
  obs::set_metrics_enabled(true);
  for (double& e : elapsed) e /= static_cast<double>(batches) * trials;
  return elapsed;
}

int run(int argc, char** argv) {
  int trials = 120;
  int reps = 5;
  double max_overhead_pct = 5.0;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      trials = 200;
      reps = 7;
    } else if (arg.rfind("--trials=", 0) == 0) {
      trials = std::max(1, std::atoi(arg.c_str() + 9));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--max-overhead=", 0) == 0) {
      max_overhead_pct = std::atof(arg.c_str() + 15);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else {
      std::fprintf(stderr,
                   "usage: bench_obs_overhead [--smoke] [--trials=N] "
                   "[--reps=K] [--max-overhead=P] [--report=FILE]\n");
      return 2;
    }
  }

  const gfw::DetectionRules rules = gfw::DetectionRules::standard();

  // Warm-up: fault in code paths and registry slots for all modes.
  obs::set_metrics_enabled(true);
  run_workload(&rules, std::max(1, trials / 10), 999, /*tracing=*/false);
  run_workload(&rules, std::max(1, trials / 10), 999, /*tracing=*/true);
  run_workload(&rules, std::max(1, trials / 10), 999, /*tracing=*/false,
               /*timeline=*/true);
  obs::set_metrics_enabled(false);
  run_workload(&rules, std::max(1, trials / 10), 999, /*tracing=*/false);

  // Per rep: metrics on, metrics off, tracing, timeline.
  const std::vector<Mode> modes = {{true, false, false},
                                   {false, false, false},
                                   {true, true, false},
                                   {true, false, true}};
  std::vector<std::vector<double>> per_trial(modes.size());
  std::vector<std::vector<double>> ratio(modes.size());
  for (int r = 0; r < reps; ++r) {
    const std::vector<double> rep = time_rep(&rules, trials, modes);
    for (std::size_t m = 0; m < modes.size(); ++m) {
      per_trial[m].push_back(rep[m]);
      ratio[m].push_back(rep[m] / rep[1]);
    }
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  const double on_s = median(per_trial[0]);
  const double off_s = median(per_trial[1]);
  const double traced_s = median(per_trial[2]);
  const double timeline_s = median(per_trial[3]);

  const double overhead_pct = (median(ratio[0]) - 1.0) * 100.0;
  const double traced_pct = (median(ratio[2]) - 1.0) * 100.0;
  const double timeline_pct = (median(ratio[3]) - 1.0) * 100.0;
  std::printf("bench_obs_overhead: batches of %d http trials, reps of at "
              "least %.0f ms, %d reps\n",
              trials, kMinRepSeconds * 1e3, reps);
  const auto us = [](double s) { return s * 1e6; };
  std::printf("  metrics enabled : %9.2f us/trial (median of %d)\n",
              us(on_s), reps);
  std::printf("  metrics disabled: %9.2f us/trial (median of %d)\n",
              us(off_s), reps);
  std::printf("  metrics+tracing : %9.2f us/trial (median of %d)\n",
              us(traced_s), reps);
  std::printf("  metrics+timeline: %9.2f us/trial (median of %d)\n",
              us(timeline_s), reps);
  std::printf("  overhead        : %+8.2f %%  (bar: %.1f %%)\n",
              overhead_pct, max_overhead_pct);
  std::printf("  traced overhead : %+8.2f %%  (informational; tracing is "
              "opt-in)\n",
              traced_pct);
  std::printf("  timeline overhead: %+7.2f %%  (informational; timelines "
              "are opt-in)\n",
              timeline_pct);
  const bool ok = overhead_pct <= max_overhead_pct;
  std::printf("  verdict         : %s\n", ok ? "PASS" : "FAIL");

  if (!report_path.empty()) {
    using obs::perf::Direction;
    obs::perf::BenchReport rep = obs::perf::make_report("obs_overhead");
    rep.config["trials"] = trials;
    rep.config["reps"] = reps;
    rep.wall_seconds = on_s * trials;
    rep.metrics["trials_per_sec"] = obs::perf::MetricValue{
        on_s > 0.0 ? 1.0 / on_s : 0.0, "trials/s",
        Direction::kHigherIsBetter};
    rep.metrics["overhead_pct"] = obs::perf::MetricValue{
        overhead_pct, "%", Direction::kLowerIsBetter};
    rep.metrics["traced_overhead_pct"] = obs::perf::MetricValue{
        traced_pct, "%", Direction::kInfo};
    rep.metrics["timeline_overhead_pct"] = obs::perf::MetricValue{
        timeline_pct, "%", Direction::kInfo};
    rep.snapshot = obs::MetricsRegistry::global().snapshot();
    if (!rep.write(report_path)) {
      std::fprintf(stderr, "cannot write --report file %s\n",
                   report_path.c_str());
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ys

int main(int argc, char** argv) { return ys::run(argc, argv); }
