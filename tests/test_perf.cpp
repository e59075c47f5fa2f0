// ys::obs::perf — bench report round-trips, percentile math, regression
// diffing, the counting-allocator hook, the phase profiler, and the
// determinism contract: report/heartbeat emission must not perturb
// --jobs=N bit-identity.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/file_io.h"
#include "core/json.h"
#include "obs/alloc_hook.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/phase_profiler.h"
#include "runner/runner.h"

namespace ys {
namespace {

using obs::perf::BenchReport;
using obs::perf::DiffResult;
using obs::perf::DiffStatus;
using obs::perf::Direction;
using obs::perf::MetricValue;

// ---------------------------------------------------------------- reports

BenchReport sample_report() {
  BenchReport r = obs::perf::make_report("unit");
  r.config["trials"] = 12;
  r.config["jobs"] = 4;
  r.wall_seconds = 1.5;
  r.metrics["flows_per_sec"] =
      MetricValue{11000.25, "flows/s", Direction::kHigherIsBetter};
  r.metrics["allocs_per_trial"] =
      MetricValue{923.5, "allocs", Direction::kLowerIsBetter};
  r.metrics["success_rate"] = MetricValue{0.97, "ratio", Direction::kInfo};
  obs::perf::PhaseTotal phase;
  phase.name = "fleet.flow";
  phase.count = 120;
  phase.wall_us = 15376.4;
  r.phases.push_back(phase);
  r.snapshot.counters["fleet.flows"] = 120;
  r.snapshot.gauges["runner.jobs"] = 4.0;
  obs::HistogramSnapshot h;
  h.bounds = {10.0, 20.0};
  h.counts = {3, 2, 1};
  h.count = 6;
  h.sum = 77.0;
  r.snapshot.histograms["lat"] = h;
  return r;
}

TEST(PerfReport, JsonRoundTrip) {
  const BenchReport r = sample_report();
  const std::string json = r.to_json();

  // The document must be valid JSON in its own right.
  ASSERT_TRUE(ys::json::parse(json).has_value()) << json;

  std::string error;
  const auto back = BenchReport::from_json(json, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->schema, BenchReport::kSchema);
  EXPECT_EQ(back->name, "unit");
  EXPECT_EQ(back->env, r.env);
  EXPECT_DOUBLE_EQ(back->config.at("trials"), 12.0);
  EXPECT_DOUBLE_EQ(back->wall_seconds, 1.5);

  ASSERT_EQ(back->metrics.size(), 3u);
  const MetricValue& fps = back->metrics.at("flows_per_sec");
  EXPECT_DOUBLE_EQ(fps.value, 11000.25);
  EXPECT_EQ(fps.unit, "flows/s");
  EXPECT_EQ(fps.direction, Direction::kHigherIsBetter);
  EXPECT_EQ(back->metrics.at("allocs_per_trial").direction,
            Direction::kLowerIsBetter);
  EXPECT_EQ(back->metrics.at("success_rate").direction, Direction::kInfo);

  ASSERT_EQ(back->phases.size(), 1u);
  EXPECT_EQ(back->phases[0].name, "fleet.flow");
  EXPECT_EQ(back->phases[0].count, 120u);
  EXPECT_DOUBLE_EQ(back->phases[0].wall_us, 15376.4);

  EXPECT_EQ(back->snapshot.counters.at("fleet.flows"), 120u);
  EXPECT_DOUBLE_EQ(back->snapshot.gauges.at("runner.jobs"), 4.0);
  const obs::HistogramSnapshot& h = back->snapshot.histograms.at("lat");
  EXPECT_EQ(h.counts, (std::vector<u64>{3, 2, 1}));
  EXPECT_DOUBLE_EQ(h.sum, 77.0);
}

TEST(PerfReport, WriteLoadFile) {
  const BenchReport r = sample_report();
  const std::string path = "test_perf_report.tmp.json";
  ASSERT_TRUE(r.write(path));
  std::string error;
  const auto back = BenchReport::load(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->name, "unit");
  EXPECT_EQ(back->metrics.size(), 3u);
  std::remove(path.c_str());
}

TEST(PerfReport, RejectsFutureSchema) {
  std::string json = sample_report().to_json();
  const std::string needle = "\"schema\": 1";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"schema\": 999");
  std::string error;
  EXPECT_FALSE(BenchReport::from_json(json, &error).has_value());
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(PerfReport, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(BenchReport::from_json("{not json", &error).has_value());
  EXPECT_FALSE(BenchReport::from_json("[1, 2, 3]", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(PerfReport, EnvFingerprintIsFilledIn) {
  const BenchReport r = obs::perf::make_report("x");
  EXPECT_EQ(r.name, "x");
  EXPECT_EQ(r.env.count("os"), 1u);
  EXPECT_EQ(r.env.count("arch"), 1u);
  EXPECT_EQ(r.env.count("compiler"), 1u);
  EXPECT_EQ(r.env.count("build"), 1u);
  EXPECT_EQ(r.env.count("sanitizer"), 1u);
}

// ------------------------------------------------------------ percentiles

obs::HistogramSnapshot make_hist(std::vector<double> bounds,
                                 std::vector<u64> counts) {
  obs::HistogramSnapshot h;
  h.bounds = std::move(bounds);
  h.counts = std::move(counts);
  for (u64 c : h.counts) h.count += c;
  return h;
}

TEST(Percentile, EmptyHistogramIsZero) {
  const obs::HistogramSnapshot h = make_hist({10.0, 20.0}, {0, 0, 0});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Percentile, UniformSingleBucket) {
  // 100 samples in [10, 20): linear interpolation inside the bucket.
  const obs::HistogramSnapshot h = make_hist({10.0, 20.0, 30.0}, {0, 100, 0});
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 20.0);
}

TEST(Percentile, AcrossBuckets) {
  // 50 in [0, 10), 50 in [10, 20): p50 at the bucket boundary, p75 halfway
  // through the second bucket.
  const obs::HistogramSnapshot h = make_hist({10.0, 20.0}, {50, 50, 0});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 5.0);
}

TEST(Percentile, OverflowBucketClampsToLastBound) {
  // Everything beyond the last bound has no upper edge; the estimate
  // reports the last finite bound rather than inventing one.
  const obs::HistogramSnapshot h = make_hist({10.0, 20.0}, {10, 10, 80});
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 20.0);
}

TEST(Percentile, MonotoneInQ) {
  const obs::HistogramSnapshot h =
      make_hist({1.0, 2.0, 5.0, 10.0}, {7, 13, 29, 3, 2});
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(Percentile, RegistryHistogramEndToEnd) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("t", {10.0, 100.0, 1000.0});
  for (int i = 0; i < 90; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(50.0);
  const auto snap = reg.snapshot().histograms.at("t");
  EXPECT_GT(snap.percentile(0.95), 10.0);
  EXPECT_LE(snap.percentile(0.50), 10.0);
}

// ------------------------------------------------------------------ diffs

BenchReport report_with(const std::string& name, double value,
                        Direction direction) {
  BenchReport r = obs::perf::make_report("unit");
  r.metrics[name] = MetricValue{value, "u", direction};
  return r;
}

TEST(PerfDiff, WithinToleranceIsOk) {
  const auto oldr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  const auto newr = report_with("rate", 95.0, Direction::kHigherIsBetter);
  const DiffResult d = obs::perf::diff_reports(oldr, newr, 0.10);
  ASSERT_EQ(d.rows.size(), 1u);
  EXPECT_EQ(d.rows[0].status, DiffStatus::kOk);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.regressions, 0);
}

TEST(PerfDiff, HigherIsBetterRegression) {
  const auto oldr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  const auto newr = report_with("rate", 80.0, Direction::kHigherIsBetter);
  const DiffResult d = obs::perf::diff_reports(oldr, newr, 0.10);
  ASSERT_EQ(d.rows.size(), 1u);
  EXPECT_EQ(d.rows[0].status, DiffStatus::kRegressed);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.regressions, 1);
}

TEST(PerfDiff, HigherIsBetterImprovement) {
  const auto oldr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  const auto newr = report_with("rate", 130.0, Direction::kHigherIsBetter);
  const DiffResult d = obs::perf::diff_reports(oldr, newr, 0.10);
  EXPECT_EQ(d.rows[0].status, DiffStatus::kImproved);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.improvements, 1);
}

TEST(PerfDiff, LowerIsBetterDirectionsFlip) {
  // allocs going UP is the regression; going down is the improvement.
  const auto oldr = report_with("allocs", 1000.0, Direction::kLowerIsBetter);
  const auto up = report_with("allocs", 1200.0, Direction::kLowerIsBetter);
  const auto down = report_with("allocs", 800.0, Direction::kLowerIsBetter);
  EXPECT_EQ(obs::perf::diff_reports(oldr, up, 0.10).rows[0].status,
            DiffStatus::kRegressed);
  EXPECT_EQ(obs::perf::diff_reports(oldr, down, 0.10).rows[0].status,
            DiffStatus::kImproved);
}

TEST(PerfDiff, InfoMetricsNeverGate) {
  const auto oldr = report_with("wall", 1.0, Direction::kInfo);
  const auto newr = report_with("wall", 100.0, Direction::kInfo);
  const DiffResult d = obs::perf::diff_reports(oldr, newr, 0.10);
  EXPECT_EQ(d.rows[0].status, DiffStatus::kInfo);
  EXPECT_TRUE(d.ok());
}

TEST(PerfDiff, DroppedGatedMetricIsARegression) {
  const auto oldr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  BenchReport newr = obs::perf::make_report("unit");
  const DiffResult d = obs::perf::diff_reports(oldr, newr, 0.10);
  ASSERT_EQ(d.rows.size(), 1u);
  EXPECT_EQ(d.rows[0].status, DiffStatus::kMissingNew);
  EXPECT_FALSE(d.ok());
}

TEST(PerfDiff, NewMetricIsNotARegression) {
  BenchReport oldr = obs::perf::make_report("unit");
  const auto newr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  const DiffResult d = obs::perf::diff_reports(oldr, newr, 0.10);
  ASSERT_EQ(d.rows.size(), 1u);
  EXPECT_EQ(d.rows[0].status, DiffStatus::kMissingOld);
  EXPECT_TRUE(d.ok());
}

TEST(PerfDiff, EnvMismatchIsReportedAsCaveat) {
  auto oldr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  auto newr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  newr.env["compiler"] = "totally-different-compiler 99";
  const DiffResult d = obs::perf::diff_reports(oldr, newr, 0.10);
  ASSERT_EQ(d.env_mismatches.size(), 1u);
  EXPECT_NE(d.env_mismatches[0].find("compiler"), std::string::npos);
  EXPECT_NE(d.render().find("compiler"), std::string::npos);
  EXPECT_TRUE(d.ok());  // a caveat, not a regression
}

TEST(PerfDiff, RenderMentionsEveryMetric) {
  auto oldr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  oldr.metrics["allocs"] = MetricValue{10.0, "n", Direction::kLowerIsBetter};
  const DiffResult d = obs::perf::diff_reports(oldr, oldr, 0.10);
  const std::string table = d.render();
  EXPECT_NE(table.find("rate"), std::string::npos);
  EXPECT_NE(table.find("allocs"), std::string::npos);
  EXPECT_NE(table.find("0 regression(s)"), std::string::npos);
}

TEST(PerfDiff, PerMetricToleranceOverrideTightens) {
  // A 10% alloc increase sails through the wide wall-clock band but must
  // trip a 2% per-metric override — and only for the overridden metric.
  auto oldr = report_with("allocs_per_trial", 1000.0, Direction::kLowerIsBetter);
  oldr.metrics["flows_per_sec"] =
      MetricValue{100.0, "flows/s", Direction::kHigherIsBetter};
  auto newr = report_with("allocs_per_trial", 1100.0, Direction::kLowerIsBetter);
  newr.metrics["flows_per_sec"] =
      MetricValue{90.0, "flows/s", Direction::kHigherIsBetter};

  const DiffResult wide = obs::perf::diff_reports(oldr, newr, 0.50);
  EXPECT_TRUE(wide.ok());

  const DiffResult tight = obs::perf::diff_reports(
      oldr, newr, 0.50, {{"allocs_per_trial", 0.02}});
  ASSERT_EQ(tight.rows.size(), 2u);
  EXPECT_FALSE(tight.ok());
  EXPECT_EQ(tight.regressions, 1);
  for (const auto& row : tight.rows) {
    if (row.metric == "allocs_per_trial") {
      EXPECT_EQ(row.status, DiffStatus::kRegressed);
      EXPECT_DOUBLE_EQ(row.tolerance, 0.02);
    } else {
      EXPECT_EQ(row.status, DiffStatus::kOk);  // still the global band
      EXPECT_DOUBLE_EQ(row.tolerance, 0.50);
    }
  }
}

TEST(PerfDiff, OverrideCanLoosenToo) {
  const auto oldr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  const auto newr = report_with("rate", 70.0, Direction::kHigherIsBetter);
  EXPECT_FALSE(obs::perf::diff_reports(oldr, newr, 0.10).ok());
  EXPECT_TRUE(
      obs::perf::diff_reports(oldr, newr, 0.10, {{"rate", 0.40}}).ok());
}

TEST(PerfDiff, ToJsonIsValidAndComplete) {
  auto oldr = report_with("rate", 100.0, Direction::kHigherIsBetter);
  oldr.metrics["allocs"] = MetricValue{10.0, "n", Direction::kLowerIsBetter};
  auto newr = report_with("rate", 50.0, Direction::kHigherIsBetter);
  newr.metrics["allocs"] = MetricValue{10.0, "n", Direction::kLowerIsBetter};
  newr.env["compiler"] = "other-compiler 1";
  const DiffResult d =
      obs::perf::diff_reports(oldr, newr, 0.10, {{"allocs", 0.02}});

  const auto doc = ys::json::parse(d.to_json());
  ASSERT_TRUE(doc.has_value()) << d.to_json();
  EXPECT_DOUBLE_EQ(doc->find("regressions")->number, 1.0);
  EXPECT_DOUBLE_EQ(doc->find("improvements")->number, 0.0);
  EXPECT_EQ(doc->find("ok")->boolean, false);

  const auto* mismatches = doc->find("env_mismatches");
  ASSERT_NE(mismatches, nullptr);
  ASSERT_EQ(mismatches->array.size(), 1u);
  EXPECT_NE(mismatches->array[0].string.find("compiler"), std::string::npos);

  const auto* rows = doc->find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 2u);
  bool saw_rate = false;
  bool saw_allocs = false;
  for (const auto& row : rows->array) {
    const std::string metric = row.find("metric")->string;
    if (metric == "rate") {
      saw_rate = true;
      EXPECT_EQ(row.find("status")->string, "REGRESSED");
      EXPECT_DOUBLE_EQ(row.find("old")->number, 100.0);
      EXPECT_DOUBLE_EQ(row.find("new")->number, 50.0);
      EXPECT_DOUBLE_EQ(row.find("delta")->number, -0.5);
      EXPECT_DOUBLE_EQ(row.find("tolerance")->number, 0.10);
      EXPECT_EQ(row.find("direction")->string, "higher");
    } else if (metric == "allocs") {
      saw_allocs = true;
      EXPECT_EQ(row.find("status")->string, "ok");
      EXPECT_DOUBLE_EQ(row.find("tolerance")->number, 0.02);
    }
  }
  EXPECT_TRUE(saw_rate);
  EXPECT_TRUE(saw_allocs);
}

TEST(PerfDiff, ZeroOldValueDoesNotDivide) {
  const auto oldr = report_with("rate", 0.0, Direction::kHigherIsBetter);
  const auto newr = report_with("rate", 50.0, Direction::kHigherIsBetter);
  const DiffResult d = obs::perf::diff_reports(oldr, newr, 0.10);
  ASSERT_EQ(d.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(d.rows[0].delta, 0.0);
  EXPECT_EQ(d.rows[0].status, DiffStatus::kOk);
}

// -------------------------------------------------------------- alloc hook

TEST(AllocHook, CountsThisThreadsAllocations) {
  if (!obs::perf::alloc_hook_available()) {
    GTEST_SKIP() << "allocator hook compiled out (sanitizer build)";
  }
  const auto before = obs::perf::thread_alloc_counters();
  {
    std::vector<std::string> v;
    for (int i = 0; i < 64; ++i) {
      v.push_back(std::string(128, 'x'));  // forces heap allocations
    }
  }
  const auto after = obs::perf::thread_alloc_counters();
  EXPECT_GT(after.count, before.count);
  EXPECT_GE(after.bytes - before.bytes, 64u * 128u);
}

TEST(AllocHook, CountersAreMonotone) {
  if (!obs::perf::alloc_hook_available()) {
    GTEST_SKIP() << "allocator hook compiled out (sanitizer build)";
  }
  const auto a = obs::perf::thread_alloc_counters();
  // Call the replaceable allocation functions directly: a new-expression
  // with an unused result may legally be elided by the optimizer.
  void* p = ::operator new(256);
  ::operator delete(p);
  const auto b = obs::perf::thread_alloc_counters();
  EXPECT_GE(b.count, a.count + 1);  // frees never decrement
}

// ---------------------------------------------------------- phase profiler

TEST(PhaseProfiler, RecordsAndMerges) {
  obs::perf::PhaseProfiler::reset();
  { obs::perf::ScopedPhase p("test.phase_a"); }
  { obs::perf::ScopedPhase p("test.phase_a"); }
  { obs::perf::ScopedPhase p("test.phase_b"); }
  const auto snap = obs::perf::PhaseProfiler::snapshot();
  ASSERT_EQ(snap.count("test.phase_a"), 1u);
  EXPECT_EQ(snap.at("test.phase_a").count, 2u);
  EXPECT_EQ(snap.at("test.phase_b").count, 1u);
  obs::perf::PhaseProfiler::reset();
  EXPECT_EQ(obs::perf::PhaseProfiler::snapshot().count("test.phase_a"), 0u);
}

TEST(PhaseProfiler, KillSwitchStopsRecording) {
  obs::perf::PhaseProfiler::reset();
  obs::perf::PhaseProfiler::set_enabled(false);
  { obs::perf::ScopedPhase p("test.disabled"); }
  obs::perf::PhaseProfiler::set_enabled(true);
  EXPECT_EQ(obs::perf::PhaseProfiler::snapshot().count("test.disabled"), 0u);
}

TEST(PhaseProfiler, TraceExportIsValidJson) {
  obs::perf::PhaseProfiler::reset();
  { obs::perf::ScopedPhase p("test.trace_me"); }
  const std::string path = "test_perf_phases.tmp.json";
  ASSERT_TRUE(obs::perf::write_phase_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  const auto doc = ys::json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const auto& ev : events->array) {
    const auto* name = ev.find("name");
    if (name != nullptr && name->string == "test.trace_me") found = true;
  }
  EXPECT_TRUE(found);
  obs::perf::PhaseProfiler::reset();
}

TEST(PhaseProfiler, TraceExportEscapesLabelsAndPhaseNames) {
  constexpr const char* kPhase = "test.\"quoted\\phase";
  const std::string label = "w\"1\\";
  obs::perf::PhaseProfiler::reset();
  obs::perf::PhaseProfiler::set_thread_label(label);
  { obs::perf::ScopedPhase p(kPhase); }
  const std::string path = "test_perf_phases_escaped.tmp.json";
  const bool written = obs::perf::write_phase_trace(path);
  obs::perf::PhaseProfiler::set_thread_label("main");
  obs::perf::PhaseProfiler::reset();
  ASSERT_TRUE(written);
  const std::optional<std::string> text = read_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(text.has_value());
  const auto doc = ys::json::parse(*text);
  ASSERT_TRUE(doc.has_value()) << *text;
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  double label_tid = -1;
  double phase_tid = -2;
  for (const auto& ev : events->array) {
    const auto* ph = ev.find("ph");
    const auto* name = ev.find("name");
    const auto* tid = ev.find("tid");
    ASSERT_TRUE(ph != nullptr && name != nullptr && tid != nullptr);
    const auto* args = ev.find("args");
    if (ph->string == "M" && args != nullptr) {
      const auto* thread = args->find("name");
      if (thread != nullptr && thread->string == label) label_tid = tid->number;
    }
    if (ph->string == "X" && name->string == kPhase) {
      phase_tid = tid->number;
      const auto* count = args != nullptr ? args->find("count") : nullptr;
      ASSERT_NE(count, nullptr);
      EXPECT_EQ(count->number, 1.0);
    }
  }
  EXPECT_EQ(label_tid, phase_tid) << *text;
}

// ------------------------------------------------- determinism under telemetry

struct TelemetryRun {
  std::vector<i64> slots;
  obs::Snapshot snapshot;
};

/// A grid run with every telemetry feature enabled: allocator sampling,
/// a fast heartbeat (so the monitor thread provably runs), and phase
/// timers. Results must still be a pure function of the grid coordinates.
TelemetryRun run_telemetry_grid(int jobs) {
  runner::TrialGrid grid;
  grid.cells = 2;
  grid.vantages = 3;
  grid.servers = 2;
  grid.trials = 5;

  runner::PoolOptions pool;
  pool.jobs = jobs;
  pool.shard_size = 1;  // many shards: steals + heartbeat progress updates
  pool.track_allocs = true;
  pool.heartbeat_seconds = 0.001;  // spin the monitor thread for real
  pool.heartbeat_extra = [] { return std::string("unit-test"); };

  obs::MetricsRegistry local;
  TelemetryRun run;
  {
    obs::ScopedMetricsRegistry scope(&local);
    auto out = runner::collect_grid_or(
        grid, pool, static_cast<i64>(-1),
        [](const runner::GridCoord& c, runner::TaskContext&) {
          obs::perf::ScopedPhase phase("test.telemetry_task");
          // Deterministic per-coordinate work with heap churn.
          Rng rng(Rng::mix_seed({c.cell, c.vantage, c.server, c.trial}));
          std::vector<u64> scratch;
          const std::size_t len = 8 + rng.uniform(24);
          for (std::size_t i = 0; i < len; ++i) {
            scratch.push_back(rng.next_u64());
          }
          u64 acc = 0;
          for (u64 v : scratch) acc ^= v;
          obs::MetricsRegistry::current()
              .counter("test.work_" + std::to_string(c.cell))
              .inc(1 + (acc & 7));
          return static_cast<i64>(acc & 0x7fffffff);
        });
    run.slots = std::move(out.slots);
  }
  run.snapshot = local.snapshot();
  return run;
}

TEST(AllocHook, TelemetryDoesNotPerturbResults) {
  const TelemetryRun serial = run_telemetry_grid(1);
  const TelemetryRun parallel = run_telemetry_grid(8);

  // Slots: bit-identical.
  ASSERT_EQ(serial.slots.size(), parallel.slots.size());
  EXPECT_EQ(serial.slots, parallel.slots);

  // Counters: identical except perf.alloc.* (those include one-time
  // per-worker setup allocations, documented jobs-dependent).
  auto without_alloc = [](const std::map<std::string, u64>& counters) {
    std::map<std::string, u64> out;
    for (const auto& [name, v] : counters) {
      if (name.rfind("perf.alloc", 0) == 0) continue;
      out.emplace(name, v);
    }
    return out;
  };
  EXPECT_EQ(without_alloc(serial.snapshot.counters),
            without_alloc(parallel.snapshot.counters));

  // The sampled totals themselves must exist and be nonzero when the hook
  // is live — the per-task deltas all merged back.
  if (obs::perf::alloc_hook_available()) {
    EXPECT_GT(serial.snapshot.counters.at("perf.alloc.count"), 0u);
    EXPECT_GT(serial.snapshot.counters.at("perf.alloc.bytes"), 0u);
  }
}

TEST(AllocHook, SerialRunsAreExactlyReproducible) {
  // Two serial runs with telemetry on: byte-identical everything,
  // including perf.alloc.* (same thread layout both times). A warm-up
  // run first pays process-wide one-time lazy allocations (locale,
  // hash-table growth) that would otherwise land only in the first
  // sampled run.
  (void)run_telemetry_grid(1);
  const TelemetryRun a = run_telemetry_grid(1);
  const TelemetryRun b = run_telemetry_grid(1);
  EXPECT_EQ(a.slots, b.slots);
  if (obs::perf::alloc_hook_available()) {
    EXPECT_EQ(a.snapshot.counters.at("perf.alloc.count"),
              b.snapshot.counters.at("perf.alloc.count"));
    EXPECT_EQ(a.snapshot.counters.at("perf.alloc.bytes"),
              b.snapshot.counters.at("perf.alloc.bytes"));
  }
}

}  // namespace
}  // namespace ys
