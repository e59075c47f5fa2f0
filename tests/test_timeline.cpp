// ys::obs::Timeline: bucket semantics, merge algebra, export round-trips,
// the jobs-invariance of fleet timelines, HTML report generation, and the
// heartbeat shutdown regression.
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/json.h"
#include "fleet/fleet.h"
#include "fleet/fleet_config.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/timeline_export.h"
#include "runner/runner.h"
#include "search/engine.h"

namespace ys {
namespace {

using obs::ScopedTimeline;
using obs::Timeline;
using obs::TimelineKind;
using obs::TimelineLabels;

// ---------------------------------------------------------------- core

TEST(Timeline, BucketBoundaries) {
  Timeline tl{SimTime::from_sec(1)};
  EXPECT_EQ(tl.bucket_of(SimTime::from_us(0)), 0);
  EXPECT_EQ(tl.bucket_of(SimTime::from_us(999'999)), 0);
  // An event exactly on a boundary opens the next bucket.
  EXPECT_EQ(tl.bucket_of(SimTime::from_us(1'000'000)), 1);
  EXPECT_EQ(tl.bucket_of(SimTime::from_us(1'000'001)), 1);
  EXPECT_EQ(tl.bucket_of(SimTime::from_us(-1)), -1);
  EXPECT_EQ(tl.bucket_of(SimTime::from_us(-1'000'000)), -1);
  EXPECT_EQ(tl.bucket_of(SimTime::from_us(-1'000'001)), -2);
  EXPECT_EQ(tl.bucket_start(3).us, 3'000'000);
}

TEST(Timeline, RejectsNonPositiveBucketWidth) {
  EXPECT_THROW(Timeline{SimTime::from_us(0)}, std::logic_error);
  EXPECT_THROW(Timeline{SimTime::from_us(-5)}, std::logic_error);
}

TEST(Timeline, CounterAndGaugeAccumulate) {
  Timeline tl{SimTime::from_ms(100)};
  const TimelineLabels lbl{{"vantage", "bj"}};
  tl.count("flows", lbl, SimTime::from_ms(50));        // bucket 0
  tl.count("flows", lbl, SimTime::from_ms(70), 2);     // bucket 0
  tl.count("flows", lbl, SimTime::from_ms(150));       // bucket 1
  tl.sample("depth", lbl, SimTime::from_ms(10), 4);
  tl.sample("depth", lbl, SimTime::from_ms(20), 10);
  tl.sample("depth", lbl, SimTime::from_ms(30), 7);

  ASSERT_EQ(tl.series_count(), 2u);
  const auto& flows = tl.series().at({"flows", lbl});
  EXPECT_EQ(flows.kind, TimelineKind::kCounter);
  EXPECT_EQ(flows.buckets.at(0).sum, 3);
  EXPECT_EQ(flows.buckets.at(0).count, 2u);
  EXPECT_EQ(flows.buckets.at(1).sum, 1);

  const auto& depth = tl.series().at({"depth", lbl});
  EXPECT_EQ(depth.kind, TimelineKind::kGauge);
  EXPECT_EQ(depth.buckets.at(0).sum, 21);
  EXPECT_EQ(depth.buckets.at(0).count, 3u);
  EXPECT_EQ(depth.buckets.at(0).min, 4);
  EXPECT_EQ(depth.buckets.at(0).max, 10);
}

TEST(Timeline, KindConflictThrows) {
  Timeline tl;
  tl.count("x", {}, SimTime::from_ms(1));
  EXPECT_THROW(tl.sample("x", {}, SimTime::from_ms(2), 3), std::logic_error);
}

TEST(Timeline, MergeWidthMismatchThrows) {
  Timeline a{SimTime::from_sec(1)};
  Timeline b{SimTime::from_ms(500)};
  EXPECT_THROW(a.merge_from(b), std::logic_error);
}

TEST(Timeline, MergeKindMismatchThrows) {
  Timeline a;
  Timeline b;
  a.count("x", {}, SimTime::from_ms(1));
  b.sample("x", {}, SimTime::from_ms(1), 2);
  EXPECT_THROW(a.merge_from(b), std::logic_error);
}

Timeline make_part(int which) {
  Timeline tl{SimTime::from_ms(100)};
  const TimelineLabels lbl{{"w", std::to_string(which % 2)}};
  for (int i = 0; i < 6; ++i) {
    tl.count("flows", lbl, SimTime::from_ms(37 * (which + 1) * i), 1 + which);
    tl.sample("depth", {}, SimTime::from_ms(53 * i), which * 10 + i);
  }
  tl.annotate(SimTime::from_ms(200 * which), "mark",
              "part " + std::to_string(which));
  return tl;
}

TEST(Timeline, MergeAssociativeAndCommutative) {
  const Timeline a = make_part(0);
  const Timeline b = make_part(1);
  const Timeline c = make_part(2);

  // ((a + b) + c)
  Timeline left = a;
  left.merge_from(b);
  left.merge_from(c);
  // (a + (b + c))
  Timeline bc = b;
  bc.merge_from(c);
  Timeline right = a;
  right.merge_from(bc);
  // ((c + b) + a) — commuted order
  Timeline rev = c;
  rev.merge_from(b);
  rev.merge_from(a);

  const std::string want = obs::timeline_to_json(left);
  EXPECT_EQ(obs::timeline_to_json(right), want);
  EXPECT_EQ(obs::timeline_to_json(rev), want);
  EXPECT_EQ(obs::timeline_digest(right), obs::timeline_digest(left));
  EXPECT_EQ(obs::timeline_digest(rev), obs::timeline_digest(left));
}

TEST(Timeline, MergeDeduplicatesAnnotations) {
  Timeline a;
  Timeline b;
  a.annotate_bucket(2, "soak-phase", "p1: rst-storm");
  b.annotate_bucket(2, "soak-phase", "p1: rst-storm");
  b.annotate_bucket(4, "soak-phase", "p2: none");
  a.merge_from(b);
  EXPECT_EQ(a.annotations().size(), 2u);
  a.merge_from(b);  // idempotent re-merge
  EXPECT_EQ(a.annotations().size(), 2u);
}

TEST(Timeline, ScopedInstallNests) {
  EXPECT_EQ(Timeline::current(), nullptr);
  Timeline outer;
  {
    ScopedTimeline a(&outer);
    EXPECT_EQ(Timeline::current(), &outer);
    Timeline inner;
    {
      ScopedTimeline b(&inner);
      EXPECT_EQ(Timeline::current(), &inner);
    }
    EXPECT_EQ(Timeline::current(), &outer);
  }
  EXPECT_EQ(Timeline::current(), nullptr);
}

TEST(Timeline, DigestPrefixExclusion) {
  Timeline a{SimTime::from_sec(1)};
  Timeline b{SimTime::from_sec(1)};
  a.count("fleet.flows", {}, SimTime::from_ms(10));
  b.count("fleet.flows", {}, SimTime::from_ms(10));
  // Wall-clock series differ between the two runs...
  a.count("runner.tasks_done", {{"axis", "wall"}}, SimTime::from_ms(1), 7);
  b.count("runner.tasks_done", {{"axis", "wall"}}, SimTime::from_ms(900), 3);
  EXPECT_NE(obs::timeline_digest(a), obs::timeline_digest(b));
  // ...but the virtual-time digest excludes them.
  EXPECT_EQ(obs::timeline_digest(a, {"runner."}),
            obs::timeline_digest(b, {"runner."}));
}

// ------------------------------------------------------------- exporters

TEST(Timeline, JsonRoundTrip) {
  Timeline tl{SimTime::from_ms(250)};
  tl.count("fleet.flows", {{"vantage", "bj"}}, SimTime::from_ms(100), 3);
  tl.sample("fleet.flow_index", {{"vantage", "bj"}}, SimTime::from_ms(400),
            12);
  tl.annotate(SimTime::from_ms(500), "soak-phase", "p1: rst-storm");

  const std::string json = obs::timeline_to_json(tl);
  std::string error;
  const auto doc = obs::parse_timeline_json(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->bucket_us, 250'000);
  ASSERT_EQ(doc->series.size(), 2u);
  EXPECT_EQ(doc->series[0].name, "fleet.flow_index");
  EXPECT_EQ(doc->series[0].kind, "gauge");
  ASSERT_EQ(doc->series[0].points.size(), 1u);
  EXPECT_EQ(doc->series[0].points[0].bucket, 1);
  EXPECT_EQ(doc->series[0].points[0].sum, 12);
  EXPECT_EQ(doc->series[1].name, "fleet.flows");
  EXPECT_EQ(doc->series[1].labels.at("vantage"), "bj");
  EXPECT_EQ(doc->series[1].points[0].sum, 3);
  ASSERT_EQ(doc->annotations.size(), 1u);
  EXPECT_EQ(doc->annotations[0].bucket, 2);
  EXPECT_EQ(doc->annotations[0].category, "soak-phase");
  EXPECT_EQ(doc->total("fleet.flows"), 3);
}

TEST(Timeline, CsvShape) {
  Timeline tl{SimTime::from_ms(100)};
  tl.count("flows", {{"vantage", "bj"}, {"vantage_index", "0"}},
           SimTime::from_ms(150), 2);
  const std::string csv = obs::timeline_to_csv(tl);
  EXPECT_EQ(csv.rfind("name,labels,kind,bucket,bucket_start_us,sum,count,"
                      "min,max\n", 0), 0u);
  EXPECT_NE(csv.find("flows,vantage=bj;vantage_index=0,counter,1,100000,2,1"),
            std::string::npos);
}

TEST(Timeline, ParserRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(obs::parse_timeline_json("not json", &error).has_value());
  EXPECT_FALSE(obs::parse_timeline_json("{}", &error).has_value());
  EXPECT_FALSE(
      obs::parse_timeline_json("{\"schema\": \"ys.timeline.v2\"}", &error)
          .has_value());
}

// ------------------------------------------------------- fleet producers

struct FleetSweep {
  Timeline tl{SimTime::from_ms(500)};
  u64 flows = 0;
  u64 successes = 0;
  u64 cache_hits = 0;
};

FleetSweep run_fleet_sweep(const fleet::FleetConfig& cfg, int jobs) {
  FleetSweep out;
  const fleet::Fleet fl(cfg);
  obs::MetricsRegistry local;
  obs::ScopedMetricsRegistry metrics_scope(&local);
  {
    ScopedTimeline scope(&out.tl);
    const runner::TrialGrid grid = fl.grid();
    std::vector<std::unique_ptr<fleet::Fleet::VantageState>> states;
    states.reserve(grid.chains());
    for (std::size_t ch = 0; ch < grid.chains(); ++ch) {
      states.push_back(fl.make_vantage_state(ch));
    }
    runner::PoolOptions pool;
    pool.jobs = jobs;
    (void)runner::collect_grid_or(
        grid, pool, static_cast<i64>(-1),
        [&](const runner::GridCoord& c, runner::TaskContext&) {
          return fl.run_flow(c, *states[grid.chain(c)]).encode();
        });
    fl.annotate_timeline(&out.tl);
  }
  const obs::Snapshot snap = local.snapshot();
  const auto counter = [&snap](const char* name) -> u64 {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  out.flows = counter("fleet.flows");
  out.successes = counter("fleet.flow_success");
  out.cache_hits = counter("fleet.cache_hit");
  return out;
}

fleet::FleetConfig small_soak_config() {
  std::string error;
  fleet::FleetConfig cfg = fleet::parse_fleet_config(
      "clients=6;flows=48;servers=3;vantages=2;arrival=20;churn=0.05;"
      "soak=1s:rst-storm,2s:none",
      error);
  EXPECT_TRUE(error.empty()) << error;
  return cfg;
}

TEST(TimelineFleet, JobsInvariantDigest) {
  const fleet::FleetConfig cfg = small_soak_config();
  const FleetSweep serial = run_fleet_sweep(cfg, 1);
  const FleetSweep parallel = run_fleet_sweep(cfg, 8);
  ASSERT_GT(serial.tl.series_count(), 0u);
  // Byte-identical virtual-time series; only the wall-clock runner.*
  // progress curves may differ between jobs counts.
  const std::vector<std::string> exclude = {"runner."};
  EXPECT_EQ(obs::timeline_digest(parallel.tl, exclude),
            obs::timeline_digest(serial.tl, exclude));
}

TEST(TimelineFleet, TimelineTotalsMatchAggregateMetrics) {
  const FleetSweep sweep = run_fleet_sweep(small_soak_config(), 2);
  const std::string json = obs::timeline_to_json(sweep.tl);
  std::string error;
  const auto doc = obs::parse_timeline_json(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->total("fleet.flows"), static_cast<i64>(sweep.flows));
  EXPECT_EQ(doc->total("fleet.flow_success"),
            static_cast<i64>(sweep.successes));
  EXPECT_EQ(doc->total("fleet.cache_hit"),
            static_cast<i64>(sweep.cache_hits));
  // The soak schedule's two boundaries are annotated.
  std::size_t soak_marks = 0;
  for (const auto& a : doc->annotations) {
    if (a.category == "soak-phase") ++soak_marks;
  }
  EXPECT_EQ(soak_marks, 2u);
}

// ------------------------------------------------------------ HTML report

TEST(TimelineReport, RendersSelfContainedHtml) {
  const FleetSweep sweep = run_fleet_sweep(small_soak_config(), 1);
  std::string error;
  const auto doc =
      obs::parse_timeline_json(obs::timeline_to_json(sweep.tl), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  obs::ReportOptions opt;
  opt.title = "reference soak";
  opt.fleet_spec = "clients=6;flows=48;servers=3;vantages=2;arrival=20;"
                   "churn=0.05;soak=1s:rst-storm,2s:none";
  const std::string html = obs::render_timeline_html(*doc, opt);

  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("Fleet convergence"), std::string::npos);
  EXPECT_NE(html.find("id=\"timeline-manifest\""), std::string::npos);
  EXPECT_NE(html.find("id=\"timeline-totals\""), std::string::npos);
  EXPECT_NE(html.find("fleet.flows"), std::string::npos);
  // Self-contained: no external fetches.
  EXPECT_EQ(html.find("<link"), std::string::npos);
  EXPECT_EQ(html.find("src=\"http"), std::string::npos);
  // The totals hook carries the aggregate the metrics twin reports.
  EXPECT_NE(html.find("\"fleet.flows\":" + std::to_string(sweep.flows)),
            std::string::npos);
}

TEST(TimelineReport, EmbeddedJsonEscapesSeriesNames) {
  obs::TimelineDoc doc;
  doc.bucket_us = 1000000;
  obs::TimelineDoc::Series s;
  s.name = "odd\"name\\x";
  s.kind = "counter";
  s.points.push_back({0, 3, 3, 1, 1});
  doc.series.push_back(s);
  const std::string html = obs::render_timeline_html(doc, obs::ReportOptions{});
  for (const std::string id : {"timeline-manifest", "timeline-totals"}) {
    const std::string marker = "id=\"" + id + "\">";
    const std::size_t body = html.find(marker);
    ASSERT_NE(body, std::string::npos) << id;
    const std::size_t start = body + marker.size();
    const std::size_t end = html.find("</script>", start);
    ASSERT_NE(end, std::string::npos) << id;
    const auto embedded = json::parse(html.substr(start, end - start));
    ASSERT_TRUE(embedded.has_value()) << html.substr(start, end - start);
    if (id == "timeline-manifest") {
      const json::Value* series = embedded->find("series");
      ASSERT_NE(series, nullptr);
      ASSERT_EQ(series->array.size(), 1u);
      EXPECT_EQ(series->array[0].string, s.name);
    } else {
      const json::Value* total = embedded->find(s.name);
      ASSERT_NE(total, nullptr);
      EXPECT_EQ(total->number, 3.0);
    }
  }
}

// --------------------------------------------------------- search producer

TEST(TimelineSearch, RecordsGenerationSeriesAndLineage) {
  search::SearchConfig cfg;
  cfg.population = 4;
  cfg.generations = 2;
  cfg.servers = 2;
  cfg.clean_trials = 1;
  cfg.faulted_trials = 0;
  cfg.coevo_rounds = 0;
  cfg.seed = 11;

  Timeline tl;
  {
    ScopedTimeline scope(&tl);
    search::SearchEngine engine(cfg);
    const search::SearchResult result = engine.run();
    EXPECT_EQ(result.generations_run, 2);
  }

  bool best = false;
  bool mean = false;
  bool archive = false;
  for (const auto& [key, series] : tl.series()) {
    if (key.name == "search.best_success") {
      best = true;
      EXPECT_EQ(series.kind, TimelineKind::kGauge);
      EXPECT_EQ(key.labels.count("variant"), 1u);
      // One point per generation, bucketed by generation index.
      EXPECT_EQ(series.buckets.size(), 2u);
      EXPECT_EQ(series.buckets.count(0), 1u);
      EXPECT_EQ(series.buckets.count(1), 1u);
      // Rates ride the fixed-point scale.
      for (const auto& [bucket, value] : series.buckets) {
        EXPECT_GE(value.sum, 0);
        EXPECT_LE(value.sum, Timeline::kRatioScale);
      }
    }
    if (key.name == "search.mean_success") mean = true;
    if (key.name == "search.archive_size") archive = true;
  }
  EXPECT_TRUE(best);
  EXPECT_TRUE(mean);
  EXPECT_TRUE(archive);

  bool lineage = false;
  for (const auto& a : tl.annotations()) {
    if (a.category == "lineage") lineage = true;
  }
  EXPECT_TRUE(lineage);
}

// ------------------------------------------------- heartbeat shutdown

// Regression: the heartbeat monitor thread must be joined before
// run_grid returns, so nothing it prints can interleave with output the
// caller writes after the pool drains.
TEST(Heartbeat, NoLineAfterRunReturns) {
  const std::string path = "heartbeat_capture.tmp";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ::fflush(stderr);
  const int saved = ::dup(2);
  ASSERT_GE(saved, 0);
  ASSERT_GE(::dup2(fd, 2), 0);

  runner::TrialGrid grid;
  grid.trials = 40;
  runner::PoolOptions pool;
  pool.jobs = 2;
  pool.heartbeat_seconds = 0.001;  // fire often enough to race a lazy join
  runner::run_grid(grid, pool, [](const runner::GridCoord&,
                                  runner::TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  // If the monitor were still alive here, it could still write to fd 2.
  std::fprintf(stderr, "SENTINEL\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ::fflush(stderr);
  ASSERT_GE(::dup2(saved, 2), 0);
  ::close(saved);
  ::close(fd);

  std::string captured;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) captured.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  const std::size_t sentinel = captured.find("SENTINEL");
  ASSERT_NE(sentinel, std::string::npos);
  EXPECT_EQ(captured.find("[perf]", sentinel), std::string::npos)
      << "heartbeat line written after run_grid returned:\n"
      << captured;
}

}  // namespace
}  // namespace ys
