// ys::obs — registry semantics, histogram edges, snapshot/reset isolation,
// the TraceRecorder ring buffer, EventLoop run-bound reporting, and the
// golden JSON shape of a quickstart-style run.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "exp/scenario.h"
#include "exp/stats.h"
#include "exp/trial.h"
#include "netsim/event_loop.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace ys {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;

TEST(Registry, GetOrCreateReturnsSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("gfw.packets_seen");
  Counter& b = reg.counter("gfw.packets_seen");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("gfw.packets_seen"));
  EXPECT_FALSE(reg.contains("gfw.other"));
}

TEST(Registry, KindCollisionThrows) {
  MetricsRegistry reg;
  reg.counter("x.name");
  EXPECT_THROW(reg.gauge("x.name"), std::logic_error);
  EXPECT_THROW(reg.histogram("x.name"), std::logic_error);
  reg.gauge("y.name");
  EXPECT_THROW(reg.counter("y.name"), std::logic_error);
  // The failed registrations must not have clobbered the originals.
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_NO_THROW(reg.counter("x.name"));
}

TEST(Registry, HistogramFirstBoundsWin) {
  MetricsRegistry reg;
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {100.0});
  EXPECT_EQ(&h1, &h2);
  ASSERT_EQ(h2.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(h2.bounds()[0], 1.0);
}

TEST(Histogram, BucketEdges) {
  Histogram h({1.0, 2.0, 4.0});
  // A value exactly on a bound lands in that bound's bucket (v <= bound).
  h.observe(1.0);   // bucket 0
  h.observe(1.5);   // bucket 1
  h.observe(2.0);   // bucket 1
  h.observe(2.001); // bucket 2
  h.observe(4.0);   // bucket 2
  h.observe(4.001); // overflow
  h.observe(-7.0);  // bucket 0 (below the first bound)
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 2u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.5 + 2.0 + 2.001 + 4.0 + 4.001 - 7.0);
}

TEST(Histogram, ExponentialBuckets) {
  const auto bounds = obs::exponential_buckets(1.0, 4.0, 3);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 4.0);
  EXPECT_DOUBLE_EQ(bounds[2], 16.0);
}

TEST(Registry, SnapshotIsDeepCopyAndResetIsolatesTrials) {
  MetricsRegistry reg;
  reg.counter("c").inc(5);
  reg.gauge("g").set(2.5);
  reg.histogram("h", {10.0}).observe(3.0);

  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);

  // Mutations after the snapshot must not show through (trial 2 work).
  reg.counter("c").inc(100);
  EXPECT_EQ(snap.counters.at("c"), 5u);

  // reset_all zeroes values but keeps registrations and references valid.
  Counter& c = reg.counter("c");
  reg.reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  EXPECT_EQ(reg.size(), 3u);
  c.inc();
  EXPECT_EQ(reg.snapshot().counters.at("c"), 1u);
}

TEST(Metrics, RuntimeKillSwitchStopsUpdates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  obs::set_metrics_enabled(false);
  c.inc(10);
  reg.gauge("g").set(1.0);
  reg.histogram("h", {1.0}).observe(0.5);
  obs::set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(Span, SimSpanRecordsVirtualTime) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("loop.span_us", {100.0, 10'000.0});
  net::EventLoop loop;
  loop.schedule_after(SimTime::from_ms(5), [] {});
  {
    obs::SimSpan span(loop.clock(), h);
    loop.run();
  }
  ASSERT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 5000.0);  // 5 ms of virtual time
  EXPECT_EQ(h.bucket_counts()[1], 1u);
}

TEST(Trace, RingBufferEvictsOldest) {
  obs::TraceRecorder trace(3);
  for (int i = 0; i < 5; ++i) {
    trace.note(SimTime::from_us(i), "actor", obs::TraceKind::kNote,
               "event-" + std::to_string(i));
  }
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 2u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().detail, "event-2");  // oldest retained
  EXPECT_EQ(events.back().detail, "event-4");
  const std::string ladder = trace.render();
  EXPECT_NE(ladder.find("2 earlier events evicted"), std::string::npos);
  EXPECT_NE(ladder.find("event-4"), std::string::npos);
  EXPECT_EQ(ladder.find("event-1"), std::string::npos);
}

TEST(Trace, SetCapacityTrimsToNewest) {
  obs::TraceRecorder trace(10);
  for (int i = 0; i < 6; ++i) {
    trace.note(SimTime::from_us(i), "a", obs::TraceKind::kNote,
               std::to_string(i));
  }
  trace.set_capacity(2);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].detail, "4");
  EXPECT_EQ(events[1].detail, "5");
  EXPECT_EQ(trace.dropped(), 4u);
  // And the new bound is enforced going forward.
  trace.note(SimTime::from_us(6), "a", obs::TraceKind::kNote, "6");
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.events()[1].detail, "6");
}

TEST(EventLoop, RunReportsMaxEventsBound) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_all();
  net::EventLoop loop;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_after(SimTime::from_us(i), [] {});
  }
  const net::RunResult partial = loop.run(/*max_events=*/3);
  EXPECT_EQ(partial.executed, 3u);
  EXPECT_TRUE(partial.hit_max_events);
  EXPECT_EQ(reg.counter("loop.max_events_hits").value(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("loop.max_events_hit").value(), 1.0);
  // The high-water mark is the deepest the queue got: all five pending.
  EXPECT_DOUBLE_EQ(reg.gauge("loop.queue_depth_hwm").value(), 5.0);

  const net::RunResult drained = loop.run(/*max_events=*/2);
  EXPECT_EQ(drained.executed, 2u);
  // Executed == bound yet the queue drained: NOT ambiguous anymore.
  EXPECT_FALSE(drained.hit_max_events);
  EXPECT_EQ(reg.counter("loop.max_events_hits").value(), 1u);

  // Legacy callers treat the result as the executed count.
  loop.schedule_after(SimTime::zero(), [] {});
  const std::size_t n = loop.run();
  EXPECT_EQ(n, 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("loop.queue_depth_hwm").value(), 5.0);

  // A queue that peaks inside an event: three pending, the first event
  // adds six while two wait, so the deepest point is 8.
  reg.reset_all();
  net::EventLoop nested;
  std::size_t deepest = 0;
  for (int i = 0; i < 3; ++i) {
    nested.schedule_after(SimTime::from_us(i), [&, i] {
      if (i == 0) {
        for (int j = 0; j < 6; ++j) {
          nested.schedule_after(SimTime::from_us(10 + j), [] {});
        }
      }
      deepest = std::max(deepest, nested.pending());
    });
  }
  nested.run();
  EXPECT_EQ(deepest, 8u);
  EXPECT_DOUBLE_EQ(reg.gauge("loop.queue_depth_hwm").value(), 8.0);
}

TEST(EventLoop, RunUntilReportsBoundOnlyWithinDeadline) {
  net::EventLoop loop;
  loop.schedule_at(SimTime::from_ms(1), [] {});
  loop.schedule_at(SimTime::from_ms(2), [] {});
  loop.schedule_at(SimTime::from_sec(10), [] {});

  net::RunResult r = loop.run_until(SimTime::from_ms(5), /*max_events=*/1);
  EXPECT_EQ(r.executed, 1u);
  EXPECT_TRUE(r.hit_max_events);  // the t=2ms event was due and unserved

  r = loop.run_until(SimTime::from_ms(5));
  EXPECT_EQ(r.executed, 1u);
  // Only the out-of-deadline t=10s event remains: that is not a bound hit.
  EXPECT_FALSE(r.hit_max_events);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(RateTally, PublishesRatesAsGauges) {
  MetricsRegistry reg;
  exp::RateTally tally;
  tally.add(exp::Outcome::kSuccess);
  tally.add(exp::Outcome::kSuccess);
  tally.add(exp::Outcome::kFailure1);
  tally.add(exp::Outcome::kFailure2);
  tally.publish("aliyun-sh", reg);
  EXPECT_DOUBLE_EQ(reg.gauge("exp.rate.aliyun-sh.trials").value(), 4.0);
  EXPECT_DOUBLE_EQ(reg.gauge("exp.rate.aliyun-sh.success_rate").value(), 0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("exp.rate.aliyun-sh.failure1_rate").value(),
                   0.25);
  EXPECT_DOUBLE_EQ(reg.gauge("exp.rate.aliyun-sh.failure2_rate").value(),
                   0.25);
  // Publish is idempotent-by-overwrite, not additive.
  tally.publish("aliyun-sh", reg);
  EXPECT_DOUBLE_EQ(reg.gauge("exp.rate.aliyun-sh.trials").value(), 4.0);
}

TEST(Export, JsonAndTableRenderEveryKind) {
  MetricsRegistry reg;
  reg.counter("a.count").inc(7);
  reg.gauge("b.gauge").set(1.5);
  reg.histogram("c.hist", {1.0, 2.0}).observe(1.5);
  const obs::Snapshot snap = reg.snapshot();

  const std::string json = obs::to_json(snap);
  EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [0, 1, 0]"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);

  const std::string table = obs::to_table(snap);
  EXPECT_NE(table.find("a.count"), std::string::npos);
  EXPECT_NE(table.find("counter"), std::string::npos);
  EXPECT_NE(table.find("histogram"), std::string::npos);
}

TEST(Export, EmptySnapshotIsValidJson) {
  const std::string json = obs::to_json(obs::Snapshot{});
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
}

/// Golden shape of a quickstart run: one censored HTTP fetch through the
/// full simulated ecosystem must produce non-zero counters in (at least)
/// the gfw, tcpstack, intang and netsim components, all visible in one
/// JSON snapshot — the acceptance bar of the obs layer.
TEST(Golden, QuickstartSnapshotHasCrossComponentCounters) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_all();

  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  exp::ScenarioOptions opt;
  opt.vp = exp::china_vantage_points()[0];
  opt.server.host = "site-0.example";
  opt.server.ip = net::make_ip(93, 184, 216, 34);
  opt.cal = exp::Calibration::standard();
  opt.seed = 7;
  exp::Scenario sc(&rules, opt);

  exp::HttpTrialOptions http;
  http.with_keyword = true;
  http.use_intang = true;
  exp::run_http_trial(sc, http);

  const obs::Snapshot snap = reg.snapshot();
  const char* expected[] = {
      // gfw — the device classified traffic and tracked connections
      "gfw.packets_seen", "gfw.tcb_create",
      // tcpstack — both endpoints moved segments
      "tcpstack.segment_in", "tcpstack.segment_out",
      // intang — the selector picked a strategy and the kv store worked
      "intang.strategy_pick", "intang.kv_get_miss",
      // netsim + loop + exp — the world actually ran
      "netsim.packet_delivered_client", "netsim.packet_delivered_server",
      "loop.events_executed", "exp.trial_total",
  };
  for (const char* name : expected) {
    ASSERT_TRUE(snap.counters.count(name) == 1) << name;
    EXPECT_GT(snap.counters.at(name), 0u) << name;
  }

  const std::string json = obs::to_json(snap);
  for (const char* name : expected) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }

  // Per-trial isolation: a reset returns every counter to zero.
  reg.reset_all();
  EXPECT_EQ(reg.snapshot().counters.at("gfw.packets_seen"), 0u);
}

}  // namespace
}  // namespace ys
