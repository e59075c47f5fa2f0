// src/fleet/ — multi-client deployment simulation: config parsing, seeded
// arrival schedules, the runner determinism contract (jobs parity, chain
// resume), shared-cache convergence, and RNG isolation from fleet-free
// runs.
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "exp/scenario.h"
#include "exp/trial.h"
#include "exp/vantage.h"
#include "fleet/arrival.h"
#include "fleet/fleet.h"
#include "fleet/fleet_config.h"
#include "intang/kv_store.h"
#include "obs/metrics.h"
#include "runner/results_store.h"
#include "runner/runner.h"

namespace ys {
namespace {

using namespace ys::exp;

// The small-but-interesting config the determinism tests share: two
// vantages, enough flows for caches to warm up, a soak schedule that
// flaps the rst-storm plan mid-sweep.
fleet::FleetConfig small_config() {
  std::string error;
  fleet::FleetConfig cfg = fleet::parse_fleet_config(
      "clients=6;flows=48;servers=3;vantages=2;arrival=20;churn=0.1;"
      "soak=500ms:rst-storm,1s:none",
      error);
  EXPECT_TRUE(error.empty()) << error;
  return cfg;
}

/// Deterministic slice of a metrics snapshot (counters only — the fleet
/// publishes no wall-clock-free gauges worth pinning here).
std::string counters_digest(const obs::Snapshot& snap) {
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    if (name.find("wall") != std::string::npos ||
        name.find("per_sec") != std::string::npos) {
      continue;
    }
    out += name + "=" + std::to_string(v) + "\n";
  }
  return out;
}

struct SweepOut {
  std::vector<i64> slots;
  std::string digest;
};

/// One full sweep in a private registry, optionally through a results
/// store (recorded chains are skipped, executed slots persisted) — the
/// same shape bench_fleet and `yourstate fleet` use.
SweepOut sweep(const fleet::Fleet& fl, int jobs,
               runner::ResultsStore* store = nullptr) {
  obs::MetricsRegistry local;
  obs::ScopedMetricsRegistry scope(&local);
  const runner::TrialGrid grid = fl.grid();
  std::vector<std::unique_ptr<fleet::Fleet::VantageState>> states;
  std::vector<char> skip(grid.chains(), 0);
  for (std::size_t ch = 0; ch < grid.chains(); ++ch) {
    skip[ch] = store != nullptr &&
                       store->range_complete(ch * grid.trials,
                                             (ch + 1) * grid.trials)
                   ? 1
                   : 0;
    states.push_back(skip[ch] ? nullptr : fl.make_vantage_state(ch));
  }
  runner::PoolOptions pool;
  pool.jobs = jobs;
  auto out = runner::collect_grid_or(
      grid, pool, static_cast<i64>(-1),
      [&](const runner::GridCoord& c, runner::TaskContext&) {
        const std::size_t slot = grid.index(c);
        if (store != nullptr && skip[grid.chain(c)]) return *store->get(slot);
        const i64 encoded = fl.run_flow(c, *states[grid.chain(c)]).encode();
        if (store != nullptr) store->put(slot, encoded);
        return encoded;
      });
  return SweepOut{std::move(out.slots), counters_digest(local.snapshot())};
}

// ----------------------------------------------------------------- config

TEST(Fleet, ConfigParsesInlineSpec) {
  std::string error;
  const fleet::FleetConfig cfg = fleet::parse_fleet_config(
      "clients=12;flows=100;servers=5;vantages=3;arrival=8.5;churn=0.2;"
      "share=per-client;seed=99;soak=0s:none,500ms:chaos",
      error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(cfg.clients, 12);
  EXPECT_EQ(cfg.flows, 100);
  EXPECT_EQ(cfg.servers, 5);
  EXPECT_EQ(cfg.vantages, 3);
  EXPECT_DOUBLE_EQ(cfg.arrival_rate, 8.5);
  EXPECT_DOUBLE_EQ(cfg.churn, 0.2);
  EXPECT_EQ(cfg.share, fleet::ShareMode::kPerClient);
  EXPECT_EQ(cfg.seed, 99u);
  ASSERT_EQ(cfg.soak.size(), 2u);
  EXPECT_TRUE(cfg.soak[0].plan.empty());
  EXPECT_FALSE(cfg.soak[1].plan.empty());
  EXPECT_EQ(cfg.soak[1].at, SimTime::from_ms(500));
  EXPECT_FALSE(cfg.summary().empty());
  EXPECT_FALSE(cfg.signature().empty());
}

TEST(Fleet, ConfigRejectsGarbage) {
  for (const char* bad :
       {"clients=zero", "share=telepathy", "soak=1s", "soak=xs:none",
        "nonsense=1", "flows="}) {
    std::string error;
    fleet::parse_fleet_config(bad, error);
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Fleet, ConfigSignatureCoversEveryAxis) {
  const fleet::FleetConfig base = small_config();
  std::set<std::string> sigs{base.signature()};
  auto differs = [&sigs](fleet::FleetConfig cfg) {
    EXPECT_TRUE(sigs.insert(cfg.signature()).second) << cfg.signature();
  };
  fleet::FleetConfig c = base;
  c.clients += 1;
  differs(c);
  c = base;
  c.flows += 1;
  differs(c);
  c = base;
  c.servers += 1;
  differs(c);
  c = base;
  c.seed += 1;
  differs(c);
  c = base;
  c.churn += 0.01;
  differs(c);
  c = base;
  c.share = fleet::ShareMode::kCold;
  differs(c);
  c = base;
  c.soak.clear();
  differs(c);
}

// --------------------------------------------------------------- schedule

TEST(Fleet, ScheduleIsDeterministicSortedAndInRange) {
  const fleet::FleetConfig cfg = small_config();
  const auto a = fleet::build_flow_schedule(cfg, "aliyun-bj");
  const auto b = fleet::build_flow_schedule(cfg, "aliyun-bj");
  ASSERT_EQ(a.size(), static_cast<std::size_t>(cfg.flows));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].client, b[i].client);
    EXPECT_EQ(a[i].server, b[i].server);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].fresh_session, b[i].fresh_session);
    EXPECT_EQ(a[i].soak_phase, b[i].soak_phase);
    EXPECT_EQ(a[i].index, static_cast<int>(i));
    EXPECT_GE(a[i].client, 0);
    EXPECT_LT(a[i].client, cfg.clients);
    EXPECT_GE(a[i].server, 0);
    EXPECT_LT(a[i].server, cfg.servers);
    if (i > 0) {
      EXPECT_GE(a[i].at, a[i - 1].at);
    }
  }
  // Different vantages draw different schedules (salted by vantage name).
  const auto other = fleet::build_flow_schedule(cfg, "aliyun-sh");
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].client != other[i].client || a[i].server != other[i].server ||
        a[i].at != other[i].at) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// The draw WeightedPick must reproduce exactly: subtract weights from x in
// index order until x reaches zero or below.
int scan_pick(const std::vector<double>& weights, double x) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size() - 1);
}

TEST(Fleet, WeightedPickMatchesTheSubtractionScan) {
  Rng rng(11);
  std::vector<std::vector<double>> cases = {{}, {0.7}, {0.0, 1.0, 0.0}};
  for (std::size_t n : {2u, 3u, 16u, 64u, 257u}) {
    std::vector<double> activity(n), zipf(n), spread(n);
    for (std::size_t i = 0; i < n; ++i) {
      activity[i] = 0.1 + rng.uniform01();
      zipf[i] = 1.0 / static_cast<double>(i + 1);
      spread[i] = std::ldexp(rng.uniform01(), -static_cast<int>(i % 40));
    }
    cases.push_back(activity);
    cases.push_back(zipf);
    cases.push_back(spread);
  }
  for (const std::vector<double>& w : cases) {
    const fleet::WeightedPick pick(w);
    std::vector<double> probes;
    for (int i = 0; i < 20000; ++i) probes.push_back(rng.uniform01() * pick.total());
    // Running sums and their neighbours: where the scan's rounding decides.
    double sum = 0.0;
    for (double v : w) {
      sum += v;
      double x = sum;
      for (int ulp = 0; ulp < 4; ++ulp) x = std::nextafter(x, 0.0);
      for (int ulp = 0; ulp < 9; ++ulp, x = std::nextafter(x, 2 * sum + 1)) {
        probes.push_back(x);
      }
    }
    probes.push_back(0.0);
    for (double x : probes) {
      ASSERT_EQ(pick(x), scan_pick(w, x)) << "n " << w.size() << " x " << x;
    }
  }
}

TEST(Fleet, SchedulePinsSoakPhasesToBoundaries) {
  const fleet::FleetConfig cfg = small_config();
  const auto schedule = fleet::build_flow_schedule(cfg, "aliyun-bj");
  std::set<int> seen;
  for (const auto& flow : schedule) {
    seen.insert(flow.soak_phase);
    int expect = -1;
    for (std::size_t p = 0; p < cfg.soak.size(); ++p) {
      if (flow.at >= cfg.soak[p].at) expect = static_cast<int>(p);
    }
    EXPECT_EQ(flow.soak_phase, expect);
  }
  // The sweep actually crosses both boundaries: clean, storm, recovery.
  EXPECT_EQ(seen.size(), 3u);
}

// ------------------------------------------------------------ determinism

TEST(Fleet, FlowRecordRoundTrips) {
  fleet::Fleet::FlowRecord rec;
  rec.outcome = Outcome::kFailure2;
  rec.strategy = strategy::StrategyId::kImprovedTeardown;
  rec.source = 3;
  rec.supplier = 4093;  // flow indices larger than a byte must survive
  const fleet::Fleet::FlowRecord back =
      fleet::Fleet::FlowRecord::decode(rec.encode());
  EXPECT_EQ(back.outcome, rec.outcome);
  EXPECT_EQ(back.strategy, rec.strategy);
  EXPECT_EQ(back.source, rec.source);
  EXPECT_EQ(back.supplier, rec.supplier);
  // The "no pick / no supplier" sentinel round-trips too.
  fleet::Fleet::FlowRecord none;
  const fleet::Fleet::FlowRecord none_back =
      fleet::Fleet::FlowRecord::decode(none.encode());
  EXPECT_EQ(none_back.source, -1);
  EXPECT_EQ(none_back.supplier, -1);
}

TEST(Fleet, JobsParityIncludingMetrics) {
  const fleet::Fleet fl(small_config());
  const SweepOut serial = sweep(fl, 1);
  const SweepOut threaded = sweep(fl, 2);
  EXPECT_EQ(serial.slots, threaded.slots);
  EXPECT_EQ(serial.digest, threaded.digest);
  EXPECT_NE(serial.digest.find("fleet.flows"), std::string::npos);
}

TEST(Fleet, KilledThenResumedMatchesUninterrupted) {
  const fleet::FleetConfig cfg = small_config();
  const fleet::Fleet fl(cfg);
  const runner::TrialGrid grid = fl.grid();
  const SweepOut ref = sweep(fl, 1);

  const std::string dir = "test_fleet_resume.tmp";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const u64 sig = runner::ResultsStore::signature_of({"fleet",
                                                      cfg.signature()});
  {
    // "Killed" run: only the first chain completed before the crash.
    runner::ResultsStore store(dir, "test_fleet", sig, grid.total());
    for (std::size_t t = 0; t < grid.trials; ++t) {
      store.put(t, ref.slots[t]);
    }
  }
  {
    runner::ResultsStore store(dir, "test_fleet", sig, grid.total());
    ASSERT_TRUE(store.resumed());
    const SweepOut resumed = sweep(fl, 2, &store);
    EXPECT_EQ(resumed.slots, ref.slots);
    EXPECT_TRUE(store.range_complete(0, grid.total()));
  }
  std::filesystem::remove_all(dir, ec);
}

TEST(Fleet, ReplayMatchesSweepSlot) {
  const fleet::Fleet fl(small_config());
  const runner::TrialGrid grid = fl.grid();
  const SweepOut ref = sweep(fl, 1);
  // A late flow on each vantage: the chain prefix must replay exactly.
  for (std::size_t v = 0; v < grid.vantages; ++v) {
    const runner::GridCoord coord{0, v, 0, grid.trials - 1};
    const Replay replay = fl.replay_flow(coord);
    const fleet::Fleet::FlowRecord rec =
        fleet::Fleet::FlowRecord::decode(ref.slots[grid.index(coord)]);
    EXPECT_EQ(replay.result.outcome, rec.outcome) << v;
    EXPECT_EQ(replay.result.strategy_used, rec.strategy) << v;
    EXPECT_FALSE(replay.ladder.empty()) << v;
  }
}

// ------------------------------------------------------------ convergence

TEST(Fleet, SharedCacheConverges) {
  const fleet::Fleet fl(small_config());
  const SweepOut out = sweep(fl, 1);
  const fleet::Fleet::Report report = fl.analyze(out.slots);
  EXPECT_EQ(report.total_flows, out.slots.size());
  EXPECT_EQ(report.phases, 3u);
  EXPECT_GT(report.success_rate, 0.5);
  EXPECT_GT(report.cache_hit_rate, 0.0);
  EXPECT_GT(report.cross_client_supplies, 0);
  int converged = 0;
  for (const auto& v : report.vantages) converged += v.servers_converged;
  EXPECT_GT(converged, 0);
  EXPECT_FALSE(report.render().empty());
}

TEST(Fleet, ColdModeSharesNothing) {
  fleet::FleetConfig cfg = small_config();
  cfg.share = fleet::ShareMode::kCold;
  const fleet::Fleet fl(cfg);
  const SweepOut out = sweep(fl, 1);
  const fleet::Fleet::Report report = fl.analyze(out.slots);
  // No persistence: no flow's pick can come from another flow's write.
  EXPECT_EQ(report.cross_client_supplies, 0);
  EXPECT_DOUBLE_EQ(report.cache_hit_rate, 0.0);
  // Shared mode on the same schedule does strictly better on cache reuse.
  const fleet::Fleet shared(small_config());
  const fleet::Fleet::Report shared_report =
      shared.analyze(sweep(shared, 1).slots);
  EXPECT_GT(shared_report.cache_hit_rate, report.cache_hit_rate);
}

// -------------------------------------------------------------- isolation

TEST(Fleet, FleetRngLeavesFleetFreeRunsUntouched) {
  // A plain trial's outcome must be byte-identical whether or not fleet
  // schedules were built / sweeps run in the same process: the fleet
  // draws only from its own salted streams.
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  auto reference_trial = [&rules]() {
    ScenarioOptions opt;
    opt.vp = china_vantage_points()[0];
    opt.server.host = "ref.example";
    opt.server.ip = net::make_ip(93, 184, 216, 34);
    opt.cal = Calibration::standard();
    opt.seed = 424242;
    Scenario sc(&rules, opt);
    HttpTrialOptions http;
    http.use_intang = true;
    return run_http_trial(sc, http);
  };
  const TrialResult before = reference_trial();
  const fleet::Fleet fl(small_config());
  (void)sweep(fl, 2);
  const TrialResult after = reference_trial();
  EXPECT_EQ(before.outcome, after.outcome);
  EXPECT_EQ(before.strategy_used, after.strategy_used);
  EXPECT_EQ(before.gfw_reset_seen, after.gfw_reset_seen);
}

// ---------------------------------------------------------------- kvstore

TEST(Fleet, SharedKvStoreTtl) {
  intang::SharedKvStore store;
  const SimTime t0 = SimTime::from_sec(1);
  store.set(1, 1, t0);
  store.set(2, 2, t0, SimTime::from_sec(10));
  store.set(3, 3, t0, SimTime::from_sec(1));
  EXPECT_EQ(store.size(t0), 3u);

  const SimTime later = SimTime::from_sec(5);
  EXPECT_FALSE(store.get(3, later).has_value());  // expired
  EXPECT_EQ(store.get(2, later).value_or(0), 2);
  EXPECT_EQ(store.get(1, later).value_or(0), 1);
  EXPECT_EQ(store.size(later), 2u);  // expired entries swept
  EXPECT_FALSE(store.get(2, SimTime::from_sec(11)).has_value());
  EXPECT_TRUE(store.get(1, SimTime::from_sec(11)).has_value());
  EXPECT_EQ(store.incr(4, later, 2), 2);
  EXPECT_EQ(store.incr(4, later, 3), 5);
  EXPECT_TRUE(store.erase(4));
  EXPECT_FALSE(store.get(4, later).has_value());
}

}  // namespace
}  // namespace ys
