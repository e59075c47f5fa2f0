// ys::faults — fault-plan parsing, deterministic injection, graceful
// degradation plumbing (trial errors, selector safe mode, runner crash
// isolation, resumable results).
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/log.h"
#include "exp/benchdef.h"
#include "exp/prober.h"
#include "exp/scenario.h"
#include "exp/stats.h"
#include "exp/trial.h"
#include "exp/vantage.h"
#include "faults/fault_plan.h"
#include "obs/metrics.h"
#include "runner/results_store.h"
#include "runner/runner.h"

namespace ys {
namespace {

using namespace ys::exp;

// ---------------------------------------------------------------- plans --

TEST(FaultPlan, ShippedPlansAreNamedAndNonEmpty) {
  const auto& plans = faults::shipped_fault_plans();
  ASSERT_FALSE(plans.empty());
  for (const auto& plan : plans) {
    EXPECT_FALSE(plan.name.empty());
    EXPECT_FALSE(plan.empty()) << plan.name;
    EXPECT_FALSE(plan.summary().empty()) << plan.name;
  }
  EXPECT_NE(faults::find_shipped_plan("chaos"), nullptr);
  EXPECT_NE(faults::find_shipped_plan("rst-storm"), nullptr);
  EXPECT_EQ(faults::find_shipped_plan("no-such-plan"), nullptr);
}

TEST(FaultPlan, ParsesInlineClauses) {
  std::string error;
  const faults::FaultPlan plan = faults::parse_fault_plan(
      "loss:at=50ms,dur=2s,p=0.25;dup:p=0.1;corrupt:p=0.05;"
      "reorder:at=0ms,dur=5s,delay=6ms;pathflap:at=60ms,delta=3",
      error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(plan.loss_bursts.size(), 1u);
  EXPECT_EQ(plan.loss_bursts[0].at, SimTime::from_ms(50));
  EXPECT_EQ(plan.loss_bursts[0].duration, SimTime::from_sec(2));
  EXPECT_DOUBLE_EQ(plan.loss_bursts[0].p, 0.25);
  EXPECT_DOUBLE_EQ(plan.duplicate_p, 0.1);
  EXPECT_DOUBLE_EQ(plan.corrupt_p, 0.05);
  ASSERT_EQ(plan.reorder_windows.size(), 1u);
  EXPECT_EQ(plan.reorder_windows[0].max_extra_delay_us, 6000);
  ASSERT_EQ(plan.path_flaps.size(), 1u);
  EXPECT_EQ(plan.path_flaps[0].delta, 3);
}

TEST(FaultPlan, EmptyAndNoneSpecsAreFaultFree) {
  std::string error;
  EXPECT_TRUE(faults::parse_fault_plan("", error).empty());
  EXPECT_TRUE(error.empty());
  EXPECT_TRUE(faults::parse_fault_plan("none", error).empty());
  EXPECT_TRUE(error.empty());
}

TEST(FaultPlan, RejectsGarbage) {
  std::string error;
  (void)faults::parse_fault_plan("bogus:xyz=1", error);
  EXPECT_FALSE(error.empty());
  error.clear();
  (void)faults::parse_fault_plan("not-a-shipped-plan-name", error);
  EXPECT_FALSE(error.empty());
}

TEST(FaultPlan, ParsesJsonFile) {
  const std::string path = "test_fault_plan.tmp.json";
  {
    std::ofstream out(path);
    out << R"({"name":"jtest",
               "loss_bursts":[{"at":"10ms","dur":"1s","p":0.2}],
               "duplicate_p":0.05,
               "gfw_flaps":[{"at":0,"dur":"100ms","outage":1}]})";
  }
  std::string error;
  const faults::FaultPlan plan = faults::parse_fault_plan("@" + path, error);
  std::filesystem::remove(path);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(plan.name, "jtest");
  ASSERT_EQ(plan.loss_bursts.size(), 1u);
  EXPECT_EQ(plan.loss_bursts[0].at, SimTime::from_ms(10));
  EXPECT_DOUBLE_EQ(plan.loss_bursts[0].p, 0.2);
  EXPECT_DOUBLE_EQ(plan.duplicate_p, 0.05);
  ASSERT_EQ(plan.gfw_flaps.size(), 1u);
  EXPECT_TRUE(plan.gfw_flaps[0].outage);
  EXPECT_EQ(plan.gfw_flaps[0].duration, SimTime::from_ms(100));
}

// ------------------------------------------------------------- injector --

struct TrialRun {
  Outcome outcome;
  obs::Snapshot snap;
};

/// One HTTP trial under `plan` in a private registry.
TrialRun run_with_plan(const faults::FaultPlan* plan, u64 seed,
                       strategy::StrategyId strategy =
                           strategy::StrategyId::kNone) {
  obs::MetricsRegistry local;
  obs::ScopedMetricsRegistry scope(&local);
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  const Calibration cal = Calibration::standard();
  ScenarioOptions opt;
  opt.vp = china_vantage_points()[0];
  opt.server = make_server_population(1, seed, cal, true)[0];
  opt.cal = cal;
  opt.seed = seed;
  opt.faults = plan;
  Scenario sc(&rules, opt);
  HttpTrialOptions http;
  http.with_keyword = true;
  http.strategy = strategy;
  TrialRun run{run_http_trial(sc, http).outcome, local.snapshot()};
  return run;
}

u64 counter_of(const obs::Snapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(FaultInjector, LossBurstDropsAndGoldenDeterminism) {
  std::string error;
  const faults::FaultPlan plan =
      faults::parse_fault_plan("loss:at=0ms,dur=30s,p=0.5", error);
  ASSERT_TRUE(error.empty()) << error;

  const TrialRun a = run_with_plan(&plan, 42);
  EXPECT_GT(counter_of(a.snap, "netsim.fault_drop"), 0u);
  EXPECT_GT(counter_of(a.snap, "faults.loss_burst_drop"), 0u);

  // Golden determinism: the identical seed reproduces every counter in the
  // netsim.* / faults.* snapshot exactly.
  const TrialRun b = run_with_plan(&plan, 42);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.snap.counters, b.snap.counters);
}

TEST(FaultInjector, DuplicationAndCorruptionRegister) {
  std::string error;
  const faults::FaultPlan plan =
      faults::parse_fault_plan("dup:p=0.5;corrupt:p=0.4", error);
  ASSERT_TRUE(error.empty()) << error;
  const TrialRun run = run_with_plan(&plan, 7);
  EXPECT_GT(counter_of(run.snap, "netsim.fault_duplicate"), 0u);
  EXPECT_GT(counter_of(run.snap, "netsim.fault_corrupt"), 0u);
  EXPECT_GT(counter_of(run.snap, "faults.duplicate"), 0u);
  EXPECT_GT(counter_of(run.snap, "faults.corrupt"), 0u);
}

TEST(FaultInjector, GfwOutageSuppressesInjection) {
  std::string error;
  const faults::FaultPlan plan =
      faults::parse_fault_plan("gfwflap:at=0ms,dur=60s,outage=1", error);
  ASSERT_TRUE(error.empty()) << error;
  // Keyword + no strategy: the GFW detects and tries to inject resets, but
  // the outage flap swallows every injection — the baseline sails through.
  const TrialRun run = run_with_plan(&plan, 11);
  EXPECT_GT(counter_of(run.snap, "netsim.fault_inject_suppressed"), 0u);
  EXPECT_EQ(run.outcome, Outcome::kSuccess);
}

TEST(FaultInjector, RstStormInjectsResets) {
  std::string error;
  const faults::FaultPlan plan =
      faults::parse_fault_plan("rststorm:at=0ms,dur=30s,pos=1,p=1.0", error);
  ASSERT_TRUE(error.empty()) << error;
  const TrialRun run = run_with_plan(&plan, 13);
  EXPECT_GT(counter_of(run.snap, "faults.rst_injected"), 0u);
}

TEST(FaultInjector, PathFlapShiftsRoute) {
  std::string error;
  const faults::FaultPlan plan =
      faults::parse_fault_plan("pathflap:at=1ms,delta=3", error);
  ASSERT_TRUE(error.empty()) << error;
  const TrialRun run = run_with_plan(&plan, 17);
  EXPECT_GT(counter_of(run.snap, "faults.path_flap"), 0u);
}

TEST(FaultInjector, FaultFreeRunMatchesNullPlan) {
  // A present-but-empty plan must not change a single RNG draw relative to
  // no plan at all (the hook is only armed for non-empty plans).
  const faults::FaultPlan empty;
  const TrialRun with_null = run_with_plan(nullptr, 23);
  const TrialRun with_empty = run_with_plan(&empty, 23);
  EXPECT_EQ(with_null.outcome, with_empty.outcome);
  EXPECT_EQ(with_null.snap.counters, with_empty.snap.counters);
}

// ---------------------------------------------------------- trial error --

TEST(TrialError, EventCapBecomesTrialError) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  const Calibration cal = Calibration::standard();
  ScenarioOptions opt;
  opt.vp = china_vantage_points()[0];
  opt.server = make_server_population(1, 5, cal, true)[0];
  opt.cal = cal;
  opt.seed = 5;
  opt.max_events = 10;  // far below any honest trial
  Scenario sc(&rules, opt);
  HttpTrialOptions http;
  const TrialResult result = run_http_trial(sc, http);
  EXPECT_EQ(result.outcome, Outcome::kTrialError);
  EXPECT_TRUE(sc.last_run().hit_max_events);
  EXPECT_TRUE(sc.last_run().aborted());
}

TEST(TrialError, DeadlineExpiryBecomesTrialError) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  const Calibration cal = Calibration::standard();
  ScenarioOptions opt;
  opt.vp = china_vantage_points()[0];
  opt.server = make_server_population(1, 5, cal, true)[0];
  opt.cal = cal;
  opt.seed = 5;
  opt.deadline = SimTime::from_us(50);  // expires mid-handshake
  Scenario sc(&rules, opt);
  HttpTrialOptions http;
  const TrialResult result = run_http_trial(sc, http);
  EXPECT_EQ(result.outcome, Outcome::kTrialError);
  EXPECT_TRUE(sc.last_run().deadline_expired);
  EXPECT_FALSE(sc.last_run().hit_max_events);
}

TEST(TrialError, TallyCountsTrialErrors) {
  RateTally tally;
  tally.add(Outcome::kSuccess);
  tally.add(Outcome::kTrialError);
  tally.add(Outcome::kTrialError);
  EXPECT_EQ(tally.total(), 3);
  EXPECT_DOUBLE_EQ(tally.trial_error_rate(), 2.0 / 3.0);
}

// ---------------------------------------------------------------- runner --

/// Silence expected exception warnings for the duration of a test.
struct QuietLog {
  QuietLog() : prev_(Log::level()) { Log::set_level(LogLevel::kError); }
  ~QuietLog() { Log::set_level(prev_); }
  LogLevel prev_;
};

TEST(FaultRunner, IsolatesThrowingTasksSerial) {
  QuietLog quiet;
  obs::MetricsRegistry local;
  obs::ScopedMetricsRegistry scope(&local);
  runner::PoolOptions pool;
  pool.jobs = 1;
  const runner::RunnerReport report = runner::run_sharded(
      pool, 20, [](std::size_t i, runner::TaskContext&) {
        if (i == 7) throw std::runtime_error("boom");
      });
  EXPECT_EQ(report.tasks_executed, 20u);
  EXPECT_EQ(report.task_exceptions, 1u);
  EXPECT_EQ(counter_of(local.snapshot(), "runner.task_exception"), 1u);
}

TEST(FaultRunner, IsolatesThrowingTasksThreaded) {
  QuietLog quiet;
  obs::MetricsRegistry local;
  obs::ScopedMetricsRegistry scope(&local);
  runner::PoolOptions pool;
  pool.jobs = 3;
  const runner::RunnerReport report = runner::run_sharded(
      pool, 40, [](std::size_t i, runner::TaskContext&) {
        if (i % 10 == 3) throw std::runtime_error("boom");
      });
  EXPECT_EQ(report.tasks_executed, 40u);
  EXPECT_EQ(report.task_exceptions, 4u);
  EXPECT_EQ(counter_of(local.snapshot(), "runner.task_exception"), 4u);
}

TEST(FaultRunner, CollectGridOrPreFillsErrorValue) {
  QuietLog quiet;
  runner::TrialGrid grid;
  grid.servers = 2;
  grid.trials = 3;
  grid.chain_trials = true;
  runner::PoolOptions pool;
  pool.jobs = 1;
  auto out = runner::collect_grid_or(
      grid, pool, -1, [](const runner::GridCoord& c, runner::TaskContext&) {
        if (c.server == 1 && c.trial == 1) throw std::runtime_error("boom");
        return static_cast<int>(c.trial);
      });
  // Chain 0 ran to completion; chain 1 threw at trial 1, so trial 1 AND the
  // never-run trial 2 both read as the error value.
  EXPECT_EQ(out.slots[grid.index({0, 0, 0, 0})], 0);
  EXPECT_EQ(out.slots[grid.index({0, 0, 0, 1})], 1);
  EXPECT_EQ(out.slots[grid.index({0, 0, 0, 2})], 2);
  EXPECT_EQ(out.slots[grid.index({0, 0, 1, 0})], 0);
  EXPECT_EQ(out.slots[grid.index({0, 0, 1, 1})], -1);
  EXPECT_EQ(out.slots[grid.index({0, 0, 1, 2})], -1);
  EXPECT_EQ(out.report.task_exceptions, 1u);
}

// --------------------------------------------------------- results store --

TEST(ResultsStore, PersistsAndResumes) {
  const std::string dir = "test_results_store.tmp";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const u64 sig = runner::ResultsStore::signature_of({"a", "b", "7"});
  {
    runner::ResultsStore store(dir, "unit", sig, 6);
    EXPECT_FALSE(store.resumed());
    store.put(0, 10);
    store.put(1, 11);
    store.put(2, 12);
    store.put(5, 15);
    EXPECT_TRUE(store.range_complete(0, 3));
    EXPECT_FALSE(store.range_complete(3, 6));
  }
  {
    runner::ResultsStore store(dir, "unit", sig, 6);
    EXPECT_TRUE(store.resumed());
    EXPECT_EQ(store.recorded(), 4u);
    EXPECT_EQ(store.get(1).value_or(-1), 11);
    EXPECT_EQ(store.get(5).value_or(-1), 15);
    EXPECT_FALSE(store.has(3));
    EXPECT_TRUE(store.range_complete(0, 3));
  }
  {
    // Different signature (grid, plan, or seed changed): the stale file is
    // ignored and overwritten on first put.
    QuietLog quiet;
    runner::ResultsStore store(dir, "unit", sig ^ 1, 6);
    EXPECT_FALSE(store.resumed());
    EXPECT_EQ(store.recorded(), 0u);
    store.put(0, 99);
  }
  {
    runner::ResultsStore store(dir, "unit", sig ^ 1, 6);
    EXPECT_TRUE(store.resumed());
    EXPECT_EQ(store.recorded(), 1u);
    EXPECT_EQ(store.get(0).value_or(-1), 99);
  }
  std::filesystem::remove_all(dir, ec);
}

TEST(ResultsStore, SignatureIsOrderSensitive) {
  EXPECT_NE(runner::ResultsStore::signature_of({"a", "b"}),
            runner::ResultsStore::signature_of({"b", "a"}));
  EXPECT_NE(runner::ResultsStore::signature_of({"ab"}),
            runner::ResultsStore::signature_of({"a", "b"}));
}

// -------------------------------------------------------------- selector --

TEST(FaultSelector, SafeModeAfterRetryBudgetAndRecovery) {
  intang::StrategySelector selector{intang::StrategySelector::Config{}};
  const net::IpAddr server = net::make_ip(10, 0, 0, 1);
  const SimTime now = SimTime::from_sec(1);

  for (int i = 0; i < selector.config().retry_budget; ++i) {
    const auto choice = selector.choose_explained(server, now);
    ASSERT_NE(choice.id, strategy::StrategyId::kNone);
    selector.report(server, choice.id, /*success=*/false, now);
  }
  EXPECT_EQ(selector.consecutive_failures(server, now),
            selector.config().retry_budget);

  const auto safe = selector.choose_explained(server, now);
  EXPECT_EQ(safe.id, strategy::StrategyId::kNone);
  EXPECT_EQ(safe.source,
            intang::StrategySelector::Choice::Source::kSafeMode);

  // A successful safe-mode probe clears probation: strategies come back.
  selector.report(server, strategy::StrategyId::kNone, /*success=*/true, now);
  EXPECT_EQ(selector.consecutive_failures(server, now), 0);
  const auto after = selector.choose_explained(server, now);
  EXPECT_NE(after.source,
            intang::StrategySelector::Choice::Source::kSafeMode);
}

TEST(FaultSelector, FailedStrategyCoolsOffAndLadderFailsOver) {
  intang::StrategySelector selector{intang::StrategySelector::Config{}};
  const net::IpAddr server = net::make_ip(10, 0, 0, 2);
  const SimTime now = SimTime::from_sec(1);

  const auto first = selector.choose_explained(server, now);
  selector.report(server, first.id, /*success=*/false, now);

  const auto second = selector.choose_explained(server, now);
  EXPECT_NE(second.id, first.id);
  EXPECT_EQ(second.source,
            intang::StrategySelector::Choice::Source::kFailover);

  // The cool-off expires: the first strategy competes again.
  const SimTime later = now + selector.config().failure_backoff +
                        SimTime::from_sec(1);
  bool first_available = false;
  for (auto id : selector.config().candidates) {
    if (id == first.id) first_available = true;
  }
  EXPECT_TRUE(first_available);
  (void)later;
}

TEST(FaultSelector, SafeModeProbationDecays) {
  intang::StrategySelector::Config cfg;
  cfg.safe_mode_ttl = SimTime::from_sec(10);
  intang::StrategySelector selector{cfg};
  const net::IpAddr server = net::make_ip(10, 0, 0, 3);
  SimTime now = SimTime::from_sec(1);

  for (int i = 0; i < cfg.retry_budget; ++i) {
    const auto choice = selector.choose_explained(server, now);
    selector.report(server, choice.id, false, now);
  }
  EXPECT_EQ(selector.choose_explained(server, now).source,
            intang::StrategySelector::Choice::Source::kSafeMode);

  // The probation counter's TTL elapses without new failures: safe mode
  // ends on its own.
  now = now + cfg.safe_mode_ttl + SimTime::from_sec(1);
  EXPECT_EQ(selector.consecutive_failures(server, now), 0);
  EXPECT_NE(selector.choose_explained(server, now).source,
            intang::StrategySelector::Choice::Source::kSafeMode);
}

// ----------------------------------------------------- grid determinism --

// ------------------------------------------------- workload degradation --

// Satellite contract for --faults= on the prober workload: under an
// active plan the majority-voted battery still recovers the path's ground
// truth, and the vote is deterministic (same options → same findings).
TEST(Faults, ProberMajorityVoteSurvivesFaultPlan) {
  std::string error;
  static const faults::FaultPlan plan =
      faults::parse_fault_plan("dup-corrupt", error);
  ASSERT_TRUE(error.empty()) << error;

  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  const Calibration cal = Calibration::standard();
  const auto servers = make_server_population(3, 2017, cal, true);

  ScenarioOptions opt;
  opt.vp = china_vantage_points()[0];
  opt.server = servers[0];
  opt.cal = cal;
  opt.cal.ttl_estimate_error_prob = 0.0;
  opt.seed = 2017;
  opt.faults = &plan;

  Scenario ground_truth(&rules, opt);
  const bool truth_evolved = !ground_truth.path_runs_old_model();

  const GfwFindings voted = probe_gfw(&rules, opt, 5);
  EXPECT_TRUE(voted.responsive);
  EXPECT_EQ(voted.evolved_model(), truth_evolved);

  const GfwFindings again = probe_gfw(&rules, opt, 5);
  EXPECT_EQ(voted.responsive, again.responsive);
  EXPECT_EQ(voted.creates_tcb_on_synack, again.creates_tcb_on_synack);
  EXPECT_EQ(voted.resyncs_on_second_syn, again.resyncs_on_second_syn);
  EXPECT_EQ(voted.rst_resyncs_after_handshake,
            again.rst_resyncs_after_handshake);
  EXPECT_EQ(voted.fin_ignored, again.fin_ignored);
  EXPECT_EQ(voted.accepts_no_flag_data, again.accepts_no_flag_data);
}

// Tor under a plan: single-byte corruption must degrade the bridge
// fingerprint check to Failure 1 (lenient matcher) instead of flipping a
// working path to "blocked" — on an unfiltered path, INTANG connections
// keep succeeding at least as often as fault-free failures would allow,
// and the whole thing stays deterministic.
TEST(Faults, TorDegradesGracefullyUnderPlan) {
  std::string error;
  static const faults::FaultPlan plan =
      faults::parse_fault_plan("dup-corrupt", error);
  ASSERT_TRUE(error.empty()) << error;

  // The vantage list must outlive `unfiltered`, which points into it.
  const std::vector<VantagePoint> vps = china_vantage_points();
  const VantagePoint* unfiltered = nullptr;
  for (const auto& vp : vps) {
    if (vp.tor_unfiltered_path) unfiltered = &vp;
  }
  ASSERT_NE(unfiltered, nullptr);

  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  ServerSpec bridge;
  bridge.host = "ec2-hidden-bridge";
  bridge.ip = net::make_ip(54, 210, 7, 91);
  bridge.version = tcp::LinuxVersion::k4_4;

  auto session = [&](bool with_faults) {
    intang::StrategySelector selector{intang::StrategySelector::Config{}};
    int successes = 0;
    for (int t = 0; t < 6; ++t) {
      ScenarioOptions opt;
      opt.vp = *unfiltered;
      opt.server = bridge;
      opt.cal = Calibration::standard();
      opt.seed = Rng::mix_seed({2017u, static_cast<u64>(t)});
      if (with_faults) opt.faults = &plan;
      Scenario sc(&rules, opt);
      TorTrialOptions tor;
      tor.use_intang = true;
      tor.shared_selector = &selector;
      const TorTrialResult r = run_tor_trial(sc, tor);
      // Degradation contract: a fault never invents censorship.
      EXPECT_NE(r.outcome, Outcome::kFailure2);
      EXPECT_FALSE(r.bridge_ip_blocked);
      if (r.outcome == Outcome::kSuccess) ++successes;
    }
    return successes;
  };

  const int clean = session(false);
  EXPECT_EQ(clean, 6);  // the unfiltered path reproduces §7.3 fault-free
  const int faulted = session(true);
  EXPECT_GT(faulted, 0);                     // degraded, not dead
  EXPECT_EQ(faulted, session(true));         // and deterministic
}

TEST(Faults, GridDeterministicAcrossJobs) {
  BenchScale scale;
  scale.trials = 3;
  scale.servers = 2;
  scale.seed = 7;
  scale.faults = "chaos";
  const FaultsBench bench(scale);
  const runner::TrialGrid grid = bench.grid();

  auto sweep = [&](int jobs) {
    obs::MetricsRegistry local;
    obs::ScopedMetricsRegistry reg_scope(&local);
    std::vector<intang::StrategySelector> selectors(
        grid.chains(),
        intang::StrategySelector{intang::StrategySelector::Config{}});
    runner::PoolOptions pool;
    pool.jobs = jobs;
    return runner::collect_grid_or(
               grid, pool, Outcome::kTrialError,
               [&](const runner::GridCoord& c, runner::TaskContext&) {
                 return bench.run_trial(c, selectors[grid.chain(c)]).outcome;
               })
        .slots;
  };
  EXPECT_EQ(sweep(1), sweep(2));
}

}  // namespace
}  // namespace ys
