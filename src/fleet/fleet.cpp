#include "fleet/fleet.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/table.h"
#include "netsim/pcap.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace ys::fleet {

namespace {

using intang::StrategySelector;

constexpr std::size_t kPickSources =
    static_cast<std::size_t>(StrategySelector::Choice::Source::kSafeMode) + 1;

/// "fleet.pick.<source>": how a flow's strategy was picked.
std::string pick_counter_name(int source) {
  return std::string("fleet.pick.") +
         to_string(static_cast<StrategySelector::Choice::Source>(source));
}

/// "fleet.share.p<N>.<strategy>": per-strategy share over time, one
/// counter per (soak phase, strategy); p0 = before any soak boundary (or a
/// soak-free run).
std::string share_counter_name(int soak_phase, strategy::StrategyId id) {
  return "fleet.share.p" + std::to_string(soak_phase + 1) + "." +
         strategy::to_string(id);
}

struct FleetMetrics {
  obs::MetricsRegistry& reg;
  obs::Counter& flows;
  obs::Counter& success;
  obs::Counter& failure1;
  obs::Counter& failure2;
  obs::Counter& trial_error;
  obs::Counter& cache_hits;
  obs::Counter& cross_client_supply;
  obs::Counter& fresh_sessions;
  // Registered on first hit, so a snapshot names only what was counted.
  std::array<obs::Counter*, kPickSources> pick{};
  /// Indexed by soak phase + 1, then by strategy id.
  std::vector<std::array<obs::Counter*, strategy::kStrategyIdCount>> share{};
};

FleetMetrics& metrics() {
  return obs::bind_per_thread<FleetMetrics>([](obs::MetricsRegistry& reg) {
    return FleetMetrics{reg,
                        reg.counter("fleet.flows"),
                        reg.counter("fleet.flow_success"),
                        reg.counter("fleet.flow_failure1"),
                        reg.counter("fleet.flow_failure2"),
                        reg.counter("fleet.flow_trial_error"),
                        reg.counter("fleet.cache_hit"),
                        reg.counter("fleet.cross_client_supply"),
                        reg.counter("fleet.fresh_session")};
  });
}

bool is_cache_source(int source) {
  return source ==
             static_cast<int>(StrategySelector::Choice::Source::kCacheHit) ||
         source ==
             static_cast<int>(StrategySelector::Choice::Source::kStoreHit);
}

StrategySelector::Config fleet_selector_config() {
  return StrategySelector::Config{};
}

}  // namespace

i64 Fleet::FlowRecord::encode() const {
  return static_cast<i64>(outcome) |
         (static_cast<i64>(strategy) << 8) |
         (static_cast<i64>(source + 1) << 16) |
         (static_cast<i64>(supplier + 1) << 24);
}

Fleet::FlowRecord Fleet::FlowRecord::decode(i64 slot) {
  FlowRecord rec;
  rec.outcome = static_cast<exp::Outcome>(slot & 0xff);
  rec.strategy = static_cast<strategy::StrategyId>((slot >> 8) & 0xff);
  rec.source = static_cast<int>((slot >> 16) & 0xff) - 1;
  rec.supplier = static_cast<int>(slot >> 24) - 1;
  return rec;
}

Fleet::Fleet(FleetConfig cfg)
    : cfg_(std::move(cfg)),
      cal_(exp::Calibration::standard()),
      rules_(&gfw::DetectionRules::standard()),
      vps_([&] {
        std::vector<exp::VantagePoint> vps = exp::china_vantage_points();
        if (cfg_.vantages > 0 &&
            static_cast<std::size_t>(cfg_.vantages) < vps.size()) {
          vps.resize(static_cast<std::size_t>(cfg_.vantages));
        }
        return vps;
      }()),
      servers_(exp::make_server_population(cfg_.servers, cfg_.seed, cal_,
                                           /*inside_china=*/true)),
      // Batched scenario construction: every (vantage, server) profile is
      // drawn once here and reused by all of the sweep's flows.
      profiles_(vps_, servers_, cal_) {}

runner::TrialGrid Fleet::grid() const {
  runner::TrialGrid grid;
  grid.cells = 1;
  grid.vantages = vps_.size();
  grid.servers = 1;  // the schedule carries the real server axis
  grid.trials = static_cast<std::size_t>(cfg_.flows);
  grid.chain_trials = true;
  return grid;
}

std::unique_ptr<Fleet::VantageState> Fleet::make_vantage_state(
    std::size_t vantage) const {
  auto state = std::make_unique<VantageState>();
  state->cfg = &cfg_;
  state->schedule = build_flow_schedule(cfg_, vps_[vantage].name);
  state->writer.assign(servers_.size(), -1);
  state->timeline_labels = {{"vantage", vps_[vantage].name},
                            {"vantage_index", std::to_string(vantage)}};
  if (cfg_.share != ShareMode::kCold) {
    state->selectors.reserve(static_cast<std::size_t>(cfg_.clients));
    for (int i = 0; i < cfg_.clients; ++i) {
      state->selectors.push_back(
          cfg_.share == ShareMode::kShared
              ? std::make_unique<StrategySelector>(fleet_selector_config(),
                                                   &state->store)
              : std::make_unique<StrategySelector>(fleet_selector_config()));
    }
  }
  return state;
}

u64 Fleet::flow_seed(const runner::GridCoord& c, const FlowSpec& flow) const {
  // Salted independently of every existing bench seed formula; client and
  // flow index both feed in, so two flows of one (vantage, server) pair
  // never share dynamic randomness.
  return Rng::mix_seed({cfg_.seed, 0xF1EE7DULL,
                        Rng::hash_label(vps_[c.vantage].name),
                        servers_[static_cast<std::size_t>(flow.server)].ip,
                        static_cast<u64>(flow.index),
                        static_cast<u64>(flow.client)});
}

exp::ScenarioOptions Fleet::options_for(const runner::GridCoord& c,
                                        const FlowSpec& flow,
                                        bool tracing) const {
  exp::ScenarioOptions opt;
  opt.vp = vps_[c.vantage];
  opt.server = servers_[static_cast<std::size_t>(flow.server)];
  opt.cal = cal_;
  opt.seed = flow_seed(c, flow);
  opt.profile = profiles_.get(c.vantage, static_cast<std::size_t>(flow.server));
  opt.start_time = flow.at;
  opt.tracing = tracing;
  // A fleet sweep must survive any flow wedging under a soak plan: bound
  // every flow in virtual time so it degrades to kTrialError, not a hang.
  opt.deadline = SimTime::from_sec(120);
  if (flow.soak_phase >= 0) {
    const faults::FaultPlan& plan =
        cfg_.soak[static_cast<std::size_t>(flow.soak_phase)].plan;
    if (!plan.empty()) opt.faults = &plan;
  }
  return opt;
}

Fleet::FlowRecord Fleet::run_flow(const runner::GridCoord& c,
                                  VantageState& state) const {
  return run_flow_impl(c, state, /*tracing=*/false, nullptr, {}, {});
}

Fleet::FlowRecord Fleet::run_flow_impl(const runner::GridCoord& c,
                                       VantageState& state, bool tracing,
                                       exp::Replay* replay,
                                       const std::string& trace_path,
                                       const std::string& pcap_path) const {
  obs::perf::ScopedPhase phase_timer("fleet.flow");
  const FlowSpec& flow = state.schedule[c.trial];

  // Session churn, by share mode. Shared: a restarted client process loses
  // its private LRU but rebinds to the vantage store. Per-client: the
  // private store survives the restart, only the LRU goes. Cold: nothing
  // persists anyway.
  StrategySelector* selector = nullptr;
  if (cfg_.share != ShareMode::kCold) {
    auto& slot = state.selectors[static_cast<std::size_t>(flow.client)];
    if (flow.fresh_session) {
      metrics().fresh_sessions.inc();
      if (cfg_.share == ShareMode::kShared) {
        slot = std::make_unique<StrategySelector>(fleet_selector_config(),
                                                  &state.store);
      } else {
        slot->forget_cache();
      }
    }
    selector = slot.get();
  }

  // Supplier attribution: capture who last wrote this server's known-good
  // record *before* the flow runs — that flow supplied any cache/store hit
  // the pick makes now.
  const int writer_before =
      state.writer[static_cast<std::size_t>(flow.server)];

  exp::Scenario sc(rules_, options_for(c, flow, tracing));

  net::PcapWriter writer;
  if (tracing && !pcap_path.empty()) {
    if (auto st = writer.open(pcap_path); st.ok()) {
      sc.path().set_client_capture(
          [&writer](const net::Packet& pkt, SimTime at) {
            (void)writer.write(pkt, at);
          });
    } else {
      std::fprintf(stderr, "pcap: %s\n", st.error().message.c_str());
    }
  }

  exp::HttpTrialOptions http;
  http.with_keyword = true;
  http.use_intang = true;
  http.shared_selector = selector;  // nullptr in cold mode = fresh per flow
  const exp::TrialResult result = exp::run_http_trial(sc, http);

  FlowRecord rec;
  rec.outcome = result.outcome;
  rec.strategy = result.strategy_used;
  rec.source = result.pick_source ? static_cast<int>(*result.pick_source) : -1;
  if (is_cache_source(rec.source)) rec.supplier = writer_before;

  // This flow becomes the supplier of later hits on its server if it
  // succeeded with an actual strategy (kNone successes prove the plain
  // path works; they write no record).
  if (rec.outcome == exp::Outcome::kSuccess &&
      rec.strategy != strategy::StrategyId::kNone) {
    state.writer[static_cast<std::size_t>(flow.server)] = flow.index;
  }

  // ------------------------------------------------------------ metrics
  FleetMetrics& m = metrics();
  m.flows.inc();
  switch (rec.outcome) {
    case exp::Outcome::kSuccess: m.success.inc(); break;
    case exp::Outcome::kFailure1: m.failure1.inc(); break;
    case exp::Outcome::kFailure2: m.failure2.inc(); break;
    case exp::Outcome::kTrialError: m.trial_error.inc(); break;
  }
  if (is_cache_source(rec.source)) m.cache_hits.inc();
  if (rec.supplier >= 0 &&
      state.schedule[static_cast<std::size_t>(rec.supplier)].client !=
          flow.client) {
    m.cross_client_supply.inc();
  }
  if (rec.source >= 0) {
    obs::Counter*& pick = m.pick[static_cast<std::size_t>(rec.source)];
    if (pick == nullptr) pick = &m.reg.counter(pick_counter_name(rec.source));
    pick->inc();
  }
  const auto phase = static_cast<std::size_t>(flow.soak_phase + 1);
  if (m.share.size() <= phase) m.share.resize(phase + 1);
  obs::Counter*& share =
      m.share[phase][static_cast<std::size_t>(rec.strategy)];
  if (share == nullptr) {
    share = &m.reg.counter(share_counter_name(flow.soak_phase, rec.strategy));
  }
  share->inc();

  // Live heartbeat feed (relaxed: monitoring only, never read into
  // results).
  live_.flows.fetch_add(1, std::memory_order_relaxed);
  if (rec.outcome == exp::Outcome::kSuccess) {
    live_.successes.fetch_add(1, std::memory_order_relaxed);
  }
  if (is_cache_source(rec.source)) {
    live_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t live_phase = std::min<std::size_t>(
      static_cast<std::size_t>(flow.soak_phase), kMaxLivePhases - 1);
  live_.phase_flows[live_phase].fetch_add(1, std::memory_order_relaxed);

  // Timeline producers (opt-in): the same outcomes, bucketed at the flow's
  // virtual arrival instant per vantage. flow.at and the record are pure
  // functions of the grid coordinates, so these series are bit-identical
  // under --jobs=N.
  if (obs::Timeline* tl = obs::Timeline::current()) {
    const obs::TimelineLabels& lbl = state.timeline_labels;
    tl->count("fleet.flows", lbl, flow.at);
    if (rec.outcome == exp::Outcome::kSuccess) {
      tl->count("fleet.flow_success", lbl, flow.at);
    }
    if (is_cache_source(rec.source)) tl->count("fleet.cache_hit", lbl, flow.at);
    if (rec.supplier >= 0 &&
        state.schedule[static_cast<std::size_t>(rec.supplier)].client !=
            flow.client) {
      tl->count("fleet.cross_client_supply", lbl, flow.at);
    }
    if (rec.source ==
        static_cast<int>(StrategySelector::Choice::Source::kSafeMode)) {
      tl->count("fleet.safe_mode", lbl, flow.at);
    }
    // Gauge, not counter: its per-bucket max is the newest flow index in
    // the bucket — the `--trial=` coordinate `yourstate report` prints
    // for anomalous buckets.
    tl->sample("fleet.flow_index", lbl, flow.at, flow.index);
  }

  if (tracing && replay != nullptr) {
    // Attribute the pick to its supplier in the trace, causally linked to
    // the selector's decision event so `yourstate explain` renders the
    // supply chain.
    if (rec.supplier >= 0) {
      const FlowSpec& sup =
          state.schedule[static_cast<std::size_t>(rec.supplier)];
      sc.trace().note(
          sc.loop().now(), "fleet", obs::TraceKind::kDecision,
          "cache entry for " + servers_[static_cast<std::size_t>(flow.server)]
                  .host +
              " was supplied by flow #" + std::to_string(rec.supplier) +
              " (client " + std::to_string(sup.client) + ")",
          sc.trace().last_decision());
    }
    replay->result = result;
    replay->old_model = sc.path_runs_old_model();
    replay->ladder = sc.trace().render();
    replay->attribution = exp::attribute_verdict(sc.trace(), result.outcome,
                                                 replay->old_model);
    if (!trace_path.empty()) {
      if (!obs::write_chrome_trace(trace_path, sc.trace())) {
        std::fprintf(stderr, "cannot write trace file %s\n",
                     trace_path.c_str());
      }
    }
  }
  return rec;
}

exp::Replay Fleet::replay_flow(const runner::GridCoord& c,
                               const std::string& trace_path,
                               const std::string& pcap_path) const {
  // Rebuild the vantage chain up to the target flow: same schedule, same
  // stores, same writers — the chain contract makes the prefix identical
  // to what the sweep executed.
  auto state = make_vantage_state(c.vantage);
  for (std::size_t t = 0; t < c.trial; ++t) {
    runner::GridCoord prefix = c;
    prefix.trial = t;
    (void)run_flow(prefix, *state);
  }
  exp::Replay replay;
  (void)run_flow_impl(c, *state, /*tracing=*/true, &replay, trace_path,
                      pcap_path);
  return replay;
}

std::string Fleet::heartbeat_line() const {
  const u64 flows = live_.flows.load(std::memory_order_relaxed);
  const u64 ok = live_.successes.load(std::memory_order_relaxed);
  const u64 hits = live_.cache_hits.load(std::memory_order_relaxed);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "ok %.1f%% | cache %.1f%%",
                flows > 0 ? 100.0 * static_cast<double>(ok) / flows : 0.0,
                flows > 0 ? 100.0 * static_cast<double>(hits) / flows : 0.0);
  std::string out = buf;
  for (std::size_t p = 0; p < kMaxLivePhases; ++p) {
    const u64 n = live_.phase_flows[p].load(std::memory_order_relaxed);
    if (n == 0) continue;
    std::snprintf(buf, sizeof(buf), " %sp%zu:%llu", p == 0 ? "| " : "",
                  p + 1, static_cast<unsigned long long>(n));
    out += buf;
  }
  return out;
}

void Fleet::annotate_timeline(obs::Timeline* tl) const {
  if (tl == nullptr) return;
  for (std::size_t p = 0; p < cfg_.soak.size(); ++p) {
    // Same numbering as the fleet.share.pN counters: soak[p] starts the
    // phase whose flows count under p{p+1} (p0 precedes every boundary).
    tl->annotate(cfg_.soak[p].at, "soak-phase",
                 "p" + std::to_string(p + 1) + ": " + cfg_.soak[p].spec);
  }
}

Fleet::Report Fleet::analyze(const std::vector<i64>& slots) const {
  const runner::TrialGrid g = grid();
  Report report;
  report.phases = cfg_.soak.size() + 1;
  report.total_flows = slots.size();

  const auto candidates = fleet_selector_config().candidates;
  std::vector<strategy::StrategyId> strat_ids;
  strat_ids.push_back(strategy::StrategyId::kNone);
  for (auto id : candidates) strat_ids.push_back(id);
  std::vector<std::vector<std::size_t>> strat_counts(
      strat_ids.size(), std::vector<std::size_t>(report.phases, 0));
  std::vector<std::size_t> phase_totals(report.phases, 0);

  std::size_t total_success = 0;
  std::size_t total_cache_hits = 0;

  for (std::size_t v = 0; v < vps_.size(); ++v) {
    const std::vector<FlowSpec> schedule =
        build_flow_schedule(cfg_, vps_[v].name);
    VantageReport vr;
    vr.name = vps_[v].name;
    vr.flows = g.trials;

    std::size_t success = 0;
    std::size_t cache_hits = 0;
    // Per server: last exploratory pick index, and whether a cache/store-
    // hit success happened after it (the converged steady state).
    std::vector<int> last_explore(servers_.size(), -1);
    std::vector<char> settled(servers_.size(), 0);
    std::vector<char> touched(servers_.size(), 0);

    for (std::size_t t = 0; t < g.trials; ++t) {
      const i64 slot = slots[v * g.trials + t];
      if (slot < 0) {
        // Hole: the flow never ran (degraded shard / cancelled sweep).
        // Nothing is known about it — keep it out of every rate and out
        // of the convergence state machine.
        ++vr.missing;
        ++report.missing_flows;
        continue;
      }
      const FlowRecord rec = FlowRecord::decode(slot);
      const FlowSpec& flow = schedule[t];
      const auto srv = static_cast<std::size_t>(flow.server);
      touched[srv] = 1;
      if (rec.outcome == exp::Outcome::kSuccess) ++success;
      if (is_cache_source(rec.source)) {
        ++cache_hits;
        if (rec.outcome == exp::Outcome::kSuccess) settled[srv] = 1;
      } else {
        // Any exploratory pick re-opens the server's search.
        last_explore[srv] = flow.index;
        settled[srv] = 0;
      }
      const auto phase = static_cast<std::size_t>(flow.soak_phase + 1);
      ++phase_totals[phase];
      for (std::size_t s = 0; s < strat_ids.size(); ++s) {
        if (strat_ids[s] == rec.strategy) {
          ++strat_counts[s][phase];
          break;
        }
      }
      if (rec.supplier >= 0 &&
          schedule[static_cast<std::size_t>(rec.supplier)].client !=
              flow.client) {
        ++report.cross_client_supplies;
      }
    }

    double converge_sum = 0.0;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      if (!touched[s]) continue;
      ++vr.servers_touched;
      if (settled[s]) {
        ++vr.servers_converged;
        converge_sum += static_cast<double>(last_explore[s] + 1);
      }
    }
    const std::size_t executed = vr.flows - vr.missing;
    vr.success_rate =
        executed > 0 ? static_cast<double>(success) / executed : 0.0;
    vr.cache_hit_rate =
        executed > 0 ? static_cast<double>(cache_hits) / executed : 0.0;
    vr.mean_flows_to_converge =
        vr.servers_converged > 0 ? converge_sum / vr.servers_converged : 0.0;
    total_success += success;
    total_cache_hits += cache_hits;
    report.vantages.push_back(std::move(vr));
  }

  const std::size_t total_executed = report.total_flows - report.missing_flows;
  report.success_rate =
      total_executed > 0
          ? static_cast<double>(total_success) / total_executed
          : 0.0;
  report.cache_hit_rate =
      total_executed > 0
          ? static_cast<double>(total_cache_hits) / total_executed
          : 0.0;
  for (std::size_t s = 0; s < strat_ids.size(); ++s) {
    StrategyShare share;
    share.id = strat_ids[s];
    share.share_by_phase.resize(report.phases, 0.0);
    bool any = false;
    for (std::size_t p = 0; p < report.phases; ++p) {
      if (phase_totals[p] == 0) continue;
      share.share_by_phase[p] =
          static_cast<double>(strat_counts[s][p]) / phase_totals[p];
      if (strat_counts[s][p] > 0) any = true;
    }
    if (any) report.shares.push_back(std::move(share));
  }
  return report;
}

std::string Fleet::Report::render() const {
  std::string out;
  exp::TextTable per_vantage({"Vantage point", "Flows", "Success",
                              "Cache hit", "Converged", "Mean flows to conv"});
  for (const VantageReport& vr : vantages) {
    char conv[32];
    std::snprintf(conv, sizeof(conv), "%d/%d", vr.servers_converged,
                  vr.servers_touched);
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.1f", vr.mean_flows_to_converge);
    // Full-coverage vantages render exactly as before; a vantage with
    // holes shows executed/scheduled so partial coverage is visible in
    // the table itself.
    const std::string flows_cell =
        vr.missing == 0 ? std::to_string(vr.flows)
                        : std::to_string(vr.flows - vr.missing) + "/" +
                              std::to_string(vr.flows);
    per_vantage.add_row({vr.name, flows_cell, exp::pct(vr.success_rate),
                         exp::pct(vr.cache_hit_rate), conv, mean});
  }
  out += per_vantage.render();
  out += "\n";

  std::vector<std::string> headers = {"Strategy share"};
  for (std::size_t p = 0; p < phases; ++p) {
    headers.push_back(p == 0 ? "p0 (clean)" : "p" + std::to_string(p));
  }
  exp::TextTable shares_table(std::move(headers));
  for (const StrategyShare& s : shares) {
    std::vector<std::string> row = {strategy::to_string(s.id)};
    for (double v : s.share_by_phase) row.push_back(exp::pct(v));
    shares_table.add_row(std::move(row));
  }
  out += shares_table.render();

  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "\n%zu flows total: %.1f%% success, %.1f%% cache hits, %d "
                "cross-client supplies\n",
                total_flows, success_rate * 100.0, cache_hit_rate * 100.0,
                cross_client_supplies);
  out += tail;
  if (missing_flows > 0) {
    std::snprintf(tail, sizeof(tail),
                  "PARTIAL COVERAGE: %zu/%zu flows recorded (%zu missing; "
                  "rates are over executed flows only)\n",
                  total_flows - missing_flows, total_flows, missing_flows);
    out += tail;
  }
  return out;
}

void Fleet::rebuild_telemetry(const std::vector<i64>& slots,
                              obs::Timeline* tl) const {
  const runner::TrialGrid g = grid();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::current();
  // run_flow_impl's FleetMetrics binding creates the whole counter family
  // on its first flow, zero-valued members included; a metrics snapshot of
  // the rebuilt registry must list the same names to be byte-identical.
  bool any_recorded = false;
  for (const i64 slot : slots) any_recorded = any_recorded || slot >= 0;
  if (any_recorded) {
    for (const char* name :
         {"fleet.flows", "fleet.flow_success", "fleet.flow_failure1",
          "fleet.flow_failure2", "fleet.flow_trial_error", "fleet.cache_hit",
          "fleet.cross_client_supply", "fleet.fresh_session"}) {
      reg.counter(name);
    }
  }
  for (std::size_t v = 0; v < vps_.size(); ++v) {
    const std::vector<FlowSpec> schedule =
        build_flow_schedule(cfg_, vps_[v].name);
    const obs::TimelineLabels labels{{"vantage", vps_[v].name},
                                     {"vantage_index", std::to_string(v)}};
    for (std::size_t t = 0; t < g.trials && t < schedule.size(); ++t) {
      const i64 slot = slots[v * g.trials + t];
      if (slot < 0) continue;  // hole: nothing was published for it
      const FlowRecord rec = FlowRecord::decode(slot);
      const FlowSpec& flow = schedule[t];

      // Mirror of run_flow_impl's metrics block, driven by the record
      // alone (the slots are a sufficient statistic for all of fleet.*).
      reg.counter("fleet.flows").inc();
      switch (rec.outcome) {
        case exp::Outcome::kSuccess:
          reg.counter("fleet.flow_success").inc();
          break;
        case exp::Outcome::kFailure1:
          reg.counter("fleet.flow_failure1").inc();
          break;
        case exp::Outcome::kFailure2:
          reg.counter("fleet.flow_failure2").inc();
          break;
        case exp::Outcome::kTrialError:
          reg.counter("fleet.flow_trial_error").inc();
          break;
      }
      if (cfg_.share != ShareMode::kCold && flow.fresh_session) {
        reg.counter("fleet.fresh_session").inc();
      }
      const bool cache_hit = is_cache_source(rec.source);
      if (cache_hit) reg.counter("fleet.cache_hit").inc();
      const bool cross_client =
          rec.supplier >= 0 &&
          schedule[static_cast<std::size_t>(rec.supplier)].client !=
              flow.client;
      if (cross_client) reg.counter("fleet.cross_client_supply").inc();
      if (rec.source >= 0) reg.counter(pick_counter_name(rec.source)).inc();
      reg.counter(share_counter_name(flow.soak_phase, rec.strategy)).inc();

      if (tl != nullptr) {
        tl->count("fleet.flows", labels, flow.at);
        if (rec.outcome == exp::Outcome::kSuccess) {
          tl->count("fleet.flow_success", labels, flow.at);
        }
        if (cache_hit) tl->count("fleet.cache_hit", labels, flow.at);
        if (cross_client) {
          tl->count("fleet.cross_client_supply", labels, flow.at);
        }
        if (rec.source ==
            static_cast<int>(StrategySelector::Choice::Source::kSafeMode)) {
          tl->count("fleet.safe_mode", labels, flow.at);
        }
        tl->sample("fleet.flow_index", labels, flow.at, flow.index);
      }
    }
  }
}

}  // namespace ys::fleet
