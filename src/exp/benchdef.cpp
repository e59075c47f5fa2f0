#include "exp/benchdef.h"

#include <cstdio>
#include <cstdlib>

#include "netsim/pcap.h"
#include "obs/trace_export.h"

namespace ys::exp {

const std::array<Table1Bench::Row, 16>& Table1Bench::rows() {
  static const std::array<Row, 16> kRows = {{
      {strategy::StrategyId::kNone, "No Strategy", "N/A"},
      {strategy::StrategyId::kTcbCreationSynTtl, "TCB creation with SYN",
       "TTL"},
      {strategy::StrategyId::kTcbCreationSynBadChecksum,
       "TCB creation with SYN", "Bad checksum"},
      {strategy::StrategyId::kOutOfOrderIpFragments,
       "Reassembly out-of-order data", "IP fragments"},
      {strategy::StrategyId::kOutOfOrderTcpSegments,
       "Reassembly out-of-order data", "TCP segments"},
      {strategy::StrategyId::kInOrderTtl, "Reassembly in-order data", "TTL"},
      {strategy::StrategyId::kInOrderBadAck, "Reassembly in-order data",
       "Bad ACK number"},
      {strategy::StrategyId::kInOrderBadChecksum, "Reassembly in-order data",
       "Bad checksum"},
      {strategy::StrategyId::kInOrderNoFlags, "Reassembly in-order data",
       "No TCP flag"},
      {strategy::StrategyId::kTeardownRstTtl, "TCB teardown with RST", "TTL"},
      {strategy::StrategyId::kTeardownRstBadChecksum, "TCB teardown with RST",
       "Bad checksum"},
      {strategy::StrategyId::kTeardownRstAckTtl, "TCB teardown with RST/ACK",
       "TTL"},
      {strategy::StrategyId::kTeardownRstAckBadChecksum,
       "TCB teardown with RST/ACK", "Bad checksum"},
      {strategy::StrategyId::kTeardownFinTtl, "TCB teardown with FIN", "TTL"},
      {strategy::StrategyId::kTeardownFinBadChecksum, "TCB teardown with FIN",
       "Bad checksum"},
      // Extra row (not in Table 1): the West Chamber Project's tool, which
      // §1/§9 report as no longer effective.
      {strategy::StrategyId::kWestChamber, "West Chamber [25] (extra row)",
       "TTL"},
  }};
  return kRows;
}

const std::array<Table4Inside::Row, 4>& Table4Inside::rows() {
  static const std::array<Row, 4> kRows = {{
      {strategy::StrategyId::kImprovedTeardown, "Improved TCB Teardown",
       0.958},
      {strategy::StrategyId::kImprovedInOrder,
       "Improved In-order Data Overlapping", 0.945},
      {strategy::StrategyId::kCreationResyncDesync,
       "TCB Creation + Resync/Desync", 0.956},
      {strategy::StrategyId::kTeardownReversal,
       "TCB Teardown + TCB Reversal", 0.962},
  }};
  return kRows;
}

namespace {

/// Parse a BenchScale's fault spec; a bad spec is a usage error, not a
/// silent fault-free run.
faults::FaultPlan parse_scale_plan(const std::string& spec) {
  if (spec.empty()) return {};
  std::string error;
  faults::FaultPlan plan = faults::parse_fault_plan(spec, error);
  if (!error.empty()) {
    std::fprintf(stderr, "--faults: %s\n", error.c_str());
    std::exit(2);
  }
  return plan;
}

/// Traced run of one prepared scenario: capture, run, render, attribute.
Replay traced_run(Scenario& sc, const HttpTrialOptions& http,
                  const std::string& trace_path,
                  const std::string& pcap_path) {
  net::PcapWriter writer;
  if (!pcap_path.empty()) {
    if (auto st = writer.open(pcap_path); st.ok()) {
      sc.path().set_client_capture(
          [&writer](const net::Packet& pkt, SimTime at) {
            (void)writer.write(pkt, at);
          });
    } else {
      std::fprintf(stderr, "pcap: %s\n", st.error().message.c_str());
    }
  }

  Replay replay;
  replay.result = run_http_trial(sc, http);
  replay.old_model = sc.path_runs_old_model();
  replay.ladder = sc.trace().render();
  replay.attribution =
      attribute_verdict(sc.trace(), replay.result.outcome, replay.old_model);
  if (!trace_path.empty()) {
    if (!obs::write_chrome_trace(trace_path, sc.trace())) {
      std::fprintf(stderr, "cannot write trace file %s\n", trace_path.c_str());
    }
  }
  return replay;
}

/// DNS variant of traced_run; only the outcome slot of Replay::result is
/// meaningful.
Replay traced_dns_run(Scenario& sc, const DnsTrialOptions& dns,
                      const std::string& trace_path,
                      const std::string& pcap_path) {
  net::PcapWriter writer;
  if (!pcap_path.empty()) {
    if (auto st = writer.open(pcap_path); st.ok()) {
      sc.path().set_client_capture(
          [&writer](const net::Packet& pkt, SimTime at) {
            (void)writer.write(pkt, at);
          });
    } else {
      std::fprintf(stderr, "pcap: %s\n", st.error().message.c_str());
    }
  }

  Replay replay;
  replay.result.outcome = run_dns_trial(sc, dns).outcome;
  replay.old_model = sc.path_runs_old_model();
  replay.ladder = sc.trace().render();
  replay.attribution =
      attribute_verdict(sc.trace(), replay.result.outcome, replay.old_model);
  if (!trace_path.empty()) {
    if (!obs::write_chrome_trace(trace_path, sc.trace())) {
      std::fprintf(stderr, "cannot write trace file %s\n", trace_path.c_str());
    }
  }
  return replay;
}

}  // namespace

// ------------------------------------------------------------- Table 1

Table1Bench::Table1Bench(BenchScale scale)
    : scale_(scale),
      cal_(Calibration::standard()),
      rules_(&gfw::DetectionRules::standard()),
      vps_(china_vantage_points()),
      servers_(make_server_population(scale_.servers, scale_.seed, cal_,
                                      /*inside_china=*/true)),
      plan_(parse_scale_plan(scale_.faults)),
      profiles_(vps_, servers_, cal_) {}

runner::TrialGrid Table1Bench::grid() const {
  runner::TrialGrid grid;
  grid.cells = rows().size() * 2;
  grid.vantages = vps_.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  return grid;
}

u64 Table1Bench::trial_seed(const runner::GridCoord& c) const {
  return Rng::mix_seed({scale_.seed,
                        static_cast<u64>(rows()[row_of(c.cell)].id),
                        Rng::hash_label(vps_[c.vantage].name),
                        servers_[c.server].ip, static_cast<u64>(c.trial),
                        keyword_cell(c.cell) ? 1u : 0u});
}

ScenarioOptions Table1Bench::options_for(const runner::GridCoord& c,
                                         bool tracing) const {
  ScenarioOptions opt;
  opt.vp = vps_[c.vantage];
  opt.server = servers_[c.server];
  opt.cal = cal_;
  opt.seed = trial_seed(c);
  opt.profile = profiles_.get(c.vantage, c.server);
  opt.tracing = tracing;
  if (!plan_.empty()) opt.faults = &plan_;
  return opt;
}

TrialResult Table1Bench::run_trial(const runner::GridCoord& c) const {
  Scenario sc(rules_, options_for(c, /*tracing=*/false));
  HttpTrialOptions http;
  http.with_keyword = keyword_cell(c.cell);
  http.strategy = rows()[row_of(c.cell)].id;
  return run_http_trial(sc, http);
}

Replay Table1Bench::replay(const runner::GridCoord& c,
                           const std::string& trace_path,
                           const std::string& pcap_path) const {
  Scenario sc(rules_, options_for(c, /*tracing=*/true));
  HttpTrialOptions http;
  http.with_keyword = keyword_cell(c.cell);
  http.strategy = rows()[row_of(c.cell)].id;
  return traced_run(sc, http, trace_path, pcap_path);
}

// ------------------------------------------------------------- Table 4

Table4Inside::Table4Inside(BenchScale scale)
    : scale_(scale),
      cal_(Calibration::standard()),
      rules_(&gfw::DetectionRules::standard()),
      vps_(china_vantage_points()),
      servers_(make_server_population(scale_.servers, scale_.seed, cal_,
                                      /*inside_china=*/true)),
      plan_(parse_scale_plan(scale_.faults)),
      // Batched scenario construction: path profiles are route properties,
      // drawn once per (vantage, server) pair and shared by every trial's
      // scenario instead of being re-drawn per task.
      profiles_(vps_, servers_, cal_) {}

runner::TrialGrid Table4Inside::fixed_grid() const {
  runner::TrialGrid grid;
  grid.cells = rows().size();
  grid.vantages = vps_.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  return grid;
}

runner::TrialGrid Table4Inside::intang_grid() const {
  runner::TrialGrid grid;
  grid.vantages = vps_.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  grid.chain_trials = true;
  return grid;
}

u64 Table4Inside::fixed_seed(const runner::GridCoord& c) const {
  return Rng::mix_seed({scale_.seed,
                        static_cast<u64>(rows()[c.cell].id),
                        Rng::hash_label(vps_[c.vantage].name),
                        servers_[c.server].ip, static_cast<u64>(c.trial)});
}

u64 Table4Inside::intang_seed(const runner::GridCoord& c) const {
  return Rng::mix_seed({scale_.seed, 0x1474a6ULL,
                        Rng::hash_label(vps_[c.vantage].name),
                        servers_[c.server].ip, static_cast<u64>(c.trial)});
}

ScenarioOptions Table4Inside::options_for(const runner::GridCoord& c,
                                          u64 trial_seed,
                                          bool tracing) const {
  ScenarioOptions opt;
  opt.vp = vps_[c.vantage];
  opt.server = servers_[c.server];
  opt.cal = cal_;
  opt.seed = trial_seed;
  opt.profile = profiles_.get(c.vantage, c.server);
  opt.tracing = tracing;
  if (!plan_.empty()) opt.faults = &plan_;
  return opt;
}

TrialResult Table4Inside::run_fixed(const runner::GridCoord& c) const {
  Scenario sc(rules_, options_for(c, fixed_seed(c), /*tracing=*/false));
  HttpTrialOptions http;
  http.with_keyword = true;
  http.strategy = rows()[c.cell].id;
  return run_http_trial(sc, http);
}

TrialResult Table4Inside::run_intang(const runner::GridCoord& c,
                                     intang::StrategySelector& selector) const {
  Scenario sc(rules_, options_for(c, intang_seed(c), /*tracing=*/false));
  HttpTrialOptions http;
  http.with_keyword = true;
  http.use_intang = true;
  http.shared_selector = &selector;
  return run_http_trial(sc, http);
}

Replay Table4Inside::replay_fixed(const runner::GridCoord& c,
                                  const std::string& trace_path,
                                  const std::string& pcap_path) const {
  Scenario sc(rules_, options_for(c, fixed_seed(c), /*tracing=*/true));
  HttpTrialOptions http;
  http.with_keyword = true;
  http.strategy = rows()[c.cell].id;
  return traced_run(sc, http, trace_path, pcap_path);
}

Replay Table4Inside::replay_intang(const runner::GridCoord& c,
                                   const std::string& trace_path,
                                   const std::string& pcap_path) const {
  // Rebuild the chain's selector knowledge: the grid runs trials of one
  // (vantage, server) chain in ascending order against one selector, so an
  // identical prefix replay puts the selector in the identical state.
  intang::StrategySelector selector{intang::StrategySelector::Config{}};
  for (std::size_t t = 0; t < c.trial; ++t) {
    runner::GridCoord prefix = c;
    prefix.trial = t;
    (void)run_intang(prefix, selector);
  }

  Scenario sc(rules_, options_for(c, intang_seed(c), /*tracing=*/true));
  HttpTrialOptions http;
  http.with_keyword = true;
  http.use_intang = true;
  http.shared_selector = &selector;
  return traced_run(sc, http, trace_path, pcap_path);
}

FaultsBench::FaultsBench(BenchScale scale)
    : scale_(scale),
      cal_(Calibration::standard()),
      rules_(&gfw::DetectionRules::standard()),
      vps_(china_vantage_points()),
      servers_(make_server_population(scale_.servers, scale_.seed, cal_,
                                      /*inside_china=*/true)),
      profiles_(vps_, servers_, cal_) {
  if (scale_.faults.empty()) {
    plans_ = faults::shipped_fault_plans();
  } else {
    plans_.push_back(parse_scale_plan(scale_.faults));
  }
}

runner::TrialGrid FaultsBench::grid() const {
  runner::TrialGrid grid;
  grid.cells = plans_.size() * 2;
  grid.vantages = vps_.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  grid.chain_trials = true;
  return grid;
}

u64 FaultsBench::trial_seed(const runner::GridCoord& c) const {
  return Rng::mix_seed({scale_.seed, 0xFA0175ULL, static_cast<u64>(c.cell),
                        Rng::hash_label(vps_[c.vantage].name),
                        servers_[c.server].ip, static_cast<u64>(c.trial)});
}

ScenarioOptions FaultsBench::options_for(const runner::GridCoord& c,
                                         bool tracing) const {
  ScenarioOptions opt;
  opt.vp = vps_[c.vantage];
  opt.server = servers_[c.server];
  opt.cal = cal_;
  opt.seed = trial_seed(c);
  opt.profile = profiles_.get(c.vantage, c.server);
  opt.tracing = tracing;
  const faults::FaultPlan& plan = plans_[plan_of(c.cell)];
  if (!plan.empty()) opt.faults = &plan;
  // Generous virtual-time deadline: honest trials quiesce in simulated
  // seconds, so only a trial a fault plan wedged (e.g. a reorder loop that
  // keeps re-arming timers) hits this and becomes kTrialError.
  opt.deadline = SimTime::from_sec(120);
  return opt;
}

TrialResult FaultsBench::run_trial(const runner::GridCoord& c,
                                   intang::StrategySelector& selector) const {
  Scenario sc(rules_, options_for(c, /*tracing=*/false));
  HttpTrialOptions http;
  http.with_keyword = true;
  if (intang_cell(c.cell)) {
    http.use_intang = true;
    http.shared_selector = &selector;
  }
  return run_http_trial(sc, http);
}

Replay FaultsBench::replay(const runner::GridCoord& c,
                           const std::string& trace_path,
                           const std::string& pcap_path) const {
  // Rebuild the chain's selector knowledge (no-op for baseline cells —
  // their trials never touch the selector).
  intang::StrategySelector selector{intang::StrategySelector::Config{}};
  for (std::size_t t = 0; t < c.trial; ++t) {
    runner::GridCoord prefix = c;
    prefix.trial = t;
    (void)run_trial(prefix, selector);
  }

  Scenario sc(rules_, options_for(c, /*tracing=*/true));
  HttpTrialOptions http;
  http.with_keyword = true;
  if (intang_cell(c.cell)) {
    http.use_intang = true;
    http.shared_selector = &selector;
  }
  return traced_run(sc, http, trace_path, pcap_path);
}

// ------------------------------------------------------------- Table 6

const std::array<Table6Dns::Resolver, 3>& Table6Dns::resolvers() {
  static const std::array<Resolver, 3> kResolvers = {{
      {"Dyn 1 (216.146.35.35)", net::make_ip(216, 146, 35, 35), true},
      {"Dyn 2 (216.146.36.36)", net::make_ip(216, 146, 36, 36), true},
      {"OpenDNS (208.67.222.222, no INTANG)", net::make_ip(208, 67, 222, 222),
       false},
  }};
  return kResolvers;
}

Table6Dns::Table6Dns(BenchScale scale)
    : scale_(scale),
      cal_(Calibration::standard()),
      rules_(&gfw::DetectionRules::standard()),
      uncensored_(gfw::DetectionRules::standard()),
      vps_(china_vantage_points()),
      servers_([] {
        std::vector<ServerSpec> specs;
        for (const Resolver& r : resolvers()) {
          ServerSpec spec;
          spec.host = r.label;
          spec.ip = r.ip;
          spec.version = tcp::LinuxVersion::k4_4;
          specs.push_back(spec);
        }
        return specs;
      }()),
      plan_(parse_scale_plan(scale_.faults)),
      profiles_(vps_, servers_, cal_) {
  uncensored_.dns_blacklist.clear();  // OpenDNS paths: no DNS censorship
}

runner::TrialGrid Table6Dns::grid() const {
  runner::TrialGrid grid;
  grid.cells = resolvers().size();
  grid.vantages = vps_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  grid.chain_trials = true;
  return grid;
}

u64 Table6Dns::query_seed(const runner::GridCoord& c) const {
  return Rng::mix_seed({scale_.seed, resolvers()[c.cell].ip,
                        Rng::hash_label(vps_[c.vantage].name),
                        static_cast<u64>(c.trial)});
}

ScenarioOptions Table6Dns::options_for(const runner::GridCoord& c,
                                       bool tracing) const {
  ScenarioOptions opt;
  opt.vp = vps_[c.vantage];
  opt.server = servers_[c.cell];
  opt.cal = cal_;
  opt.seed = query_seed(c);
  // The resolver is the cell axis (grids here have servers = 1), so the
  // pooled profile is indexed by (vantage, resolver).
  opt.profile = profiles_.get(c.vantage, c.cell);
  opt.tracing = tracing;
  // Tianjin's resolver paths suffer stateful interference that blackholes
  // a large share of the TCP DNS flows (Table 6).
  Rng interference(Rng::mix_seed({opt.seed, 0xd45ULL}));
  opt.extra_stateful_client_box =
      opt.vp.dns_path_interference &&
      interference.chance(cal_.tianjin_dns_interference);
  if (!plan_.empty()) opt.faults = &plan_;
  return opt;
}

DnsTrialResult Table6Dns::run_query(const runner::GridCoord& c,
                                    intang::StrategySelector& selector) const {
  const Resolver& resolver = resolvers()[c.cell];
  Scenario sc(resolver.censored ? rules_ : &uncensored_,
              options_for(c, /*tracing=*/false));
  DnsTrialOptions dns;
  dns.domain = "www.dropbox.com";
  dns.resolver_ip = resolver.ip;
  dns.use_intang = resolver.censored;  // OpenDNS row runs bare UDP
  dns.strategy = strategy::StrategyId::kImprovedTeardown;
  dns.shared_selector = resolver.censored ? &selector : nullptr;
  return run_dns_trial(sc, dns);
}

Replay Table6Dns::replay(const runner::GridCoord& c,
                         const std::string& trace_path,
                         const std::string& pcap_path) const {
  // Rebuild the chain's selector knowledge (no-op for the OpenDNS cell —
  // its queries never touch the selector).
  intang::StrategySelector selector{intang::StrategySelector::Config{}};
  for (std::size_t t = 0; t < c.trial; ++t) {
    runner::GridCoord prefix = c;
    prefix.trial = t;
    (void)run_query(prefix, selector);
  }

  const Resolver& resolver = resolvers()[c.cell];
  Scenario sc(resolver.censored ? rules_ : &uncensored_,
              options_for(c, /*tracing=*/true));
  DnsTrialOptions dns;
  dns.domain = "www.dropbox.com";
  dns.resolver_ip = resolver.ip;
  dns.use_intang = resolver.censored;
  dns.strategy = strategy::StrategyId::kImprovedTeardown;
  dns.shared_selector = resolver.censored ? &selector : nullptr;
  return traced_dns_run(sc, dns, trace_path, pcap_path);
}

const std::vector<std::string>& known_benches() {
  static const std::vector<std::string> kNames = {
      "table1", "table4-inside", "table4-intang", "table6-dns", "faults",
      "fleet"};
  return kNames;
}

}  // namespace ys::exp
