// Shared definitions of the paper-table benchmark grids.
//
// bench_table4, the flight recorder, and `yourstate explain` must all agree
// on what "cell 2, vantage 5, server 13, trial 4" means — same server
// population, same per-trial seed formula, same trial options — or a
// flight-recorder replay would not reproduce the anomalous trial it is
// trying to explain. This header is that single source of truth: the bench
// binary runs the grids through the runner pool, and replay_*() re-runs any
// one coordinate (with tracing on) deterministically.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "exp/explain.h"
#include "exp/scenario.h"
#include "exp/trial.h"
#include "exp/vantage.h"
#include "faults/fault_plan.h"
#include "gfw/gfw_device.h"
#include "runner/runner.h"

namespace ys::exp {

/// Knobs every bench exposes (--trials/--servers/--seed/--faults).
struct BenchScale {
  int trials = 10;
  int servers = 77;
  u64 seed = 2017;
  /// Fault plan spec (--faults=): a shipped plan name, inline clauses, or
  /// @file.json. Empty = fault-free. Part of the bench definition so a
  /// flight-recorder replay re-runs under the exact same plan.
  std::string faults;
};

/// One traced re-run of a grid coordinate.
struct Replay {
  TrialResult result;
  std::string ladder;       ///< rendered text trace
  Attribution attribution;  ///< causal verdict attribution
  bool old_model = false;   ///< the path ran the prior GFW model
};

/// Table 1: every *existing* evasion strategy against today's GFW, with
/// and without a sensitive keyword. Cell layout: cell = row * 2 +
/// (keyword ? 0 : 1), matching bench_table1's historical order.
class Table1Bench {
 public:
  struct Row {
    strategy::StrategyId id;
    const char* label;
    const char* discrepancy;
  };
  static const std::array<Row, 16>& rows();

  explicit Table1Bench(BenchScale scale);

  const BenchScale& scale() const { return scale_; }
  const std::vector<VantagePoint>& vantage_points() const { return vps_; }
  const std::vector<ServerSpec>& server_population() const { return servers_; }

  std::size_t row_of(std::size_t cell) const { return cell / 2; }
  bool keyword_cell(std::size_t cell) const { return cell % 2 == 0; }

  /// Unchained grid: cells = rows × {keyword, no keyword}.
  runner::TrialGrid grid() const;

  /// Run one trial, untraced (the grid hot path).
  TrialResult run_trial(const runner::GridCoord& c) const;

  /// Traced deterministic re-run of coordinate `c`.
  Replay replay(const runner::GridCoord& c, const std::string& trace_path = {},
                const std::string& pcap_path = {}) const;

 private:
  ScenarioOptions options_for(const runner::GridCoord& c, bool tracing) const;
  u64 trial_seed(const runner::GridCoord& c) const;

  BenchScale scale_;
  Calibration cal_;
  const gfw::DetectionRules* rules_;
  std::vector<VantagePoint> vps_;
  std::vector<ServerSpec> servers_;
  faults::FaultPlan plan_;
  PathProfileCache profiles_;
};

/// The inside-China direction of Table 4: fixed-strategy rows plus the
/// INTANG adaptive row. Owns the populations and seed formulas.
class Table4Inside {
 public:
  struct Row {
    strategy::StrategyId id;
    const char* label;
    /// Paper Table 4 average success rate (inside China), as a fraction.
    double paper_success;
  };
  static const std::array<Row, 4>& rows();
  /// Paper average success rate of the INTANG row (98.3 %).
  static constexpr double kIntangPaperSuccess = 0.983;

  explicit Table4Inside(BenchScale scale);

  const BenchScale& scale() const { return scale_; }
  const std::vector<VantagePoint>& vantage_points() const { return vps_; }
  const std::vector<ServerSpec>& server_population() const { return servers_; }
  const gfw::DetectionRules& rules() const { return *rules_; }

  /// Grid over the fixed-strategy rows (cell = row index).
  runner::TrialGrid fixed_grid() const;
  /// Chained grid of the INTANG row (one cell; selector state accumulates
  /// along the trial axis).
  runner::TrialGrid intang_grid() const;

  /// Run one fixed-row trial, untraced (the grid hot path).
  TrialResult run_fixed(const runner::GridCoord& c) const;
  /// Run one INTANG trial against `selector` (which carries the chain's
  /// accumulated knowledge), untraced.
  TrialResult run_intang(const runner::GridCoord& c,
                         intang::StrategySelector& selector) const;

  /// Deterministically re-run coordinate `c` with tracing on; writes the
  /// Chrome trace JSON to `trace_path` and the client wire capture to
  /// `pcap_path` when non-empty. For the INTANG row the chain's earlier
  /// trials are replayed untraced first so the selector state matches the
  /// grid run exactly.
  Replay replay_fixed(const runner::GridCoord& c,
                      const std::string& trace_path = {},
                      const std::string& pcap_path = {}) const;
  Replay replay_intang(const runner::GridCoord& c,
                       const std::string& trace_path = {},
                       const std::string& pcap_path = {}) const;

 private:
  ScenarioOptions options_for(const runner::GridCoord& c, u64 trial_seed,
                              bool tracing) const;
  u64 fixed_seed(const runner::GridCoord& c) const;
  u64 intang_seed(const runner::GridCoord& c) const;

  BenchScale scale_;
  Calibration cal_;
  const gfw::DetectionRules* rules_;
  std::vector<VantagePoint> vps_;
  std::vector<ServerSpec> servers_;
  faults::FaultPlan plan_;  // parsed from scale_.faults; empty when unset
  PathProfileCache profiles_;
};

/// Table 6: TCP DNS censorship evasion (§7.2) — INTANG's DNS forwarder
/// toward Dyn's public resolvers, plus the uncensored OpenDNS anecdote
/// row. The query axis is chained: one persistent selector per
/// (resolver, vantage point) converges on the resolver path's strategy.
class Table6Dns {
 public:
  struct Resolver {
    const char* label;
    net::IpAddr ip;
    bool censored;  // OpenDNS resolver paths drew no DNS censorship (§7.2)
  };
  static const std::array<Resolver, 3>& resolvers();

  explicit Table6Dns(BenchScale scale);

  const BenchScale& scale() const { return scale_; }
  const std::vector<VantagePoint>& vantage_points() const { return vps_; }
  /// One ServerSpec per resolver (the grid's cell axis, not its server
  /// axis — grids here have servers=1).
  const std::vector<ServerSpec>& resolver_specs() const { return servers_; }

  /// Chained grid: cells = resolvers, servers = 1, trials = queries.
  runner::TrialGrid grid() const;

  /// Run one query. `selector` carries the chain's accumulated knowledge
  /// (unused by the uncensored OpenDNS cell but always passed).
  DnsTrialResult run_query(const runner::GridCoord& c,
                           intang::StrategySelector& selector) const;

  /// Traced deterministic re-run (chain prefix replayed untraced first).
  /// Only Replay::result.outcome is meaningful for a DNS trial.
  Replay replay(const runner::GridCoord& c, const std::string& trace_path = {},
                const std::string& pcap_path = {}) const;

 private:
  ScenarioOptions options_for(const runner::GridCoord& c, bool tracing) const;
  u64 query_seed(const runner::GridCoord& c) const;

  BenchScale scale_;
  Calibration cal_;
  const gfw::DetectionRules* rules_;
  gfw::DetectionRules uncensored_;
  std::vector<VantagePoint> vps_;
  std::vector<ServerSpec> servers_;
  faults::FaultPlan plan_;
  PathProfileCache profiles_;
};

/// The robustness bench behind bench_faults and `yourstate faults`: every
/// fault plan × {no-INTANG baseline, INTANG with failover}, probing the
/// graceful-degradation guarantee (INTANG success under faults must never
/// fall below the baseline, because safe mode degrades to exactly the
/// baseline behavior once the retry budget is spent).
///
/// Cell layout: cell = plan_index * 2 + (INTANG ? 1 : 0). The grid is
/// chained — the INTANG cells accumulate selector state along the trial
/// axis, and chaining the baseline cells too costs nothing.
class FaultsBench {
 public:
  /// With scale.faults empty, runs every shipped plan; otherwise only the
  /// given plan.
  explicit FaultsBench(BenchScale scale);

  const BenchScale& scale() const { return scale_; }
  const std::vector<faults::FaultPlan>& plans() const { return plans_; }
  const std::vector<VantagePoint>& vantage_points() const { return vps_; }
  const std::vector<ServerSpec>& server_population() const { return servers_; }

  std::size_t plan_of(std::size_t cell) const { return cell / 2; }
  bool intang_cell(std::size_t cell) const { return cell % 2 == 1; }

  /// Chained grid: cells = plans × {baseline, INTANG}.
  runner::TrialGrid grid() const;

  /// Run one trial. `selector` carries the chain's accumulated knowledge
  /// (unused by baseline cells but always passed for uniformity).
  TrialResult run_trial(const runner::GridCoord& c,
                        intang::StrategySelector& selector) const;

  /// Traced deterministic re-run (chain prefix replayed untraced first).
  Replay replay(const runner::GridCoord& c, const std::string& trace_path = {},
                const std::string& pcap_path = {}) const;

 private:
  ScenarioOptions options_for(const runner::GridCoord& c, bool tracing) const;
  u64 trial_seed(const runner::GridCoord& c) const;

  BenchScale scale_;
  Calibration cal_;
  const gfw::DetectionRules* rules_;
  std::vector<VantagePoint> vps_;
  std::vector<ServerSpec> servers_;
  std::vector<faults::FaultPlan> plans_;
  PathProfileCache profiles_;
};

/// Bench names `yourstate explain --bench=` accepts.
const std::vector<std::string>& known_benches();

}  // namespace ys::exp
