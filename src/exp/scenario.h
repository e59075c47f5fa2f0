// Per-trial world builder: wires a client (vantage point), the path with
// its middleboxes and GFW devices, and a server into one simulation whose
// random draws follow the calibrated population of `calibration.h`.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/calibration.h"
#include "exp/vantage.h"
#include "faults/injector.h"
#include "gfw/dns_poisoner.h"
#include "gfw/gfw_device.h"
#include "middlebox/middlebox.h"
#include "strategy/strategy.h"
#include "tcpstack/host.h"

namespace ys::exp {

/// One target server of the probe population (§3.3's Alexa-derived set).
struct ServerSpec {
  std::string host;
  net::IpAddr ip = 0;
  tcp::LinuxVersion version = tcp::LinuxVersion::k4_4;
  bool behind_stateful_fw = false;
  /// Accepts data regardless of a wrong ACK number (§7.1 failure source).
  bool lenient_ack_validation = false;
  int alexa_rank = 0;
};

/// Deterministic server population: version mix and firewall presence
/// drawn from the calibration (77 foreign sites for §3/§7.1 inside-China
/// probes; 33 Chinese sites for the outside-China direction).
std::vector<ServerSpec> make_server_population(int count, u64 seed,
                                               const Calibration& cal,
                                               bool inside_china);

/// The *systematic* draws of one (vantage point, server) pair — everything
/// path_seed drives: hop count, GFW position, device generation and quirk
/// coins, and the client's (possibly stale) hop estimate. These stay fixed
/// across repeated probes of one pair, so grids that revisit a pair can
/// compute the profile once and reuse it for every trial (batched scenario
/// construction) instead of re-drawing it per Scenario. A Scenario built
/// from a precomputed profile is bit-identical to one that draws its own:
/// make_path_profile() performs exactly the constructor's draw sequence.
struct PathProfile {
  int server_hops = 0;
  int gfw_position = 0;
  bool old_model = false;
  strategy::PathKnowledge knowledge;
  gfw::RstReaction rst_reaction_handshake = gfw::RstReaction::kTeardown;
  gfw::RstReaction rst_reaction_established = gfw::RstReaction::kTeardown;
  bool accepts_no_flag_data = false;
  net::OverlapPolicy tcp_segment_overlap = net::OverlapPolicy::kPreferFirst;
};

/// Compute the systematic draws for one (vp, server) pair. path_seed = 0
/// derives the seed from (vp, server) exactly as Scenario does.
PathProfile make_path_profile(const VantagePoint& vp, const ServerSpec& server,
                              const Calibration& cal, u64 path_seed = 0);

/// Eagerly-built per-(vantage, server) profile pool for grid benches: build
/// once, point every ScenarioOptions::profile at it. Read-only after
/// construction, so sharing across runner workers is safe.
class PathProfileCache {
 public:
  PathProfileCache(const std::vector<VantagePoint>& vps,
                   const std::vector<ServerSpec>& servers,
                   const Calibration& cal);
  const PathProfile* get(std::size_t vantage, std::size_t server) const {
    return &profiles_[vantage * servers_ + server];
  }
  std::size_t size() const { return profiles_.size(); }

 private:
  std::size_t servers_ = 0;
  std::vector<PathProfile> profiles_;
};

struct ScenarioOptions {
  VantagePoint vp;
  ServerSpec server;
  Calibration cal;
  /// Per-trial seed: drives the *dynamic* randomness (jitter, loss,
  /// overload, ISNs, probabilistic middlebox drops).
  u64 seed = 1;
  /// Per-path seed: drives the *systematic* draws that stay fixed across
  /// repeated probes of one (vantage point, server) pair — hop count, GFW
  /// position, device model coins, the stale hop estimate. The paper
  /// observed exactly this stability ("for a specific client-server pair,
  /// the GFW's behavior is usually consistent"), and INTANG's convergence
  /// depends on it. 0 = derive from (vp, server) automatically.
  u64 path_seed = 0;
  /// Force Tor filtering off regardless of path draw (for controlled
  /// experiments); by default it follows the vantage point (§7.3).
  std::optional<bool> tor_filtering_override;
  bool vpn_dpi = false;
  /// Add a stateful, sequence-checking client-side box (Table 6's Tianjin
  /// DNS-path interference).
  bool extra_stateful_client_box = false;
  /// Build both hosts as measurement tools: raw scripted flows only, no
  /// kernel RSTs for unknown segments (the GFW prober uses this).
  bool stealth_hosts = false;
  /// Enable structured causal tracing for this trial. Off by default so
  /// the hot path stays string-free; the flight recorder re-runs anomalous
  /// trials with this on (determinism guarantees the same outcome).
  bool tracing = false;

  /// Precomputed systematic draws (batched scenario construction). nullptr
  /// = draw them here from path_seed, bit-identical to the pooled path.
  /// Must outlive the scenario; benches keep a PathProfileCache.
  const PathProfile* profile = nullptr;
  /// Virtual time at which this trial begins. Fleet sweeps multiplex many
  /// flows over one shared timeline: each flow's scenario starts at its
  /// arrival instant so TTL-bearing state (selector records, block
  /// periods) ages consistently across the sweep. The deadline and any
  /// fault plan are relative to this start.
  SimTime start_time = SimTime::zero();

  /// Active fault plan (nullptr or empty = clean path, bit-identical to a
  /// build without the fault layer). The plan must outlive the scenario;
  /// benches keep plans in the grid definition.
  const faults::FaultPlan* faults = nullptr;
  /// Virtual-time budget for run(): a trial still busy at the deadline is
  /// cut off and reports deadline_expired (-> Outcome::kTrialError).
  /// zero() = no deadline (run to quiescence, bounded by max_events).
  SimTime deadline = SimTime::zero();
  /// Event budget for run() when the caller doesn't pass one.
  std::size_t max_events = 500'000;

  /// §8 countermeasure ablations applied to both GFW devices.
  struct HardenOptions {
    bool validate_checksum = false;
    bool reject_md5 = false;
    bool strict_rst = false;
    bool require_server_ack = false;
  } harden;
};

/// Owns every object of one simulated trial. Build, wire application
/// handlers via client()/server(), then run the loop.
class Scenario {
 public:
  Scenario(const gfw::DetectionRules* rules, ScenarioOptions opt);

  net::EventLoop& loop() { return loop_; }
  net::Path& path() { return *path_; }
  tcp::Host& client() { return *client_; }
  tcp::Host& server() { return *server_; }
  gfw::GfwDevice& gfw_type1() { return *type1_; }
  gfw::GfwDevice& gfw_type2() { return *type2_; }
  gfw::DnsPoisoner& dns_poisoner() { return *poisoner_; }
  obs::TraceRecorder& trace() { return trace_; }
  const ScenarioOptions& options() const { return opt_; }

  /// What the client measured about the path before the trial (possibly
  /// stale — the calibrated estimate-error models route dynamics).
  strategy::PathKnowledge knowledge() const { return knowledge_; }

  /// Draws made for this path (exposed for tests and diagnostics).
  int server_hops() const { return server_hops_; }
  int gfw_position() const { return gfw_position_; }
  bool path_runs_old_model() const { return old_model_; }

  /// How the last run() ended. A trial that hit either bound produced a
  /// *partial* simulation whose verdict must not be read as a §3.4
  /// classification — trial runners surface it as Outcome::kTrialError.
  struct RunStatus {
    std::size_t executed = 0;
    bool hit_max_events = false;
    bool deadline_expired = false;
    bool aborted() const { return hit_max_events || deadline_expired; }
  };

  /// Drive the simulation until quiescent, the options' deadline, or the
  /// event bound (0 = use the options' max_events). Returns how it ended;
  /// also retrievable afterwards via last_run().
  RunStatus run(std::size_t max_events = 0);
  const RunStatus& last_run() const { return last_run_; }

  /// Independent random stream for trial-level draws.
  Rng fork_rng() { return rng_.fork(); }

 private:
  /// Events a flow keeps in flight at most, in practice (the queue depth
  /// high-water mark of a paper trial is 7-9): the loop is sized for them
  /// up front instead of regrowing for every new scenario.
  static constexpr std::size_t kFlowPendingEvents = 16;

  ScenarioOptions opt_;
  net::EventLoop loop_{kFlowPendingEvents};
  obs::TraceRecorder trace_;
  Rng path_rng_;
  Rng rng_;

  int server_hops_ = 0;
  int gfw_position_ = 0;
  bool old_model_ = false;
  strategy::PathKnowledge knowledge_;

  RunStatus last_run_;

  std::unique_ptr<net::Path> path_;
  std::unique_ptr<faults::FaultInjector> fault_injector_;
  std::unique_ptr<faults::ChaosBox> chaos_box_;
  std::unique_ptr<mbox::Middlebox> client_mbox_;
  std::unique_ptr<mbox::Middlebox> server_mbox_;
  std::unique_ptr<gfw::GfwDevice> type1_;
  std::unique_ptr<gfw::GfwDevice> type2_;
  std::unique_ptr<gfw::DnsPoisoner> poisoner_;
  std::unique_ptr<tcp::Host> client_;
  std::unique_ptr<tcp::Host> server_;
};

}  // namespace ys::exp
