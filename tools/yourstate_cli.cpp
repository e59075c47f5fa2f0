// yourstate — command-line driver for the reproduction.
//
//   yourstate list                         vantage points & strategies
//   yourstate trial  [options]            one censored HTTP fetch
//   yourstate probe  [options]            infer the path's GFW model
//   yourstate dns    [options]            one censored DNS lookup
//   yourstate tor    [options]            one Tor bridge connection
//   yourstate stats  [options]            simulated session + metrics dump
//   yourstate fleet  [options]            multi-client deployment sweep:
//                                         convergence + cache-sharing report
//                                         --shards=N --supervise partitions
//                                         the sweep into N child processes
//                                         with crash/hang detection and
//                                         checkpointed restarts (see
//                                         EXPERIMENTS.md "Sharded &
//                                         supervised sweeps")
//   yourstate shard-status --resume-dir=D  inspect a supervised sweep's
//                                         manifest: per-shard state,
//                                         attempts, progress, lock liveness
//   yourstate explain [options]           replay one bench grid coordinate
//                                         traced: annotated ladder + verdict
//                                         attribution
//   yourstate search [options]            evolutionary strategy discovery
//                                         (ys::search): evolve insertion-
//                                         packet programs against the GFW
//                                         variants, print the per-variant
//                                         Pareto archives and the censor
//                                         co-evolution rounds
//   yourstate report TIMELINE.json        render a --timeline-out export
//                                         as a self-contained HTML
//                                         dashboard (inline SVG): fleet
//                                         convergence, flap response,
//                                         search-front progress, explain
//                                         hints for anomalous buckets;
//                                         --metrics=FILE cross-checks the
//                                         timeline's whole-run totals
//                                         against a --metrics-out snapshot
//   yourstate perf --diff OLD NEW         compare two BenchReport JSONs
//                                         (bench --report=FILE output):
//                                         regression table; with --check,
//                                         exit 1 when a gated metric moved
//                                         outside --tolerance=X (default
//                                         0.10 = 10%); --tolerance-for=
//                                         METRIC:X tightens one metric's
//                                         band; --json emits the table as
//                                         machine-readable JSON
//
// Common options:
//   --vp=NAME            vantage point (default aliyun-sh)
//   --server=IP          target/resolver address (default 93.184.216.34)
//   --strategy=NAME      evasion strategy (default no-strategy; see `list`)
//   --intang             use INTANG's adaptive selection instead
//   --keyword=0|1        include the sensitive keyword (default 1)
//   --seed=N             trial seed        --path-seed=N   path draw seed
//   --trials=N           session length for `stats` (default 5)
//   --jobs=N             worker threads for `stats` grids (default 1 = the
//                        exact serial reference; 0 = hardware concurrency)
//   --trace              print the packet ladder
//   --trace-out=FILE     write the structured trace as Chrome trace-event
//                        JSON (chrome://tracing / Perfetto)
//   --pcap=FILE          capture the client's wire to a pcap file
//   --metrics[=json|table]  dump the obs registry after any command
//   --metrics-out=FILE   write the metrics snapshot to FILE as JSON on exit
//   --timeline-out=FILE  (fleet, search) record a virtual-time timeline
//                        during the run and write it as "ys.timeline.v1"
//                        JSON — the input of `yourstate report`
//   --timeline-csv=FILE  same, flattened to CSV rows
//   --timeline-bucket-ms=N  timeline bucket width (default 1000)
//   --faults=SPEC        run under a deterministic fault plan: a shipped
//                        plan name, inline clauses ("loss:at=50ms,dur=2s,
//                        p=0.25"), or @plan.json — see EXPERIMENTS.md
//   --fleet=SPEC         fleet run description for `fleet` and
//                        `explain --bench=fleet`: inline spec ("clients=64;
//                        flows=400;...") or @file.json — see EXPERIMENTS.md
//
// `explain` options (grid coordinates; --server is the server INDEX here):
//   --bench=NAME         table1 | table4-inside | table4-intang |
//                        table6-dns | faults | fleet | search
//   --cell=N --vantage=N --server=N --trial=N   the coordinate
//   --trials=N --servers=N --seed=S --faults=SPEC  the bench scale (must
//                        match the run being explained for identical
//                        replay; for `faults`, cell = plan*2 + intang; for
//                        table1, cell = row*2 + (keyword ? 0 : 1); for
//                        table6-dns, cell = resolver; for fleet, pass the
//                        run's --fleet= and the (vantage, trial) flow; for
//                        search, pass --program=SPEC from the archive and
//                        cell = GFW variant index — the trial re-runs with
//                        the exact per-trial seed the search grid used)
//   --program=SPEC       a ys::search program spec; also accepted by
//                        `trial` to run a discovered program directly
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/file_io.h"
#include "core/json.h"
#include "exp/benchdef.h"
#include "fleet/fleet.h"
#include "exp/explain.h"
#include "exp/prober.h"
#include "exp/scenario.h"
#include "exp/stats.h"
#include "exp/trial.h"
#include "faults/fault_plan.h"
#include "netsim/pcap.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/timeline_export.h"
#include "obs/trace_export.h"
#include "runner/runner.h"
#include "search/engine.h"
#include "supervisor/shard_child.h"
#include "supervisor/supervisor.h"

namespace ys {
namespace {

using namespace ys::exp;

struct CliOptions {
  std::string command;
  std::string vp = "aliyun-sh";
  net::IpAddr server = net::make_ip(93, 184, 216, 34);
  strategy::StrategyId strategy = strategy::StrategyId::kNone;
  bool use_intang = false;
  bool keyword = true;
  bool trace = false;
  std::string trace_out;
  u64 seed = 1;
  u64 path_seed = 0;
  int trials = 5;
  int jobs = 1;
  // `explain` coordinates and scale (--server doubles as the server index).
  std::string bench = "table4-intang";
  int cell = 0;
  int vantage = 0;
  int server_index = 0;
  int trial = 0;
  int servers_scale = 0;  // 0 = the bench default
  bool dump_metrics = false;
  bool metrics_as_table = false;
  std::string pcap;
  std::string domain = "www.dropbox.com";
  std::string faults;  // fault plan spec; empty = fault-free
  std::string fleet;   // fleet run spec; empty = FleetConfig defaults
  std::string program;  // ys::search program spec (trial, explain)
  int faulted_trials = -1;  // explain --bench=search scale; -1 = default
  obs::OutputFlags outputs;  // --metrics-out, --timeline-out, --timeline-csv
  int timeline_bucket_ms = 1000;
  // Supervised fleet sharding (`fleet --shards=N --supervise`) plus the
  // shard-child protocol flags the parent passes to its children.
  std::string resume_dir;  // shard checkpoints + supervisor manifest
  int shards = 1;
  bool supervise = false;
  std::string shard;       // child mode: "i/N" slice of the vantage axis
  int status_fd = -1;      // child: heartbeat pipe write end (from parent)
  int shard_attempt = 0;   // child: which spawn of this shard we are
  double status_interval = 0.05;  // heartbeat cadence, seconds
  int max_restarts = 3;    // retry budget per shard before degrading
  std::string chaos;       // fault plan spec with shard-* chaos clauses
};

/// Parse --faults once into storage that outlives every scenario built
/// from it (ScenarioOptions::faults is a borrowed pointer).
const faults::FaultPlan* cli_fault_plan(const CliOptions& cli) {
  if (cli.faults.empty()) return nullptr;
  static faults::FaultPlan plan;
  static bool parsed = false;
  if (!parsed) {
    std::string error;
    plan = faults::parse_fault_plan(cli.faults, error);
    if (!error.empty()) {
      std::fprintf(stderr, "--faults: %s\n", error.c_str());
      std::exit(2);
    }
    parsed = true;
  }
  return &plan;
}

void print_metrics(const CliOptions& cli) {
  const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
  std::fputs(cli.metrics_as_table ? obs::to_table(snap).c_str()
                                  : obs::to_json(snap).c_str(),
             stdout);
}

/// Write a recorded timeline to the --timeline-out / --timeline-csv paths
/// (either may be empty). Shared by `fleet` and `search`.
void write_timeline_files(const obs::Timeline& tl,
                          const obs::OutputFlags& outputs) {
  const std::string& json = outputs.timeline_out;
  const std::string& csv = outputs.timeline_csv;
  if (!json.empty()) {
    if (obs::write_timeline_json(json, tl)) {
      std::printf("timeline written to %s (%zu series)\n", json.c_str(),
                  tl.series_count());
    } else {
      std::fprintf(stderr, "cannot write --timeline-out file %s\n",
                   json.c_str());
    }
  }
  if (!csv.empty()) {
    if (obs::write_timeline_csv(csv, tl)) {
      std::printf("timeline CSV written to %s\n", csv.c_str());
    } else {
      std::fprintf(stderr, "cannot write --timeline-csv file %s\n",
                   csv.c_str());
    }
  }
}

/// Per-strategy success-time profile from the exp.vtime.success.* virtual
/// time histograms collected during the session.
void print_vtime_profile() {
  const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
  bool header = false;
  for (const auto& [name, h] : snap.histograms) {
    constexpr const char* kPrefix = "exp.vtime.success.";
    if (name.rfind(kPrefix, 0) != 0 || h.count == 0) continue;
    if (!header) {
      std::printf("success virtual-time profile (sim ms):\n");
      header = true;
    }
    std::printf("  %-32s n=%-6llu mean=%.1f\n",
                name.c_str() + std::strlen(kPrefix),
                static_cast<unsigned long long>(h.count), h.sum / h.count);
  }
  if (header) std::printf("\n");
}

std::optional<net::IpAddr> parse_ip(const std::string& text) {
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned d = 0;
  if (std::sscanf(text.c_str(), "%u.%u.%u.%u", &a, &b, &c, &d) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    return std::nullopt;
  }
  return net::make_ip(static_cast<u8>(a), static_cast<u8>(b),
                      static_cast<u8>(c), static_cast<u8>(d));
}

std::optional<VantagePoint> find_vp(const std::string& name) {
  for (const auto& vp : china_vantage_points()) {
    if (vp.name == name) return vp;
  }
  for (const auto& vp : foreign_vantage_points()) {
    if (vp.name == name) return vp;
  }
  return std::nullopt;
}

int usage() {
  std::fprintf(stderr,
               "usage: yourstate <list|trial|probe|dns|tor|stats|fleet|"
               "search|explain|report|perf> [--vp=NAME] "
               "[--server=IP] [--strategy=NAME] [--program=SPEC] [--intang] "
               "[--keyword=0|1] "
               "[--seed=N] [--path-seed=N] [--trials=N] [--jobs=N] [--trace] "
               "[--trace-out=FILE] [--pcap=FILE] [--domain=NAME] "
               "[--metrics[=json|table]] [--metrics-out=FILE]\n"
               "       yourstate fleet [--fleet=SPEC|@file.json] [--seed=S] "
               "[--jobs=N] [--timeline-out=FILE] [--timeline-csv=FILE] "
               "[--timeline-bucket-ms=N]\n"
               "       yourstate fleet --shards=N --supervise "
               "--resume-dir=DIR [--max-restarts=N] [--status-interval=S] "
               "[--chaos=SPEC] [--fleet=SPEC] [--seed=S] [--jobs=N] "
               "[--timeline-out=FILE]\n"
               "       yourstate shard-status --resume-dir=DIR\n"
               "       yourstate search [--population=N] [--generations=N] "
               "[--budget=N] [--servers=N] [--trials=N] [--faulted-trials=N] "
               "[--faults=SPEC] [--coevo-rounds=N] [--seed=S] [--jobs=N] "
               "[--resume-dir=D] [--report=FILE] [--heartbeat=S] "
               "[--metrics-out=FILE] [--timeline-out=FILE] "
               "[--timeline-csv=FILE]\n"
               "       yourstate report TIMELINE.json [--out=FILE] "
               "[--title=TEXT] [--fleet=SPEC] [--metrics=FILE]\n"
               "       yourstate explain --bench=NAME --cell=N --vantage=N "
               "--server=N --trial=N [--trials=N] [--servers=N] [--seed=S] "
               "[--fleet=SPEC] [--program=SPEC] [--trace-out=FILE] "
               "[--pcap=FILE]\n"
               "       yourstate perf --diff OLD.json NEW.json [--check] "
               "[--tolerance=X] [--tolerance-for=METRIC:X] [--json]\n");
  return 2;
}

/// `yourstate perf` — own flag scan: the generic parser would reject
/// --diff and the positional report paths.
int cmd_perf(int argc, char** argv) {
  bool diff = false;
  bool check = false;
  bool as_json = false;
  double tolerance = 0.10;
  std::map<std::string, double> tolerance_overrides;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diff") {
      diff = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg.rfind("--tolerance-for=", 0) == 0) {
      const std::string spec = arg.substr(16);
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "--tolerance-for wants METRIC:X (got %s)\n",
                     spec.c_str());
        return 2;
      }
      const double band = std::atof(spec.c_str() + colon + 1);
      if (band < 0.0) {
        std::fprintf(stderr, "--tolerance-for band must be >= 0\n");
        return 2;
      }
      tolerance_overrides[spec.substr(0, colon)] = band;
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::atof(arg.c_str() + 12);
      if (tolerance < 0.0) {
        std::fprintf(stderr, "--tolerance must be >= 0\n");
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (!diff || files.size() != 2) {
    std::fprintf(stderr,
                 "perf wants: yourstate perf --diff OLD.json NEW.json "
                 "[--check] [--tolerance=X] [--tolerance-for=METRIC:X] "
                 "[--json]\n");
    return 2;
  }
  std::string error;
  const auto old_report = obs::perf::BenchReport::load(files[0], &error);
  if (!old_report) {
    std::fprintf(stderr, "%s: %s\n", files[0].c_str(), error.c_str());
    return 2;
  }
  const auto new_report = obs::perf::BenchReport::load(files[1], &error);
  if (!new_report) {
    std::fprintf(stderr, "%s: %s\n", files[1].c_str(), error.c_str());
    return 2;
  }
  const obs::perf::DiffResult result = obs::perf::diff_reports(
      *old_report, *new_report, tolerance, tolerance_overrides);
  if (as_json) {
    std::printf("%s", result.to_json().c_str());
    if (check && !result.ok()) return 1;
    return 0;
  }
  std::printf("perf diff: %s (%s) -> %s (%s), tolerance %.0f%%\n\n",
              files[0].c_str(), old_report->name.c_str(), files[1].c_str(),
              new_report->name.c_str(), tolerance * 100.0);
  for (const auto& [metric, band] : tolerance_overrides) {
    std::printf("  tolerance override: %s at %.2f%%\n", metric.c_str(),
                band * 100.0);
  }
  if (old_report->name != new_report->name) {
    std::printf("note: comparing reports from different benches (%s vs %s)\n\n",
                old_report->name.c_str(), new_report->name.c_str());
  }
  std::printf("%s", result.render().c_str());
  if (check && !result.ok()) return 1;
  return 0;
}

/// `yourstate report` — own flag scan (positional timeline file). Renders
/// a "ys.timeline.v1" export as a self-contained HTML dashboard; with
/// --metrics=FILE it first cross-checks the timeline's whole-run counter
/// totals against the aggregate metrics snapshot of the same run (the
/// acceptance bar: time-resolved and aggregate views must agree).
int cmd_report(int argc, char** argv) {
  std::string out = "report.html";
  std::string metrics_path;
  obs::ReportOptions opt;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--out")) {
      out = *v;
    } else if (auto v = value("--title")) {
      opt.title = *v;
    } else if (auto v = value("--fleet")) {
      opt.fleet_spec = *v;
    } else if (auto v = value("--metrics")) {
      metrics_path = *v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 1) {
    std::fprintf(stderr,
                 "report wants: yourstate report TIMELINE.json [--out=FILE] "
                 "[--title=TEXT] [--fleet=SPEC] [--metrics=FILE]\n");
    return 2;
  }

  std::string error;
  const auto doc = obs::load_timeline_file(files[0], &error);
  if (!doc) {
    std::fprintf(stderr, "%s: %s\n", files[0].c_str(), error.c_str());
    return 2;
  }
  opt.source = files[0];

  if (!metrics_path.empty()) {
    const std::optional<std::string> text = read_file(metrics_path);
    if (!text) {
      std::fprintf(stderr, "cannot read --metrics file %s\n",
                   metrics_path.c_str());
      return 2;
    }
    const auto snap = json::parse(*text);
    const json::Value* counters =
        snap.has_value() && snap->is_object() ? snap->find("counters")
                                              : nullptr;
    if (counters == nullptr || !counters->is_object()) {
      std::fprintf(stderr, "%s: no \"counters\" object (want a "
                   "--metrics-out snapshot)\n",
                   metrics_path.c_str());
      return 2;
    }
    int mismatches = 0;
    for (const char* name : {"fleet.flows", "fleet.flow_success",
                             "fleet.cache_hit", "fleet.cross_client_supply"}) {
      const json::Value* c = counters->find(name);
      if (c == nullptr || !c->is_number()) continue;  // not a fleet run
      const i64 want = static_cast<i64>(c->number);
      const i64 got = doc->total(name);
      if (got != want) {
        std::fprintf(stderr,
                     "%s: timeline total %lld != metrics counter %lld\n",
                     name, static_cast<long long>(got),
                     static_cast<long long>(want));
        ++mismatches;
      }
    }
    if (mismatches > 0) return 1;
    std::printf("metrics cross-check: timeline totals match %s\n",
                metrics_path.c_str());
  }

  if (!write_file(out, obs::render_timeline_html(*doc, opt))) {
    std::fprintf(stderr, "cannot write --out file %s\n", out.c_str());
    return 2;
  }
  std::printf("report written to %s (%zu series, %zu annotations)\n",
              out.c_str(), doc->series.size(), doc->annotations.size());
  return 0;
}

/// `yourstate shard-status` — own flag scan (no generic options apply).
/// Pretty-prints the supervisor-state.json manifest a supervised fleet run
/// keeps under its resume dir, plus the liveness of each shard's store
/// lock (is the sweep still running, finished, or dead mid-flight?).
int cmd_shard_status(int argc, char** argv) {
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--resume-dir=", 0) == 0) {
      dir = arg.substr(13);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage();
    } else {
      dir = arg;  // positional directory
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "shard-status wants --resume-dir=DIR\n");
    return 2;
  }
  const std::optional<std::string> text =
      read_file(dir + "/supervisor-state.json");
  if (!text) {
    std::fprintf(stderr,
                 "%s: no supervisor-state.json (not a --supervise resume "
                 "dir, or the sweep has not started)\n",
                 dir.c_str());
    return 2;
  }
  const auto doc = json::parse(*text);
  const json::Value* shards =
      doc.has_value() && doc->is_object() ? doc->find("shards") : nullptr;
  if (shards == nullptr || !shards->is_array()) {
    std::fprintf(stderr, "%s: malformed supervisor manifest\n", dir.c_str());
    return 2;
  }

  std::printf("shard  vantages  state     attempts  progress      lock\n");
  for (const json::Value& s : shards->array) {
    if (!s.is_object()) continue;
    auto num = [&s](const char* key) -> long long {
      const json::Value* v = s.find(key);
      return v != nullptr && v->is_number() ? static_cast<long long>(v->number)
                                           : 0;
    };
    const json::Value* state = s.find("state");
    const long long shard = num("shard");

    // Lock liveness: the shard's store lock names the owning pid.
    std::string lock = "-";
    if (const std::optional<std::string> lock_text = read_file(
            dir + "/" + supervisor::shard_bench_name(static_cast<int>(shard)) +
            ".results.lock")) {
      long pid = 0;
      if (std::sscanf(lock_text->c_str(), "pid %ld", &pid) == 1 && pid > 0) {
        const bool live = ::kill(static_cast<pid_t>(pid), 0) == 0 ||
                          errno == EPERM;
        lock = (live ? "pid " : "stale pid ") + std::to_string(pid);
      } else {
        lock = "garbled";
      }
    }
    char range[32];
    std::snprintf(range, sizeof(range), "[%lld,%lld)", num("vantage_begin"),
                  num("vantage_end"));
    char progress[32];
    std::snprintf(progress, sizeof(progress), "%lld/%lld", num("done"),
                  num("total"));
    std::printf("%5lld  %-8s  %-9s %8lld  %-12s  %s\n", shard, range,
                state != nullptr && state->is_string() ? state->string.c_str()
                                                       : "?",
                num("attempts"), progress, lock.c_str());
  }

  const json::Value* events = doc->find("events");
  if (events != nullptr && events->is_array() && !events->array.empty()) {
    std::printf("\nrecent events:\n");
    const std::size_t begin =
        events->array.size() > 12 ? events->array.size() - 12 : 0;
    for (std::size_t i = begin; i < events->array.size(); ++i) {
      const json::Value& e = events->array[i];
      if (!e.is_object()) continue;
      const json::Value* kind = e.find("kind");
      const json::Value* at = e.find("at");
      const json::Value* shard = e.find("shard");
      const json::Value* detail = e.find("detail");
      std::printf("  %8.3fs  shard %lld  %-13s %s\n",
                  at != nullptr && at->is_number() ? at->number : 0.0,
                  shard != nullptr && shard->is_number()
                      ? static_cast<long long>(shard->number)
                      : 0,
                  kind != nullptr && kind->is_string() ? kind->string.c_str()
                                                       : "?",
                  detail != nullptr && detail->is_string()
                      ? detail->string.c_str()
                      : "");
    }
  }
  return 0;
}

/// `yourstate search` — own flag scan (search has its own knob set).
int cmd_search(int argc, char** argv) {
  search::SearchConfig cfg;
  std::string report_path;
  obs::OutputFlags outputs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (outputs.parse(arg)) continue;
    auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--population")) {
      cfg.population = std::max(1, std::atoi(v->c_str()));
    } else if (auto v = value("--generations")) {
      cfg.generations = std::max(1, std::atoi(v->c_str()));
    } else if (auto v = value("--budget")) {
      cfg.budget = static_cast<u64>(std::atoll(v->c_str()));
    } else if (auto v = value("--servers")) {
      cfg.servers = std::max(1, std::atoi(v->c_str()));
    } else if (auto v = value("--trials")) {
      cfg.clean_trials = std::max(1, std::atoi(v->c_str()));
    } else if (auto v = value("--faulted-trials")) {
      cfg.faulted_trials = std::max(0, std::atoi(v->c_str()));
    } else if (auto v = value("--faults")) {
      cfg.fault_spec = *v;
    } else if (auto v = value("--coevo-rounds")) {
      cfg.coevo_rounds = std::max(0, std::atoi(v->c_str()));
    } else if (auto v = value("--seed")) {
      cfg.seed = static_cast<u64>(std::atoll(v->c_str()));
    } else if (auto v = value("--jobs")) {
      cfg.jobs = std::atoi(v->c_str());
    } else if (auto v = value("--resume-dir")) {
      cfg.resume_dir = *v;
    } else if (auto v = value("--heartbeat")) {
      cfg.heartbeat = std::atof(v->c_str());
    } else if (auto v = value("--report")) {
      report_path = *v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage();
    }
  }

  // Opt-in timeline: the engine buckets its search.* series by generation
  // (sample_at), so the bucket width only matters for the exp.* trial
  // series the evaluations record alongside.
  std::optional<obs::Timeline> timeline;
  std::optional<obs::ScopedTimeline> timeline_scope;
  if (outputs.timeline()) {
    timeline.emplace(SimTime::from_sec(1));
    timeline_scope.emplace(&*timeline);
  }

  search::SearchEngine engine(cfg);
  std::printf(
      "search: population=%d generations=%d variants=%zu servers=%d "
      "trials=%d+%d faults=%s seed=%llu jobs=%d\n\n",
      cfg.population, cfg.generations, cfg.variants.size(), cfg.servers,
      cfg.clean_trials, cfg.faulted_trials, cfg.fault_spec.c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.jobs);

  const auto t0 = std::chrono::steady_clock::now();
  const search::SearchResult result = engine.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("%s", result.render().c_str());
  std::printf(
      "\n%d generation(s), %llu trial evaluations%s, %.2fs wall\n",
      result.generations_run,
      static_cast<unsigned long long>(result.evaluations),
      result.resumed ? " (resumed from checkpoint)" : "", wall);

  if (!report_path.empty()) {
    obs::perf::BenchReport report = obs::perf::make_report("search");
    report.config["seed"] = static_cast<double>(cfg.seed);
    report.config["population"] = cfg.population;
    report.config["generations"] = cfg.generations;
    report.config["servers"] = cfg.servers;
    report.config["jobs"] = cfg.jobs;
    report.wall_seconds = wall;
    report.metrics["evaluations"] = {static_cast<double>(result.evaluations),
                                     "trials", obs::perf::Direction::kInfo};
    report.metrics["trials_per_sec"] = {
        wall > 0.0 ? static_cast<double>(result.evaluations) / wall : 0.0,
        "trials/s", obs::perf::Direction::kHigherIsBetter};
    for (const search::VariantArchive& archive : result.archives) {
      report.metrics["archive_size." + archive.variant] = {
          static_cast<double>(archive.entries.size()), "programs",
          obs::perf::Direction::kInfo};
      report.metrics["best_success." + archive.variant] = {
          archive.entries.empty() ? 0.0
                                  : archive.entries.front().score.success,
          "rate", obs::perf::Direction::kHigherIsBetter};
    }
    if (!result.coevo.empty()) {
      report.metrics["coevo_survivors"] = {
          static_cast<double>(result.coevo.back().survivors.size()),
          "programs", obs::perf::Direction::kInfo};
    }
    report.snapshot = obs::MetricsRegistry::global().snapshot();
    if (report.write(report_path)) {
      std::printf("report written to %s\n", report_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write --report file %s\n",
                   report_path.c_str());
    }
  }
  if (timeline.has_value()) {
    timeline_scope.reset();
    write_timeline_files(*timeline, outputs);
  }
  obs::write_metrics_out(outputs.metrics_out);
  return 0;
}

int cmd_list() {
  std::printf("vantage points (inside China):\n");
  for (const auto& vp : china_vantage_points()) {
    std::printf("  %-12s %-13s %s%s\n", vp.name.c_str(), vp.city.c_str(),
                vp.tor_unfiltered_path ? "[no Tor filter on path] " : "",
                vp.dns_path_interference ? "[DNS path interference]" : "");
  }
  std::printf("vantage points (outside China):\n");
  for (const auto& vp : foreign_vantage_points()) {
    std::printf("  %-12s %s\n", vp.name.c_str(), vp.city.c_str());
  }
  std::printf("strategies:\n");
  for (auto id : strategy::all_strategies()) {
    std::printf("  %s\n", strategy::to_string(id));
  }
  return 0;
}

Scenario make_scenario(const gfw::DetectionRules* rules,
                       const CliOptions& cli, const VantagePoint& vp) {
  ScenarioOptions opt;
  opt.vp = vp;
  opt.server.host = net::ip_to_string(cli.server);
  opt.server.ip = cli.server;
  opt.cal = Calibration::standard();
  opt.seed = cli.seed;
  opt.path_seed = cli.path_seed;
  opt.tracing = cli.trace || !cli.trace_out.empty();
  opt.faults = cli_fault_plan(cli);
  return Scenario(rules, opt);
}

void write_trace_out(Scenario& sc, const std::string& path) {
  if (path.empty()) return;
  if (obs::write_chrome_trace(path, sc.trace())) {
    std::printf("trace written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write --trace-out file %s\n", path.c_str());
  }
}

void attach_pcap(Scenario& sc, net::PcapWriter& writer,
                 const std::string& path) {
  if (path.empty()) return;
  if (auto st = writer.open(path); !st.ok()) {
    std::fprintf(stderr, "pcap: %s\n", st.error().message.c_str());
    return;
  }
  sc.path().set_client_capture(
      [&writer](const net::Packet& pkt, SimTime at) {
        (void)writer.write(pkt, at);
      });
}

int cmd_trial(const CliOptions& cli, const VantagePoint& vp) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  Scenario sc = make_scenario(&rules, cli, vp);
  net::PcapWriter writer;
  attach_pcap(sc, writer, cli.pcap);

  HttpTrialOptions http;
  http.with_keyword = cli.keyword;
  http.strategy = cli.strategy;
  http.use_intang = cli.use_intang;
  std::optional<search::CandidateProgram> program;
  if (!cli.program.empty()) {
    std::string error;
    program = search::CandidateProgram::parse(cli.program, &error);
    if (!program) {
      std::fprintf(stderr, "--program: %s\n", error.c_str());
      return 2;
    }
    http.strategy_factory = [&program] { return program->make_strategy(); };
  }
  const TrialResult result = run_http_trial(sc, http);

  if (cli.trace) std::printf("%s\n", sc.trace().render().c_str());
  write_trace_out(sc, cli.trace_out);
  std::printf("vantage=%s server=%s strategy=%s keyword=%d\n",
              vp.name.c_str(), net::ip_to_string(cli.server).c_str(),
              program ? ("search:" + program->spec()).c_str()
                      : strategy::to_string(result.strategy_used),
              cli.keyword ? 1 : 0);
  std::printf("outcome=%s response=%d gfw_resets=%d other_resets=%d\n",
              to_string(result.outcome), result.response_received,
              result.gfw_reset_seen, result.other_reset_seen);
  if (writer.is_open()) {
    std::printf("captured %zu packets to %s\n", writer.packets_written(),
                cli.pcap.c_str());
  }
  return result.outcome == Outcome::kSuccess ? 0 : 1;
}

int cmd_probe(const CliOptions& cli, const VantagePoint& vp) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  ScenarioOptions opt;
  opt.vp = vp;
  opt.server.host = net::ip_to_string(cli.server);
  opt.server.ip = cli.server;
  opt.cal = Calibration::standard();
  opt.seed = cli.seed;
  opt.path_seed = cli.path_seed;
  const GfwFindings findings = probe_gfw(&rules, opt);
  std::printf("probing %s -> %s\n%s", vp.name.c_str(),
              net::ip_to_string(cli.server).c_str(),
              findings.to_string().c_str());
  return 0;
}

int cmd_dns(const CliOptions& cli, const VantagePoint& vp) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  Scenario sc = make_scenario(&rules, cli, vp);
  DnsTrialOptions dns;
  dns.domain = cli.domain;
  dns.use_intang = cli.use_intang || cli.strategy != strategy::StrategyId::kNone;
  if (cli.strategy != strategy::StrategyId::kNone) dns.strategy = cli.strategy;
  const DnsTrialResult result = run_dns_trial(sc, dns);
  std::printf("domain=%s via=%s intang=%d\n", cli.domain.c_str(),
              net::ip_to_string(cli.server).c_str(), dns.use_intang ? 1 : 0);
  std::printf("answered=%d poisoned=%d outcome=%s\n", result.answered,
              result.poisoned, to_string(result.outcome));
  return result.outcome == Outcome::kSuccess ? 0 : 1;
}

/// Run a short INTANG browsing session (several HTTP fetches with the
/// sensitive keyword, shared strategy knowledge) and dump the metrics
/// registry: the "what did every layer of the ecosystem do" view. The
/// session runs as a runner grid: one chained cell per foreign server
/// port offset is overkill for a single vantage point, so the grid is a
/// single chain whose trial axis carries the session — the selector's
/// history accumulates in trial order exactly as the serial loop did.
int cmd_stats(const CliOptions& cli, const VantagePoint& vp) {
  obs::MetricsRegistry::global().reset_all();
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();

  runner::TrialGrid grid;
  grid.trials = static_cast<std::size_t>(cli.trials);
  grid.chain_trials = true;  // one selector, history in trial order
  runner::PoolOptions pool;
  pool.jobs = cli.jobs;

  std::vector<intang::StrategySelector> selectors(
      grid.chains(), intang::StrategySelector{intang::StrategySelector::Config{}});
  auto out = runner::collect_grid(
      grid, pool,
      [&](const runner::GridCoord& c, runner::TaskContext&) {
        CliOptions per_trial = cli;
        per_trial.seed = cli.seed + static_cast<u64>(c.trial);
        Scenario sc = make_scenario(&rules, per_trial, vp);
        HttpTrialOptions http;
        http.with_keyword = cli.keyword;
        http.strategy = cli.strategy;
        // The point of `stats` is to light up every component, INTANG
        // included, unless the user pinned a fixed strategy.
        http.use_intang =
            cli.use_intang || cli.strategy == strategy::StrategyId::kNone;
        http.shared_selector = &selectors[grid.chain(c)];
        return run_http_trial(sc, http).outcome;
      });

  RateTally tally;
  for (const Outcome o : out.slots) tally.add(o);
  tally.publish(vp.name);
  out.report.publish(obs::MetricsRegistry::global());

  std::printf("%s\n", out.report.to_string().c_str());
  print_vtime_profile();
  print_metrics(cli);
  return 0;
}

int cmd_tor(const CliOptions& cli, const VantagePoint& vp) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  Scenario sc = make_scenario(&rules, cli, vp);
  TorTrialOptions tor;
  tor.use_intang = cli.use_intang || cli.strategy != strategy::StrategyId::kNone;
  tor.strategy = cli.strategy != strategy::StrategyId::kNone
                     ? cli.strategy
                     : strategy::StrategyId::kImprovedTeardown;
  if (!tor.use_intang) tor.strategy = strategy::StrategyId::kNone;
  const TorTrialResult result = run_tor_trial(sc, tor);
  std::printf("bridge=%s handshake=%d ip_blocked=%d outcome=%s\n",
              net::ip_to_string(cli.server).c_str(),
              result.handshake_completed, result.bridge_ip_blocked,
              to_string(result.outcome));
  return result.outcome == Outcome::kSuccess ? 0 : 1;
}

/// Supervised parent: partition the sweep's vantage axis into shards, run
/// each as a `yourstate fleet --shard=i/N` child under ys::supervisor, then
/// merge the shard checkpoints and rebuild the unsharded run's telemetry
/// from the slots (the children's registries died with their processes, but
/// the slots are a sufficient statistic for every fleet.* series, so the
/// merged metrics/timeline are byte-identical to an unsupervised sweep).
int cmd_fleet_supervised(const CliOptions& cli,
                         const fleet::FleetConfig& cfg) {
  if (cli.resume_dir.empty()) {
    std::fprintf(stderr,
                 "fleet --supervise wants --resume-dir=DIR (shard "
                 "checkpoints + the supervisor manifest live there)\n");
    return 2;
  }
  faults::FaultPlan chaos;
  if (!cli.chaos.empty()) {
    std::string error;
    chaos = faults::parse_fault_plan(cli.chaos, error);
    if (!error.empty()) {
      std::fprintf(stderr, "--chaos: %s\n", error.c_str());
      return 2;
    }
  }

  const fleet::Fleet fl(cfg);
  const runner::TrialGrid grid = fl.grid();
  const std::vector<supervisor::ShardPartition> parts =
      supervisor::partition_vantages(grid.vantages, cli.shards);
  // partition_vantages drops empty slices when vantages < N; the dense
  // count is the N the children and the merge must agree on (it keys the
  // shard store signatures).
  const int nshards = static_cast<int>(parts.size());

  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  const std::string self =
      len > 0 ? std::string(exe, static_cast<std::size_t>(len))
              : "/proc/self/exe";

  supervisor::SupervisorOptions opt;
  opt.max_restarts = cli.max_restarts;
  opt.heartbeat_seconds = cli.status_interval;
  opt.resume_dir = cli.resume_dir;

  std::printf("fleet: %s\nsupervising %d shard(s) over %zu vantage(s), "
              "resume dir %s\n\n",
              cfg.summary().c_str(), nshards, grid.vantages,
              cli.resume_dir.c_str());

  const supervisor::SupervisorResult result = supervisor::supervise(
      parts, opt,
      [&](const supervisor::ShardPartition& part, int attempt,
          int status_fd) {
        std::vector<std::string> args{self, "fleet"};
        if (!cli.fleet.empty()) args.push_back("--fleet=" + cli.fleet);
        if (cli.seed != 1) args.push_back("--seed=" + std::to_string(cli.seed));
        args.push_back("--jobs=" + std::to_string(cli.jobs));
        args.push_back("--shard=" + std::to_string(part.shard) + "/" +
                       std::to_string(nshards));
        args.push_back("--resume-dir=" + cli.resume_dir);
        args.push_back("--status-fd=" + std::to_string(status_fd));
        args.push_back("--shard-attempt=" + std::to_string(attempt));
        char hb[32];
        std::snprintf(hb, sizeof(hb), "--status-interval=%g",
                      cli.status_interval);
        args.push_back(hb);
        if (!cli.chaos.empty()) args.push_back("--chaos=" + cli.chaos);
        return args;
      });

  const supervisor::ShardMerge merge =
      supervisor::merge_shard_stores(fl, cli.resume_dir, nshards);

  std::optional<obs::Timeline> timeline;
  if (cli.outputs.timeline()) {
    timeline.emplace(SimTime::from_ms(std::max(1, cli.timeline_bucket_ms)));
  }
  fl.rebuild_telemetry(merge.slots, timeline ? &*timeline : nullptr);
  if (timeline.has_value()) {
    fl.annotate_timeline(&*timeline);
    supervisor::record_timeline(result, &*timeline);
    supervisor::annotate_coverage(merge, &*timeline);
    write_timeline_files(*timeline, cli.outputs);
  }

  std::printf("%s\n", supervisor::render_summary(result).c_str());
  std::printf("%s", fl.analyze(merge.slots).render().c_str());
  if (result.degraded_count() > 0) {
    std::printf(
        "\nwarning: %d shard(s) degraded after the retry budget; the "
        "report above covers only recorded flows (%zu missing)\n",
        result.degraded_count(), merge.missing);
  }
  // Degraded shards are an honest partial result, not a failure: the
  // sweep completed and said so. Callers gate on shard-status instead.
  return 0;
}

/// Run a full multi-client fleet sweep (src/fleet/) from --fleet= and
/// print the convergence report. Same grid + chain-state shape as
/// bench_fleet's sweep, minus the results store (use bench_fleet
/// --resume-dir= for resumable runs).
int cmd_fleet(const CliOptions& cli) {
  std::string error;
  fleet::FleetConfig cfg = fleet::parse_fleet_config(cli.fleet, error);
  if (!error.empty()) {
    std::fprintf(stderr, "--fleet: %s\n", error.c_str());
    return 2;
  }
  if (cli.seed != 1) cfg.seed = cli.seed;
  if (!cli.faults.empty()) {
    std::fprintf(stderr,
                 "fleet runs take fault plans via the soak schedule "
                 "(--fleet=\"...;soak=0s:%s\"), not --faults\n",
                 cli.faults.c_str());
    return 2;
  }

  // Shard child: sweep one vantage slice into a checkpoint store and exit.
  // Spawned by the supervised parent; also runnable by hand for debugging.
  if (!cli.shard.empty()) {
    int shard = -1;
    int shards = 0;
    if (std::sscanf(cli.shard.c_str(), "%d/%d", &shard, &shards) != 2 ||
        shard < 0 || shards <= 0 || shard >= shards) {
      std::fprintf(stderr, "bad --shard=%s (want i/N with 0 <= i < N)\n",
                   cli.shard.c_str());
      return 2;
    }
    if (cli.resume_dir.empty()) {
      std::fprintf(stderr, "fleet --shard wants --resume-dir=DIR\n");
      return 2;
    }
    supervisor::FleetShardOptions sopt;
    sopt.cfg = cfg;
    sopt.resume_dir = cli.resume_dir;
    sopt.shard = shard;
    sopt.shards = shards;
    sopt.status_fd = cli.status_fd;
    sopt.attempt = cli.shard_attempt;
    sopt.jobs = cli.jobs;
    sopt.heartbeat_seconds = cli.status_interval;
    if (!cli.chaos.empty()) {
      std::string chaos_error;
      sopt.chaos = faults::parse_fault_plan(cli.chaos, chaos_error);
      if (!chaos_error.empty()) {
        std::fprintf(stderr, "--chaos: %s\n", chaos_error.c_str());
        return 2;
      }
    }
    return supervisor::run_shard_child(sopt);
  }
  if (cli.supervise || cli.shards > 1) return cmd_fleet_supervised(cli, cfg);

  const fleet::Fleet fl(cfg);
  const runner::TrialGrid grid = fl.grid();
  std::printf("fleet: %s\n\n", cfg.summary().c_str());

  std::vector<std::unique_ptr<fleet::Fleet::VantageState>> states;
  states.reserve(grid.chains());
  for (std::size_t ch = 0; ch < grid.chains(); ++ch) {
    states.push_back(fl.make_vantage_state(ch));
  }
  runner::PoolOptions pool;
  pool.jobs = cli.jobs;

  // Opt-in timeline: installed on this thread, propagated to workers by
  // the pool (worker-private copies merged back after the join).
  std::optional<obs::Timeline> timeline;
  std::optional<obs::ScopedTimeline> timeline_scope;
  if (cli.outputs.timeline()) {
    timeline.emplace(SimTime::from_ms(
        std::max(1, cli.timeline_bucket_ms)));
    timeline_scope.emplace(&*timeline);
  }
  auto out = runner::collect_grid_or(
      grid, pool, static_cast<i64>(-1),
      [&](const runner::GridCoord& c, runner::TaskContext&) {
        return fl.run_flow(c, *states[grid.chain(c)]).encode();
      });
  out.report.publish(obs::MetricsRegistry::global());
  if (timeline.has_value()) {
    fl.annotate_timeline(&*timeline);
    timeline_scope.reset();
    write_timeline_files(*timeline, cli.outputs);
  }

  std::printf("%s", fl.analyze(out.slots).render().c_str());
  std::printf("\n%s\n", out.report.to_string().c_str());
  return 0;
}

/// Replay one bench grid coordinate traced and attribute its verdict.
int cmd_explain(const CliOptions& cli) {
  // "search" is CLI-side: ys::exp cannot depend on ys::search.
  bool known = cli.bench == "search";
  for (const std::string& name : known_benches()) {
    if (name == cli.bench) known = true;
  }
  if (!known) {
    std::fprintf(stderr, "unknown --bench=%s (want:", cli.bench.c_str());
    for (const std::string& name : known_benches()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, " search)\n");
    return 2;
  }

  BenchScale scale;
  scale.trials = cli.trials;
  scale.seed = cli.seed != 1 ? cli.seed : 2017;  // bench default seed
  scale.faults = cli.faults;
  const bool is_faults = cli.bench == "faults";
  scale.servers = cli.servers_scale > 0 ? cli.servers_scale
                                        : (is_faults ? 8 : 77);

  const runner::GridCoord coord{
      static_cast<std::size_t>(cli.cell), static_cast<std::size_t>(cli.vantage),
      static_cast<std::size_t>(cli.server_index),
      static_cast<std::size_t>(cli.trial)};
  Replay replay;
  std::string vantage_name;
  std::string server_host;
  std::string extra;
  if (cli.bench == "search") {
    if (cli.program.empty()) {
      std::fprintf(stderr,
                   "--bench=search wants --program=SPEC (an archive entry's "
                   "program column; cell = GFW variant index)\n");
      return 2;
    }
    std::string error;
    const auto prog = search::CandidateProgram::parse(cli.program, &error);
    if (!prog) {
      std::fprintf(stderr, "--program: %s\n", error.c_str());
      return 2;
    }
    // Rebuild the search's evaluation config; the flags must match the run
    // being explained (same defaults as `yourstate search`).
    search::SearchConfig cfg;
    cfg.seed = scale.seed;
    if (cli.servers_scale > 0) cfg.servers = cli.servers_scale;
    if (cli.trials != 5) cfg.clean_trials = cli.trials;  // 5 = CLI default
    if (cli.faulted_trials >= 0) cfg.faulted_trials = cli.faulted_trials;
    if (!cli.faults.empty()) cfg.fault_spec = cli.faults;
    const search::SearchEngine engine(cfg);
    const std::size_t variants = cfg.variants.size();
    const std::size_t trials = static_cast<std::size_t>(cfg.clean_trials) +
                               static_cast<std::size_t>(cfg.faulted_trials);
    if (coord.cell >= variants ||
        coord.server >= static_cast<std::size_t>(cfg.servers) ||
        coord.trial >= trials) {
      std::fprintf(stderr,
                   "coordinate out of range: grid is variants=%zu servers=%d "
                   "trials=%zu (cell = GFW variant)\n",
                   variants, cfg.servers, trials);
      return 2;
    }
    replay = engine.replay(*prog, coord.cell, coord.server, coord.trial,
                           cli.trace_out, cli.pcap);
    vantage_name = cfg.variants[coord.cell].name;
    server_host = engine.server_population()[coord.server].host;
    extra = " variant=" + cfg.variants[coord.cell].name +
            (coord.trial >= static_cast<std::size_t>(cfg.clean_trials)
                 ? " [faulted trial: " + cfg.fault_spec + "]"
                 : "") +
            " program=" + prog->spec();
  } else if (is_faults) {
    const FaultsBench bench(scale);
    const runner::TrialGrid grid = bench.grid();
    if (coord.cell >= grid.cells || coord.vantage >= grid.vantages ||
        coord.server >= grid.servers || coord.trial >= grid.trials) {
      std::fprintf(stderr,
                   "coordinate out of range: grid is cells=%zu vantages=%zu "
                   "servers=%zu trials=%zu\n",
                   grid.cells, grid.vantages, grid.servers, grid.trials);
      return 2;
    }
    replay = bench.replay(coord, cli.trace_out, cli.pcap);
    vantage_name = bench.vantage_points()[coord.vantage].name;
    server_host = bench.server_population()[coord.server].host;
    extra = " plan=" + bench.plans()[bench.plan_of(coord.cell)].name +
            (bench.intang_cell(coord.cell) ? " [intang]" : " [baseline]");
  } else if (cli.bench == "table1") {
    const Table1Bench bench(scale);
    const runner::TrialGrid grid = bench.grid();
    if (coord.cell >= grid.cells || coord.vantage >= grid.vantages ||
        coord.server >= grid.servers || coord.trial >= grid.trials) {
      std::fprintf(stderr,
                   "coordinate out of range: grid is cells=%zu vantages=%zu "
                   "servers=%zu trials=%zu\n",
                   grid.cells, grid.vantages, grid.servers, grid.trials);
      return 2;
    }
    replay = bench.replay(coord, cli.trace_out, cli.pcap);
    vantage_name = bench.vantage_points()[coord.vantage].name;
    server_host = bench.server_population()[coord.server].host;
    extra = std::string(" row=") +
            Table1Bench::rows()[bench.row_of(coord.cell)].label +
            (bench.keyword_cell(coord.cell) ? " [keyword]" : " [no keyword]");
  } else if (cli.bench == "table6-dns") {
    const Table6Dns bench(scale);
    const runner::TrialGrid grid = bench.grid();
    if (coord.cell >= grid.cells || coord.vantage >= grid.vantages ||
        coord.server >= grid.servers || coord.trial >= grid.trials) {
      std::fprintf(stderr,
                   "coordinate out of range: grid is cells=%zu vantages=%zu "
                   "servers=%zu trials=%zu (cell = resolver)\n",
                   grid.cells, grid.vantages, grid.servers, grid.trials);
      return 2;
    }
    replay = bench.replay(coord, cli.trace_out, cli.pcap);
    vantage_name = bench.vantage_points()[coord.vantage].name;
    const Table6Dns::Resolver& res = Table6Dns::resolvers()[coord.cell];
    server_host = bench.resolver_specs()[coord.cell].host;
    extra = std::string(" resolver=") + res.label +
            (res.censored ? " [censored path]" : " [uncensored path]");
  } else if (cli.bench == "fleet") {
    std::string error;
    fleet::FleetConfig fcfg = fleet::parse_fleet_config(cli.fleet, error);
    if (!error.empty()) {
      std::fprintf(stderr, "--fleet: %s\n", error.c_str());
      return 2;
    }
    if (cli.seed != 1) fcfg.seed = cli.seed;
    scale.seed = fcfg.seed;  // header shows the seed the flow actually used
    const fleet::Fleet bench(fcfg);
    const runner::TrialGrid grid = bench.grid();
    if (coord.cell >= grid.cells || coord.vantage >= grid.vantages ||
        coord.server >= grid.servers || coord.trial >= grid.trials) {
      std::fprintf(stderr,
                   "coordinate out of range: grid is cells=%zu vantages=%zu "
                   "servers=%zu trials=%zu (trial = flow index; pass the "
                   "run's --fleet= spec)\n",
                   grid.cells, grid.vantages, grid.servers, grid.trials);
      return 2;
    }
    replay = bench.replay_flow(coord, cli.trace_out, cli.pcap);
    vantage_name = bench.vantage_points()[coord.vantage].name;
    // The grid's server axis is 1; the schedule carries the real target.
    const auto schedule = fleet::build_flow_schedule(fcfg, vantage_name);
    const fleet::FlowSpec& flow = schedule[coord.trial];
    server_host = bench.server_population()[flow.server].host;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " client=%d arrival=%lldms%s soak_phase=%d", flow.client,
                  static_cast<long long>(flow.at.us / 1000),
                  flow.fresh_session ? " [fresh session]" : "",
                  flow.soak_phase);
    extra = buf;
  } else {
    const Table4Inside bench(scale);
    const bool intang = cli.bench == "table4-intang";
    const runner::TrialGrid grid =
        intang ? bench.intang_grid() : bench.fixed_grid();
    if (coord.cell >= grid.cells || coord.vantage >= grid.vantages ||
        coord.server >= grid.servers || coord.trial >= grid.trials) {
      std::fprintf(stderr,
                   "coordinate out of range: grid is cells=%zu vantages=%zu "
                   "servers=%zu trials=%zu\n",
                   grid.cells, grid.vantages, grid.servers, grid.trials);
      return 2;
    }
    replay = intang ? bench.replay_intang(coord, cli.trace_out, cli.pcap)
                    : bench.replay_fixed(coord, cli.trace_out, cli.pcap);
    vantage_name = bench.vantage_points()[coord.vantage].name;
    server_host = bench.server_population()[coord.server].host;
  }

  std::printf("%s cell=%d vantage=%s server=%s trial=%d seed=%llu%s\n",
              cli.bench.c_str(), cli.cell, vantage_name.c_str(),
              server_host.c_str(), cli.trial,
              static_cast<unsigned long long>(scale.seed), extra.c_str());
  std::printf("%s\n", replay.ladder.c_str());
  std::printf("outcome=%s strategy=%s model=%s\n",
              to_string(replay.result.outcome),
              strategy::to_string(replay.result.strategy_used),
              replay.old_model ? "prior" : "evolved");
  std::printf("verdict: %s\n", replay.attribution.verdict.c_str());
  if (!replay.attribution.fault_note.empty()) {
    std::printf("%s\n", replay.attribution.fault_note.c_str());
  }
  if (replay.attribution.decisive_event != 0) {
    std::printf("decisive event: #%llu",
                static_cast<unsigned long long>(
                    replay.attribution.decisive_event));
    if (replay.attribution.causal_insertion_event != 0) {
      std::printf("  insertion send: #%llu",
                  static_cast<unsigned long long>(
                      replay.attribution.causal_insertion_event));
    }
    if (replay.attribution.strategy_decision_event != 0) {
      std::printf("  decision: #%llu",
                  static_cast<unsigned long long>(
                      replay.attribution.strategy_decision_event));
    }
    std::printf("\n");
  }
  if (!cli.trace_out.empty()) {
    std::printf("trace written to %s\n", cli.trace_out.c_str());
  }
  if (!cli.pcap.empty()) {
    std::printf("pcap written to %s\n", cli.pcap.c_str());
  }
  return replay.result.outcome == Outcome::kSuccess ? 0 : 1;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  CliOptions cli;
  cli.command = argv[1];
  if (cli.command == "perf") return cmd_perf(argc, argv);
  if (cli.command == "search") return cmd_search(argc, argv);
  if (cli.command == "report") return cmd_report(argc, argv);
  if (cli.command == "shard-status") return cmd_shard_status(argc, argv);

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (cli.outputs.parse(arg)) continue;
    if (auto v = value("--vp")) {
      cli.vp = *v;
    } else if (auto v = value("--server")) {
      if (cli.command == "explain") {
        cli.server_index = std::atoi(v->c_str());
      } else {
        auto ip = parse_ip(*v);
        if (!ip) {
          std::fprintf(stderr, "bad --server address: %s\n", v->c_str());
          return 2;
        }
        cli.server = *ip;
      }
    } else if (auto v = value("--bench")) {
      cli.bench = *v;
    } else if (auto v = value("--cell")) {
      cli.cell = std::atoi(v->c_str());
    } else if (auto v = value("--vantage")) {
      cli.vantage = std::atoi(v->c_str());
    } else if (auto v = value("--trial")) {
      cli.trial = std::atoi(v->c_str());
    } else if (auto v = value("--servers")) {
      cli.servers_scale = std::atoi(v->c_str());
    } else if (auto v = value("--trace-out")) {
      cli.trace_out = *v;
    } else if (auto v = value("--strategy")) {
      auto id = strategy::strategy_from_name(*v);
      if (!id) {
        std::fprintf(stderr, "unknown strategy: %s (see `yourstate list`)\n",
                     v->c_str());
        return 2;
      }
      cli.strategy = *id;
    } else if (arg == "--intang") {
      cli.use_intang = true;
    } else if (auto v = value("--keyword")) {
      cli.keyword = *v != "0";
    } else if (auto v = value("--seed")) {
      cli.seed = static_cast<u64>(std::atoll(v->c_str()));
    } else if (auto v = value("--path-seed")) {
      cli.path_seed = static_cast<u64>(std::atoll(v->c_str()));
    } else if (auto v = value("--trials")) {
      cli.trials = std::max(1, std::atoi(v->c_str()));
    } else if (auto v = value("--jobs")) {
      cli.jobs = std::atoi(v->c_str());
    } else if (auto v = value("--timeline-bucket-ms")) {
      cli.timeline_bucket_ms = std::atoi(v->c_str());
    } else if (arg == "--trace") {
      cli.trace = true;
    } else if (arg == "--metrics") {
      cli.dump_metrics = true;
    } else if (auto v = value("--metrics")) {
      if (*v != "json" && *v != "table") {
        std::fprintf(stderr, "unknown metrics format: %s (want json|table)\n",
                     v->c_str());
        return usage();
      }
      cli.dump_metrics = true;
      cli.metrics_as_table = *v == "table";
    } else if (auto v = value("--pcap")) {
      cli.pcap = *v;
    } else if (auto v = value("--domain")) {
      cli.domain = *v;
    } else if (auto v = value("--faults")) {
      cli.faults = *v;
    } else if (auto v = value("--fleet")) {
      cli.fleet = *v;
    } else if (auto v = value("--program")) {
      cli.program = *v;
    } else if (auto v = value("--faulted-trials")) {
      cli.faulted_trials = std::max(0, std::atoi(v->c_str()));
    } else if (auto v = value("--resume-dir")) {
      cli.resume_dir = *v;
    } else if (auto v = value("--shards")) {
      cli.shards = std::max(1, std::atoi(v->c_str()));
    } else if (arg == "--supervise") {
      cli.supervise = true;
    } else if (auto v = value("--shard")) {
      cli.shard = *v;
    } else if (auto v = value("--status-fd")) {
      cli.status_fd = std::atoi(v->c_str());
    } else if (auto v = value("--shard-attempt")) {
      cli.shard_attempt = std::max(0, std::atoi(v->c_str()));
    } else if (auto v = value("--status-interval")) {
      cli.status_interval = std::atof(v->c_str());
    } else if (auto v = value("--max-restarts")) {
      cli.max_restarts = std::max(0, std::atoi(v->c_str()));
    } else if (auto v = value("--chaos")) {
      cli.chaos = *v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage();
    }
  }

  if (cli.command == "list") return cmd_list();
  if (cli.command == "fleet") {
    const int rc = cmd_fleet(cli);
    if (cli.dump_metrics) print_metrics(cli);
    obs::write_metrics_out(cli.outputs.metrics_out);
    return rc;
  }
  if (cli.command == "explain") {
    const int rc = cmd_explain(cli);
    if (cli.dump_metrics) print_metrics(cli);
    obs::write_metrics_out(cli.outputs.metrics_out);
    return rc;
  }
  const auto vp = find_vp(cli.vp);
  if (!vp) {
    std::fprintf(stderr, "unknown vantage point: %s (see `yourstate list`)\n",
                 cli.vp.c_str());
    return 2;
  }
  int rc = -1;
  if (cli.command == "trial") rc = cmd_trial(cli, *vp);
  else if (cli.command == "probe") rc = cmd_probe(cli, *vp);
  else if (cli.command == "dns") rc = cmd_dns(cli, *vp);
  else if (cli.command == "tor") rc = cmd_tor(cli, *vp);
  else if (cli.command == "stats") rc = cmd_stats(cli, *vp);
  if (rc < 0) return usage();
  if (cli.dump_metrics && cli.command != "stats") print_metrics(cli);
  obs::write_metrics_out(cli.outputs.metrics_out);
  return rc;
}

}  // namespace
}  // namespace ys

int main(int argc, char** argv) { return ys::run(argc, argv); }
