// End-to-end runs. Each run is a sequence of rounds; a round is a fresh
// set-up (timed as setup_s) followed by every flow of the workload (timed
// as the flow phase). A warm-up round runs first so lazy per-thread metric
// bindings and registry names exist before anything is counted: the timed
// rounds then repeat their allocation counts exactly. Every round must
// reproduce the warm-up round's result digest. Every time is divided by
// the machine's slowdown measured around it (calibrate.h).
#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "calibrate.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"

namespace perfbench {

using namespace ys;

fleet::FleetConfig fleet_soak_config(u64 seed, bool tiny) {
  // 20 arrivals/s per vantage: 1000 flows span ~50 s of virtual time, and
  // the rst-storm plan covers the middle fifth of it.
  const char* spec =
      tiny ? "clients=8;flows=40;servers=4;arrival=20;churn=0.05;share=shared;"
             "soak=1s:rst-storm,1500ms:none"
           : "clients=64;flows=1000;servers=16;arrival=20;churn=0.05;"
             "share=shared;soak=20s:rst-storm,30s:none";
  std::string err;
  fleet::FleetConfig cfg = fleet::parse_fleet_config(spec, err);
  if (!err.empty()) throw std::logic_error("fleet_soak spec: " + err);
  cfg.seed = seed;
  return cfg;
}

exp::BenchScale paper_grid_scale(u64 seed, bool tiny) {
  exp::BenchScale scale;
  // A wide server population (one trial each) keeps the grid's mix of
  // server stacks and firewalls, and so its cost, close across seeds.
  scale.servers = tiny ? 2 : 48;
  scale.trials = 1;
  scale.seed = seed;
  return scale;
}

std::vector<search::SearchConfig> search_jobs4_configs(u64 seed, bool tiny, int jobs) {
  // Which programs a search breeds, and so what an evaluation costs,
  // depends strongly on its seed; six independent searches per round keep
  // the per-evaluation figures close across workload seeds.
  std::vector<search::SearchConfig> cfgs;
  for (u64 i = 0; i < (tiny ? 2 : 6); ++i) {
    search::SearchConfig cfg;  // defaults: 16 programs x 5 generations
    cfg.seed = Rng::mix_seed({seed, 0x5EA2C4ULL, i});
    cfg.jobs = jobs;
    if (tiny) {
      cfg.population = 4;
      cfg.generations = 1;
      cfg.servers = 2;
      cfg.clean_trials = 1;
      cfg.faulted_trials = 1;
      cfg.elites = 1;
      cfg.coevo_rounds = 1;
    }
    cfgs.push_back(cfg);
  }
  return cfgs;
}

int search_jobs() {
  // CPUs this process may run on, as nproc counts them.
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(cpus, 1, 4);
}

u64 encode_trial(const exp::TrialResult& r) {
  return static_cast<u64>(r.outcome) | (u64{r.response_received} << 4) |
         (u64{r.gfw_reset_seen} << 5) | (u64{r.other_reset_seen} << 6) |
         (static_cast<u64>(r.strategy_used) << 8);
}

namespace {

struct RoundResult {
  u64 flows = 0;
  u64 errors = 0;  ///< flows that ended in Outcome::kTrialError
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Release the previous round's state (untimed).
  virtual void teardown() = 0;
  /// Build fresh state: everything before the first flow.
  virtual void setup() = 0;
  /// Run every flow once. In a timed round `lat` and `cal` are given: push
  /// latency samples (ns) into `lat` without exceeding latency_capacity()
  /// (it is reserved), and tick `cal` between flows, outside their spans.
  virtual RoundResult flows(std::vector<double>* lat, Calibrator* cal) = 0;
  virtual std::size_t latency_capacity() const = 0;
  /// Digest of the last round's results.
  virtual std::string digest() const = 0;
};

struct Rounds {
  std::string digest;
  bool digest_stable = true;
  u64 rounds = 0;
  u64 flows = 0;
  u64 errors = 0;
  u64 samples = 0;  ///< latency samples over all rounds
  double setup_s = 0.0;  ///< median set-up wall time / median slowdown
  /// Per round: flows per second and latency p50/p99 (ns), scaled by the
  /// round's slowdown. Reported as medians over the rounds, so a burst of
  /// load from outside that hits a few rounds does not move the result.
  std::vector<double> rate, p50_ns, p99_ns;
  /// Unscaled flows per second and set-up times, and each round's slowdown.
  std::vector<double> wall_rate, wall_setup_s, slowdown;
  std::vector<u64> round_allocs;
  std::vector<u64> round_bytes;
  u64 flows_per_round = 0;
};

Rounds measure_rounds(Workload& w, const Options& opt) {
  Rounds out;
  Calibrator cal;
  auto timed_setup = [&] {
    w.teardown();
    const u64 t0 = now_ns();
    w.setup();
    out.wall_setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  };
  timed_setup();
  (void)w.flows(nullptr, nullptr);
  out.digest = w.digest();

  std::vector<double> round_lat;
  const u64 start = now_ns();
  const auto budget = static_cast<u64>(opt.seconds * 1e9);
  do {
    timed_setup();
    round_lat.clear();
    round_lat.reserve(w.latency_capacity());
    cal.sample();
    const auto a0 = allocs_now();
    const u64 k0 = cal.kernel_ns();
    const u64 t0 = now_ns();
    const RoundResult r = w.flows(&round_lat, &cal);
    const u64 t1 = now_ns();
    const u64 flow_ns = t1 - t0 - (cal.kernel_ns() - k0);
    const auto a1 = allocs_now();
    cal.sample();
    const double slowdown = cal.take_slowdown();
    const double wall_rate =
        static_cast<double>(r.flows) / (static_cast<double>(flow_ns) * 1e-9);
    out.wall_rate.push_back(wall_rate);
    out.slowdown.push_back(slowdown);
    out.rate.push_back(wall_rate * slowdown);
    out.samples += round_lat.size();
    out.p50_ns.push_back(quantile(round_lat, 0.5) / slowdown);
    out.p99_ns.push_back(quantile(round_lat, 0.99) / slowdown);
    out.round_allocs.push_back(a1.count - a0.count);
    out.round_bytes.push_back(a1.bytes - a0.bytes);
    out.flows += r.flows;
    out.errors += r.errors;
    out.flows_per_round = r.flows;
    ++out.rounds;
    if (w.digest() != out.digest) out.digest_stable = false;
  } while (now_ns() - start < budget || out.rounds < 2);
  // Set-up takes milliseconds at most; more samples steady its median.
  // No kernel sample runs next to a set-up (it would leave the caches cold
  // for it), so set-ups are scaled by the run's median slowdown.
  while (out.wall_setup_s.size() < 31) timed_setup();
  w.teardown();
  out.setup_s = median(out.wall_setup_s) / median(out.slowdown);
  return out;
}

double median_u64(const std::vector<u64>& v) {
  std::vector<double> d(v.begin(), v.end());
  return median(d);
}

/// Turn measured rounds into the end-to-end report. `allocs`/`bytes` are
/// per-flow totals; `digest_ok` folds in any workload-specific check.
Report finish(const char* name, Rounds& r, const Options& opt, double allocs,
              double bytes, bool digest_ok) {
  Report rep;
  const bool recorded_ok =
      opt.expect_digest.empty() || opt.expect_digest == r.digest;
  rep.correct = r.digest_stable && recorded_ok && digest_ok;
  rep.attempted = r.flows;
  rep.failed = rep.correct ? r.errors : r.flows;

  say("workload %s seed %llu: %llu rounds, %llu flows, %llu latency samples",
      name, static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(r.rounds),
      static_cast<unsigned long long>(r.flows),
      static_cast<unsigned long long>(r.samples));
  say("digest %s (%s)", r.digest.c_str(),
      opt.expect_digest.empty() ? "no recorded digest for this seed"
      : recorded_ok            ? "matches the recorded digest"
                               : ("MISMATCH, recorded " + opt.expect_digest).c_str());
  if (!r.digest_stable) say("MISMATCH: a round's results differ from the first round");
  say("error_rate %.6f (%llu of %llu flows failed)",
      rep.attempted > 0 ? static_cast<double>(rep.failed) / rep.attempted : 0.0,
      static_cast<unsigned long long>(rep.failed),
      static_cast<unsigned long long>(rep.attempted));
  std::vector<double> slow = r.slowdown;
  const double slow_median = quantile(slow, 0.5);  // sorts `slow`
  say("unscaled wall: flows_per_s %.1f, setup_s %.6f; machine slowdown "
      "(kernel / %.0f ns) median %.3f, range %.3f..%.3f over rounds",
      median(r.wall_rate), median(r.wall_setup_s), Calibrator::kRefNs,
      slow_median, slow.front(), slow.back());

  rep.add("flows_per_s", median(r.rate), "flows/s");
  rep.add("setup_s", r.setup_s, "s");
  rep.add("flow_us_p50", median(r.p50_ns) / 1e3, "us");
  rep.add("flow_us_p99", median(r.p99_ns) / 1e3, "us");
  rep.add("allocs_per_flow", allocs, "allocs");
  rep.add("bytes_per_flow", bytes, "B");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("ok_ratio",
          rep.attempted > 0
              ? 1.0 - static_cast<double>(rep.failed) / rep.attempted
              : 0.0,
          "ratio");
  return rep;
}

/// Serial workloads: allocations per flow from the timed rounds, which
/// must repeat exactly after the warm-up round.
Report finish_serial(const char* name, Rounds& r, const Options& opt) {
  const auto [lo, hi] =
      std::minmax_element(r.round_allocs.begin(), r.round_allocs.end());
  if (*lo != *hi) {
    say("note: allocations per round vary (%llu..%llu); reporting the median",
        static_cast<unsigned long long>(*lo), static_cast<unsigned long long>(*hi));
  }
  const double flows = static_cast<double>(r.flows_per_round);
  return finish(name, r, opt, median_u64(r.round_allocs) / flows,
                median_u64(r.round_bytes) / flows, true);
}

// ------------------------------------------------------------ fleet_soak

class FleetSoak final : public Workload {
 public:
  explicit FleetSoak(fleet::FleetConfig cfg) : cfg_(std::move(cfg)) {}

  void teardown() override {
    states_.clear();
    fleet_.reset();
  }
  void setup() override {
    fleet_ = std::make_unique<fleet::Fleet>(cfg_);
    grid_ = fleet_->grid();
    for (std::size_t v = 0; v < grid_.vantages; ++v) {
      states_.push_back(fleet_->make_vantage_state(v));
    }
    slots_.assign(grid_.total(), -1);
  }
  RoundResult flows(std::vector<double>* lat, Calibrator* cal) override {
    RoundResult r;
    runner::GridCoord c;
    for (c.vantage = 0; c.vantage < grid_.vantages; ++c.vantage) {
      for (c.trial = 0; c.trial < grid_.trials; ++c.trial) {
        const u64 t0 = now_ns();
        const fleet::Fleet::FlowRecord rec =
            fleet_->run_flow(c, *states_[c.vantage]);
        if (lat != nullptr) lat->push_back(static_cast<double>(now_ns() - t0));
        slots_[grid_.index(c)] = rec.encode();
        ++r.flows;
        if (rec.outcome == exp::Outcome::kTrialError) ++r.errors;
        if (cal != nullptr) cal->tick();
      }
    }
    return r;
  }
  std::size_t latency_capacity() const override { return slots_.size(); }
  std::string digest() const override {
    Digest d;
    for (i64 s : slots_) d.add(static_cast<u64>(s));
    return d.hex();
  }

 private:
  fleet::FleetConfig cfg_;
  std::unique_ptr<fleet::Fleet> fleet_;
  runner::TrialGrid grid_;
  std::vector<std::unique_ptr<fleet::Fleet::VantageState>> states_;
  std::vector<i64> slots_;
};

// ------------------------------------------------------------ paper_grid

class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(exp::BenchScale scale) : scale_(std::move(scale)) {}

  void teardown() override {
    t1_.reset();
    t4_.reset();
  }
  void setup() override {
    t1_ = std::make_unique<exp::Table1Bench>(scale_);
    t4_ = std::make_unique<exp::Table4Inside>(scale_);
    results_.assign(t1_->grid().total() + t4_->fixed_grid().total(), 0);
  }
  RoundResult flows(std::vector<double>* lat, Calibrator* cal) override {
    RoundResult r;
    std::size_t slot = 0;
    auto record = [&](const exp::TrialResult& res, u64 t0) {
      if (lat != nullptr) lat->push_back(static_cast<double>(now_ns() - t0));
      results_[slot++] = encode_trial(res);
      ++r.flows;
      if (res.outcome == exp::Outcome::kTrialError) ++r.errors;
      if (cal != nullptr) cal->tick();
    };
    const runner::TrialGrid g1 = t1_->grid();
    for (std::size_t i = 0; i < g1.total(); ++i) {
      const runner::GridCoord c = g1.coord(i);
      const u64 t0 = now_ns();
      record(t1_->run_trial(c), t0);
    }
    const runner::TrialGrid g4 = t4_->fixed_grid();
    for (std::size_t i = 0; i < g4.total(); ++i) {
      const runner::GridCoord c = g4.coord(i);
      const u64 t0 = now_ns();
      record(t4_->run_fixed(c), t0);
    }
    return r;
  }
  std::size_t latency_capacity() const override { return results_.size(); }
  std::string digest() const override {
    Digest d;
    for (u64 v : results_) d.add(v);
    return d.hex();
  }

 private:
  exp::BenchScale scale_;
  std::unique_ptr<exp::Table1Bench> t1_;
  std::unique_ptr<exp::Table4Inside> t4_;
  std::vector<u64> results_;
};

// ---------------------------------------------------------- search_jobs4

class SearchJobs final : public Workload {
 public:
  explicit SearchJobs(std::vector<search::SearchConfig> cfgs)
      : cfgs_(std::move(cfgs)),
        results_(cfgs_.size()),
        trial_errors_(obs::MetricsRegistry::current().counter("exp.trial_error")) {}

  void teardown() override { engines_.clear(); }
  void setup() override {
    for (const auto& cfg : cfgs_) engines_.push_back(std::make_unique<search::SearchEngine>(cfg));
  }
  /// The benchmark sees SearchEngine::run() calls, not single evaluations:
  /// a latency sample is one run's worker time per evaluation
  /// (wall x jobs / evaluations).
  RoundResult flows(std::vector<double>* lat, Calibrator* cal) override {
    const u64 errors_before = trial_errors_.value();
    RoundResult r;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      const u64 t0 = now_ns();
      results_[i] = engines_[i]->run();
      const u64 wall = now_ns() - t0;
      r.flows += results_[i].evaluations;
      if (lat != nullptr && results_[i].evaluations > 0) {
        lat->push_back(static_cast<double>(wall) * cfgs_[i].jobs /
                       static_cast<double>(results_[i].evaluations));
      }
      // A run is thousands of evaluations: sample after every one.
      if (cal != nullptr) cal->sample();
    }
    r.errors = trial_errors_.value() - errors_before;
    return r;
  }
  std::size_t latency_capacity() const override { return cfgs_.size(); }
  std::string digest() const override { return digest_of(results_); }

  static std::string digest_of(const std::vector<search::SearchResult>& results) {
    Digest d;
    for (const auto& res : results) d.add(res.render());
    return d.hex();
  }

 private:
  std::vector<search::SearchConfig> cfgs_;
  std::vector<search::SearchResult> results_;
  obs::Counter& trial_errors_;
  std::vector<std::unique_ptr<search::SearchEngine>> engines_;
};

}  // namespace

Report run_fleet_soak(const Options& opt) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(&reg);
  FleetSoak w(fleet_soak_config(opt.seed, opt.tiny));
  Rounds r = measure_rounds(w, opt);
  return finish_serial("fleet_soak", r, opt);
}

Report run_paper_grid(const Options& opt) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(&reg);
  PaperGrid w(paper_grid_scale(opt.seed, opt.tiny));
  Rounds r = measure_rounds(w, opt);
  return finish_serial("paper_grid", r, opt);
}

Report run_search_jobs4(const Options& opt) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(&reg);
  const int jobs = search_jobs();
  SearchJobs w(search_jobs4_configs(opt.seed, opt.tiny, jobs));
  Rounds r = measure_rounds(w, opt);

  // SearchEngine builds its own PoolOptions without track_allocs, and the
  // hook's counters are thread-local, so the pool workers' allocations are
  // invisible from here. Count them on a serial twin of the same search
  // instead: the runner's jobs=1 path runs every task inline on this
  // thread. The twin must also reproduce the parallel result exactly.
  std::vector<search::SearchResult> serial;
  u64 evaluations = 0;
  const auto a0 = allocs_now();
  for (const auto& cfg : search_jobs4_configs(opt.seed, opt.tiny, 1)) {
    serial.push_back(search::SearchEngine(cfg).run());
    evaluations += serial.back().evaluations;
  }
  const auto a1 = allocs_now();
  const std::string serial_digest = SearchJobs::digest_of(serial);
  const bool serial_ok = serial_digest == r.digest;
  say("serial twin (jobs=1 vs jobs=%d): digest %s, %s", jobs, serial_digest.c_str(),
      serial_ok ? "matches" : "MISMATCH");
  const double evals = static_cast<double>(std::max<u64>(evaluations, 1));
  return finish("search_jobs4", r, opt,
                static_cast<double>(a1.count - a0.count) / evals,
                static_cast<double>(a1.bytes - a0.bytes) / evals, serial_ok);
}

}  // namespace perfbench
