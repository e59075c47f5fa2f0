// ys::search — evolutionary strategy discovery over the runner grid.
//
// SearchEngine evolves a population of CandidateProgram:
//
//   * Every generation is evaluated as one TrialGrid on the worker pool,
//     cells = programs, vantage axis = GFW variants, plus the server and
//     trial axes. The tail of the trial axis runs under a fault plan, so
//     one sweep yields all three Pareto objectives: success rate,
//     insertion-packet cost, and robustness-under-faults.
//   * All evolution RNG (init, mutation, crossover, tournament selection)
//     is forked off the run seed per generation — never off evaluation
//     order — and per-trial seeds are pure functions of (seed, program
//     spec, variant, server, trial), exactly like ys::faults. Search runs
//     are therefore bit-identical under --jobs=N, and scores memoize
//     across generations by spec.
//   * A per-variant Pareto archive keeps every non-dominated (success,
//     robustness, cost) program, tagged with the paper strategy class it
//     rediscovers (or none — a novel composition).
//   * --resume-dir checkpoints every generation's raw outcomes through
//     ResultsStore; a killed run resumed with identical parameters
//     replays recorded slots and produces byte-identical archives.
//   * Co-evolution closes the loop: the censor picks, per round, the
//     hardening response (variant.h) that minimizes the archive's best
//     success rate; programs that stay above the survival threshold carry
//     into the next round. The result reports which discovered strategies
//     outlive an adapting censor.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exp/benchdef.h"
#include "faults/fault_plan.h"
#include "search/variant.h"
#include "strategy/program.h"

namespace ys::runner {
class ResultsStore;
}

namespace ys::search {

// The search evolves strategy programs (strategy/program.h): the same
// grammar and executor the paper strategies run on.
using strategy::CandidateProgram;
using strategy::kMaxPayload;
using strategy::kMaxRepeat;
using strategy::kMaxSteps;
using strategy::Phase;
using strategy::Step;
using strategy::StepKind;

/// A named seed program (a paper strategy class expressed as a program).
struct SeedProgram {
  const char* label;  // paper class name
  const char* spec;   // canonical program spec
};

/// The §3.2/§5.2/§7.1 strategy classes as programs — the search's seed
/// population and the "rediscovered a known class" reference set.
const std::vector<SeedProgram>& seed_programs();

/// Name the paper strategy class a program belongs to, ignoring repeat
/// counts, '*auto' and hedge intervals (redundancy is a tuning knob, not a
/// class distinction); std::nullopt for compositions the paper never
/// wrote down (novel).
std::optional<std::string> classify_known(const CandidateProgram& prog);

/// Every valid single-step program over the primitive grid (the
/// property-test sweep and the mutation universe). Never 'seg', 'frag',
/// '*auto', a hedge or '+rev': those only spell paper strategies.
std::vector<Step> primitive_steps();

struct SearchConfig {
  int population = 16;
  int generations = 5;
  u64 seed = 2017;
  int servers = 4;
  /// Clean trials per (program, variant, server) — the success axis.
  int clean_trials = 3;
  /// Trials run under `fault_spec` — the robustness axis.
  int faulted_trials = 2;
  /// Fault plan for the robustness axis (shipped name, inline clauses, or
  /// @file.json; see faults/fault_plan.h). Empty = robustness == success.
  std::string fault_spec = "loss-burst";
  /// Cap on total trial evaluations (0 = none). Checked between
  /// generations: the engine stops before starting a generation it cannot
  /// afford, never mid-grid — so a budgeted run is a prefix of the
  /// unbudgeted one.
  u64 budget = 0;
  int tournament = 3;
  double crossover_p = 0.6;
  double mutation_p = 0.9;
  /// Archive members re-injected into every next generation.
  int elites = 4;
  int jobs = 1;
  double heartbeat = 0.0;     // stderr progress interval; 0 = off
  std::string resume_dir;     // per-generation ResultsStore checkpoints
  /// Co-evolution rounds after the search (0 = skip).
  int coevo_rounds = 2;
  /// A program "survives" a censor response at or above this success rate.
  double survive_threshold = 0.5;
  std::vector<GfwVariant> variants = default_variants();
};

/// The three Pareto objectives of one (program, variant) evaluation.
struct Score {
  double success = 0.0;     // clean-trial success rate
  double robustness = 0.0;  // success rate under the fault plan
  int cost = 0;             // static insertion-packet cost

  /// Pareto dominance: better-or-equal on every axis, strictly better on
  /// at least one. Equal vectors dominate in neither direction, so tied
  /// programs coexist in the archive.
  bool dominates(const Score& o) const {
    const bool ge = success >= o.success && robustness >= o.robustness &&
                    cost <= o.cost;
    const bool gt = success > o.success || robustness > o.robustness ||
                    cost < o.cost;
    return ge && gt;
  }
};

struct ArchiveEntry {
  CandidateProgram program;
  Score score;
  int generation = 0;  // generation that first archived it
  /// Paper strategy class (classify_known); nullopt = novel composition.
  std::optional<std::string> known_class;
};

/// Non-dominated set for one GFW variant, kept in deterministic order
/// (success desc, robustness desc, cost asc, spec asc).
struct VariantArchive {
  std::string variant;
  std::vector<ArchiveEntry> entries;

  /// Insert if no current entry dominates `e`; evicts entries `e`
  /// dominates. Duplicate specs are ignored.
  void insert(ArchiveEntry e);
};

/// One censor move of the co-evolution phase.
struct CoevoRound {
  std::string response;        // the hardening response the censor picked
  double best_success = 0.0;   // the best program's success under it
  std::vector<std::string> survivors;  // specs at/above survive_threshold
};

struct SearchResult {
  std::vector<VariantArchive> archives;  // one per config variant
  std::vector<CoevoRound> coevo;
  u64 evaluations = 0;   // trials actually run (not resumed from a store)
  int generations_run = 0;
  bool resumed = false;  // any generation store was resumed

  /// Archive + co-evolution tables, ready to print. Wall-clock free, so
  /// two bit-identical runs render identically (the determinism and
  /// resume checks compare exactly this).
  std::string render() const;
};

class SearchEngine {
 public:
  explicit SearchEngine(SearchConfig cfg);

  /// Run the full search (+ co-evolution). Deterministic for a fixed
  /// config, any jobs count, interrupted or not.
  SearchResult run();

  /// Traced deterministic re-run of one evaluation coordinate for
  /// `yourstate explain --bench=search`: the given program against
  /// variant/server/trial, with the exact per-trial seed the search grid
  /// used (trial >= clean_trials runs under the fault plan).
  exp::Replay replay(const CandidateProgram& prog, std::size_t variant,
                     std::size_t server, std::size_t trial,
                     const std::string& trace_path = {},
                     const std::string& pcap_path = {}) const;

  const SearchConfig& config() const { return cfg_; }
  const std::vector<exp::ServerSpec>& server_population() const {
    return servers_;
  }

  /// Trials per program in one generation grid (variants × servers ×
  /// (clean + faulted)).
  u64 trials_per_program() const;

  /// The deterministic generation-0 population (seed programs + random
  /// fill) and a generation store's identity — exposed so tests can
  /// prefill a "killed" checkpoint the way the faults/fleet resume
  /// harnesses do.
  std::vector<CandidateProgram> initial_population() const;
  u64 store_signature(int generation,
                      const std::vector<std::string>& specs) const;
  static std::string store_name(int generation);

  /// Evaluate a program set on the pool (exposed for tests; `store` may
  /// be null). Returns per-(program, variant) scores in program-major
  /// order.
  std::vector<Score> evaluate(const std::vector<CandidateProgram>& programs,
                              runner::ResultsStore* store,
                              u64* evaluations) const;

 private:
  CandidateProgram random_program(Rng& rng) const;
  Step random_step(Rng& rng) const;
  CandidateProgram mutate(CandidateProgram prog, Rng& rng) const;
  CandidateProgram crossover(const CandidateProgram& a,
                             const CandidateProgram& b, Rng& rng) const;
  u64 trial_seed(const std::string& spec, std::size_t variant,
                 std::size_t server, std::size_t trial) const;
  exp::ScenarioOptions options_for(const CandidateProgram& prog,
                                   std::size_t variant, std::size_t server,
                                   std::size_t trial, bool tracing) const;
  exp::Outcome run_one(const CandidateProgram& prog, std::size_t variant,
                       std::size_t server, std::size_t trial) const;
  std::vector<CoevoRound> coevolve(
      const std::vector<VariantArchive>& archives, u64* evaluations) const;

  SearchConfig cfg_;
  exp::Calibration cal_;
  const gfw::DetectionRules* rules_;
  exp::VantagePoint vp_;
  std::vector<exp::ServerSpec> servers_;
  faults::FaultPlan plan_;
  /// Variant-adjusted systematic path draws, [variant * servers + server].
  std::vector<exp::PathProfile> profiles_;
};

}  // namespace ys::search
