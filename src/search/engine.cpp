#include "search/engine.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <utility>

#include <cmath>

#include "exp/stats.h"
#include "exp/table.h"
#include "netsim/pcap.h"
#include "obs/timeline.h"
#include "obs/trace_export.h"
#include "runner/results_store.h"
#include "strategy/strategy.h"

namespace ys::search {

namespace {

/// Parse a SearchConfig's fault spec; a bad spec is a usage error, not a
/// silent fault-free robustness axis.
faults::FaultPlan parse_search_plan(const std::string& spec) {
  if (spec.empty()) return {};
  std::string error;
  faults::FaultPlan plan = faults::parse_fault_plan(spec, error);
  if (!error.empty()) {
    std::fprintf(stderr, "--faults: %s\n", error.c_str());
    std::exit(2);
  }
  return plan;
}

/// Deterministic archive entry order: strongest first, spec as the final
/// total-order tiebreak.
bool entry_before(const ArchiveEntry& a, const ArchiveEntry& b) {
  if (a.score.success != b.score.success)
    return a.score.success > b.score.success;
  if (a.score.robustness != b.score.robustness)
    return a.score.robustness > b.score.robustness;
  if (a.score.cost != b.score.cost) return a.score.cost < b.score.cost;
  return a.program.spec() < b.program.spec();
}

/// Scalar selection fitness (tournament only — the archive itself is
/// multi-objective). Success dominates, robustness backs it up, and a mild
/// cost penalty keeps programs from bloating to kMaxSteps for free.
double fitness_of(const std::vector<Score>& per_variant) {
  double f = 0.0;
  for (const Score& s : per_variant) {
    f += s.success + 0.5 * s.robustness;
  }
  if (!per_variant.empty()) f /= static_cast<double>(per_variant.size());
  return f - 0.02 * static_cast<double>(per_variant.empty()
                                            ? 0
                                            : per_variant.front().cost);
}

}  // namespace

const std::vector<SeedProgram>& seed_programs() {
  // Every paper strategy class expressible over the step grammar, with the
  // paper's ×3 redundancy where §3.4 applies. Labels are the class names
  // classify_known() reports.
  static const std::vector<SeedProgram> kSeeds = {
      {"tcb-creation", "pre:syn/ttl"},
      {"tcb-reversal", "pre:synack/ttl"},
      {"tcb-teardown", "data:rst/ttl*3"},
      {"in-order-overlap", "data:data/md5*3=full"},
      {"resync-desync", "data:syn/ttl+ow;data:data+ow=1"},
      {"improved-tcb-teardown", "data:rst/ttl*3;data:data+ow=1"},
      {"tcb-creation+resync-desync",
       "pre:syn/ttl;data:syn/ttl+ow;data:data+ow=1"},
      {"tcb-teardown+tcb-reversal", "pre:synack/ttl;data:rst/ttl*3"},
  };
  return kSeeds;
}

std::optional<std::string> classify_known(const CandidateProgram& prog) {
  // Class templates: the seed shapes plus the Table 1 rows they do not
  // cover, parsed once. Matching ignores repeat counts, '*auto' and hedge
  // intervals (redundancy tunes loss robustness, it does not change the
  // mechanism) but is exact on phase, kind, discrepancy, anchoring and
  // payload shape.
  using strategy::StrategyId;
  using Template = std::pair<const char*, CandidateProgram>;
  static const std::vector<Template> kTemplates = [] {
    std::vector<Template> t;
    for (const SeedProgram& seed : seed_programs()) {
      t.emplace_back(seed.label, *CandidateProgram::parse(seed.spec, nullptr));
    }
    const std::pair<const char*, StrategyId> kTable1[] = {
        {"tcb-creation", StrategyId::kTcbCreationSynBadChecksum},
        {"tcb-teardown", StrategyId::kTeardownRstBadChecksum},
        {"tcb-teardown", StrategyId::kTeardownRstAckTtl},
        {"tcb-teardown", StrategyId::kTeardownRstAckBadChecksum},
        {"tcb-teardown", StrategyId::kTeardownFinTtl},
        {"tcb-teardown", StrategyId::kTeardownFinBadChecksum},
        {"in-order-overlap", StrategyId::kInOrderTtl},
        {"in-order-overlap", StrategyId::kInOrderBadAck},
        {"in-order-overlap", StrategyId::kInOrderBadChecksum},
        {"in-order-overlap", StrategyId::kInOrderNoFlags},
    };
    for (const auto& [label, id] : kTable1) {
      t.emplace_back(label, strategy::program(id));
    }
    return t;
  }();

  const auto same_shape = [](Step a, Step b) {
    a.repeat = b.repeat = 1;
    a.hedge_ms = b.hedge_ms = 0;
    return a == b;
  };
  for (const auto& [label, reference] : kTemplates) {
    if (std::equal(prog.steps.begin(), prog.steps.end(),
                   reference.steps.begin(), reference.steps.end(),
                   same_shape)) {
      return std::string(label);
    }
  }
  return std::nullopt;
}

std::vector<Step> primitive_steps() {
  using strategy::Discrepancy;
  // The search's packet kinds run syn..data and its discrepancies
  // none..short-tcp-header, in enum order.
  std::vector<Step> out;
  for (int k = 0; k <= static_cast<int>(StepKind::kData); ++k) {
    const auto kind = static_cast<StepKind>(k);
    for (int d = 0; d <= static_cast<int>(Discrepancy::kShortTcpHeader); ++d) {
      const auto disc = static_cast<Discrepancy>(d);
      // Pre-handshake primitives: TCB-creating kinds, in-window only.
      if (kind == StepKind::kSyn || kind == StepKind::kSynAck) {
        Step pre;
        pre.phase = Phase::kPreHandshake;
        pre.kind = kind;
        pre.disc = disc;
        out.push_back(pre);
      }
      for (bool ow : {false, true}) {
        Step s;
        s.phase = Phase::kOnData;
        s.kind = kind;
        s.disc = disc;
        s.out_of_window = ow;
        if (kind == StepKind::kData) {
          for (int payload : {0, 1}) {
            s.payload = payload;
            out.push_back(s);
          }
        } else {
          out.push_back(s);
        }
      }
    }
  }
  return out;
}

void VariantArchive::insert(ArchiveEntry e) {
  const std::string spec = e.program.spec();
  for (const ArchiveEntry& have : entries) {
    if (have.program.spec() == spec) return;
    if (have.score.dominates(e.score)) return;
  }
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&](const ArchiveEntry& have) {
                                 return e.score.dominates(have.score);
                               }),
                entries.end());
  entries.push_back(std::move(e));
  std::sort(entries.begin(), entries.end(), entry_before);
}

SearchEngine::SearchEngine(SearchConfig cfg)
    : cfg_(std::move(cfg)),
      cal_(exp::Calibration::standard()),
      rules_(&gfw::DetectionRules::standard()),
      vp_(exp::china_vantage_points().front()),
      servers_(exp::make_server_population(cfg_.servers, cfg_.seed, cal_,
                                           /*inside_china=*/true)),
      plan_(parse_search_plan(cfg_.fault_spec)) {
  profiles_.reserve(cfg_.variants.size() * servers_.size());
  for (const GfwVariant& variant : cfg_.variants) {
    for (const exp::ServerSpec& server : servers_) {
      profiles_.push_back(
          variant.apply(exp::make_path_profile(vp_, server, cal_)));
    }
  }
}

u64 SearchEngine::trials_per_program() const {
  return static_cast<u64>(cfg_.variants.size()) * servers_.size() *
         static_cast<u64>(cfg_.clean_trials + cfg_.faulted_trials);
}

u64 SearchEngine::trial_seed(const std::string& spec, std::size_t variant,
                             std::size_t server, std::size_t trial) const {
  // Generation-independent on purpose: a spec's trials are identical no
  // matter when evolution rediscovers it, which is what makes the score
  // memo across generations exact rather than approximate.
  return Rng::mix_seed({cfg_.seed, Rng::hash_label(spec),
                        static_cast<u64>(variant),
                        static_cast<u64>(servers_[server].ip),
                        static_cast<u64>(trial)});
}

exp::ScenarioOptions SearchEngine::options_for(const CandidateProgram& prog,
                                               std::size_t variant,
                                               std::size_t server,
                                               std::size_t trial,
                                               bool tracing) const {
  exp::ScenarioOptions opt;
  opt.vp = vp_;
  opt.server = servers_[server];
  opt.cal = cal_;
  opt.seed = trial_seed(prog.spec(), variant, server, trial);
  opt.tracing = tracing;
  opt.profile = &profiles_[variant * servers_.size() + server];
  opt.harden = cfg_.variants[variant].harden;
  const bool faulted =
      trial >= static_cast<std::size_t>(cfg_.clean_trials) && !plan_.empty();
  if (faulted) opt.faults = &plan_;
  return opt;
}

exp::Outcome SearchEngine::run_one(const CandidateProgram& prog,
                                   std::size_t variant, std::size_t server,
                                   std::size_t trial) const {
  exp::Scenario sc(rules_, options_for(prog, variant, server, trial,
                                        /*tracing=*/false));
  exp::HttpTrialOptions http;
  http.with_keyword = true;
  http.strategy_factory = [&prog] { return prog.make_strategy(); };
  return exp::run_http_trial(sc, http).outcome;
}

exp::Replay SearchEngine::replay(const CandidateProgram& prog,
                                 std::size_t variant, std::size_t server,
                                 std::size_t trial,
                                 const std::string& trace_path,
                                 const std::string& pcap_path) const {
  exp::Scenario sc(rules_, options_for(prog, variant, server, trial,
                                        /*tracing=*/true));

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

  exp::HttpTrialOptions http;
  http.with_keyword = true;
  http.strategy_factory = [&prog] { return prog.make_strategy(); };

  exp::Replay replay;
  replay.result = exp::run_http_trial(sc, http);
  replay.old_model = sc.path_runs_old_model();
  replay.ladder = sc.trace().render();
  replay.attribution = exp::attribute_verdict(sc.trace(),
                                              replay.result.outcome,
                                              replay.old_model);
  if (!trace_path.empty()) {
    if (!obs::write_chrome_trace(trace_path, sc.trace())) {
      std::fprintf(stderr, "cannot write trace file %s\n", trace_path.c_str());
    }
  }
  return replay;
}

std::string SearchEngine::store_name(int generation) {
  return "search-g" + std::to_string(generation);
}

u64 SearchEngine::store_signature(
    int generation, const std::vector<std::string>& specs) const {
  std::vector<std::string> parts = {
      "search",
      std::to_string(cfg_.seed),
      std::to_string(generation),
      std::to_string(servers_.size()),
      std::to_string(cfg_.clean_trials),
      std::to_string(cfg_.faulted_trials),
      cfg_.fault_spec,
  };
  for (const GfwVariant& v : cfg_.variants) parts.push_back(v.name);
  parts.insert(parts.end(), specs.begin(), specs.end());
  return runner::ResultsStore::signature_of(parts);
}

std::vector<Score> SearchEngine::evaluate(
    const std::vector<CandidateProgram>& programs,
    runner::ResultsStore* store, u64* evaluations) const {
  runner::TrialGrid grid;
  grid.cells = programs.size();
  grid.vantages = cfg_.variants.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(cfg_.clean_trials) +
                static_cast<std::size_t>(cfg_.faulted_trials);

  // Count the work before running: every slot the store lacks will be
  // executed exactly once (the lambda's counting would race under jobs>1).
  if (evaluations != nullptr) {
    std::size_t already = 0;
    if (store != nullptr) {
      for (std::size_t slot = 0; slot < grid.total(); ++slot) {
        if (store->has(slot)) ++already;
      }
    }
    *evaluations += grid.total() - already;
  }

  runner::PoolOptions pool;
  pool.jobs = cfg_.jobs;
  pool.heartbeat_seconds = cfg_.heartbeat;

  const auto out = runner::collect_grid_or(
      grid, pool, exp::Outcome::kTrialError,
      [&](const runner::GridCoord& c, runner::TaskContext&) {
        const std::size_t slot = grid.index(c);
        if (store != nullptr) {
          if (const auto have = store->get(slot)) {
            return static_cast<exp::Outcome>(*have);
          }
        }
        const exp::Outcome o =
            run_one(programs[c.cell], c.vantage, c.server, c.trial);
        if (store != nullptr) store->put(slot, static_cast<i64>(o));
        return o;
      });

  std::vector<Score> scores;
  scores.reserve(programs.size() * cfg_.variants.size());
  for (std::size_t p = 0; p < programs.size(); ++p) {
    for (std::size_t v = 0; v < cfg_.variants.size(); ++v) {
      exp::RateTally clean;
      exp::RateTally faulted;
      for (std::size_t s = 0; s < grid.servers; ++s) {
        for (std::size_t t = 0; t < grid.trials; ++t) {
          const exp::Outcome o = out.slots[grid.index({p, v, s, t})];
          if (t < static_cast<std::size_t>(cfg_.clean_trials)) {
            clean.add(o);
          } else {
            faulted.add(o);
          }
        }
      }
      Score score;
      score.success = clean.success_rate();
      score.robustness = (faulted.total() > 0 && !plan_.empty())
                             ? faulted.success_rate()
                             : score.success;
      score.cost = programs[p].insertion_cost();
      scores.push_back(score);
    }
  }
  return scores;
}

std::vector<CandidateProgram> SearchEngine::initial_population() const {
  std::vector<CandidateProgram> population;
  for (const SeedProgram& seed : seed_programs()) {
    if (static_cast<int>(population.size()) >= cfg_.population) break;
    std::string error;
    auto prog = CandidateProgram::parse(seed.spec, &error);
    if (!prog) {
      std::fprintf(stderr, "seed program '%s' invalid: %s\n", seed.spec,
                   error.c_str());
      std::exit(2);
    }
    population.push_back(std::move(*prog));
  }
  Rng rng(Rng::mix_seed({cfg_.seed, Rng::hash_label("search-init")}));
  while (static_cast<int>(population.size()) < cfg_.population) {
    population.push_back(random_program(rng));
  }
  return population;
}

Step SearchEngine::random_step(Rng& rng) const {
  static const std::vector<Step> kPrimitives = primitive_steps();
  Step s = kPrimitives[rng.uniform(kPrimitives.size())];
  s.repeat = 1 + static_cast<int>(rng.uniform(3));
  return s;
}

CandidateProgram SearchEngine::random_program(Rng& rng) const {
  CandidateProgram prog;
  const std::size_t steps = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < steps; ++i) {
    prog.steps.push_back(random_step(rng));
  }
  return prog;
}

CandidateProgram SearchEngine::mutate(CandidateProgram prog, Rng& rng) const {
  const u64 op = rng.uniform(5);
  const std::size_t at = rng.uniform(prog.steps.size());
  switch (op) {
    case 0:  // insert
      if (prog.steps.size() < static_cast<std::size_t>(kMaxSteps)) {
        prog.steps.insert(prog.steps.begin() + static_cast<long>(at),
                          random_step(rng));
        break;
      }
      [[fallthrough]];
    case 1:  // remove
      if (prog.steps.size() > 1) {
        prog.steps.erase(prog.steps.begin() + static_cast<long>(at));
        break;
      }
      [[fallthrough]];
    case 2:  // replace
      prog.steps[at] = random_step(rng);
      break;
    case 3:  // tweak redundancy
      prog.steps[at].repeat = 1 + static_cast<int>(rng.uniform(3));
      break;
    default:  // toggle the desync offset (data phase only)
      if (prog.steps[at].phase == Phase::kOnData) {
        prog.steps[at].out_of_window = !prog.steps[at].out_of_window;
      } else {
        prog.steps[at] = random_step(rng);
      }
      break;
  }
  return prog;
}

CandidateProgram SearchEngine::crossover(const CandidateProgram& a,
                                         const CandidateProgram& b,
                                         Rng& rng) const {
  CandidateProgram child;
  const std::size_t prefix = 1 + rng.uniform(a.steps.size());
  const std::size_t suffix = rng.uniform(b.steps.size() + 1);
  child.steps.assign(a.steps.begin(),
                     a.steps.begin() + static_cast<long>(prefix));
  child.steps.insert(child.steps.end(),
                     b.steps.begin() + static_cast<long>(suffix),
                     b.steps.end());
  if (child.steps.size() > static_cast<std::size_t>(kMaxSteps)) {
    child.steps.resize(static_cast<std::size_t>(kMaxSteps));
  }
  return child;
}

SearchResult SearchEngine::run() {
  SearchResult res;
  for (const GfwVariant& v : cfg_.variants) {
    VariantArchive archive;
    archive.variant = v.name;
    res.archives.push_back(std::move(archive));
  }

  // spec -> (per-variant scores, first generation evaluated). Exact, not
  // approximate: trial seeds depend on the spec, never the generation.
  std::map<std::string, std::pair<std::vector<Score>, int>> memo;

  std::vector<CandidateProgram> population = initial_population();
  u64 evals = 0;

  // Archive lineage: how each spec was first produced ("init",
  // "crossover(a x b)+mutate", ...). First writer wins — a spec
  // rediscovered by a different operator keeps its original edge — and
  // specs that reach an archive are emitted as per-generation timeline
  // annotations below.
  std::map<std::string, std::string> lineage;
  for (const CandidateProgram& p : population) {
    lineage.emplace(p.spec(), "init");
  }

  for (int gen = 0; gen < cfg_.generations; ++gen) {
    std::vector<CandidateProgram> fresh;
    std::set<std::string> fresh_specs;
    for (const CandidateProgram& p : population) {
      const std::string spec = p.spec();
      if (memo.count(spec) != 0 || !fresh_specs.insert(spec).second) continue;
      fresh.push_back(p);
    }

    const u64 needed = static_cast<u64>(fresh.size()) * trials_per_program();
    if (cfg_.budget != 0 && gen > 0 && evals + needed > cfg_.budget) break;

    std::unique_ptr<runner::ResultsStore> store;
    if (!cfg_.resume_dir.empty() && !fresh.empty()) {
      std::vector<std::string> specs;
      for (const CandidateProgram& p : fresh) specs.push_back(p.spec());
      store = std::make_unique<runner::ResultsStore>(
          cfg_.resume_dir, store_name(gen), store_signature(gen, specs),
          fresh.size() * trials_per_program());
      if (store->resumed()) res.resumed = true;
    }

    const std::vector<Score> scores = evaluate(fresh, store.get(), &evals);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      std::vector<Score> per_variant(
          scores.begin() + static_cast<long>(i * cfg_.variants.size()),
          scores.begin() + static_cast<long>((i + 1) * cfg_.variants.size()));
      memo.emplace(fresh[i].spec(), std::make_pair(std::move(per_variant), gen));
    }

    for (const CandidateProgram& p : population) {
      const auto& entry = memo.at(p.spec());
      for (std::size_t v = 0; v < cfg_.variants.size(); ++v) {
        ArchiveEntry e;
        e.program = p;
        e.score = entry.first[v];
        e.generation = entry.second;
        e.known_class = classify_known(p);
        res.archives[v].insert(std::move(e));
      }
    }
    res.generations_run = gen + 1;

    // Timeline producers (opt-in): the search front on a generation axis.
    // Everything here is derived from memo'd scores on the orchestrator
    // thread, so the series are bit-identical under --jobs=N.
    if (obs::Timeline* tl = obs::Timeline::current()) {
      constexpr double kScale =
          static_cast<double>(obs::Timeline::kRatioScale);
      for (std::size_t v = 0; v < cfg_.variants.size(); ++v) {
        const obs::TimelineLabels lbl{{"variant", cfg_.variants[v].name}};
        double best = 0.0, best_rob = 0.0, sum = 0.0;
        for (const CandidateProgram& p : population) {
          const Score& s = memo.at(p.spec()).first[v];
          best = std::max(best, s.success);
          best_rob = std::max(best_rob, s.robustness);
          sum += s.success;
        }
        const double mean =
            population.empty() ? 0.0 : sum / static_cast<double>(population.size());
        tl->sample_at("search.best_success", lbl, gen,
                      std::llround(best * kScale));
        tl->sample_at("search.mean_success", lbl, gen,
                      std::llround(mean * kScale));
        tl->sample_at("search.best_robustness", lbl, gen,
                      std::llround(best_rob * kScale));
        tl->sample_at("search.archive_size", lbl, gen,
                      static_cast<i64>(res.archives[v].entries.size()));
        // Lineage edges for this generation's new survivors (entries are
        // stamped with the generation that first evaluated them).
        for (const ArchiveEntry& e : res.archives[v].entries) {
          if (e.generation != gen) continue;
          const auto it = lineage.find(e.program.spec());
          tl->annotate_bucket(
              gen, "lineage",
              cfg_.variants[v].name + ": " + e.program.spec() + " <- " +
                  (it != lineage.end() ? it->second : "unknown"));
        }
      }
    }

    if (cfg_.heartbeat > 0.0) {
      std::fprintf(stderr,
                   "search: generation %d/%d done — %zu new programs, "
                   "%llu trials total\n",
                   gen + 1, cfg_.generations, fresh.size(),
                   static_cast<unsigned long long>(evals));
    }

    if (gen + 1 == cfg_.generations) break;

    // --- breed the next generation -------------------------------------
    // All selection RNG forks off (seed, generation) — never off scores'
    // arrival order — so --jobs=N breeds the exact same children.
    Rng rng(Rng::mix_seed(
        {cfg_.seed, Rng::hash_label("search-gen"), static_cast<u64>(gen)}));

    std::vector<CandidateProgram> next;

    // Elites: round-robin the per-variant archive heads back in, so each
    // variant's current best keeps competing (and keeps its memo hit).
    std::set<std::string> taken;
    for (std::size_t rank = 0;
         static_cast<int>(next.size()) < cfg_.elites; ++rank) {
      bool any = false;
      for (const VariantArchive& archive : res.archives) {
        if (rank >= archive.entries.size()) continue;
        any = true;
        const CandidateProgram& p = archive.entries[rank].program;
        if (!taken.insert(p.spec()).second) continue;
        next.push_back(p);
        if (static_cast<int>(next.size()) >= cfg_.elites) break;
      }
      if (!any) break;
    }

    const auto tournament_pick = [&]() -> const CandidateProgram& {
      std::size_t best = rng.uniform(population.size());
      double best_fitness = fitness_of(memo.at(population[best].spec()).first);
      for (int round = 1; round < cfg_.tournament; ++round) {
        const std::size_t challenger = rng.uniform(population.size());
        const double f =
            fitness_of(memo.at(population[challenger].spec()).first);
        if (f > best_fitness ||
            (f == best_fitness && population[challenger].spec() <
                                      population[best].spec())) {
          best = challenger;
          best_fitness = f;
        }
      }
      return population[best];
    };

    while (static_cast<int>(next.size()) < cfg_.population) {
      // Same draw order as always (pick, crossover?, pick, mutate?); the
      // lineage strings only observe it.
      const CandidateProgram& p1 = tournament_pick();
      CandidateProgram child = p1;
      std::string how;
      if (rng.chance(cfg_.crossover_p)) {
        const CandidateProgram& p2 = tournament_pick();
        child = crossover(child, p2, rng);
        how = "crossover(" + p1.spec() + " x " + p2.spec() + ")";
      }
      if (rng.chance(cfg_.mutation_p)) {
        child = mutate(std::move(child), rng);
        how = how.empty() ? "mutate(" + p1.spec() + ")" : how + "+mutate";
      }
      if (!child.valid()) continue;
      if (how.empty()) how = "reselected " + p1.spec();
      lineage.emplace(child.spec(), how);
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }

  if (cfg_.coevo_rounds > 0) res.coevo = coevolve(res.archives, &evals);
  res.evaluations = evals;
  return res;
}

std::vector<CoevoRound> SearchEngine::coevolve(
    const std::vector<VariantArchive>& archives, u64* evaluations) const {
  // Candidate set: the union of every variant archive, in archive order.
  std::vector<CandidateProgram> progs;
  std::set<std::string> seen;
  for (const VariantArchive& archive : archives) {
    for (const ArchiveEntry& e : archive.entries) {
      if (seen.insert(e.program.spec()).second) progs.push_back(e.program);
    }
  }
  if (progs.empty()) return {};

  const std::vector<CensorResponse>& responses = censor_responses();

  // One grid scores every (program, response) pair; the censor's rounds
  // are then pure post-processing, so a resumed run replays the same grid.
  std::vector<exp::PathProfile> profiles;
  profiles.reserve(responses.size() * servers_.size());
  for (const CensorResponse& r : responses) {
    for (const exp::ServerSpec& server : servers_) {
      exp::PathProfile p = exp::make_path_profile(vp_, server, cal_);
      p.old_model = false;
      if (r.rst_established) p.rst_reaction_established = *r.rst_established;
      profiles.push_back(p);
    }
  }

  runner::TrialGrid grid;
  grid.cells = progs.size();
  grid.vantages = responses.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(cfg_.clean_trials);

  std::unique_ptr<runner::ResultsStore> store;
  if (!cfg_.resume_dir.empty()) {
    std::vector<std::string> parts = {"coevo"};
    for (const CensorResponse& r : responses) parts.push_back(r.name);
    for (const CandidateProgram& p : progs) parts.push_back(p.spec());
    u64 sig = store_signature(/*generation=*/-1, parts);
    store = std::make_unique<runner::ResultsStore>(cfg_.resume_dir,
                                                   "search-coevo", sig,
                                                   grid.total());
  }

  if (evaluations != nullptr) {
    std::size_t already = 0;
    if (store != nullptr) {
      for (std::size_t slot = 0; slot < grid.total(); ++slot) {
        if (store->has(slot)) ++already;
      }
    }
    *evaluations += grid.total() - already;
  }

  runner::PoolOptions pool;
  pool.jobs = cfg_.jobs;
  pool.heartbeat_seconds = cfg_.heartbeat;

  const auto out = runner::collect_grid_or(
      grid, pool, exp::Outcome::kTrialError,
      [&](const runner::GridCoord& c, runner::TaskContext&) {
        const std::size_t slot = grid.index(c);
        if (store != nullptr) {
          if (const auto have = store->get(slot)) {
            return static_cast<exp::Outcome>(*have);
          }
        }
        const CandidateProgram& prog = progs[c.cell];
        const CensorResponse& r = responses[c.vantage];
        exp::ScenarioOptions opt;
        opt.vp = vp_;
        opt.server = servers_[c.server];
        opt.cal = cal_;
        opt.seed = Rng::mix_seed(
            {cfg_.seed, Rng::hash_label(prog.spec()), 0xC0E0ULL,
             Rng::hash_label(r.name), static_cast<u64>(servers_[c.server].ip),
             static_cast<u64>(c.trial)});
        opt.profile = &profiles[c.vantage * servers_.size() + c.server];
        opt.harden = r.harden;
        exp::Scenario sc(rules_, opt);
        exp::HttpTrialOptions http;
        http.with_keyword = true;
        http.strategy_factory = [&prog] { return prog.make_strategy(); };
        const exp::Outcome o = exp::run_http_trial(sc, http).outcome;
        if (store != nullptr) store->put(slot, static_cast<i64>(o));
        return o;
      });

  // success[p][r]
  std::vector<std::vector<double>> success(
      progs.size(), std::vector<double>(responses.size(), 0.0));
  for (std::size_t p = 0; p < progs.size(); ++p) {
    for (std::size_t r = 0; r < responses.size(); ++r) {
      exp::RateTally tally;
      for (std::size_t s = 0; s < grid.servers; ++s) {
        for (std::size_t t = 0; t < grid.trials; ++t) {
          tally.add(out.slots[grid.index({p, r, s, t})]);
        }
      }
      success[p][r] = tally.success_rate();
    }
  }

  // The censor's best-response rounds: each round it deploys the not-yet-
  // chosen response minimizing the current candidates' best success rate;
  // programs at/above the survival threshold carry into the next round.
  std::vector<CoevoRound> rounds;
  std::vector<std::size_t> candidates(progs.size());
  for (std::size_t p = 0; p < progs.size(); ++p) candidates[p] = p;
  std::set<std::size_t> deployed;

  for (int round = 0; round < cfg_.coevo_rounds; ++round) {
    if (candidates.empty() || deployed.size() == responses.size()) break;
    std::size_t pick = responses.size();
    double pick_best = 2.0;
    for (std::size_t r = 0; r < responses.size(); ++r) {
      if (deployed.count(r) != 0) continue;
      double best = 0.0;
      for (std::size_t p : candidates) best = std::max(best, success[p][r]);
      if (best < pick_best) {
        pick_best = best;
        pick = r;
      }
    }
    deployed.insert(pick);

    CoevoRound cr;
    cr.response = responses[pick].name;
    cr.best_success = pick_best;
    std::vector<std::size_t> survivors;
    for (std::size_t p : candidates) {
      if (success[p][pick] >= cfg_.survive_threshold) {
        survivors.push_back(p);
        cr.survivors.push_back(progs[p].spec());
      }
    }
    rounds.push_back(std::move(cr));
    candidates = std::move(survivors);
  }
  return rounds;
}

std::string SearchResult::render() const {
  std::string out;
  for (const VariantArchive& archive : archives) {
    out += "=== Pareto archive: GFW variant '" + archive.variant + "' (" +
           std::to_string(archive.entries.size()) + " programs) ===\n";
    exp::TextTable table(
        {"success", "robust", "cost", "gen", "class", "program"});
    for (const ArchiveEntry& e : archive.entries) {
      table.add_row({exp::pct(e.score.success), exp::pct(e.score.robustness),
                     std::to_string(e.score.cost),
                     std::to_string(e.generation),
                     e.known_class ? *e.known_class : "(novel)",
                     e.program.spec()});
    }
    out += table.render();
    out += "\n";
  }

  if (!coevo.empty()) {
    out += "=== Co-evolution: censor best responses ===\n";
    exp::TextTable table({"round", "censor response", "best success",
                          "survivors"});
    for (std::size_t i = 0; i < coevo.size(); ++i) {
      table.add_row({std::to_string(i + 1), coevo[i].response,
                     exp::pct(coevo[i].best_success),
                     std::to_string(coevo[i].survivors.size())});
    }
    out += table.render();
    for (std::size_t i = 0; i < coevo.size(); ++i) {
      out += "round " + std::to_string(i + 1) + " survivors:";
      if (coevo[i].survivors.empty()) out += " (none)";
      for (const std::string& spec : coevo[i].survivors) out += " " + spec;
      out += "\n";
    }
  }
  return out;
}

}  // namespace ys::search
