// ys::search — the candidate-program grammar (byte-exact spec round-trips
// over the whole primitive grid), the paper-class reference set, Pareto
// archive invariants, and the engine's determinism contracts: --jobs=N
// parity, generation-independent score memoization, budget-as-prefix, and
// slot-level resume from a half-filled checkpoint store.
#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "runner/results_store.h"
#include "search/engine.h"
#include "search/variant.h"
#include "strategy/strategy.h"

namespace ys {
namespace {

using search::ArchiveEntry;
using search::CandidateProgram;
using search::Phase;
using search::Score;
using search::SearchConfig;
using search::SearchEngine;
using search::Step;
using search::StepKind;
using search::VariantArchive;

CandidateProgram parse_ok(const std::string& text) {
  std::string error;
  const auto prog = CandidateProgram::parse(text, &error);
  EXPECT_TRUE(prog.has_value()) << text << ": " << error;
  return prog.value_or(CandidateProgram{});
}

// ---------------------------------------------------------------- grammar

TEST(SearchProgram, PrimitiveGridRoundTripsByteExact) {
  // Satellite: property-style sweep over the full primitive grid. Every
  // valid single step must serialize -> parse -> serialize byte-exactly
  // and compare structurally equal.
  const std::vector<Step> grid = search::primitive_steps();
  ASSERT_GT(grid.size(), 40u);  // phases x kinds x discrepancies x tunings
  std::set<std::string> specs;
  for (const Step& s : grid) {
    const CandidateProgram prog{{s}};
    ASSERT_TRUE(prog.valid());
    const std::string spec = prog.spec();
    EXPECT_TRUE(specs.insert(spec).second) << "duplicate: " << spec;
    const CandidateProgram back = parse_ok(spec);
    EXPECT_EQ(back, prog) << spec;
    EXPECT_EQ(back.spec(), spec) << "not canonical: " << spec;
  }
}

TEST(SearchProgram, RandomCompositionsRoundTripByteExact) {
  // The same property over multi-step programs: random compositions of
  // primitives with randomized repeat and payload tuning.
  const std::vector<Step> grid = search::primitive_steps();
  Rng rng(20170807);
  int checked = 0;
  for (int iter = 0; iter < 500; ++iter) {
    CandidateProgram prog;
    const std::size_t steps = 1 + rng.uniform(search::kMaxSteps);
    for (std::size_t i = 0; i < steps; ++i) {
      Step s = grid[rng.uniform(grid.size())];
      s.repeat = 1 + static_cast<int>(rng.uniform(search::kMaxRepeat));
      if (s.kind == StepKind::kData && rng.chance(0.5)) {
        s.payload = static_cast<int>(rng.uniform(search::kMaxPayload + 1));
      }
      prog.steps.push_back(s);
    }
    ASSERT_TRUE(prog.valid()) << prog.spec();
    const std::string spec = prog.spec();
    const CandidateProgram back = parse_ok(spec);
    EXPECT_EQ(back, prog) << spec;
    EXPECT_EQ(back.spec(), spec) << spec;
    ++checked;
  }
  EXPECT_EQ(checked, 500);
}

TEST(SearchProgram, ParseCanonicalizesSugar) {
  // Suffix tokens in any order, explicit /none, and explicit *1 are all
  // accepted; spec() re-emits one canonical form.
  EXPECT_EQ(parse_ok("data:rst/ttl*1").spec(), "data:rst/ttl");
  EXPECT_EQ(parse_ok("pre:syn/none").spec(), "pre:syn");
  EXPECT_EQ(parse_ok("data:data/none=1+ow").spec(), "data:data+ow=1");
  EXPECT_EQ(parse_ok("data:data+ow=full*2").spec(), "data:data*2+ow=full");
}

TEST(SearchProgram, InvalidSpecsRejectedWithReason) {
  const char* bad[] = {
      "",                        // empty program
      "data:",                   // missing kind
      "mid:rst/ttl",             // unknown phase
      "data:push",               // unknown kind
      "data:rst/warp",           // unknown discrepancy
      "pre:rst/ttl",             // pre-handshake allows syn/synack only
      "pre:syn/ttl+ow",          // pre-handshake steps are in-window
      "data:rst/ttl*0",          // repeat below range
      "data:rst/ttl*10",         // repeat above range
      "data:rst/ttl=64",         // payload on a non-data kind
      "data:data=1461",          // payload above kMaxPayload
      "data:rst;data:rst;data:rst;data:rst;data:rst;data:rst;data:rst",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(CandidateProgram::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(SearchProgram, SeedProgramsAreCanonicalAndClassified) {
  // Every paper class in the seed set parses, is already in canonical
  // form, and classify_known maps it back to its own label.
  for (const auto& seed : search::seed_programs()) {
    const CandidateProgram prog = parse_ok(seed.spec);
    EXPECT_EQ(prog.spec(), seed.spec) << seed.label;
    const auto cls = search::classify_known(prog);
    ASSERT_TRUE(cls.has_value()) << seed.label;
    EXPECT_EQ(*cls, seed.label);
  }
}

TEST(SearchProgram, ClassificationIgnoresRepeatTuning) {
  // Redundancy (§3.4) is a tuning knob, not a class distinction.
  const auto base = search::classify_known(parse_ok("data:rst/ttl*3"));
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(search::classify_known(parse_ok("data:rst/ttl")), base);
  EXPECT_EQ(search::classify_known(parse_ok("data:rst/ttl*9")), base);
  // A composition the paper never wrote down is novel.
  EXPECT_FALSE(
      search::classify_known(parse_ok("pre:synack/bad-checksum;data:fin/md5"))
          .has_value());
}

// ------------------------------------------------- hostile spec input

/// Every canonical spec the repo ships: the paper strategy table and the
/// search's seed population.
std::vector<std::string> canonical_specs() {
  std::vector<std::string> out;
  for (strategy::StrategyId id : strategy::all_strategies()) {
    out.emplace_back(strategy::spec(id));
  }
  for (const auto& seed : search::seed_programs()) out.emplace_back(seed.spec);
  return out;
}

TEST(StrategySpecMutation, CanonicalSpecsRoundTripByteExact) {
  for (const std::string& text : canonical_specs()) {
    EXPECT_EQ(parse_ok(text).spec(), text);
  }
}

TEST(StrategySpecMutation, MutatedSpecsNeverCrashAndRoundTrip) {
  // Splice, flip and truncate bytes of every canonical spec. parse() must
  // either reject with a reason or accept a program whose canonical spec
  // re-parses to the same program, byte-exact.
  const std::vector<std::string> corpus = canonical_specs();
  static constexpr char kAlphabet[] = "predatsynckfgowv/*~+=;:0123456789 \xff";
  Rng rng(20171101);
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string text = corpus[rng.uniform(corpus.size())];
    for (u64 edits = 1 + rng.uniform(3); edits > 0; --edits) {
      const std::size_t at = rng.uniform(text.size() + 1);
      switch (rng.uniform(3)) {
        case 0: {  // splice in a slice of another spec
          const std::string& other = corpus[rng.uniform(corpus.size())];
          const std::size_t from = rng.uniform(other.size());
          text.insert(at, other.substr(from, 1 + rng.uniform(8)));
          break;
        }
        case 1:  // flip one byte
          if (at < text.size()) {
            text[at] = kAlphabet[rng.uniform(sizeof(kAlphabet) - 1)];
          }
          break;
        default:  // truncate
          text.resize(at);
          break;
      }
    }
    std::string error;
    const auto prog = CandidateProgram::parse(text, &error);
    if (!prog) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(prog->valid()) << text;
    const std::string canonical = prog->spec();
    const auto back = CandidateProgram::parse(canonical, &error);
    ASSERT_TRUE(back.has_value()) << text << " -> " << canonical << ": "
                                  << error;
    EXPECT_EQ(*back, *prog) << text;
    EXPECT_EQ(back->spec(), canonical) << text;
  }
  // The mutations must reach the accepting side too, not only errors.
  EXPECT_GT(accepted, 500);
}

TEST(StrategySpecMutation, ExtendedGrammarRejectsMisuse) {
  const char* bad[] = {
      // seg/frag replace the request: no other data-phase step ...
      "data:seg;data:rst/ttl",
      "data:rst/ttl;data:frag",
      "data:seg;data:frag",
      // ... and no discrepancy, repeat, hedge, flag or payload.
      "data:seg/ttl",
      "data:frag*2",
      "data:seg*auto",
      "data:frag~20",
      "data:seg+ow",
      "data:frag+rev",
      "data:seg=full",
      "pre:frag",
      // +rev forges the server's side of an established connection.
      "pre:syn/ttl+rev",
      "pre:synack+rev",
      // The hedge interval is 1..kMaxHedgeMs.
      "data:rst/ttl*3~0",
      "data:rst/ttl*3~101",
      "data:rst/ttl*3~99999",
      "data:rst~",
      "data:rst*auto*3",
      "data:rst+rev+rev",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(CandidateProgram::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }

  // valid() holds the same line for programs built in code.
  using strategy::Discrepancy;
  const auto invalid = [](Step s, const char* what) {
    EXPECT_FALSE(CandidateProgram{{s}}.valid()) << what;
  };
  Step seg;
  seg.kind = StepKind::kSeg;
  seg.disc = Discrepancy::kNone;
  EXPECT_TRUE(CandidateProgram{{seg}}.valid());
  EXPECT_FALSE((CandidateProgram{{seg, Step{}}}.valid()));
  for (auto tweak : {+[](Step& s) { s.disc = Discrepancy::kSmallTtl; },
                     +[](Step& s) { s.repeat = 3; },
                     +[](Step& s) { s.repeat = strategy::kAutoRepeat; },
                     +[](Step& s) { s.hedge_ms = 20; },
                     +[](Step& s) { s.out_of_window = true; },
                     +[](Step& s) { s.payload = 1; }}) {
    Step s = seg;
    tweak(s);
    invalid(s, to_string(s.kind));
  }
  Step rev;
  rev.phase = Phase::kPreHandshake;
  rev.kind = StepKind::kSyn;
  rev.reversed = true;
  invalid(rev, "pre-phase +rev");
  Step hedge;
  hedge.hedge_ms = strategy::kMaxHedgeMs + 1;
  invalid(hedge, "hedge above range");
  hedge.hedge_ms = -1;
  invalid(hedge, "negative hedge");
}

TEST(StrategySpecMutation, SearchNeverDrawsTheExtendedTokens) {
  for (const Step& s : search::primitive_steps()) {
    EXPECT_NE(s.kind, StepKind::kSeg);
    EXPECT_NE(s.kind, StepKind::kFrag);
    EXPECT_EQ(s.hedge_ms, 0);
    EXPECT_FALSE(s.reversed);
    EXPECT_NE(s.repeat, strategy::kAutoRepeat);
  }
}

TEST(SearchProgram, ClassifiesTable1RowsIgnoringAutoAndHedge) {
  using strategy::StrategyId;
  EXPECT_EQ(
      search::classify_known(strategy::program(StrategyId::kTeardownFinTtl)),
      "tcb-teardown");
  EXPECT_EQ(search::classify_known(parse_ok("data:fin/ttl*2")), "tcb-teardown");
  EXPECT_EQ(search::classify_known(parse_ok("data:data/no-flags=full")),
            "in-order-overlap");
  EXPECT_EQ(search::classify_known(parse_ok("pre:syn/bad-checksum")),
            "tcb-creation");
  EXPECT_FALSE(search::classify_known(parse_ok("data:frag")).has_value());
}

TEST(SearchProgram, InsertionCostSumsRepeats) {
  EXPECT_EQ(parse_ok("data:rst/ttl").insertion_cost(), 1);
  EXPECT_EQ(parse_ok("data:rst/ttl*3").insertion_cost(), 3);
  EXPECT_EQ(parse_ok("data:rst/ttl*3;data:data+ow=1").insertion_cost(), 4);
}

TEST(SearchProgram, MakeStrategyCarriesSpecAsName) {
  const CandidateProgram prog = parse_ok("data:rst/ttl*3;data:data+ow=1");
  const auto strat = prog.make_strategy();
  ASSERT_NE(strat, nullptr);
  EXPECT_EQ(strat->name(), "search:data:rst/ttl*3;data:data+ow=1");
  // Factory semantics: every call is a fresh per-connection instance.
  EXPECT_NE(prog.make_strategy().get(), strat.get());
}

// ---------------------------------------------------------------- archive

ArchiveEntry entry(const std::string& spec, double success, double robust) {
  ArchiveEntry e;
  e.program = *CandidateProgram::parse(spec, nullptr);
  e.score = Score{success, robust, e.program.insertion_cost()};
  return e;
}

TEST(SearchArchive, KeepsOnlyNonDominated) {
  VariantArchive archive;
  archive.variant = "unit";
  archive.insert(entry("data:rst/ttl*3", 0.8, 0.6));     // cost 3
  archive.insert(entry("data:rst/bad-ack", 0.6, 0.2));   // dominated later
  archive.insert(entry("data:data/md5=full", 1.0, 0.9)); // cost 1, dominates
  ASSERT_EQ(archive.entries.size(), 1u);
  EXPECT_EQ(archive.entries[0].program.spec(), "data:data/md5=full");

  // A dominated insert bounces without disturbing the archive.
  archive.insert(entry("data:fin/ttl", 0.9, 0.9));
  EXPECT_EQ(archive.entries.size(), 1u);

  // No pair in a populated archive may dominate another.
  VariantArchive mixed;
  mixed.insert(entry("data:rst/ttl*3", 1.0, 0.4));  // best success, cost 3
  mixed.insert(entry("data:fin/ttl", 0.7, 0.9));    // best robustness
  mixed.insert(entry("data:rst/md5", 0.9, 0.5));    // cheap middle ground
  ASSERT_EQ(mixed.entries.size(), 3u);
  for (const auto& a : mixed.entries) {
    for (const auto& b : mixed.entries) {
      EXPECT_FALSE(a.program != b.program && a.score.dominates(b.score))
          << a.program.spec() << " dominates " << b.program.spec();
    }
  }
}

TEST(SearchArchive, ExactTiesCoexistAndDuplicatesDrop) {
  VariantArchive archive;
  archive.insert(entry("data:rst/ttl", 1.0, 1.0));
  archive.insert(entry("data:fin/ttl", 1.0, 1.0));  // tie: neither dominates
  EXPECT_EQ(archive.entries.size(), 2u);
  archive.insert(entry("data:rst/ttl", 1.0, 1.0));  // dup spec: ignored
  EXPECT_EQ(archive.entries.size(), 2u);
  // Deterministic order: success desc, robustness desc, cost asc, spec asc.
  EXPECT_EQ(archive.entries[0].program.spec(), "data:fin/ttl");
  EXPECT_EQ(archive.entries[1].program.spec(), "data:rst/ttl");
}

TEST(SearchArchive, ScoreDominanceIsStrict) {
  const Score a{1.0, 1.0, 1};
  const Score b{1.0, 1.0, 1};
  EXPECT_FALSE(a.dominates(b));
  EXPECT_FALSE(b.dominates(a));
  const Score worse{0.9, 1.0, 1};
  EXPECT_TRUE(a.dominates(worse));
  EXPECT_FALSE(worse.dominates(a));
  const Score cheaper{0.9, 1.0, 0};
  EXPECT_FALSE(a.dominates(cheaper));  // trade-off: both stay
  EXPECT_FALSE(cheaper.dominates(a));
}

// ----------------------------------------------------------------- engine

SearchConfig small_config() {
  SearchConfig cfg;
  cfg.population = 8;
  cfg.generations = 2;
  cfg.seed = 7;
  cfg.servers = 2;
  cfg.clean_trials = 2;
  cfg.faulted_trials = 1;
  cfg.elites = 2;
  cfg.coevo_rounds = 1;
  return cfg;
}

TEST(SearchEngineTest, JobsParityBitIdentical) {
  // Satellite: same seed => identical archives and co-evolution under
  // --jobs=8 vs --jobs=1. render() is wall-clock free by contract.
  SearchConfig serial = small_config();
  serial.jobs = 1;
  SearchConfig parallel = small_config();
  parallel.jobs = 8;
  const search::SearchResult a = SearchEngine(serial).run();
  const search::SearchResult b = SearchEngine(parallel).run();
  EXPECT_EQ(a.render(), b.render());
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.archives.size(), b.archives.size());
  for (std::size_t i = 0; i < a.archives.size(); ++i) {
    EXPECT_EQ(a.archives[i].entries.size(), b.archives[i].entries.size());
  }
}

TEST(SearchEngineTest, BudgetedRunIsPrefixOfUnbudgeted) {
  // The budget check runs between generations, so a budget that affords
  // only generation 0 must reproduce a generations=1 run exactly.
  SearchConfig one_gen = small_config();
  one_gen.generations = 1;
  SearchConfig budgeted = small_config();
  budgeted.generations = 4;
  budgeted.budget = 1;  // gen 0 always runs; nothing else is affordable
  const search::SearchResult ref = SearchEngine(one_gen).run();
  const search::SearchResult cut = SearchEngine(budgeted).run();
  EXPECT_EQ(cut.generations_run, 1);
  EXPECT_EQ(cut.render(), ref.render());
}

TEST(SearchEngineTest, HalfPrefilledStoreResumesSlotLevel) {
  // Satellite: kill-then-resume at slot granularity. Evaluate the
  // generation-0 population once with a checkpoint store, copy HALF the
  // recorded slots into a fresh store (the "killed mid-grid" state), and
  // re-evaluate: scores must be bit-identical and only the missing half
  // may actually run.
  const std::string dir_full = "test_search_resume_full.tmp";
  const std::string dir_half = "test_search_resume_half.tmp";
  std::error_code ec;
  std::filesystem::remove_all(dir_full, ec);
  std::filesystem::remove_all(dir_half, ec);

  const SearchConfig cfg = small_config();
  const SearchEngine engine(cfg);
  const std::vector<CandidateProgram> pop = engine.initial_population();
  ASSERT_EQ(pop.size(), static_cast<std::size_t>(cfg.population));
  std::vector<std::string> specs;
  for (const auto& p : pop) specs.push_back(p.spec());

  const u64 slots = pop.size() * engine.trials_per_program();
  const u64 sig = engine.store_signature(0, specs);
  const std::string name = SearchEngine::store_name(0);

  u64 evals_full = 0;
  std::vector<Score> ref;
  {
    runner::ResultsStore store(dir_full, name, sig, slots);
    ref = engine.evaluate(pop, &store, &evals_full);
    EXPECT_EQ(evals_full, slots);

    runner::ResultsStore half(dir_half, name, sig, slots);
    for (u64 i = 0; i < slots / 2; ++i) {
      const auto v = store.get(i);
      ASSERT_TRUE(v.has_value()) << "slot " << i;
      half.put(i, *v);
    }
  }

  u64 evals_resumed = 0;
  std::vector<Score> resumed;
  {
    runner::ResultsStore half(dir_half, name, sig, slots);
    EXPECT_TRUE(half.resumed());
    resumed = engine.evaluate(pop, &half, &evals_resumed);
  }
  EXPECT_EQ(evals_resumed, slots - slots / 2);
  ASSERT_EQ(resumed.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed[i].success, ref[i].success) << i;
    EXPECT_DOUBLE_EQ(resumed[i].robustness, ref[i].robustness) << i;
    EXPECT_EQ(resumed[i].cost, ref[i].cost) << i;
  }

  std::filesystem::remove_all(dir_full, ec);
  std::filesystem::remove_all(dir_half, ec);
}

TEST(SearchEngineTest, ReplayAttributesThroughStrategyEngine) {
  // An archived spec replays as a first-class strategy: the trace ladder
  // must carry the program's full spec through the kDecision event, which
  // is what `yourstate explain --bench=search` renders.
  const SearchConfig cfg = small_config();
  const SearchEngine engine(cfg);
  const CandidateProgram prog = parse_ok("pre:synack/ttl");
  const exp::Replay replay = engine.replay(prog, 0, 0, 0);
  EXPECT_FALSE(replay.ladder.empty());
  EXPECT_NE(replay.ladder.find("search:pre:synack/ttl"), std::string::npos)
      << replay.ladder;
}

TEST(SearchEngineTest, VariantsShapeTheGrid) {
  const auto variants = search::default_variants();
  ASSERT_EQ(variants.size(), 3u);
  EXPECT_EQ(variants[0].name, "evolved");
  const SearchConfig cfg = small_config();
  const SearchEngine engine(cfg);
  EXPECT_EQ(engine.trials_per_program(),
            variants.size() * static_cast<u64>(cfg.servers) *
                static_cast<u64>(cfg.clean_trials + cfg.faulted_trials));
  // Censor responses exist for co-evolution and include the identity move.
  const auto& responses = search::censor_responses();
  ASSERT_GE(responses.size(), 4u);
  EXPECT_EQ(responses.front().name, "none");
}

}  // namespace
}  // namespace ys
