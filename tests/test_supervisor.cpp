// ys::supervisor — shard supervision, checkpoint hardening, and merge
// coverage.
//
// The process-level suites (SupervisorProcess) drive supervise() with
// /bin/sh children so crash, hang, restart-with-backoff, and degradation
// are exercised against real fork/exec/waitpid mechanics without paying
// for a fleet sweep per attempt. The merge suites (SupervisorMerge) run
// real in-process shard sweeps and assert the core contract: a sharded
// sweep's merged slots are bit-identical to an unsharded one, and a
// missing shard degrades into honestly-labelled partial coverage.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "fleet/fleet_config.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/timeline_export.h"
#include "runner/results_store.h"
#include "supervisor/shard_child.h"
#include "supervisor/supervisor.h"

namespace ys {
namespace {

struct TempDir {
  std::string path;
  explicit TempDir(std::string name) : path(std::move(name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spew(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

void append_raw(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << text;
}

int count_events(const supervisor::SupervisorResult& r,
                 supervisor::ShardEvent::Kind kind) {
  int n = 0;
  for (const auto& e : r.events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// ------------------------------------------------------------ partitioning

TEST(SupervisorPartition, EvenSplitCoversAxisContiguously) {
  const auto parts = supervisor::partition_vantages(8, 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts.front().vantage_begin, 0u);
  EXPECT_EQ(parts.back().vantage_end, 8u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].shard, static_cast<int>(i));
    EXPECT_EQ(parts[i].vantage_end - parts[i].vantage_begin, 2u);
    if (i > 0) {
      EXPECT_EQ(parts[i].vantage_begin, parts[i - 1].vantage_end);
    }
  }
}

TEST(SupervisorPartition, MoreShardsThanVantagesRenumbersDensely) {
  const auto parts = supervisor::partition_vantages(3, 8);
  ASSERT_EQ(parts.size(), 3u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].shard, static_cast<int>(i));
    EXPECT_EQ(parts[i].vantage_end - parts[i].vantage_begin, 1u);
  }
}

TEST(SupervisorPartition, NonPositiveShardCountMeansOneShard) {
  for (int shards : {0, -3}) {
    const auto parts = supervisor::partition_vantages(5, shards);
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0].vantage_begin, 0u);
    EXPECT_EQ(parts[0].vantage_end, 5u);
  }
}

TEST(SupervisorPartition, ZeroVantagesYieldsNoShards) {
  EXPECT_TRUE(supervisor::partition_vantages(0, 4).empty());
}

// The CLI and the merge both treat parts.size() as the canonical shard
// count: re-partitioning with the dense count must reproduce the same
// partition even when empty slices were dropped.
TEST(SupervisorPartition, DenseCountIsCanonical) {
  const std::pair<std::size_t, int> cases[] = {
      {4, 8}, {5, 3}, {1, 4}, {7, 7}, {12, 5}, {2, 16}};
  for (const auto& [vantages, shards] : cases) {
    const auto parts = supervisor::partition_vantages(vantages, shards);
    const auto again = supervisor::partition_vantages(
        vantages, static_cast<int>(parts.size()));
    ASSERT_EQ(again.size(), parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      EXPECT_EQ(again[i].shard, parts[i].shard);
      EXPECT_EQ(again[i].vantage_begin, parts[i].vantage_begin);
      EXPECT_EQ(again[i].vantage_end, parts[i].vantage_end);
    }
  }
}

// ------------------------------------------------------------ chaos clauses

TEST(SupervisorChaos, ParsesInlineShardClauses) {
  std::string error;
  const faults::FaultPlan plan = faults::parse_fault_plan(
      "shard-kill:shard=1,after=30;shard-stall:shard=0,after=40,attempts=2;"
      "shard-slow-heartbeat:shard=2,factor=3",
      error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(plan.shard_chaos.size(), 3u);
  EXPECT_FALSE(plan.empty());

  const auto& kill = plan.shard_chaos[0];
  EXPECT_EQ(kill.kind, faults::ShardChaos::Kind::kKill);
  EXPECT_EQ(kill.shard, 1);
  EXPECT_EQ(kill.after, 30);
  EXPECT_EQ(kill.attempts, 1);  // default: misbehave on the first attempt

  const auto& stall = plan.shard_chaos[1];
  EXPECT_EQ(stall.kind, faults::ShardChaos::Kind::kStall);
  EXPECT_EQ(stall.shard, 0);
  EXPECT_EQ(stall.attempts, 2);

  const auto& slow = plan.shard_chaos[2];
  EXPECT_EQ(slow.kind, faults::ShardChaos::Kind::kSlowHeartbeat);
  EXPECT_DOUBLE_EQ(slow.factor, 3.0);
}

TEST(SupervisorChaos, ClauseDefaultsAreSeeded) {
  std::string error;
  const faults::FaultPlan plan =
      faults::parse_fault_plan("shard-kill:attempts=2", error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(plan.shard_chaos.size(), 1u);
  EXPECT_EQ(plan.shard_chaos[0].shard, 0);
  // after < 0 = derive the trigger point from the sweep seed.
  EXPECT_LT(plan.shard_chaos[0].after, 0);
  EXPECT_EQ(plan.shard_chaos[0].attempts, 2);
}

TEST(SupervisorChaos, SummaryNamesEveryClause) {
  std::string error;
  const faults::FaultPlan plan = faults::parse_fault_plan(
      "shard-kill:shard=1,after=30;shard-stall:shard=0", error);
  ASSERT_TRUE(error.empty()) << error;
  const std::string s = plan.summary();
  EXPECT_NE(s.find("shard-kill[shard=1 after=30 x1]"), std::string::npos) << s;
  EXPECT_NE(s.find("shard-stall[shard=0 after=seeded x1]"), std::string::npos)
      << s;
}

TEST(SupervisorChaos, RejectsUnknownShardClause) {
  std::string error;
  const faults::FaultPlan plan =
      faults::parse_fault_plan("shard-explode:shard=0", error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(plan.empty());
}

TEST(SupervisorChaos, JsonShardChaosRoundTrip) {
  TempDir dir("test_supervisor_chaos.tmp");
  const std::string path = dir.path + "/chaos.json";
  spew(path,
       "{\"shard_chaos\":[{\"kind\":\"stall\",\"shard\":1,\"after\":12,"
       "\"attempts\":2},{\"kind\":\"slow-heartbeat\",\"factor\":2.5}]}");
  std::string error;
  const faults::FaultPlan plan = faults::parse_fault_plan("@" + path, error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(plan.shard_chaos.size(), 2u);
  EXPECT_EQ(plan.shard_chaos[0].kind, faults::ShardChaos::Kind::kStall);
  EXPECT_EQ(plan.shard_chaos[0].shard, 1);
  EXPECT_EQ(plan.shard_chaos[0].after, 12);
  EXPECT_EQ(plan.shard_chaos[1].kind,
            faults::ShardChaos::Kind::kSlowHeartbeat);
  EXPECT_DOUBLE_EQ(plan.shard_chaos[1].factor, 2.5);

  spew(path, "{\"shard_chaos\":[{\"kind\":\"explode\"}]}");
  const faults::FaultPlan bad = faults::parse_fault_plan("@" + path, error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(bad.empty());
}

// ----------------------------------------------- checkpoint-store hardening

TEST(SupervisorStore, TornTailDroppedAndRewritten) {
  TempDir dir("test_supervisor_store_torn.tmp");
  const u64 sig = runner::ResultsStore::signature_of({"torn", "tail"});
  std::string path;
  {
    runner::ResultsStore st(dir.path, "bench", sig, 20);
    for (std::size_t s = 0; s < 10; ++s) {
      st.put(s, static_cast<i64>(100 + s));
    }
    path = st.path();
  }
  // Tear the final record the way a kill mid-write does: "9 109\n" loses
  // its last bytes, leaving a value-truncated line with no newline.
  std::string text = slurp(path);
  ASSERT_GT(text.size(), 3u);
  text.resize(text.size() - 3);
  spew(path, text);
  {
    runner::ResultsStore st(dir.path, "bench", sig, 20);
    EXPECT_TRUE(st.resumed());
    EXPECT_EQ(st.recorded(), 9u);
    EXPECT_FALSE(st.has(9));  // the torn slot re-runs
    EXPECT_EQ(st.get(8).value_or(-1), 108);
  }
  // The reload rewrote a verified-only file: a third open is clean.
  {
    runner::ResultsStore st(dir.path, "bench", sig, 20);
    EXPECT_EQ(st.recorded(), 9u);
    EXPECT_EQ(slurp(path).find("9 1"), std::string::npos);
  }
}

TEST(SupervisorStore, GarbageLineDropsUnverifiableTail) {
  TempDir dir("test_supervisor_store_garbage.tmp");
  const u64 sig = runner::ResultsStore::signature_of({"garbage"});
  std::string path;
  {
    runner::ResultsStore st(dir.path, "bench", sig, 20);
    for (std::size_t s = 0; s < 5; ++s) st.put(s, static_cast<i64>(s));
    path = st.path();
  }
  // A corrupt line invalidates everything after it, even well-formed
  // records — anything past a torn write is unverifiable.
  append_raw(path, "not a record\n15 7\n");
  runner::ResultsStore st(dir.path, "bench", sig, 20);
  EXPECT_EQ(st.recorded(), 5u);
  EXPECT_FALSE(st.has(15));
}

TEST(SupervisorStore, OutOfRangeSlotDropsTail) {
  TempDir dir("test_supervisor_store_range.tmp");
  const u64 sig = runner::ResultsStore::signature_of({"range"});
  std::string path;
  {
    runner::ResultsStore st(dir.path, "bench", sig, 20);
    st.put(0, 1);
    st.put(1, 2);
    path = st.path();
  }
  append_raw(path, "999 5\n2 3\n");
  runner::ResultsStore st(dir.path, "bench", sig, 20);
  EXPECT_EQ(st.recorded(), 2u);
  EXPECT_FALSE(st.has(2));
}

TEST(SupervisorStore, HeaderMismatchStartsFresh) {
  TempDir dir("test_supervisor_store_header.tmp");
  const u64 sig_a = runner::ResultsStore::signature_of({"run", "a"});
  const u64 sig_b = runner::ResultsStore::signature_of({"run", "b"});
  {
    runner::ResultsStore st(dir.path, "bench", sig_a, 20);
    st.put(0, 42);
  }
  runner::ResultsStore st(dir.path, "bench", sig_b, 20);
  EXPECT_FALSE(st.resumed());
  EXPECT_EQ(st.recorded(), 0u);
}

TEST(SupervisorStore, LiveOwnerConflicts) {
  TempDir dir("test_supervisor_store_lock.tmp");
  const u64 sig = runner::ResultsStore::signature_of({"lock"});
  {
    runner::ResultsStore owner(dir.path, "bench", sig, 20);
    ASSERT_FALSE(owner.conflict());
    owner.put(0, 7);
    // Second opener while the owner lives: hard conflict, inert store.
    runner::ResultsStore intruder(dir.path, "bench", sig, 20);
    EXPECT_TRUE(intruder.conflict());
    EXPECT_EQ(intruder.conflict_pid(), static_cast<long>(::getpid()));
    EXPECT_EQ(intruder.recorded(), 0u);  // nothing loaded
    intruder.put(1, 8);                  // memory-only, never hits the file
  }
  // Owner gone (lock unlinked): a sequential reopen resumes cleanly and
  // never saw the intruder's write.
  runner::ResultsStore later(dir.path, "bench", sig, 20);
  EXPECT_FALSE(later.conflict());
  EXPECT_TRUE(later.resumed());
  EXPECT_EQ(later.recorded(), 1u);
  EXPECT_FALSE(later.has(1));
}

TEST(SupervisorStore, StaleLockFromDeadPidIsStolen) {
  TempDir dir("test_supervisor_store_stale.tmp");
  const u64 sig = runner::ResultsStore::signature_of({"stale"});
  // Pid far above any kernel pid_max: guaranteed dead.
  spew(dir.path + "/bench.results.lock", "pid 2000000000 sig=0\n");
  runner::ResultsStore st(dir.path, "bench", sig, 20);
  EXPECT_FALSE(st.conflict());
  st.put(0, 1);
  EXPECT_TRUE(st.has(0));
  // The stolen lock now carries our pid.
  EXPECT_NE(slurp(st.lock_path()).find("pid " + std::to_string(::getpid())),
            std::string::npos);
}

TEST(SupervisorStore, ReadOnlyReaderIgnoresLiveLock) {
  TempDir dir("test_supervisor_store_ro.tmp");
  const u64 sig = runner::ResultsStore::signature_of({"ro"});
  runner::ResultsStore owner(dir.path, "bench", sig, 20);
  owner.put(3, 33);
  runner::ResultsStore reader(dir.path, "bench", sig, 20,
                              runner::ResultsStore::Mode::kReadOnly);
  EXPECT_FALSE(reader.conflict());
  EXPECT_EQ(reader.get(3).value_or(-1), 33);
  // And the owner keeps working — the reader took no lock.
  owner.put(4, 44);
  EXPECT_TRUE(owner.has(4));
}

// --------------------------------------------------- process supervision

TEST(SupervisorProcess, HealthyShardsRunOnceAndFinish) {
  TempDir dir("test_supervisor_proc_ok.tmp");
  supervisor::SupervisorOptions opt;
  opt.max_restarts = 1;
  opt.heartbeat_seconds = 0.05;
  opt.resume_dir = dir.path;
  const auto build = [](const supervisor::ShardPartition&, int,
                        int fd) -> std::vector<std::string> {
    char script[160];
    std::snprintf(script, sizeof(script),
                  "printf 'HB 1 3\\nHB 2 3\\nHB 3 3\\n' >&%d; exit 0", fd);
    return {"/bin/sh", "-c", script};
  };
  const auto res =
      supervisor::supervise(supervisor::partition_vantages(2, 2), opt, build);
  EXPECT_TRUE(res.all_complete());
  EXPECT_EQ(res.degraded_count(), 0);
  EXPECT_EQ(res.restart_count(), 0);
  ASSERT_EQ(res.shards.size(), 2u);
  for (const auto& s : res.shards) {
    EXPECT_EQ(s.state, supervisor::ShardStatus::State::kDone);
    EXPECT_EQ(s.attempts, 1);
    EXPECT_EQ(s.done, 3u);
    EXPECT_EQ(s.total, 3u);
    EXPECT_FALSE(s.progress.empty());
  }
  EXPECT_EQ(count_events(res, supervisor::ShardEvent::Kind::kSpawn), 2);
  EXPECT_EQ(count_events(res, supervisor::ShardEvent::Kind::kDone), 2);

  // The manifest landed on disk as valid JSON for `yourstate shard-status`.
  const std::string manifest = slurp(dir.path + "/supervisor-state.json");
  EXPECT_NE(manifest.find("ys.supervisor.v1"), std::string::npos);
  EXPECT_NE(manifest.find("\"state\":\"done\""), std::string::npos);
  EXPECT_TRUE(json::parse(manifest).has_value());
}

TEST(SupervisorProcess, ManifestIsReplacedNotRewrittenInPlace) {
  TempDir dir("test_supervisor_manifest_swap.tmp");
  const std::string manifest = dir.path + "/supervisor-state.json";
  const std::string stale = "{\"schema\":\"ys.supervisor.v1\",\"stale\":true}\n";
  spew(manifest, stale);
  // A second name for the old file stands in for a reader that opened it
  // before the sweep: a swap leaves that reader a complete document, an
  // in-place rewrite truncates it under the reader.
  std::filesystem::create_hard_link(manifest, dir.path + "/reader-view.json");

  supervisor::SupervisorOptions opt;
  opt.heartbeat_seconds = 0.05;
  opt.resume_dir = dir.path;
  const auto build = [](const supervisor::ShardPartition&, int,
                        int fd) -> std::vector<std::string> {
    char script[96];
    std::snprintf(script, sizeof(script), "printf 'HB 1 1\\n' >&%d; exit 0",
                  fd);
    return {"/bin/sh", "-c", script};
  };
  const auto res =
      supervisor::supervise(supervisor::partition_vantages(2, 2), opt, build);
  EXPECT_TRUE(res.all_complete());

  EXPECT_EQ(slurp(dir.path + "/reader-view.json"), stale);
  const std::string text = slurp(manifest);
  EXPECT_NE(text, stale);
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  ASSERT_NE(doc->find("shards"), nullptr);
  EXPECT_EQ(doc->find("shards")->array.size(), 2u);
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == "supervisor-state.json" || name == "reader-view.json")
        << "left behind: " << name;
  }
}

TEST(SupervisorProcess, CrashRestartsWithBackoffThenCompletes) {
  supervisor::SupervisorOptions opt;
  opt.max_restarts = 2;
  opt.heartbeat_seconds = 0.05;
  opt.backoff_base_seconds = 0.01;
  const auto build = [](const supervisor::ShardPartition&, int attempt,
                        int fd) -> std::vector<std::string> {
    char script[160];
    if (attempt == 0) {
      std::snprintf(script, sizeof(script), "exit 9");
    } else {
      std::snprintf(script, sizeof(script), "printf 'HB 4 4\\n' >&%d; exit 0",
                    fd);
    }
    return {"/bin/sh", "-c", script};
  };
  const auto res =
      supervisor::supervise(supervisor::partition_vantages(1, 1), opt, build);
  EXPECT_TRUE(res.all_complete());
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_EQ(res.shards[0].attempts, 2);
  EXPECT_EQ(res.restart_count(), 1);
  EXPECT_EQ(count_events(res, supervisor::ShardEvent::Kind::kCrash), 1);
  EXPECT_EQ(count_events(res, supervisor::ShardEvent::Kind::kRestart), 1);
  EXPECT_EQ(count_events(res, supervisor::ShardEvent::Kind::kDone), 1);
}

TEST(SupervisorProcess, HangIsKilledAndRestarted) {
  supervisor::SupervisorOptions opt;
  opt.max_restarts = 2;
  opt.heartbeat_seconds = 0.05;
  opt.grace = 3.0;  // hang deadline at 0.15 s of silence
  opt.backoff_base_seconds = 0.01;
  const auto build = [](const supervisor::ShardPartition&, int attempt,
                        int fd) -> std::vector<std::string> {
    char script[160];
    if (attempt == 0) {
      // One heartbeat, then wedge. `exec` so the SIGKILL hits the sleeper
      // itself, not just its shell.
      std::snprintf(script, sizeof(script),
                    "printf 'HB 1 4\\n' >&%d; exec sleep 30", fd);
    } else {
      std::snprintf(script, sizeof(script), "printf 'HB 4 4\\n' >&%d; exit 0",
                    fd);
    }
    return {"/bin/sh", "-c", script};
  };
  const auto res =
      supervisor::supervise(supervisor::partition_vantages(1, 1), opt, build);
  EXPECT_TRUE(res.all_complete());
  EXPECT_EQ(res.restart_count(), 1);
  EXPECT_GE(count_events(res, supervisor::ShardEvent::Kind::kHang), 1);
}

TEST(SupervisorProcess, ZeroBudgetDegradesHonestly) {
  TempDir dir("test_supervisor_proc_degraded.tmp");
  supervisor::SupervisorOptions opt;
  opt.max_restarts = 0;
  opt.heartbeat_seconds = 0.05;
  opt.resume_dir = dir.path;
  const auto build = [](const supervisor::ShardPartition&, int,
                        int) -> std::vector<std::string> {
    return {"/bin/sh", "-c", "exit 7"};
  };
  const auto res =
      supervisor::supervise(supervisor::partition_vantages(1, 1), opt, build);
  EXPECT_FALSE(res.all_complete());
  EXPECT_EQ(res.degraded_count(), 1);
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_EQ(res.shards[0].state, supervisor::ShardStatus::State::kDegraded);
  EXPECT_EQ(res.shards[0].attempts, 1);  // one attempt, no retries
  EXPECT_NE(res.shards[0].exit_status, 0);
  EXPECT_EQ(count_events(res, supervisor::ShardEvent::Kind::kCrash), 1);
  EXPECT_EQ(count_events(res, supervisor::ShardEvent::Kind::kDegraded), 1);
  EXPECT_NE(slurp(dir.path + "/supervisor-state.json")
                .find("\"state\":\"degraded\""),
            std::string::npos);
}

// ------------------------------------------------------- merge + coverage

fleet::FleetConfig small_fleet() {
  std::string error;
  const fleet::FleetConfig cfg = fleet::parse_fleet_config(
      "clients=3;flows=12;servers=3;vantages=2;arrival=40;churn=0.1", error);
  EXPECT_TRUE(error.empty()) << error;
  return cfg;
}

TEST(SupervisorMerge, ShardSignaturesAreCoordinateKeyed) {
  const fleet::FleetConfig cfg = small_fleet();
  EXPECT_NE(supervisor::shard_signature(cfg, 0, 2),
            supervisor::shard_signature(cfg, 1, 2));
  EXPECT_NE(supervisor::shard_signature(cfg, 0, 2),
            supervisor::shard_signature(cfg, 0, 3));
  EXPECT_EQ(supervisor::shard_bench_name(1), "fleet-shard-1");
}

TEST(SupervisorMerge, BadShardSpecRejected) {
  TempDir dir("test_supervisor_merge_badspec.tmp");
  supervisor::FleetShardOptions opt;
  opt.cfg = small_fleet();
  opt.resume_dir = dir.path;
  opt.shard = 5;
  opt.shards = 2;
  EXPECT_EQ(supervisor::run_shard_child(opt), 2);
}

TEST(SupervisorMerge, ConflictingStoreOwnerRejected) {
  TempDir dir("test_supervisor_merge_conflict.tmp");
  const fleet::FleetConfig cfg = small_fleet();
  const fleet::Fleet fl(cfg);
  runner::ResultsStore holder(dir.path, supervisor::shard_bench_name(0),
                              supervisor::shard_signature(cfg, 0, 2),
                              fl.grid().total());
  ASSERT_FALSE(holder.conflict());
  supervisor::FleetShardOptions opt;
  opt.cfg = cfg;
  opt.resume_dir = dir.path;
  opt.shard = 0;
  opt.shards = 2;
  EXPECT_EQ(supervisor::run_shard_child(opt), 3);
}

TEST(SupervisorMerge, ShardedSlotsMatchUnsharded) {
  const fleet::FleetConfig cfg = small_fleet();
  const fleet::Fleet fl(cfg);
  TempDir one("test_supervisor_merge_one.tmp");
  TempDir two("test_supervisor_merge_two.tmp");
  obs::MetricsRegistry scratch;
  {
    obs::ScopedMetricsRegistry scope(&scratch);
    supervisor::FleetShardOptions opt;
    opt.cfg = cfg;
    opt.resume_dir = one.path;
    opt.shard = 0;
    opt.shards = 1;
    ASSERT_EQ(supervisor::run_shard_child(opt), 0);
    for (int s = 0; s < 2; ++s) {
      supervisor::FleetShardOptions so;
      so.cfg = cfg;
      so.resume_dir = two.path;
      so.shard = s;
      so.shards = 2;
      ASSERT_EQ(supervisor::run_shard_child(so), 0);
    }
  }
  const auto ma = supervisor::merge_shard_stores(fl, one.path, 1);
  const auto mb = supervisor::merge_shard_stores(fl, two.path, 2);
  EXPECT_EQ(ma.missing, 0u);
  EXPECT_EQ(mb.missing, 0u);
  ASSERT_EQ(ma.slots.size(), fl.grid().total());
  EXPECT_EQ(ma.slots, mb.slots);  // shard count cannot change any result

  const fleet::Fleet::Report rep = fl.analyze(mb.slots);
  EXPECT_EQ(rep.total_flows, fl.grid().total());
  EXPECT_EQ(rep.missing_flows, 0u);
  EXPECT_DOUBLE_EQ(rep.coverage(), 1.0);
}

TEST(SupervisorMerge, MissingShardLeavesLabeledHoles) {
  const fleet::FleetConfig cfg = small_fleet();
  const fleet::Fleet fl(cfg);
  const runner::TrialGrid grid = fl.grid();
  TempDir dir("test_supervisor_merge_holes.tmp");
  obs::MetricsRegistry scratch;
  {
    obs::ScopedMetricsRegistry scope(&scratch);
    supervisor::FleetShardOptions opt;
    opt.cfg = cfg;
    opt.resume_dir = dir.path;
    opt.shard = 0;
    opt.shards = 2;  // shard 1 never runs: a permanently degraded shard
    ASSERT_EQ(supervisor::run_shard_child(opt), 0);
  }
  const auto parts = supervisor::partition_vantages(grid.vantages, 2);
  ASSERT_EQ(parts.size(), 2u);
  const auto merge = supervisor::merge_shard_stores(fl, dir.path, 2);
  const std::size_t hole_begin = parts[1].vantage_begin * grid.trials;
  EXPECT_EQ(merge.missing, grid.total() - hole_begin);
  ASSERT_EQ(merge.missing_per_shard.size(), 2u);
  EXPECT_EQ(merge.missing_per_shard[0], 0u);
  EXPECT_EQ(merge.missing_per_shard[1], merge.missing);
  for (std::size_t s = 0; s < merge.slots.size(); ++s) {
    if (s < hole_begin) {
      EXPECT_GE(merge.slots[s], 0) << "slot " << s;
    } else {
      EXPECT_LT(merge.slots[s], 0) << "slot " << s;
    }
  }

  const fleet::Fleet::Report rep = fl.analyze(merge.slots);
  EXPECT_EQ(rep.missing_flows, merge.missing);
  EXPECT_LT(rep.coverage(), 1.0);
  EXPECT_GT(rep.coverage(), 0.0);
  ASSERT_EQ(rep.vantages.size(), grid.vantages);
  EXPECT_EQ(rep.vantages[0].missing, 0u);
  EXPECT_GT(rep.vantages[1].missing, 0u);
  EXPECT_NE(rep.render().find("PARTIAL COVERAGE"), std::string::npos);
}

TEST(SupervisorMerge, RebuildTelemetryMatchesLiveCounters) {
  const fleet::FleetConfig cfg = small_fleet();
  const fleet::Fleet fl(cfg);
  TempDir dir("test_supervisor_merge_rebuild.tmp");
  obs::MetricsRegistry live;
  {
    obs::ScopedMetricsRegistry scope(&live);
    supervisor::FleetShardOptions opt;
    opt.cfg = cfg;
    opt.resume_dir = dir.path;
    opt.shard = 0;
    opt.shards = 1;
    ASSERT_EQ(supervisor::run_shard_child(opt), 0);
  }
  const auto merge = supervisor::merge_shard_stores(fl, dir.path, 1);
  ASSERT_EQ(merge.missing, 0u);

  obs::MetricsRegistry rebuilt;
  obs::Timeline tl{SimTime::from_ms(500)};
  {
    obs::ScopedMetricsRegistry scope(&rebuilt);
    fl.rebuild_telemetry(merge.slots, &tl);
  }
  EXPECT_EQ(rebuilt.counter("fleet.flows").value(), fl.grid().total());
  EXPECT_FALSE(tl.empty());
  // Every fleet.* counter the live sweep published must be recounted
  // exactly — including zero-valued ones, so metric snapshots stay
  // byte-identical across the supervised and unsharded paths.
  for (const char* name :
       {"fleet.flows", "fleet.flow_success", "fleet.flow_failure1",
        "fleet.flow_failure2", "fleet.flow_trial_error", "fleet.cache_hit",
        "fleet.cross_client_supply", "fleet.fresh_session"}) {
    EXPECT_EQ(rebuilt.counter(name).value(), live.counter(name).value())
        << name;
  }
}

TEST(SupervisorMerge, CoverageAnnotationOnlyWhenHoles) {
  obs::Timeline tl{SimTime::from_sec(1)};
  supervisor::ShardMerge full;
  full.slots = {1, 2};
  supervisor::annotate_coverage(full, &tl);
  EXPECT_TRUE(tl.empty());  // a full recovery leaves the timeline untouched

  supervisor::ShardMerge holey;
  holey.slots = {1, -1};
  holey.missing = 1;
  supervisor::annotate_coverage(holey, &tl);
  supervisor::annotate_coverage(holey, &tl);  // idempotent (annotation dedup)
  ASSERT_EQ(tl.annotations().size(), 1u);
  const obs::TimelineAnnotation& a = *tl.annotations().begin();
  EXPECT_EQ(a.category, "coverage");
  EXPECT_NE(a.text.find("1/2 flows recorded (1 missing)"), std::string::npos);
  supervisor::annotate_coverage(holey, nullptr);  // null timeline: no-op
}

// ------------------------------------------------------- report surfaces

supervisor::SupervisorResult synthetic_lifecycle() {
  supervisor::SupervisorResult res;
  supervisor::ShardStatus st;
  st.state = supervisor::ShardStatus::State::kDone;
  st.part = {0, 0, 1};
  st.attempts = 2;
  st.restarts = 1;
  st.done = 4;
  st.total = 4;
  st.progress = {{0.1, 1}, {0.3, 2}, {0.6, 4}};
  res.shards.push_back(st);
  res.wall_seconds = 0.7;
  const auto ev = [](supervisor::ShardEvent::Kind kind, int attempt,
                     double at, std::string detail) {
    supervisor::ShardEvent e;
    e.kind = kind;
    e.shard = 0;
    e.attempt = attempt;
    e.at = at;
    e.detail = std::move(detail);
    return e;
  };
  res.events = {ev(supervisor::ShardEvent::Kind::kSpawn, 0, 0.0, "pid 100"),
                ev(supervisor::ShardEvent::Kind::kCrash, 0, 0.2, "signal 9"),
                ev(supervisor::ShardEvent::Kind::kRestart, 0, 0.2,
                   "backoff 0.10s"),
                ev(supervisor::ShardEvent::Kind::kSpawn, 1, 0.3, "pid 101"),
                ev(supervisor::ShardEvent::Kind::kDone, 1, 0.7, "")};
  return res;
}

TEST(SupervisorReport, ManifestIsValidJson) {
  supervisor::SupervisorResult res = synthetic_lifecycle();
  res.events[1].detail = "exit \"we\\ird\"";  // must survive JSON escaping
  const std::string manifest = supervisor::manifest_json(res);
  const auto doc = json::parse(manifest);
  ASSERT_TRUE(doc.has_value()) << manifest;
  const json::Value* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "ys.supervisor.v1");
  const json::Value* shards = doc->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->array.size(), 1u);
  const json::Value* state = shards->array[0].find("state");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->string, "done");
  const json::Value* events = doc->find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array.size(), 5u);
}

TEST(SupervisorReport, SummaryTableNamesStatesAndRestarts) {
  const std::string s = supervisor::render_summary(synthetic_lifecycle());
  EXPECT_NE(s.find("shard  vantages  state"), std::string::npos) << s;
  EXPECT_NE(s.find("done"), std::string::npos) << s;
  EXPECT_NE(s.find("1 restart(s), 0 degraded"), std::string::npos) << s;
}

TEST(SupervisorReport, TimelineCarriesLifecycleSeries) {
  obs::Timeline tl{SimTime::from_ms(500)};
  supervisor::record_timeline(synthetic_lifecycle(), &tl);
  EXPECT_FALSE(tl.empty());
  const obs::TimelineSeriesKey spawn_key{
      "supervisor.spawn", {{"axis", "wall"}, {"shard", "0"}}};
  ASSERT_EQ(tl.series().count(spawn_key), 1u);
  i64 spawns = 0;
  for (const auto& [bucket, v] : tl.series().at(spawn_key).buckets) {
    spawns += v.sum;
  }
  EXPECT_EQ(spawns, 2);
  // Everything rides the wall axis under the "supervisor." prefix, so
  // virtual-time digest parity checks can exclude it wholesale.
  for (const auto& [key, series] : tl.series()) {
    EXPECT_EQ(key.name.rfind("supervisor.", 0), 0u) << key.name;
    EXPECT_EQ(key.labels.count("axis"), 1u);
  }
  supervisor::record_timeline(synthetic_lifecycle(), nullptr);  // no-op
}

TEST(SupervisorReport, HtmlShowsShardLifecycleAndPartialCoverage) {
  obs::Timeline tl{SimTime::from_ms(500)};
  supervisor::record_timeline(synthetic_lifecycle(), &tl);
  supervisor::ShardMerge holey;
  holey.slots.assign(4, -1);
  holey.slots[0] = 1;
  holey.slots[1] = 1;
  holey.missing = 2;
  supervisor::annotate_coverage(holey, &tl);

  std::string error;
  const auto doc = obs::parse_timeline_json(obs::timeline_to_json(tl), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const std::string html =
      obs::render_timeline_html(*doc, obs::ReportOptions{});
  EXPECT_NE(html.find("Shard lifecycle"), std::string::npos);
  EXPECT_NE(html.find("Shard progress"), std::string::npos);
  EXPECT_NE(html.find("Event log"), std::string::npos);
  EXPECT_NE(html.find("partial coverage: 2/4 flows recorded (2 missing)"),
            std::string::npos);
  EXPECT_NE(html.find("shard 0 crash (signal 9)"), std::string::npos);
}

}  // namespace
}  // namespace ys
