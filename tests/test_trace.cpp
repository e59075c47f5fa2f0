// Structured causal tracing: golden traces per GFW model (causal links
// from state transitions and injected resets back to their trigger
// packets), verdict attribution, Chrome trace-export round-trip, and
// flight-recorder replay determinism.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "core/json.h"
#include "exp/benchdef.h"
#include "exp/explain.h"
#include "exp/scenario.h"
#include "exp/trial.h"
#include "gfw/gfw_device.h"
#include "netsim/event_loop.h"
#include "netsim/path.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "runner/runner.h"

namespace ys {
namespace {

using namespace ys::exp;

const net::FourTuple kTuple{net::make_ip(10, 0, 0, 1), 40000,
                            net::make_ip(93, 184, 216, 34), 80};

// --------------------------------------------------------------- golden rig

/// A real Path with one GFW device tapped at hop 5, fully traced. Packets
/// get their trace ids from the path, exactly like a scenario trial.
struct TraceRig {
  net::EventLoop loop;
  obs::TraceRecorder trace;
  gfw::DetectionRules rules = gfw::DetectionRules::standard();
  std::unique_ptr<net::Path> path;
  std::unique_ptr<gfw::GfwDevice> dev;
  u32 cseq = 1000;
  u32 sseq = 5000;

  explicit TraceRig(gfw::GfwConfig cfg = {}) {
    cfg.detection_miss_rate = 0.0;
    net::PathConfig pcfg;
    pcfg.server_hops = 10;
    pcfg.jitter_us = 0;
    pcfg.per_link_loss = 0.0;
    path = std::make_unique<net::Path>(loop, Rng(7), pcfg, &trace);
    dev = std::make_unique<gfw::GfwDevice>("gfw-2", cfg, &rules, Rng(9));
    path->attach(5, dev.get());
    path->set_server_sink([](net::Packet&) {});
    path->set_client_sink([](net::Packet&) {});
  }

  void c2s(net::Packet pkt) {
    path->send_from_client(std::move(pkt));
    loop.run();
  }
  void s2c(net::Packet pkt) {
    path->send_from_server(std::move(pkt));
    loop.run();
  }
  void handshake() {
    c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), cseq, 0));
    ++cseq;
    s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                             sseq, cseq));
    ++sseq;
    c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_ack(), cseq, sseq));
  }
};

const obs::TraceEvent* find_by_id(const std::vector<obs::TraceEvent>& evs,
                                  u64 id) {
  for (const auto& e : evs) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

const obs::TraceEvent* find_last_behavior(
    const std::vector<obs::TraceEvent>& evs, obs::GfwBehavior b) {
  const obs::TraceEvent* hit = nullptr;
  for (const auto& e : evs) {
    if (e.gfw.behavior == b) hit = &e;
  }
  return hit;
}

TEST(Golden, EvolvedModelCausality) {
  TraceRig rig;  // default config: evolved type-2

  // TCB on SYN: the state event must link back to the SYN's send event.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), rig.cseq, 0));
  auto evs = rig.trace.events();
  const obs::TraceEvent* created =
      find_last_behavior(evs, obs::GfwBehavior::kB1CreateOnSyn);
  ASSERT_NE(created, nullptr);
  EXPECT_EQ(created->gfw.from, obs::GfwState::kNone);
  EXPECT_EQ(created->gfw.to, obs::GfwState::kEstablished);
  ASSERT_NE(created->caused_by, 0u);
  const obs::TraceEvent* cause = find_by_id(evs, created->caused_by);
  ASSERT_NE(cause, nullptr);
  EXPECT_EQ(cause->kind, obs::TraceKind::kSend);
  EXPECT_NE(cause->packet.flags & 0x02, 0) << "cause must be the SYN";
  const u64 first_syn_send = cause->id;  // evs is reassigned below

  // Finish the handshake, then a second client SYN → Behavior 2a resync,
  // again linked to the specific SYN that forced it.
  ++rig.cseq;
  rig.s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                               rig.sseq, rig.cseq));
  ++rig.sseq;
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_ack(), rig.cseq,
                               rig.sseq));
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), rig.cseq, 0));
  evs = rig.trace.events();
  const obs::TraceEvent* resync =
      find_last_behavior(evs, obs::GfwBehavior::kB2aMultipleSyn);
  ASSERT_NE(resync, nullptr);
  EXPECT_EQ(resync->gfw.to, obs::GfwState::kResync);
  const obs::TraceEvent* resync_cause = find_by_id(evs, resync->caused_by);
  ASSERT_NE(resync_cause, nullptr);
  EXPECT_EQ(resync_cause->kind, obs::TraceKind::kSend);
  EXPECT_NE(resync_cause->packet.flags & 0x02, 0);
  EXPECT_GT(resync_cause->id, first_syn_send)
      << "must link to the *second* SYN";

  // Keyword data re-anchors the resync TCB and trips the detector; the
  // injected resets must link back to that data packet's send event.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), rig.cseq,
                               rig.sseq,
                               to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n\r\n")));
  evs = rig.trace.events();
  const obs::TraceEvent* reanchor =
      find_last_behavior(evs, obs::GfwBehavior::kResyncReanchor);
  ASSERT_NE(reanchor, nullptr);
  const obs::TraceEvent* detection =
      find_last_behavior(evs, obs::GfwBehavior::kDetection);
  ASSERT_NE(detection, nullptr);

  u64 data_send = 0;
  for (const auto& e : evs) {
    if (e.kind == obs::TraceKind::kSend && e.packet.payload_len > 0) {
      data_send = e.id;
    }
  }
  ASSERT_NE(data_send, 0u);
  EXPECT_EQ(detection->caused_by, data_send);
  int injected = 0;
  for (const auto& e : evs) {
    if (e.kind != obs::TraceKind::kInject) continue;
    ++injected;
    EXPECT_EQ(e.caused_by, data_send)
        << "injected reset must trace to the trigger packet";
    EXPECT_NE(e.packet.flags & 0x04, 0) << "type-2 injects RSTs";
  }
  EXPECT_GE(injected, 1);

  // Every causal link in the whole trace resolves to a retained event.
  for (const auto& e : evs) {
    if (e.caused_by != 0) {
      EXPECT_NE(find_by_id(evs, e.caused_by), nullptr)
          << "dangling caused_by on event " << e.id;
    }
  }
}

TEST(Golden, PriorModelTeardownCausality) {
  gfw::GfwConfig cfg;
  cfg.evolved = false;
  TraceRig rig(cfg);
  rig.handshake();

  // Prior model: a client RST tears the TCB down, linked to that RST.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_rst(), rig.cseq, 0));
  const auto evs = rig.trace.events();
  const obs::TraceEvent* teardown =
      find_last_behavior(evs, obs::GfwBehavior::kRstTeardown);
  ASSERT_NE(teardown, nullptr);
  EXPECT_EQ(teardown->gfw.to, obs::GfwState::kGone);
  const obs::TraceEvent* cause = find_by_id(evs, teardown->caused_by);
  ASSERT_NE(cause, nullptr);
  EXPECT_EQ(cause->kind, obs::TraceKind::kSend);
  EXPECT_NE(cause->packet.flags & 0x04, 0) << "cause must be the RST";

  // Keyword data after the teardown is invisible: no detection, no resets.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), rig.cseq,
                               rig.sseq,
                               to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n\r\n")));
  const auto after = rig.trace.events();
  EXPECT_EQ(find_last_behavior(after, obs::GfwBehavior::kDetection), nullptr);
}

// ----------------------------------------------------- verdict attribution

ScenarioOptions traced_options(u64 seed) {
  ScenarioOptions opt;
  opt.vp = china_vantage_points()[0];
  opt.server.host = "site-0.example";
  opt.server.ip = net::make_ip(93, 184, 216, 34);
  opt.cal = Calibration::standard();
  opt.cal.detection_miss = 0.0;
  opt.cal.per_link_loss = 0.0;
  opt.cal.ttl_estimate_error_prob = 0.0;
  opt.cal.old_model_fraction = 0.0;
  opt.seed = seed;
  opt.tracing = true;
  return opt;
}

TEST(Golden, AttributionNamesDetectionOnFailure2) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  Scenario sc(&rules, traced_options(11));
  HttpTrialOptions http;
  http.with_keyword = true;  // no evasion: the GFW wins
  const TrialResult result = run_http_trial(sc, http);
  ASSERT_EQ(result.outcome, Outcome::kFailure2);

  const Attribution attr =
      attribute_verdict(sc.trace(), result.outcome, sc.path_runs_old_model());
  EXPECT_EQ(attr.outcome, Outcome::kFailure2);
  EXPECT_NE(attr.decisive_event, 0u);
  EXPECT_TRUE(attr.behavior == obs::GfwBehavior::kDetection ||
              attr.behavior == obs::GfwBehavior::kBlockPeriod)
      << "got: " << to_string(attr.behavior);
  EXPECT_FALSE(attr.verdict.empty());
  EXPECT_NE(attr.verdict.find("failure-2"), std::string::npos)
      << attr.verdict;
}

TEST(Golden, AttributionReachesInsertionPacketOnSuccess) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  Scenario sc(&rules, traced_options(11));
  HttpTrialOptions http;
  http.with_keyword = true;
  http.strategy = strategy::StrategyId::kImprovedTeardown;
  const TrialResult result = run_http_trial(sc, http);
  ASSERT_EQ(result.outcome, Outcome::kSuccess);

  const Attribution attr =
      attribute_verdict(sc.trace(), result.outcome, sc.path_runs_old_model());
  EXPECT_NE(attr.decisive_event, 0u);
  EXPECT_NE(attr.causal_insertion_event, 0u)
      << "success must trace to a crafted insertion packet\n" << attr.verdict;
  EXPECT_NE(attr.strategy_decision_event, 0u);
  const auto evs = sc.trace().events();
  const obs::TraceEvent* insertion =
      find_by_id(evs, attr.causal_insertion_event);
  ASSERT_NE(insertion, nullptr);
  EXPECT_EQ(insertion->kind, obs::TraceKind::kSend);
  EXPECT_TRUE(insertion->packet.crafted);
  const obs::TraceEvent* decision =
      find_by_id(evs, attr.strategy_decision_event);
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(decision->kind, obs::TraceKind::kDecision);
}

// --------------------------------------------------------- export round-trip

TEST(Export, RoundTrip) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  Scenario sc(&rules, traced_options(3));
  HttpTrialOptions http;
  http.with_keyword = true;
  http.strategy = strategy::StrategyId::kCreationResyncDesync;
  run_http_trial(sc, http);
  ASSERT_GT(sc.trace().size(), 0u);

  const std::string doc = obs::to_chrome_trace(sc.trace());
  const auto parsed = json::parse(doc);
  ASSERT_TRUE(parsed.has_value()) << "export must be valid JSON";
  const json::Value* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  std::set<double> ids;
  std::set<double> flow_starts;
  std::set<double> flow_ends;
  std::map<double, double> last_ts;  // per tid, over ph:"X"
  for (const auto& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    const json::Value* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      const json::Value* tid = ev.find("tid");
      const json::Value* ts = ev.find("ts");
      ASSERT_NE(tid, nullptr);
      ASSERT_NE(ts, nullptr);
      auto it = last_ts.find(tid->number);
      if (it != last_ts.end()) {
        EXPECT_GE(ts->number, it->second) << "ts not monotone on a track";
      }
      last_ts[tid->number] = ts->number;
      const json::Value* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      const json::Value* id = args->find("id");
      ASSERT_NE(id, nullptr);
      ids.insert(id->number);
    } else if (ph->string == "s" || ph->string == "f") {
      const json::Value* id = ev.find("id");
      ASSERT_NE(id, nullptr);
      (ph->string == "s" ? flow_starts : flow_ends).insert(id->number);
    }
  }
  // Every caused_by resolves to some exported event id.
  for (const auto& ev : events->array) {
    const json::Value* args = ev.find("args");
    if (args == nullptr) continue;
    const json::Value* cb = args->find("caused_by");
    if (cb == nullptr) continue;
    EXPECT_EQ(ids.count(cb->number), 1u)
        << "unresolved caused_by " << cb->number;
  }
  // Flow arrows come in matched start/finish pairs.
  EXPECT_EQ(flow_starts, flow_ends);
  EXPECT_FALSE(flow_starts.empty()) << "causal links must produce flows";
}

// ------------------------------------------------------ replay determinism

TEST(Trace, FlightReplayDeterministic) {
  BenchScale scale;
  scale.trials = 2;
  scale.servers = 2;
  scale.seed = 2017;
  const Table4Inside bench(scale);
  const runner::GridCoord c{0, 1, 0, 1};  // trial 1: exercises chain prefix

  obs::MetricsRegistry reg1;
  Replay r1;
  {
    obs::ScopedMetricsRegistry scope(&reg1);
    r1 = bench.replay_intang(c);
  }
  obs::MetricsRegistry reg2;
  Replay r2;
  {
    obs::ScopedMetricsRegistry scope(&reg2);
    r2 = bench.replay_intang(c);
  }
  EXPECT_EQ(r1.result.outcome, r2.result.outcome);
  EXPECT_EQ(r1.ladder, r2.ladder);
  EXPECT_EQ(r1.attribution.verdict, r2.attribution.verdict);
  EXPECT_EQ(r1.attribution.decisive_event, r2.attribution.decisive_event);
  EXPECT_EQ(reg1.snapshot().counters, reg2.snapshot().counters)
      << "replay must reproduce the metrics, not just the outcome";
  EXPECT_FALSE(r1.ladder.empty());
  EXPECT_FALSE(r1.attribution.verdict.empty());

  // The replayed outcome matches what the parallel grid run produced at
  // the same coordinate (chain state reconstructed exactly).
  const runner::TrialGrid igrid = bench.intang_grid();
  std::vector<intang::StrategySelector> selectors(
      igrid.chains(),
      intang::StrategySelector{intang::StrategySelector::Config{}});
  runner::PoolOptions popt;
  popt.jobs = 2;
  auto out = runner::collect_grid(
      igrid, popt,
      [&bench, &igrid, &selectors](const runner::GridCoord& gc,
                                   runner::TaskContext&) {
        return bench.run_intang(gc, selectors[igrid.chain(gc)]).outcome;
      });
  EXPECT_EQ(out.slots[igrid.index(c)], r1.result.outcome);
}

TEST(Trace, FixedReplayDeterministic) {
  BenchScale scale;
  scale.trials = 1;
  scale.servers = 2;
  scale.seed = 2017;
  const Table4Inside bench(scale);
  const runner::GridCoord c{2, 0, 1, 0};

  const Replay r1 = bench.replay_fixed(c);
  const Replay r2 = bench.replay_fixed(c);
  EXPECT_EQ(r1.result.outcome, r2.result.outcome);
  EXPECT_EQ(r1.ladder, r2.ladder);
  EXPECT_EQ(r1.attribution.verdict, r2.attribution.verdict);

  // And it matches the untraced grid hot path: tracing cannot perturb.
  const TrialResult untraced = bench.run_fixed(c);
  EXPECT_EQ(untraced.outcome, r1.result.outcome);
}

}  // namespace
}  // namespace ys
