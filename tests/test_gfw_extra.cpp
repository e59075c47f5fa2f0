// Additional GFW coverage: response censorship (the §3.3 HTTPS-redirect
// case), INTANG's loss-adaptive redundancy, hardened require-server-ACK
// anchoring, and forged-SYN/ACK handshake obstruction end to end.
#include <gtest/gtest.h>

#include "app/http.h"
#include "exp/scenario.h"
#include "exp/trial.h"
#include "gfw/gfw_device.h"

namespace ys {
namespace {

using namespace ys::exp;

const net::FourTuple kTuple{net::make_ip(10, 0, 0, 1), 40000,
                            net::make_ip(93, 184, 216, 34), 80};

struct NullFwd final : public net::Forwarder {
  explicit NullFwd(Rng* rng) : rng_(rng) {}
  void forward(net::Packet) override {}
  void inject(net::Packet pkt, net::Dir dir, SimTime) override {
    injected.push_back({std::move(pkt), dir});
  }
  void drop(const net::Packet&, std::string_view) override {}
  SimTime now() const override { return SimTime::zero(); }
  Rng& rng() override { return *rng_; }
  std::vector<std::pair<net::Packet, net::Dir>> injected;
  Rng* rng_;
};

struct DeviceRig {
  gfw::DetectionRules rules = gfw::DetectionRules::standard();
  std::unique_ptr<gfw::GfwDevice> dev;
  Rng rng{5};
  NullFwd fwd{&rng};
  u32 cseq = 1000;
  u32 sseq = 5000;

  explicit DeviceRig(gfw::GfwConfig cfg = {}) {
    cfg.detection_miss_rate = 0.0;
    dev = std::make_unique<gfw::GfwDevice>("gfw", cfg, &rules, Rng(9));
  }
  void c2s(net::Packet pkt) { feed(std::move(pkt), net::Dir::kC2S); }
  void s2c(net::Packet pkt) { feed(std::move(pkt), net::Dir::kS2C); }
  void feed(net::Packet pkt, net::Dir dir) {
    net::finalize(pkt);
    dev->process(std::move(pkt), dir, fwd);
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

// -------------------------------------------------- response censorship

TEST(ResponseCensorship, RedirectLocationKeywordCaughtWhenEnabled) {
  gfw::GfwConfig cfg;
  cfg.censors_responses = true;  // the rare §3.3 paths
  DeviceRig rig(cfg);
  rig.handshake();
  // Innocent request; the *response* echoes the keyword in Location.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), rig.cseq,
                               rig.sseq, to_bytes("GET / HTTP/1.1\r\n\r\n")));
  EXPECT_EQ(rig.dev->detections(), 0);
  rig.s2c(net::make_tcp_packet(
      kTuple.reversed(), net::TcpFlags::psh_ack(), rig.sseq, rig.cseq + 18,
      app::build_http_redirect("https://x.test/?q=ultrasurf")));
  EXPECT_EQ(rig.dev->detections(), 1);
}

TEST(ResponseCensorship, OffByDefault) {
  DeviceRig rig;  // default: responses not censored (discontinued, §2.1)
  rig.handshake();
  rig.s2c(net::make_tcp_packet(
      kTuple.reversed(), net::TcpFlags::psh_ack(), rig.sseq, rig.cseq,
      app::build_http_redirect("https://x.test/?q=ultrasurf")));
  EXPECT_EQ(rig.dev->detections(), 0);
}

// -------------------------------------------------- hardened anchoring

TEST(HardenedResync, AnchorsOnlyOnServerAckedData) {
  gfw::GfwConfig cfg;
  cfg.harden_require_server_ack = true;
  cfg.rst_reaction_established = gfw::RstReaction::kResync;
  cfg.rst_reaction_handshake = gfw::RstReaction::kResync;
  DeviceRig rig(cfg);
  rig.handshake();

  // RST puts the device into resync.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_rst(), rig.cseq,
                               0));
  // Desync junk at an out-of-window sequence — a candidate anchor only.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(),
                               rig.cseq + 0x00800000, rig.sseq,
                               to_bytes("X")));
  // The censored request — another candidate.
  const std::string req = "GET /?q=ultrasurf HTTP/1.1\r\n";
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), rig.cseq,
                               rig.sseq, to_bytes(req)));
  EXPECT_EQ(rig.dev->detections(), 0);  // nothing anchored yet

  // The server acks the *request* (it never saw the junk): the hardened
  // device anchors there and catches the keyword — the desync building
  // block is dead against this countermeasure.
  rig.s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::only_ack(),
                               rig.sseq,
                               rig.cseq + static_cast<u32>(req.size())));
  EXPECT_EQ(rig.dev->detections(), 1);
}

// --------------------------------------------- forged SYN/ACK end to end

TEST(BlockPeriodE2E, ForgedSynAckDesynchronizesRealClients) {
  static const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  ScenarioOptions opt;
  opt.vp = china_vantage_points()[1];
  opt.server.host = "s.example";
  opt.server.ip = net::make_ip(93, 184, 216, 34);
  opt.cal = Calibration::standard();
  opt.cal.detection_miss = 0.0;
  opt.cal.per_link_loss = 0.0;
  opt.seed = 17;
  Scenario sc(&rules, opt);

  // Trip the 90-second block.
  HttpTrialOptions censored;
  censored.with_keyword = true;
  ASSERT_EQ(run_http_trial(sc, censored).outcome, Outcome::kFailure2);

  // A second connection during the block: the forged SYN/ACK (wrong seq,
  // correct ack) arrives before the server's real one, so the client
  // "establishes" against a phantom and the real response never fits.
  tcp::TcpEndpoint* conn = nullptr;
  tcp::TcpEndpoint::Callbacks cb;
  cb.on_established = [&conn] {
    if (conn) conn->send_data(app::build_http_get("s.example", "/fine"));
  };
  conn = &sc.client().connect(opt.server.ip, 80, 40070, std::move(cb));
  sc.run();
  EXPECT_FALSE(app::http_response_complete(conn->received_stream()));
  EXPECT_GE(sc.gfw_type2().forged_syn_acks(), 1);
}

// --------------------------------------------- adaptive redundancy (§7.1)

TEST(AdaptiveRedundancy, IntangRaisesCopiesAfterRepeatedFailures) {
  static const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  intang::StrategySelector::Config sel_cfg;
  sel_cfg.candidates = {strategy::StrategyId::kImprovedTeardown};
  intang::StrategySelector selector(sel_cfg);

  int final_redundancy = 3;
  for (int t = 0; t < 4; ++t) {
    ScenarioOptions opt;
    opt.vp = china_vantage_points()[1];
    opt.server.host = "s.example";
    opt.server.ip = net::make_ip(93, 184, 216, 34);
    opt.cal = Calibration::standard();
    opt.cal.detection_miss = 0.0;
    // A brutal path: heavy loss eats most single insertion packets.
    opt.cal.per_link_loss = 0.02;
    opt.cal.ttl_estimate_error_prob = 0.0;
    opt.seed = 400 + static_cast<u64>(t);
    opt.path_seed = 4000;
    Scenario sc(&rules, opt);

    HttpTrialOptions http;
    http.with_keyword = true;
    http.use_intang = true;
    http.shared_selector = &selector;

    intang::Intang::Config icfg;
    icfg.knowledge = sc.knowledge();
    intang::Intang intang(sc.client(), icfg, sc.fork_rng(), &selector);
    tcp::TcpEndpoint* conn = nullptr;
    tcp::TcpEndpoint::Callbacks cb;
    const Bytes request =
        app::build_http_get("s.example", "/search?q=ultrasurf");
    cb.on_established = [&conn, request] {
      if (conn) conn->send_data(request);
    };
    conn = &sc.client().connect(opt.server.ip, 80, 40001, std::move(cb));
    sc.run();
    final_redundancy = intang.current_redundancy();
    if (final_redundancy > 3) break;  // adapted
  }
  // On a path this lossy, INTANG sees failures and raises redundancy.
  EXPECT_GE(final_redundancy, 3);
}

TEST(AdaptiveRedundancy, StrategiesHonorTheKnob) {
  // Engine-level check: redundancy 5 means five RST copies on the wire.
  net::EventLoop loop;
  net::PathConfig pcfg;
  pcfg.server_hops = 2;
  pcfg.jitter_us = 0;
  net::Path path(loop, Rng(3), pcfg, nullptr);
  tcp::Host::Config hcfg;
  hcfg.address = kTuple.src_ip;
  hcfg.side = tcp::HostSide::kClient;
  tcp::Host client(hcfg, path, loop, Rng(5));
  client.attach();
  std::vector<net::Packet> wire;
  path.set_server_sink([&wire](net::Packet& p) { wire.push_back(std::move(p)); });

  strategy::PathKnowledge pk;
  pk.hop_estimate = 12;
  pk.insertion_redundancy = 5;
  strategy::StrategyEngine engine(
      client,
      [](const net::FourTuple&) {
        return strategy::make_strategy(
            strategy::StrategyId::kImprovedTeardown);
      },
      pk, Rng(7));
  engine.install();

  tcp::TcpEndpoint* conn = nullptr;
  tcp::TcpEndpoint::Callbacks cb;
  cb.on_established = [&conn] {
    if (conn) conn->send_data(to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n"));
  };
  conn = &client.connect(kTuple.dst_ip, 80, 40000, std::move(cb));
  loop.run_until(SimTime::from_ms(50));
  net::Packet synack = net::make_tcp_packet(
      kTuple.reversed(), net::TcpFlags::syn_ack(), 5000, conn->iss() + 1);
  net::finalize(synack);
  path.send_from_server(std::move(synack));
  loop.run_until(SimTime::from_ms(200));

  int rsts = 0;
  for (const auto& pkt : wire) {
    if (pkt.tcp->flags.rst) ++rsts;
  }
  EXPECT_EQ(rsts, 5);
}

}  // namespace
}  // namespace ys
