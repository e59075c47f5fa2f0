// Remaining edge paths: outside-China direction trials, the DNS forwarder's
// reconnection after a reset, TCP close corner cases (close-before-
// establish, close-with-pending-data, simultaneous close), and ephemeral
// port allocation.
#include <gtest/gtest.h>

#include "exp/scenario.h"
#include "exp/trial.h"
#include "intang/intang.h"

namespace ys {
namespace {

using namespace ys::exp;

const gfw::DetectionRules* rules() {
  static gfw::DetectionRules r = gfw::DetectionRules::standard();
  return &r;
}

// ------------------------------------------------------- foreign direction

TEST(ForeignDirection, Md5StrategyEvadesNearServerGfw) {
  // Outside-China probes put the GFW within a few hops of the server; the
  // MD5-based prefill is TTL-free and keeps working (§7.1 / Table 4).
  int successes = 0;
  for (u64 seed = 1; seed <= 10; ++seed) {
    ScenarioOptions opt;
    opt.vp = foreign_vantage_points()[0];
    opt.server.host = "cn-site.example";
    opt.server.ip = net::make_ip(101, 6, 0, 1);
    opt.cal = Calibration::standard();
    opt.cal.detection_miss = 0.0;
    opt.cal.per_link_loss = 0.0;
    opt.cal.ttl_estimate_error_prob_foreign = 0.0;
    opt.cal.old_model_fraction = 0.0;
    opt.cal.server_side_firewall_fraction = 0.0;
    opt.seed = seed;
    opt.path_seed = seed + 500;
    Scenario sc(rules(), opt);
    EXPECT_LE(sc.server_hops() - sc.gfw_position(), 5);

    HttpTrialOptions http;
    http.with_keyword = true;
    http.strategy = strategy::StrategyId::kImprovedInOrder;
    if (run_http_trial(sc, http).outcome == Outcome::kSuccess) ++successes;
  }
  EXPECT_EQ(successes, 10);
}

TEST(ForeignDirection, TtlStrategyFailsWhenGfwBehindInsertionHorizon) {
  // Construct the §7.1 pathology explicitly: the GFW sits S-2 from the
  // client but the (stale) hop estimate is short by 2, so TTL-limited
  // insertion packets die before reaching it → Failure 2.
  int failures2 = 0;
  int tried = 0;
  for (u64 seed = 1; seed <= 30 && tried < 8; ++seed) {
    ScenarioOptions opt;
    opt.vp = foreign_vantage_points()[1];
    opt.server.host = "cn-site.example";
    opt.server.ip = net::make_ip(101, 6, 0, 2);
    opt.cal = Calibration::standard();
    opt.cal.detection_miss = 0.0;
    opt.cal.per_link_loss = 0.0;
    opt.cal.ttl_estimate_error_prob_foreign = 1.0;  // estimate always stale
    opt.cal.old_model_fraction = 0.0;
    opt.cal.rst_resync_established = 0.0;
    opt.cal.rst_resync_handshake = 0.0;
    opt.cal.server_side_firewall_fraction = 0.0;
    opt.seed = seed;
    opt.path_seed = seed + 900;
    Scenario sc(rules(), opt);
    // Only count paths where the error is negative (TTL short of the GFW).
    if (sc.knowledge().hop_estimate >= sc.server_hops()) continue;
    if (sc.knowledge().insertion_ttl() >= sc.gfw_position()) continue;
    ++tried;

    HttpTrialOptions http;
    http.with_keyword = true;
    http.strategy = strategy::StrategyId::kImprovedTeardown;
    if (run_http_trial(sc, http).outcome == Outcome::kFailure2) ++failures2;
  }
  EXPECT_GT(tried, 0);
  EXPECT_EQ(failures2, tried);
}

// -------------------------------------------------- DNS forwarder restart

TEST(DnsForwarder, ReconnectsAfterResolverConnectionDies) {
  ScenarioOptions opt;
  opt.vp = china_vantage_points()[0];
  opt.server.host = "resolver";
  opt.server.ip = net::make_ip(216, 146, 35, 35);
  opt.cal = Calibration::standard();
  opt.cal.detection_miss = 0.0;
  opt.cal.per_link_loss = 0.0;
  opt.cal.ttl_estimate_error_prob = 0.0;
  opt.seed = 61;
  Scenario sc(rules(), opt);

  // TCP DNS service plus a kill switch: the server resets connections on
  // demand to simulate a resolver dropping idle clients.
  std::vector<tcp::TcpEndpoint*> server_conns;
  auto offsets =
      std::make_shared<std::unordered_map<const void*, std::size_t>>();
  sc.server().listen(53, [&server_conns, offsets](tcp::TcpEndpoint& ep,
                                                  ByteView) {
    if (std::find(server_conns.begin(), server_conns.end(), &ep) ==
        server_conns.end()) {
      server_conns.push_back(&ep);
    }
    std::size_t& off = (*offsets)[&ep];
    for (const auto& msg : app::dns_tcp_extract(ep.received_stream(), &off)) {
      if (!msg.is_response) {
        ep.send_data(app::dns_tcp_frame(
            app::make_response(msg, net::make_ip(1, 2, 3, 4))));
      }
    }
  });

  intang::Intang::Config cfg;
  cfg.knowledge = sc.knowledge();
  cfg.tcp_dns_resolver = opt.server.ip;
  intang::Intang intang(sc.client(), cfg, sc.fork_rng());

  int answers = 0;
  sc.client().bind_udp(5353, [&answers](const net::FourTuple&, ByteView) {
    ++answers;
  });
  const net::FourTuple q{sc.client().config().address, 5353, opt.server.ip,
                         53};
  sc.client().send_udp(q, app::dns_encode(app::make_query(1, "example.org")));
  sc.run();
  ASSERT_EQ(answers, 1);
  ASSERT_EQ(server_conns.size(), 1u);

  // Kill the resolver-side connection; the client endpoint learns via RST.
  const tcp::TcpEndpoint& killed = *server_conns[0];
  sc.server().send_raw_unhooked(net::make_tcp_packet(
      killed.tuple(), net::TcpFlags::only_rst(), killed.snd_nxt(), 0));
  sc.run();

  // The next query must transparently open a fresh TCP connection.
  sc.client().send_udp(q, app::dns_encode(app::make_query(2, "example.org")));
  sc.run();
  EXPECT_EQ(answers, 2);
  EXPECT_GE(server_conns.size(), 2u);
  ASSERT_NE(intang.dns_forwarder(), nullptr);
  EXPECT_EQ(intang.dns_forwarder()->queries_converted(), 2);
}

// --------------------------------------------------------- TCP close edges

struct Pair {
  net::EventLoop loop;
  net::Path path;
  tcp::Host client;
  tcp::Host server;

  Pair()
      : path(loop, Rng(3), cfg_path(), nullptr),
        client(cfg_host("c", net::make_ip(10, 0, 0, 1),
                        tcp::HostSide::kClient),
               path, loop, Rng(5)),
        server(cfg_host("s", net::make_ip(9, 9, 9, 9),
                        tcp::HostSide::kServer),
               path, loop, Rng(7)) {
    client.attach();
    server.attach();
  }
  static net::PathConfig cfg_path() {
    net::PathConfig c;
    c.server_hops = 4;
    c.jitter_us = 0;
    return c;
  }
  static tcp::Host::Config cfg_host(const char* n, net::IpAddr ip,
                                    tcp::HostSide side) {
    tcp::Host::Config c;
    c.name = n;
    c.address = ip;
    c.side = side;
    return c;
  }
};

TEST(TcpClose, CloseBeforeEstablishDefersUntilHandshake) {
  Pair net;
  net.server.listen(80, [](tcp::TcpEndpoint&, ByteView) {});
  tcp::TcpEndpoint& conn = net.client.connect(net.server.config().address,
                                              80, 0);
  conn.close();  // still SYN_SENT: queued
  EXPECT_EQ(conn.state(), tcp::TcpState::kSynSent);
  net.loop.run();
  // Handshake completed, then the queued FIN fired and was acked.
  EXPECT_TRUE(conn.state() == tcp::TcpState::kFinWait2 ||
              conn.state() == tcp::TcpState::kTimeWait)
      << tcp::to_string(conn.state());
}

TEST(TcpClose, CloseWithPendingDataFlushesFirst) {
  Pair net;
  Bytes got;
  net.server.listen(80, [&got](tcp::TcpEndpoint&, ByteView d) {
    got.insert(got.end(), d.begin(), d.end());
  });
  tcp::TcpEndpoint& conn = net.client.connect(net.server.config().address,
                                              80, 0);
  net.loop.run();
  ASSERT_EQ(conn.state(), tcp::TcpState::kEstablished);
  conn.send_data(to_bytes("last words"));
  conn.close();
  net.loop.run();
  EXPECT_EQ(ys::to_string(got), "last words");
  EXPECT_NE(conn.state(), tcp::TcpState::kEstablished);
}

TEST(TcpClose, FullBidirectionalCloseReachesQuiescence) {
  Pair net;
  tcp::TcpEndpoint* server_side = nullptr;
  net.server.listen(80, [&server_side](tcp::TcpEndpoint& ep, ByteView) {
    server_side = &ep;
  });
  tcp::TcpEndpoint& conn = net.client.connect(net.server.config().address,
                                              80, 0);
  net.loop.run();
  conn.send_data(to_bytes("x"));
  net.loop.run();
  ASSERT_NE(server_side, nullptr);

  conn.close();
  net.loop.run();
  EXPECT_EQ(server_side->state(), tcp::TcpState::kCloseWait);
  server_side->close();
  net.loop.run();
  EXPECT_EQ(server_side->state(), tcp::TcpState::kClosed);
  EXPECT_EQ(conn.state(), tcp::TcpState::kTimeWait);
}

TEST(Host, EphemeralPortsAreDistinct) {
  Pair net;
  net.server.listen(80, [](tcp::TcpEndpoint&, ByteView) {});
  std::set<u16> ports;
  for (int i = 0; i < 16; ++i) {
    ports.insert(net.client.connect(net.server.config().address, 80, 0)
                     .tuple()
                     .src_port);
  }
  EXPECT_EQ(ports.size(), 16u);
}

}  // namespace
}  // namespace ys
