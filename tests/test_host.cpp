// Host tests: connection demux, listeners, UDP binding, the netfilter-like
// hook plane, raw sends, local injection, and host-level IP reassembly.
#include <gtest/gtest.h>

#include "netsim/fragment.h"
#include "tcpstack/host.h"

namespace ys::tcp {
namespace {

struct TwoHosts {
  net::EventLoop loop;
  net::Path path;
  Host client;
  Host server;

  TwoHosts()
      : path(loop, Rng(3), make_path_cfg(), nullptr),
        client(make_cfg("client", net::make_ip(10, 0, 0, 1),
                        HostSide::kClient),
               path, loop, Rng(5)),
        server(make_cfg("server", net::make_ip(93, 184, 216, 34),
                        HostSide::kServer),
               path, loop, Rng(7)) {
    client.attach();
    server.attach();
  }

  static net::PathConfig make_path_cfg() {
    net::PathConfig cfg;
    cfg.server_hops = 6;
    cfg.jitter_us = 0;
    cfg.per_link_loss = 0.0;
    return cfg;
  }

  static Host::Config make_cfg(const char* name, net::IpAddr ip,
                               HostSide side) {
    Host::Config cfg;
    cfg.name = name;
    cfg.address = ip;
    cfg.profile = StackProfile::for_version(LinuxVersion::k4_4);
    cfg.side = side;
    return cfg;
  }
};

TEST(Host, ConnectListenExchange) {
  TwoHosts net;
  Bytes server_got;
  net.server.listen(80, [&server_got](TcpEndpoint& ep, ByteView data) {
    server_got.insert(server_got.end(), data.begin(), data.end());
    if (server_got.size() >= 5) ep.send_data(to_bytes("pong!"));
  });

  Bytes client_got;
  TcpEndpoint::Callbacks cb;
  cb.on_data = [&client_got](TcpEndpoint&, ByteView data) {
    client_got.insert(client_got.end(), data.begin(), data.end());
  };
  TcpEndpoint& conn =
      net.client.connect(net.server.config().address, 80, 0, std::move(cb));
  conn.send_data(to_bytes("ping!"));
  net.loop.run();

  EXPECT_EQ(conn.state(), TcpState::kEstablished);
  EXPECT_EQ(ys::to_string(server_got), "ping!");
  EXPECT_EQ(ys::to_string(client_got), "pong!");
}

TEST(Host, MultipleConcurrentConnectionsDemuxed) {
  TwoHosts net;
  int requests = 0;
  net.server.listen(80, [&requests](TcpEndpoint& ep, ByteView) {
    ++requests;
    ep.send_data(to_bytes("ok"));
  });

  TcpEndpoint& a = net.client.connect(net.server.config().address, 80, 0);
  TcpEndpoint& b = net.client.connect(net.server.config().address, 80, 0);
  net.loop.run();
  ASSERT_EQ(a.state(), TcpState::kEstablished);
  ASSERT_EQ(b.state(), TcpState::kEstablished);
  a.send_data(to_bytes("from-a"));
  b.send_data(to_bytes("from-b"));
  net.loop.run();
  EXPECT_EQ(requests, 2);
  EXPECT_NE(a.tuple().src_port, b.tuple().src_port);
}

TEST(Host, ConcurrentAcceptsEachGetOwnEndpoint) {
  TwoHosts net;
  std::vector<std::pair<TcpEndpoint*, std::string>> calls;
  net.server.listen(80, [&calls](TcpEndpoint& ep, ByteView data) {
    calls.emplace_back(&ep, std::string(data.begin(), data.end()));
  });

  // Both handshakes and both requests are in flight at once.
  TcpEndpoint& a = net.client.connect(net.server.config().address, 80, 0);
  TcpEndpoint& b = net.client.connect(net.server.config().address, 80, 0);
  a.send_data(to_bytes("from-a"));
  b.send_data(to_bytes("from-b"));
  net.loop.run();

  TcpEndpoint* server_a = net.server.find(a.tuple().reversed());
  TcpEndpoint* server_b = net.server.find(b.tuple().reversed());
  ASSERT_NE(server_a, nullptr);
  ASSERT_NE(server_b, nullptr);
  ASSERT_NE(server_a, server_b);
  ASSERT_EQ(calls.size(), 2u);
  for (const auto& [ep, data] : calls) {
    EXPECT_EQ(ep, data == "from-a" ? server_a : server_b) << data;
    EXPECT_EQ(ys::to_string(ep->received_stream()), data);
  }
  EXPECT_NE(calls[0].second, calls[1].second);
}

TEST(Host, UnknownPortDrawsRst) {
  TwoHosts net;
  // No listener on 81.
  TcpEndpoint& conn = net.client.connect(net.server.config().address, 81, 0);
  net.loop.run();
  EXPECT_EQ(conn.state(), TcpState::kClosed);
  EXPECT_TRUE(conn.was_reset());
  ASSERT_FALSE(net.server.demux_ignores().empty());
  EXPECT_EQ(net.server.demux_ignores()[0].reason, IgnoreReason::kNotListening);
}

TEST(Host, EgressHookCanDropPackets) {
  TwoHosts net;
  net.server.listen(80, [](TcpEndpoint&, ByteView) {});
  int dropped = 0;
  net.client.set_egress_hook([&dropped](net::Packet& pkt) {
    if (pkt.is_tcp() && pkt.tcp->flags.syn) {
      ++dropped;
      return Host::Verdict::kDrop;
    }
    return Host::Verdict::kAccept;
  });
  TcpEndpoint& conn = net.client.connect(net.server.config().address, 80, 0);
  net.loop.run_until(SimTime::from_ms(100));
  EXPECT_EQ(conn.state(), TcpState::kSynSent);  // SYN never left
  EXPECT_GE(dropped, 1);
  EXPECT_EQ(net.path.packets_delivered_to_server(), 0u);
}

TEST(Host, EgressHookCanMutatePackets) {
  TwoHosts net;
  net.client.set_egress_hook([](net::Packet& pkt) {
    pkt.ip.ttl = 3;  // too short to cross the 6-hop path
    return Host::Verdict::kAccept;
  });
  net.client.send_raw(net::make_tcp_packet(
      net::FourTuple{net.client.config().address, 1234,
                     net.server.config().address, 80},
      net::TcpFlags::only_syn(), 1, 0));
  net.loop.run();
  EXPECT_EQ(net.path.packets_delivered_to_server(), 0u);
}

TEST(Host, RawUnhookedBypassesHook) {
  TwoHosts net;
  net.client.set_egress_hook(
      [](net::Packet&) { return Host::Verdict::kDrop; });
  net.client.send_raw_unhooked(net::make_tcp_packet(
      net::FourTuple{net.client.config().address, 1234,
                     net.server.config().address, 80},
      net::TcpFlags::only_ack(), 1, 0));
  net.loop.run();
  EXPECT_EQ(net.path.packets_delivered_to_server(), 1u);
}

TEST(Host, IngressHookSeesAndCanSwallow) {
  TwoHosts net;
  net.server.listen(80, [](TcpEndpoint&, ByteView) {});
  int synacks_seen = 0;
  net.client.set_ingress_hook([&synacks_seen](net::Packet& pkt) {
    if (pkt.is_tcp() && pkt.tcp->flags.syn && pkt.tcp->flags.ack) {
      ++synacks_seen;
      return Host::Verdict::kDrop;  // swallow the handshake reply
    }
    return Host::Verdict::kAccept;
  });
  TcpEndpoint& conn = net.client.connect(net.server.config().address, 80, 0);
  net.loop.run_until(SimTime::from_ms(150));
  EXPECT_GE(synacks_seen, 1);
  EXPECT_EQ(conn.state(), TcpState::kSynSent);
}

TEST(Host, UdpBindAndExchange) {
  TwoHosts net;
  std::optional<std::string> server_got;
  net.server.bind_udp(53, [&](const net::FourTuple& from, ByteView payload) {
    server_got = ys::to_string(payload);
    net.server.send_udp(from.reversed(), to_bytes("answer"));
  });
  std::optional<std::string> client_got;
  net.client.bind_udp(5353, [&](const net::FourTuple&, ByteView payload) {
    client_got = ys::to_string(payload);
  });
  net.client.send_udp(net::FourTuple{net.client.config().address, 5353,
                                     net.server.config().address, 53},
                      to_bytes("query"));
  net.loop.run();
  ASSERT_TRUE(server_got.has_value());
  EXPECT_EQ(*server_got, "query");
  ASSERT_TRUE(client_got.has_value());
  EXPECT_EQ(*client_got, "answer");
}

TEST(Host, InjectLocalDeliversAsIfFromWire) {
  TwoHosts net;
  std::optional<std::string> got;
  net.client.bind_udp(5353, [&](const net::FourTuple&, ByteView payload) {
    got = ys::to_string(payload);
  });
  net.client.inject_local(net::make_udp_packet(
      net::FourTuple{net.server.config().address, 53,
                     net.client.config().address, 5353},
      to_bytes("loopback")));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "loopback");
  EXPECT_FALSE(net.client.received_log().empty());
}

TEST(Host, ReassemblesFragmentsBeforeTcp) {
  TwoHosts net;
  Bytes server_got;
  net.server.listen(80, [&server_got](TcpEndpoint&, ByteView data) {
    server_got.insert(server_got.end(), data.begin(), data.end());
  });
  TcpEndpoint& conn = net.client.connect(net.server.config().address, 80, 0);
  net.loop.run();
  ASSERT_EQ(conn.state(), TcpState::kEstablished);

  // Send the request as raw IP fragments.
  net::Packet request = net::make_tcp_packet(
      conn.tuple(), net::TcpFlags::psh_ack(), conn.snd_nxt(), conn.rcv_nxt(),
      to_bytes("GET / HTTP/1.1\r\n\r\n"));
  request.ip.identification = 99;
  net::finalize(request);
  for (auto& frag : net::fragment_packet(request, 16)) {
    net.client.send_raw(std::move(frag));
  }
  net.loop.run();
  EXPECT_EQ(ys::to_string(server_got), "GET / HTTP/1.1\r\n\r\n");
}

TEST(Host, ReceivedLogRecordsArrivals) {
  TwoHosts net;
  net.server.listen(80, [](TcpEndpoint&, ByteView) {});
  net.client.connect(net.server.config().address, 80, 0);
  net.loop.run();
  // The client saw at least the SYN/ACK.
  bool saw_synack = false;
  for (const auto& pkt : net.client.received_log()) {
    if (pkt.is_tcp() && pkt.tcp->flags.syn && pkt.tcp->flags.ack) {
      saw_synack = true;
    }
  }
  EXPECT_TRUE(saw_synack);
}

}  // namespace
}  // namespace ys::tcp
