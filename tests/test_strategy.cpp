// Strategy-layer tests: insertion-packet crafting, the Table 5 preference
// matrix, the engine's per-connection tracking, the retransmission-aware
// trigger, and the exact packet sequences each strategy emits.
#include <cstdio>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "strategy/strategy.h"

namespace ys::strategy {
namespace {

const net::FourTuple kTuple{net::make_ip(10, 0, 0, 1), 40000,
                            net::make_ip(93, 184, 216, 34), 80};

// -------------------------------------------------------------- insertion

TEST(Insertion, SmallTtlSetsTtl) {
  InsertionTuning tuning;
  tuning.small_ttl = 9;
  net::Packet pkt = craft_rst(kTuple, 1000);
  apply_discrepancy(pkt, Discrepancy::kSmallTtl, tuning);
  EXPECT_EQ(pkt.ip.ttl, 9);
}

TEST(Insertion, BadChecksumDiffersFromCorrect) {
  net::Packet pkt = craft_data(kTuple, 1000, 2000, to_bytes("junk"));
  apply_discrepancy(pkt, Discrepancy::kBadChecksum, InsertionTuning{});
  net::finalize(pkt);
  EXPECT_FALSE(net::transport_checksum_ok(pkt));
}

TEST(Insertion, BadAckAcknowledgesUnsentData) {
  InsertionTuning tuning;
  tuning.peer_snd_nxt = 5000;
  net::Packet pkt = craft_data(kTuple, 1000, 5000, to_bytes("junk"));
  apply_discrepancy(pkt, Discrepancy::kBadAckNumber, tuning);
  EXPECT_TRUE(pkt.tcp->flags.ack);
  EXPECT_EQ(pkt.tcp->ack, 5000u + tuning.bad_ack_offset);
}

TEST(Insertion, NoFlagsClearsEverything) {
  net::Packet pkt = craft_data(kTuple, 1000, 2000, to_bytes("junk"));
  apply_discrepancy(pkt, Discrepancy::kNoFlags, InsertionTuning{});
  EXPECT_FALSE(pkt.tcp->flags.any());
}

TEST(Insertion, Md5AddsOption) {
  net::Packet pkt = craft_rst(kTuple, 1000);
  apply_discrepancy(pkt, Discrepancy::kUnsolicitedMd5, InsertionTuning{});
  EXPECT_TRUE(pkt.tcp->options.md5_signature.has_value());
}

TEST(Insertion, OldTimestampUsesStaleValue) {
  InsertionTuning tuning;
  tuning.stale_ts_val = 42;
  net::Packet pkt = craft_data(kTuple, 1000, 2000, to_bytes("junk"));
  apply_discrepancy(pkt, Discrepancy::kOldTimestamp, tuning);
  ASSERT_TRUE(pkt.tcp->options.timestamps.has_value());
  EXPECT_EQ(pkt.tcp->options.timestamps->ts_val, 42u);
}

TEST(Insertion, BadIpLengthOverstates) {
  net::Packet pkt = craft_data(kTuple, 1000, 2000, to_bytes("junk"));
  apply_discrepancy(pkt, Discrepancy::kBadIpLength, InsertionTuning{});
  net::finalize(pkt);
  EXPECT_GT(pkt.ip.total_length, net::wire_size(pkt));
}

TEST(Insertion, ShortHeaderBelowMinimum) {
  net::Packet pkt = craft_data(kTuple, 1000, 2000, to_bytes("junk"));
  apply_discrepancy(pkt, Discrepancy::kShortTcpHeader, InsertionTuning{});
  net::finalize(pkt);
  EXPECT_LT(pkt.tcp->data_offset_words, 5);
}

TEST(Insertion, Table5PreferenceMatrix) {
  const auto syn = preferred_discrepancies(PacketKind::kSyn);
  EXPECT_EQ(syn, std::vector<Discrepancy>{Discrepancy::kSmallTtl});

  const auto rst = preferred_discrepancies(PacketKind::kRst);
  EXPECT_EQ(rst, (std::vector<Discrepancy>{Discrepancy::kSmallTtl,
                                           Discrepancy::kUnsolicitedMd5}));

  const auto data = preferred_discrepancies(PacketKind::kData);
  EXPECT_EQ(data.size(), 4u);
  EXPECT_EQ(data[0], Discrepancy::kSmallTtl);
}

TEST(Insertion, JunkPayloadNeverContainsKeywords) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const Bytes junk = junk_payload(200, rng);
    const std::string text = ys::to_string(junk);
    EXPECT_EQ(text.find("ultrasurf"), std::string::npos);
    for (char c : text) {
      EXPECT_GE(c, 'A');
      EXPECT_LE(c, 'Z');
    }
  }
}

TEST(Insertion, PathKnowledgeTtlClamped) {
  PathKnowledge pk;
  pk.hop_estimate = 14;
  pk.ttl_delta = 2;
  EXPECT_EQ(pk.insertion_ttl(), 12);
  pk.hop_estimate = 1;
  EXPECT_EQ(pk.insertion_ttl(), 1);  // never below 1
}

// ------------------------------------------------------------ DataTrigger

TEST(DataTrigger, FiresOnFirstDataAndItsRetransmissions) {
  DataTrigger trigger;
  net::Packet syn = net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(),
                                         1000, 0);
  EXPECT_FALSE(trigger.fires(syn));  // no payload

  net::Packet data = net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(),
                                          1001, 2000, to_bytes("request"));
  EXPECT_TRUE(trigger.fires(data));
  EXPECT_TRUE(trigger.fires(data));  // retransmission: same seq

  net::Packet later = net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(),
                                           1008, 2000, to_bytes("more"));
  EXPECT_FALSE(trigger.fires(later));  // subsequent data flows untouched
}

// --------------------------------------------------------------- engine rig

constexpr u32 kServerIsn = 5000;

/// Host shim wired to a loop + path so engine-driven strategies can emit.
struct EngineRig {
  net::EventLoop loop;
  net::Path path;
  tcp::Host client;
  std::vector<net::Packet> wire;  // packets that actually left the client
  std::vector<SimTime> arrivals;  // when wire[i] reached hop 1
  u32 iss = 0;                    // the client's ISN in the last run()

  explicit EngineRig()
      : path(loop, Rng(3), path_cfg(), nullptr),
        client(host_cfg(), path, loop, Rng(5)) {
    client.attach();
    // Capture everything that reaches hop 1 by replacing the server sink.
    path.set_server_sink([this](net::Packet& p) {
      arrivals.push_back(loop.now());
      wire.push_back(std::move(p));
    });
  }

  static net::PathConfig path_cfg() {
    net::PathConfig cfg;
    cfg.server_hops = 2;  // short: even TTL-limited packets arrive
    cfg.jitter_us = 0;
    return cfg;
  }
  static tcp::Host::Config host_cfg() {
    tcp::Host::Config cfg;
    cfg.name = "client";
    cfg.address = kTuple.src_ip;
    cfg.side = tcp::HostSide::kClient;
    cfg.profile = tcp::StackProfile::for_version(tcp::LinuxVersion::k4_4);
    return cfg;
  }

  /// Run one strategy over a scripted connection: SYN out, SYN/ACK back,
  /// then one request. Returns every packet that hit the wire.
  std::vector<net::Packet> run(StrategyId id) {
    return run([id](const net::FourTuple&) { return make_strategy(id); });
  }

  std::vector<net::Packet> run(StrategyEngine::Factory factory) {
    StrategyEngine engine(client, std::move(factory),
                          PathKnowledge{.hop_estimate = 12, .ttl_delta = 2},
                          Rng(7));
    engine.install();

    tcp::TcpEndpoint* conn = nullptr;
    tcp::TcpEndpoint::Callbacks cb;
    cb.on_established = [&conn] {
      if (conn) conn->send_data(to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n"));
    };
    conn = &client.connect(kTuple.dst_ip, 80, 40000, std::move(cb));
    iss = conn->iss();
    loop.run_until(SimTime::from_ms(50));

    // Feed the SYN/ACK back through the ingress path.
    net::Packet synack = net::make_tcp_packet(
        kTuple.reversed(), net::TcpFlags::syn_ack(), kServerIsn, iss + 1);
    net::finalize(synack);
    path.send_from_server(std::move(synack));
    loop.run_until(SimTime::from_ms(200));
    return wire;
  }
};

int count(const std::vector<net::Packet>& wire,
          const std::function<bool(const net::Packet&)>& pred) {
  int n = 0;
  for (const auto& pkt : wire) {
    if (pred(pkt)) ++n;
  }
  return n;
}

bool is_bare_syn(const net::Packet& p) {
  return p.tcp->flags.syn && !p.tcp->flags.ack;
}
bool has_payload(const net::Packet& p) { return !p.payload.empty(); }

TEST(StrategySequence, NoStrategyEmitsPlainFlow) {
  EngineRig rig;
  auto wire = rig.run(StrategyId::kNone);
  EXPECT_EQ(count(wire, is_bare_syn), 1);
  EXPECT_EQ(count(wire, [](const net::Packet& p) {
              return p.tcp->flags.rst;
            }),
            0);
}

TEST(StrategySequence, TcbCreationSendsTwoSyns) {
  EngineRig rig;
  auto wire = rig.run(StrategyId::kTcbCreationSynTtl);
  EXPECT_GE(count(wire, is_bare_syn), 2);
  // The insertion SYN precedes the real one and carries the small TTL
  // (arrival ttl = 10 - 2 hops = 8 on this short path).
  ASSERT_FALSE(wire.empty());
  EXPECT_TRUE(is_bare_syn(wire[0]));
  EXPECT_EQ(wire[0].ip.ttl, 10 - 2);
}

TEST(StrategySequence, TeardownSendsTripleRstBeforeRequest) {
  EngineRig rig;
  auto wire = rig.run(StrategyId::kTeardownRstTtl);
  EXPECT_EQ(count(wire, [](const net::Packet& p) {
              return p.tcp->flags.rst;
            }),
            3);
  // The request still reaches the wire after the RSTs.
  EXPECT_GE(count(wire, has_payload), 1);
  // RSTs precede the request.
  std::size_t first_rst = wire.size();
  std::size_t first_data = wire.size();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (wire[i].tcp->flags.rst && first_rst == wire.size()) first_rst = i;
    if (has_payload(wire[i]) && first_data == wire.size()) first_data = i;
  }
  EXPECT_LT(first_rst, first_data);
}

TEST(StrategySequence, ImprovedTeardownAddsDesyncPacket) {
  EngineRig rig;
  auto wire = rig.run(StrategyId::kImprovedTeardown);
  EXPECT_EQ(count(wire, [](const net::Packet& p) {
              return p.tcp->flags.rst;
            }),
            3);
  // Exactly one 1-byte desync payload plus the real request.
  EXPECT_EQ(count(wire, [](const net::Packet& p) {
              return p.payload.size() == 1;
            }),
            1);
  EXPECT_GE(count(wire, [](const net::Packet& p) {
              return p.payload.size() > 1;
            }),
            1);
}

TEST(StrategySequence, InOrderOverlapPrefillsJunk) {
  EngineRig rig;
  auto wire = rig.run(StrategyId::kInOrderBadAck);
  // Three junk copies (repeat-for-loss) + the real request, all same size.
  int junk = 0;
  int real = 0;
  for (const auto& pkt : wire) {
    if (pkt.payload.empty()) continue;
    const std::string text = ys::to_string(pkt.payload);
    if (text.find("ultrasurf") != std::string::npos) {
      ++real;
    } else {
      ++junk;
      EXPECT_GT(pkt.tcp->ack, 5001u);  // the bad-ACK discrepancy
    }
  }
  EXPECT_EQ(junk, 3);
  EXPECT_EQ(real, 1);
}

TEST(StrategySequence, TcbReversalSendsForgedSynAckFirst) {
  EngineRig rig;
  auto wire = rig.run(StrategyId::kTcbReversal);
  ASSERT_FALSE(wire.empty());
  EXPECT_TRUE(wire[0].tcp->flags.syn);
  EXPECT_TRUE(wire[0].tcp->flags.ack);
  EXPECT_EQ(wire[0].ip.ttl, 10 - 2);  // TTL-limited forgery
  EXPECT_EQ(count(wire, is_bare_syn), 1);
}

TEST(StrategySequence, ResyncDesyncEmitsSynThenDesyncThenRequest) {
  EngineRig rig;
  auto wire = rig.run(StrategyId::kResyncDesync);
  std::size_t resync_syn = wire.size();
  std::size_t desync = wire.size();
  std::size_t request = wire.size();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (is_bare_syn(wire[i]) && i > 0 && resync_syn == wire.size()) {
      resync_syn = i;  // the post-handshake SYN
    }
    if (wire[i].payload.size() == 1 && desync == wire.size()) desync = i;
    if (wire[i].payload.size() > 1 && request == wire.size()) request = i;
  }
  ASSERT_LT(resync_syn, wire.size());
  ASSERT_LT(desync, wire.size());
  ASSERT_LT(request, wire.size());
  EXPECT_LT(resync_syn, desync);
  EXPECT_LT(desync, request);
}

/// One line per packet that reached the wire: arrival time (us), sender
/// ('c' client, 's' forged with the server as source), TCP flags,
/// sequence and (when the ACK flag is set) acknowledgment numbers relative
/// to the sender's and the peer's ISN, TTL, payload bytes, IP fragment
/// offset (bytes), plus "md5" and "badcsum" markers. IP fragments carry
/// raw transport bytes and no parsed TCP header.
std::string wire_schedule(const EngineRig& rig) {
  std::string out;
  for (std::size_t i = 0; i < rig.wire.size(); ++i) {
    const net::Packet& p = rig.wire[i];
    const bool from_client = p.ip.src == kTuple.src_ip;
    const u32 isn = from_client ? rig.iss : kServerIsn;
    const u32 peer_isn = from_client ? kServerIsn : rig.iss;
    char line[128];
    if (!p.tcp) {
      std::snprintf(line, sizeof(line), "%lld %c frag ttl=%u len=%zu off=%u\n",
                    static_cast<long long>(rig.arrivals[i].us),
                    from_client ? 'c' : 's', p.ip.ttl, p.payload.size(),
                    p.ip.fragment_offset * 8u);
    } else {
      const net::TcpHeader& t = *p.tcp;
      std::snprintf(line, sizeof(line),
                    "%lld %c %s seq=%u ack=%d ttl=%u len=%zu off=%u%s%s\n",
                    static_cast<long long>(rig.arrivals[i].us),
                    from_client ? 'c' : 's',
                    t.flags.to_string().c_str(), t.seq - isn,
                    t.flags.ack ? static_cast<int>(t.ack - peer_isn) : -1,
                    p.ip.ttl, p.payload.size(), p.ip.fragment_offset * 8u,
                    t.options.md5_signature ? " md5" : "",
                    net::transport_checksum_ok(p) ? "" : " badcsum");
    }
    out += line;
  }
  return out;
}

struct WireGolden {
  StrategyId id;
  const char* schedule;
};

// The exact emitted sequence of every strategy over the scripted rig
// connection (SYN at 0, SYN/ACK fed back at 50 ms, one 28-byte request).
// Every copy, spacing, sequence anchor and discrepancy shows here.
const WireGolden kWireGoldens[] = {
    {StrategyId::kNone,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"},
    {StrategyId::kTcbCreationSynTtl,
     "1600 c [S] seq=406476222 ack=-1 ttl=8 len=0 off=0\n"
     "3600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"},
    {StrategyId::kTcbCreationSynBadChecksum,
     "1600 c [S] seq=406476222 ack=-1 ttl=62 len=0 off=0 badcsum\n"
     "3600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"},
    {StrategyId::kOutOfOrderIpFragments,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c frag ttl=62 len=24 off=24\n"
     "55200 c frag ttl=62 len=24 off=24\n"
     "57200 c frag ttl=62 len=24 off=0\n"},
    {StrategyId::kOutOfOrderTcpSegments,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [P.] seq=9 ack=1 ttl=62 len=20 off=0\n"
     "55200 c [P.] seq=9 ack=1 ttl=62 len=20 off=0\n"
     "57200 c [P.] seq=1 ack=1 ttl=62 len=8 off=0\n"},
    {StrategyId::kInOrderTtl,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [P.] seq=1 ack=1 ttl=8 len=28 off=0\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [P.] seq=1 ack=1 ttl=8 len=28 off=0\n"
     "93200 c [P.] seq=1 ack=1 ttl=8 len=28 off=0\n"},
    {StrategyId::kInOrderBadAck,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [P.] seq=1 ack=16777217 ttl=62 len=28 off=0\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [P.] seq=1 ack=16777217 ttl=62 len=28 off=0\n"
     "93200 c [P.] seq=1 ack=16777217 ttl=62 len=28 off=0\n"},
    {StrategyId::kInOrderBadChecksum,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0 badcsum\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0 badcsum\n"
     "93200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0 badcsum\n"},
    {StrategyId::kInOrderNoFlags,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [none] seq=1 ack=-1 ttl=62 len=28 off=0\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [none] seq=1 ack=-1 ttl=62 len=28 off=0\n"
     "93200 c [none] seq=1 ack=-1 ttl=62 len=28 off=0\n"},
    {StrategyId::kTeardownRstTtl,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "93200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"},
    {StrategyId::kTeardownRstBadChecksum,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [R] seq=1 ack=-1 ttl=62 len=0 off=0 badcsum\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [R] seq=1 ack=-1 ttl=62 len=0 off=0 badcsum\n"
     "93200 c [R] seq=1 ack=-1 ttl=62 len=0 off=0 badcsum\n"},
    {StrategyId::kTeardownRstAckTtl,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [R.] seq=1 ack=1 ttl=8 len=0 off=0\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [R.] seq=1 ack=1 ttl=8 len=0 off=0\n"
     "93200 c [R.] seq=1 ack=1 ttl=8 len=0 off=0\n"},
    {StrategyId::kTeardownRstAckBadChecksum,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [R.] seq=1 ack=1 ttl=62 len=0 off=0 badcsum\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [R.] seq=1 ack=1 ttl=62 len=0 off=0 badcsum\n"
     "93200 c [R.] seq=1 ack=1 ttl=62 len=0 off=0 badcsum\n"},
    {StrategyId::kTeardownFinTtl,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [F.] seq=1 ack=1 ttl=8 len=0 off=0\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [F.] seq=1 ack=1 ttl=8 len=0 off=0\n"
     "93200 c [F.] seq=1 ack=1 ttl=8 len=0 off=0\n"},
    {StrategyId::kTeardownFinBadChecksum,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [F.] seq=1 ack=1 ttl=62 len=0 off=0 badcsum\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [F.] seq=1 ack=1 ttl=62 len=0 off=0 badcsum\n"
     "93200 c [F.] seq=1 ack=1 ttl=62 len=0 off=0 badcsum\n"},
    {StrategyId::kWestChamber,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "55200 s [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "57200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"},
    {StrategyId::kResyncDesync,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [S] seq=8388609 ack=-1 ttl=8 len=0 off=0\n"
     "55200 c [P.] seq=8388609 ack=1 ttl=62 len=1 off=0\n"
     "57200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"},
    {StrategyId::kTcbReversal,
     "1600 c [S.] seq=2073389031 ack=558646541 ttl=8 len=0 off=0\n"
     "3600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"},
    {StrategyId::kImprovedTeardown,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "55200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "57200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "59200 c [P.] seq=8388609 ack=1 ttl=62 len=1 off=0\n"
     "61200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"},
    {StrategyId::kImprovedInOrder,
     "1600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0 md5\n"
     "55200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"
     "73200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0 md5\n"
     "93200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0 md5\n"},
    {StrategyId::kCreationResyncDesync,
     "1600 c [S] seq=406476222 ack=-1 ttl=8 len=0 off=0\n"
     "3600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [S] seq=8388609 ack=-1 ttl=8 len=0 off=0\n"
     "55200 c [P.] seq=8388609 ack=1 ttl=62 len=1 off=0\n"
     "57200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"},
    {StrategyId::kTeardownReversal,
     "1600 c [S.] seq=2073389031 ack=558646541 ttl=8 len=0 off=0\n"
     "3600 c [S] seq=0 ack=-1 ttl=62 len=0 off=0\n"
     "53200 c [.] seq=1 ack=1 ttl=62 len=0 off=0\n"
     "53200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "55200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "57200 c [R] seq=1 ack=-1 ttl=8 len=0 off=0\n"
     "59200 c [P.] seq=1 ack=1 ttl=62 len=28 off=0\n"},
};

TEST(StrategySequence, GoldenWireScheduleForEveryId) {
  ASSERT_EQ(std::size(kWireGoldens), all_strategies().size());
  for (const WireGolden& g : kWireGoldens) {
    EngineRig rig;
    rig.run(g.id);
    EXPECT_EQ(wire_schedule(rig), g.schedule) << to_string(g.id);

    // The id's table spec is canonical, and running it re-parsed is
    // running the paper strategy: same wire, packet for packet.
    std::string error;
    const auto parsed = CandidateProgram::parse(spec(g.id), &error);
    ASSERT_TRUE(parsed.has_value()) << spec(g.id) << ": " << error;
    EXPECT_EQ(parsed->spec(), spec(g.id));
    EXPECT_EQ(*parsed, program(g.id));
    EngineRig reparsed;
    reparsed.run([&parsed](const net::FourTuple&) {
      return parsed->make_strategy();
    });
    EXPECT_EQ(wire_schedule(reparsed), g.schedule) << spec(g.id);
  }
}

TEST(StrategySequence, ReleasedPacketsAreNotInsertions) {
  // A strategy holds the real SYN or request back and releases it behind
  // its insertion packets; only the packets it built count as crafted.
  const Bytes request = to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n");
  for (StrategyId id : all_strategies()) {
    EngineRig rig;
    int crafted = 0;
    for (const net::Packet& p : rig.run(id)) {
      const bool real_syn = p.tcp && is_bare_syn(p) && p.tcp->seq == rig.iss;
      if (real_syn || p.payload == request) {
        EXPECT_FALSE(p.crafted) << to_string(id) << ": " << p.summary();
      }
      crafted += p.crafted;
    }
    EXPECT_EQ(crafted > 0, id != StrategyId::kNone) << to_string(id);
  }
}

TEST(StrategySequence, TraceNamesAreTheTableNames) {
  for (StrategyId id : all_strategies()) {
    std::string want = to_string(id);
    // The two §7.1 improved strategies name their discrepancy in traces.
    if (id == StrategyId::kImprovedTeardown) want += "/ttl";
    if (id == StrategyId::kImprovedInOrder) want += "/md5";
    EXPECT_EQ(make_strategy(id)->name(), want);
  }
}

// --------------------------------------------------------- engine tracking

TEST(Engine, TracksConnectionStateForStrategies) {
  EngineRig rig;
  StrategyEngine engine(
      rig.client,
      [](const net::FourTuple&) { return make_strategy(StrategyId::kNone); },
      PathKnowledge{}, Rng(7));
  engine.install();

  tcp::TcpEndpoint& conn = rig.client.connect(kTuple.dst_ip, 80, 40000);
  rig.loop.run_until(SimTime::from_ms(20));
  const StrategyContext* ctx = engine.find_context(conn.tuple());
  ASSERT_NE(ctx, nullptr);
  EXPECT_TRUE(ctx->client_isn_known);
  EXPECT_EQ(ctx->client_isn, conn.iss());
  EXPECT_FALSE(ctx->server_isn_known);

  net::Packet synack = net::make_tcp_packet(
      kTuple.reversed(), net::TcpFlags::syn_ack(), 9000, conn.iss() + 1);
  net::finalize(synack);
  rig.path.send_from_server(std::move(synack));
  rig.loop.run_until(SimTime::from_ms(60));
  EXPECT_TRUE(ctx->server_isn_known);
  EXPECT_EQ(ctx->server_isn, 9000u);
  EXPECT_EQ(ctx->rcv_nxt, 9001u);
  EXPECT_TRUE(ctx->handshake_done);
}

TEST(StrategySequence, WestChamberSendsBothDirectionRsts) {
  EngineRig rig;
  auto wire = rig.run(StrategyId::kWestChamber);
  int client_rsts = 0;
  int spoofed_rsts = 0;
  for (const auto& pkt : wire) {
    if (!pkt.tcp->flags.rst) continue;
    if (pkt.ip.src == kTuple.src_ip) {
      ++client_rsts;
    } else if (pkt.ip.src == kTuple.dst_ip) {
      ++spoofed_rsts;  // source-spoofed "server" RST on the client's wire
    }
  }
  EXPECT_GE(client_rsts, 1);
  EXPECT_GE(spoofed_rsts, 1);
  EXPECT_GE(count(wire, has_payload), 1);  // the request still goes out
}

TEST(Registry, EveryIdConstructs) {
  for (auto id : legacy_strategies()) {
    EXPECT_NE(make_strategy(id), nullptr);
  }
  for (auto id : intang_candidate_strategies()) {
    auto s = make_strategy(id);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(s->name().empty());
  }
  EXPECT_NE(make_strategy(StrategyId::kResyncDesync), nullptr);
  EXPECT_NE(make_strategy(StrategyId::kTcbReversal), nullptr);
}

TEST(Registry, NamesAreDistinct) {
  std::set<std::string> names;
  for (auto id : legacy_strategies()) {
    names.insert(make_strategy(id)->name());
  }
  EXPECT_EQ(names.size(), legacy_strategies().size());
}

}  // namespace
}  // namespace ys::strategy
