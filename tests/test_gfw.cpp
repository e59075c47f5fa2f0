// GFW model tests: the keyword engine, both device generations' TCB state
// machines (creation, resync, teardown, reversal), reset fingerprints, the
// 90-second block period, type-1 vs type-2 reassembly, DNS censorship, and
// Tor active probing.
#include <gtest/gtest.h>

#include "app/dns.h"
#include "app/tor.h"
#include "gfw/aho_corasick.h"
#include "gfw/dns_poisoner.h"
#include "gfw/gfw_device.h"

namespace ys::gfw {
namespace {

const net::FourTuple kTuple{net::make_ip(10, 0, 0, 1), 40000,
                            net::make_ip(93, 184, 216, 34), 80};

// ------------------------------------------------------------ AhoCorasick

TEST(AhoCorasick, FindsPatterns) {
  AhoCorasick ac({"ultrasurf", "falun"});
  EXPECT_TRUE(ac.contains("GET /?q=ultrasurf HTTP/1.1"));
  EXPECT_TRUE(ac.contains("xxfalunxx"));
  EXPECT_FALSE(ac.contains("GET /?q=flowers HTTP/1.1"));
  EXPECT_FALSE(ac.contains(""));
}

TEST(AhoCorasick, CaseInsensitive) {
  AhoCorasick ac({"ultrasurf"});
  EXPECT_TRUE(ac.contains("ULTRASURF"));
  EXPECT_TRUE(ac.contains("UlTrAsUrF"));
}

TEST(AhoCorasick, ReportsMatchedPatternIndex) {
  AhoCorasick ac({"alpha", "beta"});
  AhoCorasick::Cursor cur;
  const Bytes text = to_bytes("xx beta yy");
  EXPECT_EQ(ac.scan(text, cur), 1);
  EXPECT_EQ(ac.pattern(1), "beta");
}

TEST(AhoCorasick, OverlappingPatternsViaFailureLinks) {
  // "he" is a suffix of "she"; matching must follow failure links.
  AhoCorasick ac({"she", "he", "hers"});
  EXPECT_TRUE(ac.contains("xshex"));
  EXPECT_TRUE(ac.contains("xhex"));
  EXPECT_TRUE(ac.contains("xhersx"));
}

class StreamingSplit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamingSplit, FindsKeywordAcrossChunkBoundary) {
  AhoCorasick ac({"ultrasurf"});
  const std::string text = "GET /?q=ultrasurf HTTP/1.1";
  const std::size_t split = GetParam();
  AhoCorasick::Cursor cur;
  const Bytes all = to_bytes(text);
  const ByteView view(all);
  const i32 first = ac.scan(view.subspan(0, split), cur);
  const i32 second = first >= 0 ? first : ac.scan(view.subspan(split), cur);
  EXPECT_GE(second, 0) << "split at " << split;
}

INSTANTIATE_TEST_SUITE_P(EverySplitInsideKeyword, StreamingSplit,
                         ::testing::Range<std::size_t>(8, 19));

// -------------------------------------------------------------- device rig

struct Fwd final : public net::Forwarder {
  explicit Fwd(Rng* rng) : rng_(rng) {}
  void forward(net::Packet pkt) override { forwarded.push_back(std::move(pkt)); }
  void inject(net::Packet pkt, net::Dir dir, SimTime) override {
    injected.push_back({std::move(pkt), dir});
  }
  void drop(const net::Packet&, std::string_view) override {}
  SimTime now() const override { return now_; }
  Rng& rng() override { return *rng_; }

  std::vector<net::Packet> forwarded;
  std::vector<std::pair<net::Packet, net::Dir>> injected;
  SimTime now_ = SimTime::zero();
  Rng* rng_;
};

struct DeviceRig {
  DetectionRules rules = DetectionRules::standard();
  GfwConfig cfg;
  std::unique_ptr<GfwDevice> dev;
  Rng rng{5};
  Fwd fwd{&rng};
  u32 cseq = 1000;
  u32 sseq = 5000;

  explicit DeviceRig(GfwConfig config = GfwConfig{}) : cfg(config) {
    cfg.detection_miss_rate = 0.0;
    dev = std::make_unique<GfwDevice>("gfw", cfg, &rules, Rng(9));
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

  void request(std::string_view payload) {
    c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), cseq, sseq,
                             to_bytes(payload)));
    cseq += static_cast<u32>(payload.size());
  }

  const GfwTcb* tcb() const { return dev->find_tcb(kTuple); }
};

// ------------------------------------------------------------ on-path tap

TEST(Device, AlwaysForwardsOriginalPackets) {
  DeviceRig rig;
  rig.handshake();
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  // 4 packets in → 4 packets out, even though resets were injected too.
  EXPECT_EQ(rig.fwd.forwarded.size(), 4u);
  EXPECT_GT(rig.fwd.injected.size(), 0u);
}

TEST(Device, InjectionDueWithTheForwardedPacketRunsAfterIt) {
  // 10-hop path, GFW at hop 5, no jitter: a packet the GFW forwards
  // reaches the server 5 hops' latency later. A reaction delay of exactly
  // that makes the first forged reset leave in the same microsecond; it
  // must run after the forwarded packet lands, as on the real tap, which
  // reads a packet only once it passed on.
  net::EventLoop loop;
  obs::TraceRecorder trace;
  net::PathConfig pc;
  pc.server_hops = 10;
  pc.jitter_us = 0;
  pc.per_link_loss = 0.0;
  net::Path path(loop, Rng(1), pc, &trace);
  const DetectionRules rules = DetectionRules::standard();
  GfwConfig cfg;
  cfg.detection_miss_rate = 0.0;
  cfg.reaction_delay = SimTime::from_us(5 * pc.per_hop_latency_us);
  GfwDevice dev("gfw", cfg, &rules, Rng(9));
  path.attach(5, &dev);
  path.set_server_sink([](net::Packet&) {});
  path.set_client_sink([](net::Packet&) {});

  path.send_from_client(
      net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 1000, 0));
  path.send_from_client(net::make_tcp_packet(
      kTuple, net::TcpFlags::psh_ack(), 1001, 0,
      to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n")));
  loop.run();
  ASSERT_EQ(dev.reset_volleys(), 1);

  const std::vector<obs::TraceEvent> events = trace.events();
  std::size_t recv = events.size();
  std::size_t inject = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (e.kind == obs::TraceKind::kRecv && e.actor == "server" &&
        e.packet.payload_len > 0 && recv == events.size()) {
      recv = i;
    }
    if (e.kind == obs::TraceKind::kInject && inject == events.size()) {
      inject = i;
    }
  }
  ASSERT_LT(recv, events.size());
  ASSERT_LT(inject, events.size());
  EXPECT_EQ(events[recv].at, events[inject].at);
  EXPECT_LT(recv, inject);
}

TEST(Device, CreatesTcbOnSynAndDetectsKeyword) {
  DeviceRig rig;
  rig.handshake();
  EXPECT_EQ(rig.dev->tcb_count(), 1u);
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  EXPECT_EQ(rig.dev->detections(), 1);
  EXPECT_EQ(rig.dev->reset_volleys(), 1);
}

TEST(Device, InnocentTrafficUntouched) {
  DeviceRig rig;
  rig.handshake();
  rig.request("GET /?q=flowers HTTP/1.1\r\n");
  EXPECT_EQ(rig.dev->detections(), 0);
  EXPECT_TRUE(rig.fwd.injected.empty());
}

TEST(Device, KeywordSplitAcrossSegmentsCaughtByType2) {
  DeviceRig rig;
  rig.handshake();
  rig.request("GET /?q=ultra");
  EXPECT_EQ(rig.dev->detections(), 0);
  rig.request("surf HTTP/1.1\r\n");
  EXPECT_EQ(rig.dev->detections(), 1);
}

TEST(Device, KeywordSplitAcrossSegmentsEscapesType1) {
  GfwConfig cfg;
  cfg.device_type = DeviceType::kType1;
  cfg.enforce_block_period = false;
  DeviceRig rig(cfg);
  rig.handshake();
  rig.request("GET /?q=ultra");
  rig.request("surf HTTP/1.1\r\n");
  EXPECT_EQ(rig.dev->detections(), 0);  // §2.1: type-1 cannot reassemble
}

TEST(Device, Type1CatchesWholeKeywordInOnePacket) {
  GfwConfig cfg;
  cfg.device_type = DeviceType::kType1;
  cfg.enforce_block_period = false;
  DeviceRig rig(cfg);
  rig.handshake();
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  EXPECT_EQ(rig.dev->detections(), 1);
}

TEST(Device, DetectionMissSuppressesResets) {
  GfwConfig cfg;
  DeviceRig rig(cfg);
  rig.dev = std::make_unique<GfwDevice>("gfw", [&] {
    GfwConfig c;
    c.detection_miss_rate = 1.0;  // permanently overloaded
    return c;
  }(), &rig.rules, Rng(9));
  rig.handshake();
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  EXPECT_EQ(rig.dev->detections(), 1);
  EXPECT_EQ(rig.dev->missed_detections(), 1);
  EXPECT_TRUE(rig.fwd.injected.empty());
}

// ----------------------------------------------------- reset fingerprints

TEST(Device, Type2ResetVolleyFingerprint) {
  DeviceRig rig;
  rig.handshake();
  const u32 server_seq_at_detect = rig.sseq;
  const u32 client_seq_end = rig.cseq + 28;
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");

  // Three RST/ACKs toward each side at X, X+1460, X+4380.
  std::vector<u32> to_client_seqs;
  std::vector<u32> to_server_seqs;
  for (const auto& [pkt, dir] : rig.fwd.injected) {
    ASSERT_TRUE(pkt.tcp->flags.rst);
    ASSERT_TRUE(pkt.tcp->flags.ack);
    if (dir == net::Dir::kS2C) {
      to_client_seqs.push_back(pkt.tcp->seq);
    } else {
      to_server_seqs.push_back(pkt.tcp->seq);
    }
  }
  ASSERT_EQ(to_client_seqs.size(), 3u);
  ASSERT_EQ(to_server_seqs.size(), 3u);
  EXPECT_EQ(to_client_seqs[0], server_seq_at_detect);
  EXPECT_EQ(to_client_seqs[1], server_seq_at_detect + 1460);
  EXPECT_EQ(to_client_seqs[2], server_seq_at_detect + 4380);
  EXPECT_EQ(to_server_seqs[0], client_seq_end);
  EXPECT_EQ(to_server_seqs[1], client_seq_end + 1460);
  EXPECT_EQ(to_server_seqs[2], client_seq_end + 4380);
}

TEST(Device, Type1ResetPairFingerprint) {
  GfwConfig cfg;
  cfg.device_type = DeviceType::kType1;
  cfg.enforce_block_period = false;
  DeviceRig rig(cfg);
  rig.handshake();
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  ASSERT_EQ(rig.fwd.injected.size(), 2u);
  for (const auto& [pkt, dir] : rig.fwd.injected) {
    EXPECT_TRUE(pkt.tcp->flags.rst);
    EXPECT_FALSE(pkt.tcp->flags.ack);  // bare RST
  }
}

// ------------------------------------------------------------ block period

TEST(Device, BlockPeriodForgesSynAckForNewHandshakes) {
  DeviceRig rig;
  rig.handshake();
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  ASSERT_TRUE(rig.dev->host_pair_blocked(kTuple.src_ip, kTuple.dst_ip,
                                         SimTime::from_sec(1)));
  rig.fwd.injected.clear();

  // A new SYN (different source port) during the block period.
  net::FourTuple tuple2 = kTuple;
  tuple2.src_port = 40002;
  rig.c2s(net::make_tcp_packet(tuple2, net::TcpFlags::only_syn(), 9999, 0));
  ASSERT_EQ(rig.fwd.injected.size(), 1u);
  const auto& [forged, dir] = rig.fwd.injected[0];
  EXPECT_TRUE(forged.tcp->flags.syn);
  EXPECT_TRUE(forged.tcp->flags.ack);
  EXPECT_EQ(forged.tcp->ack, 10000u);      // acks the SYN...
  EXPECT_EQ(dir, net::Dir::kS2C);
  EXPECT_EQ(rig.dev->forged_syn_acks(), 1);
}

TEST(Device, BlockPeriodResetsOtherPackets) {
  DeviceRig rig;
  rig.handshake();
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  rig.fwd.injected.clear();

  net::FourTuple tuple2 = kTuple;
  tuple2.src_port = 40003;
  rig.c2s(net::make_tcp_packet(tuple2, net::TcpFlags::psh_ack(), 123, 456,
                               to_bytes("anything at all")));
  ASSERT_EQ(rig.fwd.injected.size(), 2u);  // RST/ACK back + RST forward
  EXPECT_TRUE(rig.fwd.injected[0].first.tcp->flags.rst);
  EXPECT_TRUE(rig.fwd.injected[1].first.tcp->flags.rst);
}

TEST(Device, BlockPeriodExpiresAfter90Seconds) {
  DeviceRig rig;
  rig.handshake();
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  EXPECT_TRUE(rig.dev->host_pair_blocked(kTuple.src_ip, kTuple.dst_ip,
                                         SimTime::from_sec(89)));
  EXPECT_FALSE(rig.dev->host_pair_blocked(kTuple.src_ip, kTuple.dst_ip,
                                          SimTime::from_sec(91)));
}

TEST(Device, Type1DoesNotEnforceBlockPeriod) {
  GfwConfig cfg;
  cfg.device_type = DeviceType::kType1;
  cfg.enforce_block_period = false;
  DeviceRig rig(cfg);
  rig.handshake();
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  EXPECT_FALSE(rig.dev->host_pair_blocked(kTuple.src_ip, kTuple.dst_ip,
                                          SimTime::from_sec(1)));
}

// --------------------------------------------------------- evolved behavior

TEST(Device, Behavior1TcbFromSynAck) {
  DeviceRig rig;
  // No SYN observed; only the server's SYN/ACK.
  rig.s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                               rig.sseq, rig.cseq + 1));
  EXPECT_EQ(rig.dev->tcb_count(), 1u);
  const GfwTcb* tcb = rig.tcb();
  ASSERT_NE(tcb, nullptr);
  EXPECT_FALSE(tcb->reversed());
  EXPECT_EQ(tcb->monitored_dir(), net::Dir::kC2S);
  EXPECT_EQ(tcb->client_next, rig.cseq + 1);
}

TEST(Device, PriorModelIgnoresSynAckCreation) {
  GfwConfig cfg;
  cfg.evolved = false;
  DeviceRig rig(cfg);
  rig.s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                               rig.sseq, rig.cseq + 1));
  EXPECT_EQ(rig.dev->tcb_count(), 0u);
}

TEST(Device, Behavior2aMultipleSynsEnterResync) {
  DeviceRig rig;
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 7777, 0));
  ASSERT_NE(rig.tcb(), nullptr);
  EXPECT_EQ(rig.tcb()->state, TcbState::kResync);
  EXPECT_EQ(rig.dev->resyncs_entered(), 1);
}

TEST(Device, PriorModelIgnoresLaterSyns) {
  GfwConfig cfg;
  cfg.evolved = false;
  DeviceRig rig(cfg);
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 7777, 0));
  EXPECT_EQ(rig.tcb()->state, TcbState::kEstablished);
  EXPECT_EQ(rig.tcb()->client_next, 1001u);  // the first SYN's ISN rules
}

TEST(Device, ResyncReanchorsOnNextClientData) {
  DeviceRig rig;
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 7777, 0));
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), 0x50000000,
                               0, to_bytes("JUNKDATA")));
  EXPECT_EQ(rig.tcb()->state, TcbState::kEstablished);
  EXPECT_EQ(rig.tcb()->client_next, 0x50000000u + 8);
  // A later keyword at the *original* sequence range is invisible.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), 1001, 0,
                               to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n")));
  EXPECT_EQ(rig.dev->detections(), 0);
}

TEST(Device, Behavior2bMultipleSynAcks) {
  DeviceRig rig;
  rig.handshake();
  rig.s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                               rig.sseq - 1, rig.cseq));
  EXPECT_EQ(rig.tcb()->state, TcbState::kResync);
}

TEST(Device, Behavior2cSynAckWithWrongAck) {
  DeviceRig rig;
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                               5000, 4242));  // ack != 1001
  EXPECT_EQ(rig.tcb()->state, TcbState::kResync);
}

TEST(Device, ServerSynAckResynchronizes) {
  DeviceRig rig;
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 7777, 0));
  ASSERT_EQ(rig.tcb()->state, TcbState::kResync);
  rig.s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                               5000, 1001));
  EXPECT_EQ(rig.tcb()->state, TcbState::kEstablished);
  EXPECT_EQ(rig.tcb()->client_next, 1001u);
}

TEST(Device, PureAcksDoNotResync) {
  DeviceRig rig;
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 7777, 0));
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_ack(), 1001, 0));
  EXPECT_EQ(rig.tcb()->state, TcbState::kResync);  // still waiting
}

TEST(Device, Behavior3RstReactionByPhase) {
  GfwConfig cfg;
  cfg.rst_reaction_handshake = RstReaction::kResync;
  cfg.rst_reaction_established = RstReaction::kTeardown;
  {
    // RST mid-handshake (before the client's final ACK) → resync.
    DeviceRig rig(cfg);
    rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 1000, 0));
    rig.s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                                 5000, 1001));
    rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_rst(), 1001, 0));
    ASSERT_NE(rig.tcb(), nullptr);
    EXPECT_EQ(rig.tcb()->state, TcbState::kResync);
  }
  {
    // RST after the handshake ACK → teardown.
    DeviceRig rig(cfg);
    rig.handshake();
    rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_rst(), rig.cseq,
                                 0));
    EXPECT_EQ(rig.dev->tcb_count(), 0u);
    EXPECT_EQ(rig.dev->teardowns(), 1);
  }
}

TEST(Device, EvolvedIgnoresFin) {
  DeviceRig rig;
  rig.handshake();
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::fin_ack(), rig.cseq,
                               rig.sseq));
  EXPECT_EQ(rig.dev->tcb_count(), 1u);
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  EXPECT_EQ(rig.dev->detections(), 1);  // still watching
}

TEST(Device, PriorModelTearsDownOnFin) {
  GfwConfig cfg;
  cfg.evolved = false;
  DeviceRig rig(cfg);
  rig.handshake();
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::fin_ack(), rig.cseq,
                               rig.sseq));
  EXPECT_EQ(rig.dev->tcb_count(), 0u);
}

TEST(Device, NoValidationOfChecksumMd5AckOrTimestamp) {
  // The GFW column of Table 3: all four malformed variants are processed.
  for (int variant = 0; variant < 4; ++variant) {
    DeviceRig rig;
    rig.handshake();
    net::Packet pkt = net::make_tcp_packet(
        kTuple, net::TcpFlags::psh_ack(), rig.cseq, rig.sseq,
        to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n"));
    switch (variant) {
      case 0:
        net::finalize(pkt);
        pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum + 1);
        break;
      case 1: pkt.tcp->options.md5_signature.emplace(); break;
      case 2: pkt.tcp->ack = rig.sseq + 0x01000000; break;
      case 3: pkt.tcp->options.timestamps = net::TcpTimestamps{1, 0}; break;
    }
    rig.c2s(std::move(pkt));
    EXPECT_EQ(rig.dev->detections(), 1) << "variant " << variant;
  }
}

TEST(Device, NoFlagDataPerConfig) {
  for (bool accepts : {true, false}) {
    GfwConfig cfg;
    cfg.accepts_no_flag_data = accepts;
    DeviceRig rig(cfg);
    rig.handshake();
    rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::none(), rig.cseq, 0,
                                 to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n")));
    EXPECT_EQ(rig.dev->detections(), accepts ? 1 : 0);
  }
}

TEST(Device, InOrderPrefillBlindsReassembly) {
  // The in-order data overlapping strategy's core mechanism.
  DeviceRig rig;
  rig.handshake();
  const u32 base = rig.cseq;
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), base,
                               rig.sseq, Bytes(28, 'J')));  // junk prefill
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), base,
                               rig.sseq,
                               to_bytes("GET /?q=ultrasurf HTTP/1\r\n")));
  EXPECT_EQ(rig.dev->detections(), 0);  // junk occupied the range first
}

TEST(Device, SegmentOverlapPolicyDecidesOooStrategy) {
  // Real tail first, junk tail second: prefer-last (prior model) keeps the
  // junk and misses the keyword; prefer-first (evolved) catches it.
  for (auto policy : {net::OverlapPolicy::kPreferLast,
                      net::OverlapPolicy::kPreferFirst}) {
    GfwConfig cfg;
    cfg.tcp_segment_overlap = policy;
    DeviceRig rig(cfg);
    rig.handshake();
    const u32 base = rig.cseq;
    const std::string req = "GET /?q=ultrasurf HTTP/1.1\r\n";
    const std::string tail = req.substr(8);
    rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), base + 8,
                                 rig.sseq, to_bytes(tail)));
    rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), base + 8,
                                 rig.sseq, Bytes(tail.size(), 'J')));
    rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), base,
                                 rig.sseq, to_bytes(req.substr(0, 8))));
    const int expected =
        policy == net::OverlapPolicy::kPreferFirst ? 1 : 0;
    EXPECT_EQ(rig.dev->detections(), expected);
  }
}

// -------------------------------------------------------------- reversal

TEST(Device, TcbReversalMonitorsWrongDirection) {
  DeviceRig rig;
  // Client-forged SYN/ACK travels c2s: the device assumes roles backwards.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::syn_ack(), 111, 222));
  ASSERT_EQ(rig.dev->tcb_count(), 1u);
  const GfwTcb* tcb = rig.dev->find_tcb(kTuple);
  ASSERT_NE(tcb, nullptr);
  EXPECT_TRUE(tcb->reversed());
  EXPECT_EQ(tcb->monitored_dir(), net::Dir::kS2C);

  // The real handshake and request are ignored by the reversed TCB.
  rig.handshake();
  rig.request("GET /?q=ultrasurf HTTP/1.1\r\n");
  EXPECT_EQ(rig.dev->detections(), 0);
  EXPECT_EQ(rig.dev->tcb_count(), 1u);  // no second TCB was created
}

// ------------------------------------------------------------ DNS over TCP

TEST(Device, DnsOverTcpQnameCensored) {
  DeviceRig rig;
  net::FourTuple dns_tuple = kTuple;
  dns_tuple.dst_port = 53;
  rig.c2s(net::make_tcp_packet(dns_tuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.s2c(net::make_tcp_packet(dns_tuple.reversed(), net::TcpFlags::syn_ack(),
                               5000, 1001));
  rig.c2s(net::make_tcp_packet(dns_tuple, net::TcpFlags::only_ack(), 1001,
                               5001));
  const Bytes frame = app::dns_tcp_frame(app::make_query(7, "www.dropbox.com"));
  rig.c2s(net::make_tcp_packet(dns_tuple, net::TcpFlags::psh_ack(), 1001,
                               5001, frame));
  EXPECT_EQ(rig.dev->detections(), 1);
}

TEST(Device, DnsOverTcpInnocentQnamePasses) {
  DeviceRig rig;
  net::FourTuple dns_tuple = kTuple;
  dns_tuple.dst_port = 53;
  rig.c2s(net::make_tcp_packet(dns_tuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.s2c(net::make_tcp_packet(dns_tuple.reversed(), net::TcpFlags::syn_ack(),
                               5000, 1001));
  const Bytes frame = app::dns_tcp_frame(app::make_query(7, "example.org"));
  rig.c2s(net::make_tcp_packet(dns_tuple, net::TcpFlags::psh_ack(), 1001,
                               5001, frame));
  EXPECT_EQ(rig.dev->detections(), 0);
}

// -------------------------------------------------------------------- Tor

TEST(Device, TorFingerprintTriggersIpBlock) {
  GfwConfig cfg;
  cfg.tor_filtering = true;
  DeviceRig rig(cfg);
  net::FourTuple tor_tuple = kTuple;
  tor_tuple.dst_port = 443;
  rig.c2s(net::make_tcp_packet(tor_tuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.s2c(net::make_tcp_packet(tor_tuple.reversed(), net::TcpFlags::syn_ack(),
                               5000, 1001));
  rig.c2s(net::make_tcp_packet(tor_tuple, net::TcpFlags::psh_ack(), 1001,
                               5001, app::build_tor_client_hello()));
  EXPECT_TRUE(rig.dev->ip_blocked(tor_tuple.dst_ip));

  // Every later packet to that IP draws resets, any port.
  rig.fwd.injected.clear();
  net::FourTuple other_port = tor_tuple;
  other_port.dst_port = 8080;
  rig.c2s(net::make_tcp_packet(other_port, net::TcpFlags::only_syn(), 1, 0));
  EXPECT_EQ(rig.fwd.injected.size(), 2u);
}

TEST(Device, TorProbeCanRefuseToBlock) {
  GfwConfig cfg;
  cfg.tor_filtering = true;
  DeviceRig rig(cfg);
  rig.dev->set_tor_probe([](net::IpAddr) { return false; });  // not a bridge
  net::FourTuple tor_tuple = kTuple;
  tor_tuple.dst_port = 443;
  rig.c2s(net::make_tcp_packet(tor_tuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.s2c(net::make_tcp_packet(tor_tuple.reversed(), net::TcpFlags::syn_ack(),
                               5000, 1001));
  rig.c2s(net::make_tcp_packet(tor_tuple, net::TcpFlags::psh_ack(), 1001,
                               5001, app::build_tor_client_hello()));
  EXPECT_FALSE(rig.dev->ip_blocked(tor_tuple.dst_ip));
}

TEST(Device, NoTorFilteringOnUnfilteredPaths) {
  GfwConfig cfg;
  cfg.tor_filtering = false;
  DeviceRig rig(cfg);
  net::FourTuple tor_tuple = kTuple;
  tor_tuple.dst_port = 443;
  rig.c2s(net::make_tcp_packet(tor_tuple, net::TcpFlags::only_syn(), 1000, 0));
  rig.s2c(net::make_tcp_packet(tor_tuple.reversed(), net::TcpFlags::syn_ack(),
                               5000, 1001));
  rig.c2s(net::make_tcp_packet(tor_tuple, net::TcpFlags::psh_ack(), 1001,
                               5001, app::build_tor_client_hello()));
  EXPECT_FALSE(rig.dev->ip_blocked(tor_tuple.dst_ip));
  EXPECT_TRUE(rig.fwd.injected.empty());
}

// ------------------------------------------------------------ DNS poisoner

TEST(Poisoner, ForgesResponseForBlacklistedName) {
  DetectionRules rules = DetectionRules::standard();
  Rng rng(3);
  Fwd fwd(&rng);
  DnsPoisoner poisoner("gfw-dns", &rules, Rng(5));

  net::FourTuple udp_tuple{net::make_ip(10, 0, 0, 1), 5353,
                           net::make_ip(8, 8, 8, 8), 53};
  net::Packet query = net::make_udp_packet(
      udp_tuple, app::dns_encode(app::make_query(0x77, "www.dropbox.com")));
  net::finalize(query);
  poisoner.process(std::move(query), net::Dir::kC2S, fwd);

  EXPECT_EQ(poisoner.poisoned(), 1);
  ASSERT_EQ(fwd.forwarded.size(), 1u);  // original still forwarded
  ASSERT_EQ(fwd.injected.size(), 1u);
  const auto& [forged, dir] = fwd.injected[0];
  EXPECT_EQ(dir, net::Dir::kS2C);
  auto parsed = app::dns_parse(forged.payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().is_response);
  EXPECT_EQ(parsed.value().id, 0x77);
  ASSERT_EQ(parsed.value().answers.size(), 1u);
  EXPECT_NE(parsed.value().answers[0].address, 0u);
}

TEST(Poisoner, IgnoresInnocentNamesAndResponses) {
  DetectionRules rules = DetectionRules::standard();
  Rng rng(3);
  Fwd fwd(&rng);
  DnsPoisoner poisoner("gfw-dns", &rules, Rng(5));

  net::FourTuple udp_tuple{net::make_ip(10, 0, 0, 1), 5353,
                           net::make_ip(8, 8, 8, 8), 53};
  net::Packet query = net::make_udp_packet(
      udp_tuple, app::dns_encode(app::make_query(0x77, "example.org")));
  net::finalize(query);
  poisoner.process(std::move(query), net::Dir::kC2S, fwd);
  EXPECT_EQ(poisoner.poisoned(), 0);
  EXPECT_TRUE(fwd.injected.empty());
}

}  // namespace
}  // namespace ys::gfw
