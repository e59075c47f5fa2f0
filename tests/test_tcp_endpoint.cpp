// TCP endpoint state-machine tests: the RFC 793 core, modern-Linux
// extensions (RFC 5961 challenge ACKs, PAWS, RFC 2385 rejection), every
// Table 3 ignore path, reassembly overlap policies, retransmission, and
// the per-version behaviour profiles of §5.3 as parameterized sweeps.
#include <gtest/gtest.h>

#include "netsim/event_loop.h"
#include "obs/metrics.h"
#include "tcpstack/tcp_endpoint.h"

namespace ys::tcp {
namespace {

const net::FourTuple kClientTuple{net::make_ip(10, 0, 0, 1), 40000,
                                  net::make_ip(93, 184, 216, 34), 80};

/// Test rig around one endpoint in the *server* role, driven by scripted
/// client segments.
struct Rig {
  net::EventLoop loop;
  std::vector<net::Packet> sent;
  std::vector<i64> sent_at_us;  // loop time of each entry of `sent`
  Bytes delivered;
  int established = 0;
  std::unique_ptr<TcpEndpoint> ep;
  u32 cseq = 1000;  // scripted client sequence cursor
  bool with_timestamps;
  u32 ts = 100'000;

  explicit Rig(StackProfile profile = StackProfile::for_version(
                   LinuxVersion::k4_4),
               bool timestamps = true)
      : with_timestamps(timestamps) {
    TcpEndpoint::Callbacks cb;
    cb.send = [this](net::Packet p) {
      sent.push_back(std::move(p));
      sent_at_us.push_back(loop.now().us);
    };
    cb.on_data = [this](TcpEndpoint&, ByteView d) {
      delivered.insert(delivered.end(), d.begin(), d.end());
    };
    cb.on_established = [this] { ++established; };
    ep = std::make_unique<TcpEndpoint>(loop, Rng(3), profile,
                                       kClientTuple.reversed(),
                                       std::move(cb));
  }

  void feed(net::Packet pkt) {
    if (with_timestamps && pkt.tcp && !pkt.tcp->options.timestamps) {
      pkt.tcp->options.timestamps = net::TcpTimestamps{++ts, 0};
    }
    net::finalize(pkt);
    ep->on_segment(pkt);
  }

  /// Drive the endpoint to ESTABLISHED via a scripted handshake.
  void handshake() {
    ep->open_passive();
    feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(), cseq,
                              0));
    ++cseq;
    feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_ack(), cseq,
                              ep->iss() + 1));
    ASSERT_EQ(ep->state(), TcpState::kEstablished);
  }

  /// Drive the endpoint to SYN_RECV; rcv_nxt is then `cseq`.
  void syn_recv() {
    ep->open_passive();
    feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(), cseq,
                              0));
    ++cseq;
    ASSERT_EQ(ep->state(), TcpState::kSynRecv);
  }

  /// Milliseconds from the first send to each send.
  std::vector<i64> send_offsets_ms() const {
    std::vector<i64> out;
    for (i64 at : sent_at_us) out.push_back((at - sent_at_us.front()) / 1000);
    return out;
  }

  void send_client_data(std::string_view payload) {
    feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(), cseq,
                              ep->snd_nxt(), to_bytes(payload)));
    cseq += static_cast<u32>(payload.size());
  }

  const net::Packet& last_sent() const { return sent.back(); }
  IgnoreReason last_ignore() const { return ep->ignore_log().back().reason; }
};

// --------------------------------------------------------------- handshake

TEST(Handshake, PassiveOpenThreeWay) {
  Rig rig;
  rig.ep->open_passive();
  EXPECT_EQ(rig.ep->state(), TcpState::kListen);

  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(),
                                rig.cseq, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kSynRecv);
  ASSERT_FALSE(rig.sent.empty());
  EXPECT_TRUE(rig.last_sent().tcp->flags.syn);
  EXPECT_TRUE(rig.last_sent().tcp->flags.ack);
  EXPECT_EQ(rig.last_sent().tcp->ack, rig.cseq + 1);

  ++rig.cseq;
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_ack(),
                                rig.cseq, rig.ep->iss() + 1));
  EXPECT_EQ(rig.ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.established, 1);
}

TEST(Handshake, ActiveOpenSendsSynAndCompletes) {
  Rig rig;
  // Reuse the rig as a *client*: open actively and feed the SYN/ACK.
  rig.ep->open_active();
  EXPECT_EQ(rig.ep->state(), TcpState::kSynSent);
  ASSERT_EQ(rig.sent.size(), 1u);
  EXPECT_TRUE(rig.last_sent().tcp->flags.syn);
  EXPECT_FALSE(rig.last_sent().tcp->flags.ack);

  net::Packet synack = net::make_tcp_packet(
      kClientTuple, net::TcpFlags::syn_ack(), 5000, rig.ep->iss() + 1);
  rig.feed(std::move(synack));
  EXPECT_EQ(rig.ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.ep->rcv_nxt(), 5001u);
  // The final ACK went out.
  EXPECT_TRUE(rig.last_sent().tcp->flags.ack);
  EXPECT_FALSE(rig.last_sent().tcp->flags.syn);
}

TEST(Handshake, SynAckWithWrongAckDrawsRstAndIsIgnored) {
  Rig rig;
  rig.ep->open_active();
  net::Packet synack = net::make_tcp_packet(
      kClientTuple, net::TcpFlags::syn_ack(), 5000, rig.ep->iss() + 999);
  rig.feed(std::move(synack));
  EXPECT_EQ(rig.ep->state(), TcpState::kSynSent);
  EXPECT_TRUE(rig.last_sent().tcp->flags.rst);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kBadAckNumber);
}

TEST(Handshake, ForgedSynAckWithWrongSeqIsAcceptedInSynSent) {
  // The GFW's block-period forgery: correct ack, bogus seq. A real client
  // accepts it and desynchronizes — that is exactly how the GFW obstructs
  // handshakes during the 90-second window.
  Rig rig;
  rig.ep->open_active();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::syn_ack(),
                                0xDEAD0000, rig.ep->iss() + 1));
  EXPECT_EQ(rig.ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.ep->rcv_nxt(), 0xDEAD0001u);
}

TEST(Handshake, AckInListenDrawsRst) {
  Rig rig;
  rig.ep->open_passive();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_ack(), 7,
                                1234));
  EXPECT_EQ(rig.ep->state(), TcpState::kListen);
  ASSERT_FALSE(rig.sent.empty());
  EXPECT_TRUE(rig.last_sent().tcp->flags.rst);
  EXPECT_EQ(rig.last_sent().tcp->seq, 1234u);
}

TEST(Handshake, DuplicateSynRetransmitsSynAck) {
  Rig rig;
  rig.ep->open_passive();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(),
                                rig.cseq, 0));
  const std::size_t after_first = rig.sent.size();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(),
                                rig.cseq, 0));
  EXPECT_EQ(rig.sent.size(), after_first + 1);
  EXPECT_TRUE(rig.last_sent().tcp->flags.syn);
  EXPECT_TRUE(rig.last_sent().tcp->flags.ack);
}

// The RTO doubles from 200 ms up to 3.2 s and gives up after six resends,
// for the handshake segments just as for data.
const std::vector<i64> kRtoScheduleMs{0, 200, 600, 1400, 3000, 6200, 9400};

TEST(Handshake, SynRetransmitSchedule) {
  Rig rig;
  rig.ep->open_active();
  rig.loop.run_until(SimTime::from_sec(60));
  EXPECT_EQ(rig.send_offsets_ms(), kRtoScheduleMs);
  for (const net::Packet& p : rig.sent) {
    EXPECT_TRUE(p.tcp->flags.syn);
    EXPECT_FALSE(p.tcp->flags.ack);
    EXPECT_EQ(p.tcp->seq, rig.ep->iss());
  }
  EXPECT_TRUE(rig.loop.idle());
}

TEST(Handshake, SynAckRetransmitSchedule) {
  Rig rig;
  rig.syn_recv();
  rig.loop.run_until(SimTime::from_sec(60));
  EXPECT_EQ(rig.send_offsets_ms(), kRtoScheduleMs);
  for (const net::Packet& p : rig.sent) {
    EXPECT_TRUE(p.tcp->flags.syn);
    EXPECT_TRUE(p.tcp->flags.ack);
    EXPECT_EQ(p.tcp->seq, rig.ep->iss());
    EXPECT_EQ(p.tcp->ack, rig.cseq);
  }
  EXPECT_TRUE(rig.loop.idle());
}

TEST(Handshake, SimultaneousOpenResendsSynAckOnTheSynTimer) {
  // A SYN crossing ours moves SYN_SENT to SYN_RECV. The SYN/ACK goes out at
  // once, and the SYN's timer keeps running: its later resends are SYN/ACKs.
  Rig rig;
  rig.ep->open_active();
  rig.loop.run_until(SimTime::from_ms(300));
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(), 5000,
                                0));
  ASSERT_EQ(rig.ep->state(), TcpState::kSynRecv);
  rig.loop.run_until(SimTime::from_sec(60));
  EXPECT_EQ(rig.send_offsets_ms(),
            (std::vector<i64>{0, 200, 300, 600, 1400, 3000, 6200, 9400}));
  for (std::size_t i = 0; i < rig.sent.size(); ++i) {
    const net::TcpHeader& t = *rig.sent[i].tcp;
    EXPECT_TRUE(t.flags.syn) << i;
    EXPECT_EQ(t.flags.ack, i >= 2) << i;
    EXPECT_EQ(t.seq, rig.ep->iss()) << i;
    if (i >= 2) {
      EXPECT_EQ(t.ack, 5001u) << i;
    }
  }
  EXPECT_TRUE(rig.loop.idle());
}

TEST(Handshake, PeerResetEndsSynResends) {
  Rig client;
  client.ep->open_active();
  client.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::rst_ack(), 0,
                                   client.ep->iss() + 1));
  ASSERT_TRUE(client.ep->was_reset());
  client.loop.run_until(SimTime::from_sec(60));
  EXPECT_EQ(client.sent.size(), 1u);  // the first SYN only

  Rig server;
  server.syn_recv();
  server.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                   server.cseq, 0));
  ASSERT_TRUE(server.ep->was_reset());
  server.loop.run_until(SimTime::from_sec(60));
  EXPECT_EQ(server.sent.size(), 1u);  // the first SYN/ACK only
}

// ------------------------------------------------------------ data transfer

TEST(Data, InOrderDeliveryAndAck) {
  Rig rig;
  rig.handshake();
  rig.send_client_data("hello ");
  rig.send_client_data("world");
  EXPECT_EQ(ys::to_string(rig.delivered), "hello world");
  EXPECT_EQ(rig.ep->rcv_nxt(), rig.cseq);
  EXPECT_TRUE(rig.last_sent().tcp->flags.ack);
  EXPECT_EQ(rig.last_sent().tcp->ack, rig.cseq);
}

TEST(Data, OutOfOrderIsBufferedThenDrained) {
  Rig rig;
  rig.handshake();
  const u32 base = rig.cseq;
  // Send the second segment first.
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(),
                                base + 5, rig.ep->snd_nxt(),
                                to_bytes("world")));
  EXPECT_TRUE(rig.delivered.empty());
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(), base,
                                rig.ep->snd_nxt(), to_bytes("hello")));
  EXPECT_EQ(ys::to_string(rig.delivered), "helloworld");
}

TEST(Data, OverlapPreferFirstKeepsOriginalBytes) {
  Rig rig;  // Linux: first copy of a byte wins
  rig.handshake();
  const u32 base = rig.cseq;
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(),
                                base + 8, rig.ep->snd_nxt(),
                                to_bytes("REAL")));
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(),
                                base + 8, rig.ep->snd_nxt(),
                                to_bytes("JUNK")));
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(), base,
                                rig.ep->snd_nxt(), to_bytes("12345678")));
  EXPECT_EQ(ys::to_string(rig.delivered), "12345678REAL");
}

TEST(Data, OverlapPreferLastKeepsNewestBytes) {
  StackProfile profile = StackProfile::for_version(LinuxVersion::k4_4);
  profile.segment_overlap = net::OverlapPolicy::kPreferLast;
  Rig rig(profile);
  rig.handshake();
  const u32 base = rig.cseq;
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(),
                                base + 8, rig.ep->snd_nxt(),
                                to_bytes("REAL")));
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(),
                                base + 8, rig.ep->snd_nxt(),
                                to_bytes("JUNK")));
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(), base,
                                rig.ep->snd_nxt(), to_bytes("12345678")));
  EXPECT_EQ(ys::to_string(rig.delivered), "12345678JUNK");
}

TEST(Data, DuplicateSegmentIgnoredWithAck) {
  Rig rig;
  rig.handshake();
  const u32 base = rig.cseq;
  rig.send_client_data("hello");
  const std::size_t sent_before = rig.sent.size();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(), base,
                                rig.ep->snd_nxt(), to_bytes("hello")));
  EXPECT_EQ(ys::to_string(rig.delivered), "hello");  // not duplicated
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kDuplicateData);
  EXPECT_EQ(rig.sent.size(), sent_before + 1);  // dup ACK went out
}

TEST(Data, BeyondWindowIgnoredWithDupAck) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(),
                                rig.cseq + 1'000'000, rig.ep->snd_nxt(),
                                to_bytes("far away")));
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kOutOfWindowSeq);
  EXPECT_TRUE(rig.last_sent().tcp->flags.ack);
}

TEST(Data, SegmentationAtMss) {
  Rig rig;
  rig.handshake();
  Bytes big(4000, 'x');
  rig.ep->send_data(big);
  // 4000 bytes at MSS 1460 → 3 segments.
  int data_segments = 0;
  std::size_t total = 0;
  for (const auto& pkt : rig.sent) {
    if (!pkt.payload.empty()) {
      ++data_segments;
      EXPECT_LE(pkt.payload.size(), 1460u);
      total += pkt.payload.size();
    }
  }
  EXPECT_EQ(data_segments, 3);
  EXPECT_EQ(total, 4000u);
}

TEST(Data, RetransmitsUntilAcked) {
  Rig rig;
  rig.handshake();
  rig.ep->send_data(to_bytes("needs delivery"));
  const auto count_payloads = [&] {
    int n = 0;
    for (const auto& p : rig.sent) {
      if (!p.payload.empty()) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_payloads(), 1);
  rig.loop.run_until(SimTime::from_ms(250));  // first RTO fires
  EXPECT_EQ(count_payloads(), 2);
  // Ack it: retransmissions stop.
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_ack(),
                                rig.cseq, rig.ep->snd_nxt()));
  rig.loop.run_until(SimTime::from_sec(30));
  EXPECT_EQ(count_payloads(), 2);
}

TEST(Data, RetransmissionGivesUpEventually) {
  Rig rig;
  rig.handshake();
  rig.ep->send_data(to_bytes("void"));
  rig.loop.run_until(SimTime::from_sec(120));
  EXPECT_TRUE(rig.loop.idle());  // timers stopped after max attempts
}

// ---------------------------------------------------------------- closing

TEST(Close, PeerInitiatedFinSequence) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::fin_ack(),
                                rig.cseq, rig.ep->snd_nxt()));
  EXPECT_EQ(rig.ep->state(), TcpState::kCloseWait);
  EXPECT_EQ(rig.ep->rcv_nxt(), rig.cseq + 1);  // FIN consumed a sequence

  rig.ep->close();
  EXPECT_EQ(rig.ep->state(), TcpState::kLastAck);
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_ack(),
                                rig.cseq + 1, rig.ep->snd_nxt()));
  EXPECT_EQ(rig.ep->state(), TcpState::kClosed);
}

TEST(Close, LocalInitiatedFinSequence) {
  Rig rig;
  rig.handshake();
  rig.ep->close();
  EXPECT_EQ(rig.ep->state(), TcpState::kFinWait1);
  // Peer acks our FIN.
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_ack(),
                                rig.cseq, rig.ep->snd_nxt()));
  EXPECT_EQ(rig.ep->state(), TcpState::kFinWait2);
  // Peer sends its FIN.
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::fin_ack(),
                                rig.cseq, rig.ep->snd_nxt()));
  EXPECT_EQ(rig.ep->state(), TcpState::kTimeWait);
}

TEST(Closed, AnswersNonRstWithRst) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq, 0));
  ASSERT_EQ(rig.ep->state(), TcpState::kClosed);
  const std::size_t before = rig.sent.size();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(),
                                rig.cseq, rig.ep->snd_nxt(),
                                to_bytes("late data")));
  EXPECT_EQ(rig.sent.size(), before + 1);
  EXPECT_TRUE(rig.last_sent().tcp->flags.rst);
  // RSTs to a closed endpoint are discarded silently.
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq, 0));
  EXPECT_EQ(rig.sent.size(), before + 1);
}

// ------------------------------------------------------- RST handling/5961

TEST(Rst, ExactSeqResets) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kClosed);
  EXPECT_TRUE(rig.ep->was_reset());
}

TEST(Rst, InWindowNonExactDrawsChallengeAck) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq + 100, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.ep->challenge_acks_sent(), 1);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kChallengeAckRst);
}

TEST(Rst, OutOfWindowIgnored) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq - 200'000, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kOutOfWindowRst);
}

TEST(Rst, PreRfc5961StackResetsOnInWindowRst) {
  Rig rig(StackProfile::for_version(LinuxVersion::k2_6_34));
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq + 100, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kClosed);
}

TEST(Rst, WrongAckStillResetsInEstablished) {
  // §5.3: "even if the RST/ACK has a wrong ACK number ... it will still be
  // able to reset the connection" — no bad-ack protection for RSTs.
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::rst_ack(),
                                rig.cseq, rig.ep->snd_nxt() + 0x01000000));
  EXPECT_EQ(rig.ep->state(), TcpState::kClosed);
}

TEST(Rst, OldTimestampStillResets) {
  // PAWS exempts RSTs (§5.3): an old-timestamp RST is NOT a safe insertion
  // packet.
  Rig rig;
  rig.handshake();
  net::Packet rst = net::make_tcp_packet(kClientTuple,
                                         net::TcpFlags::only_rst(), rig.cseq,
                                         0);
  rst.tcp->options.timestamps = net::TcpTimestamps{1, 0};
  net::finalize(rst);
  rig.ep->on_segment(rst);
  EXPECT_EQ(rig.ep->state(), TcpState::kClosed);
}

// The RST matrix in SYN_RECV: after the bad-ACK check it is the
// synchronized-state rule.

TEST(Rst, SynRecvExactSeqResets) {
  Rig rig;
  rig.syn_recv();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kClosed);
  EXPECT_TRUE(rig.ep->was_reset());
}

TEST(Rst, SynRecvInWindowNonExactDrawsChallengeAckOn44) {
  Rig rig;
  rig.syn_recv();
  const std::size_t before = rig.sent.size();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq + 100, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kSynRecv);
  EXPECT_FALSE(rig.ep->was_reset());
  EXPECT_EQ(rig.ep->challenge_acks_sent(), 1);
  ASSERT_EQ(rig.sent.size(), before + 1);
  EXPECT_TRUE(rig.last_sent().tcp->flags.ack);
  EXPECT_FALSE(rig.last_sent().tcp->flags.syn);
  EXPECT_EQ(rig.last_sent().tcp->ack, rig.cseq);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kChallengeAckRst);
}

TEST(Rst, SynRecvInWindowNonExactResetsOn2634) {
  Rig rig(StackProfile::for_version(LinuxVersion::k2_6_34));
  rig.syn_recv();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq + 100, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kClosed);
  EXPECT_TRUE(rig.ep->was_reset());
  EXPECT_EQ(rig.ep->challenge_acks_sent(), 0);
}

TEST(Rst, SynRecvOutOfWindowIgnored) {
  Rig rig;
  rig.syn_recv();
  const std::size_t before = rig.sent.size();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_rst(),
                                rig.cseq - 200'000, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kSynRecv);
  EXPECT_FALSE(rig.ep->was_reset());
  EXPECT_EQ(rig.sent.size(), before);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kOutOfWindowRst);
}

TEST(Rst, SynRecvBadAckIgnored) {
  Rig rig;
  rig.syn_recv();
  const std::size_t before = rig.sent.size();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::rst_ack(),
                                rig.cseq, rig.ep->snd_nxt() + 1));
  EXPECT_EQ(rig.ep->state(), TcpState::kSynRecv);
  EXPECT_FALSE(rig.ep->was_reset());
  EXPECT_EQ(rig.sent.size(), before);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kBadAckNumber);
}

// ------------------------------------------------------- SYN in ESTABLISHED

TEST(SynInEstablished, ChallengeAckOn44) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(),
                                rig.cseq, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.ep->challenge_acks_sent(), 1);
}

TEST(SynInEstablished, SilentIgnoreOn314) {
  Rig rig(StackProfile::for_version(LinuxVersion::k3_14));
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(),
                                rig.cseq, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.ep->challenge_acks_sent(), 0);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kSynSilentlyIgnored);
}

TEST(SynInEstablished, OldStackResetsInWindow) {
  Rig rig(StackProfile::for_version(LinuxVersion::k2_6_34));
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(),
                                rig.cseq + 10, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kClosed);
}

TEST(SynInEstablished, OldStackAcksOutOfWindow) {
  Rig rig(StackProfile::for_version(LinuxVersion::k2_6_34));
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(),
                                rig.cseq + 0x00800000, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kOutOfWindowSynOld);
}

// ------------------------------------------ Table 3 ignore paths (4.4 base)

TEST(IgnorePath, BadIpLength) {
  Rig rig;
  rig.handshake();
  net::Packet pkt = net::make_tcp_packet(kClientTuple,
                                         net::TcpFlags::psh_ack(), rig.cseq,
                                         rig.ep->snd_nxt(), to_bytes("data"));
  net::finalize(pkt);
  pkt.ip.total_length = static_cast<u16>(net::wire_size(pkt) + 100);
  rig.ep->on_segment(pkt);
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kBadIpLength);
}

TEST(IgnorePath, ShortTcpHeader) {
  Rig rig;
  rig.handshake();
  net::Packet pkt = net::make_tcp_packet(kClientTuple,
                                         net::TcpFlags::psh_ack(), rig.cseq,
                                         rig.ep->snd_nxt(), to_bytes("data"));
  pkt.tcp->data_offset_words = 3;
  rig.feed(std::move(pkt));
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kShortTcpHeader);
}

TEST(IgnorePath, BadChecksum) {
  Rig rig;
  rig.handshake();
  net::Packet pkt = net::make_tcp_packet(kClientTuple,
                                         net::TcpFlags::psh_ack(), rig.cseq,
                                         rig.ep->snd_nxt(), to_bytes("data"));
  net::finalize(pkt);
  pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum + 1);
  rig.ep->on_segment(pkt);
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kBadChecksum);
}

TEST(IgnorePath, RstAckWrongAckInSynRecv) {
  Rig rig;
  rig.ep->open_passive();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(),
                                rig.cseq, 0));
  ASSERT_EQ(rig.ep->state(), TcpState::kSynRecv);
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::rst_ack(),
                                rig.cseq + 1, rig.ep->snd_nxt() + 777));
  EXPECT_EQ(rig.ep->state(), TcpState::kSynRecv);  // survived
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kBadAckNumber);
}

TEST(IgnorePath, AckWrongAckInSynRecv) {
  Rig rig;
  rig.ep->open_passive();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_syn(),
                                rig.cseq, 0));
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_ack(),
                                rig.cseq + 1, rig.ep->snd_nxt() + 777));
  EXPECT_EQ(rig.ep->state(), TcpState::kSynRecv);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kBadAckNumber);
}

TEST(IgnorePath, DataWithBadAckInEstablished) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(),
                                rig.cseq, rig.ep->snd_nxt() + 0x01000000,
                                to_bytes("junk")));
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kBadAckNumber);
}

TEST(IgnorePath, UnsolicitedMd5) {
  Rig rig;
  rig.handshake();
  net::Packet pkt = net::make_tcp_packet(kClientTuple,
                                         net::TcpFlags::psh_ack(), rig.cseq,
                                         rig.ep->snd_nxt(), to_bytes("junk"));
  pkt.tcp->options.md5_signature.emplace();
  rig.feed(std::move(pkt));
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kUnsolicitedMd5);
}

TEST(IgnorePath, NoFlagsAtAll) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::none(), rig.cseq,
                                0, to_bytes("junk")));
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kNoAckFlag);
}

TEST(IgnorePath, FinOnlyWithoutAck) {
  Rig rig;
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::only_fin(),
                                rig.cseq, 0));
  EXPECT_EQ(rig.ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kNoAckFlag);
}

TEST(IgnorePath, OldTimestampPaws) {
  Rig rig;
  rig.handshake();
  net::Packet pkt = net::make_tcp_packet(kClientTuple,
                                         net::TcpFlags::psh_ack(), rig.cseq,
                                         rig.ep->snd_nxt(), to_bytes("junk"));
  pkt.tcp->options.timestamps = net::TcpTimestamps{1, 0};  // ancient
  net::finalize(pkt);
  rig.ep->on_segment(pkt);
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.last_ignore(), IgnoreReason::kOldTimestamp);
}

TEST(IgnorePath, NoTimestampsNegotiatedMeansNoPaws) {
  Rig rig(StackProfile::for_version(LinuxVersion::k4_4),
          /*timestamps=*/false);
  rig.handshake();
  net::Packet pkt = net::make_tcp_packet(kClientTuple,
                                         net::TcpFlags::psh_ack(), rig.cseq,
                                         rig.ep->snd_nxt(), to_bytes("data"));
  pkt.tcp->options.timestamps = net::TcpTimestamps{1, 0};
  net::finalize(pkt);
  rig.ep->on_segment(pkt);
  // Without negotiation there is no ts_recent to compare against.
  EXPECT_EQ(ys::to_string(rig.delivered), "data");
}

// ----------------------------------------- §5.3 version-profile divergences

struct VersionCase {
  LinuxVersion version;
  bool accepts_no_ack_data;
  bool accepts_md5;
};

class VersionSweep : public ::testing::TestWithParam<VersionCase> {};

TEST_P(VersionSweep, NoAckFlagDataPath) {
  const VersionCase& tc = GetParam();
  Rig rig(StackProfile::for_version(tc.version));
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::none(), rig.cseq,
                                0, to_bytes("NOACK")));
  if (tc.accepts_no_ack_data) {
    EXPECT_EQ(ys::to_string(rig.delivered), "NOACK");
  } else {
    EXPECT_TRUE(rig.delivered.empty());
  }
}

TEST_P(VersionSweep, UnsolicitedMd5Path) {
  const VersionCase& tc = GetParam();
  Rig rig(StackProfile::for_version(tc.version));
  rig.handshake();
  net::Packet pkt = net::make_tcp_packet(kClientTuple,
                                         net::TcpFlags::psh_ack(), rig.cseq,
                                         rig.ep->snd_nxt(), to_bytes("MDATA"));
  pkt.tcp->options.md5_signature.emplace();
  rig.feed(std::move(pkt));
  if (tc.accepts_md5) {
    EXPECT_EQ(ys::to_string(rig.delivered), "MDATA");
  } else {
    EXPECT_TRUE(rig.delivered.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVersions, VersionSweep,
    ::testing::Values(VersionCase{LinuxVersion::k4_4, false, false},
                      VersionCase{LinuxVersion::k4_0, false, false},
                      VersionCase{LinuxVersion::k3_14, false, false},
                      VersionCase{LinuxVersion::k2_6_34, true, false},
                      VersionCase{LinuxVersion::k2_4_37, true, true}));

TEST(Profile, LenientAckValidationAcceptsBadAckData) {
  StackProfile profile = StackProfile::for_version(LinuxVersion::k4_4);
  profile.validates_ack_field = false;
  Rig rig(profile);
  rig.handshake();
  rig.feed(net::make_tcp_packet(kClientTuple, net::TcpFlags::psh_ack(),
                                rig.cseq, rig.ep->snd_nxt() + 0x01000000,
                                to_bytes("junk")));
  EXPECT_EQ(ys::to_string(rig.delivered), "junk");
}

TEST(Profile, IgnoreCountersNamedByReasonAndVersion) {
  obs::MetricsRegistry local;
  obs::ScopedMetricsRegistry scope(&local);
  const std::pair<LinuxVersion, const char*> versions[] = {
      {LinuxVersion::k2_4_37, "linux-2.4.37"},
      {LinuxVersion::k2_6_34, "linux-2.6.34"},
      {LinuxVersion::k3_14, "linux-3.14"},
      {LinuxVersion::k4_0, "linux-4.0"},
      {LinuxVersion::k4_4, "linux-4.4"}};
  for (const auto& [version, name] : versions) {
    const std::string counter =
        std::string("tcpstack.ignored_by_profile.") + name;
    Rig rig(StackProfile::for_version(version));
    rig.handshake();
    // Registered on the first ignore, not before.
    EXPECT_FALSE(local.contains(counter));
    net::Packet pkt = net::make_tcp_packet(
        kClientTuple, net::TcpFlags::psh_ack(), rig.cseq, rig.ep->snd_nxt(),
        to_bytes("data"));
    net::finalize(pkt);
    pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum + 1);
    rig.ep->on_segment(pkt);
    EXPECT_EQ(local.counter(counter).value(), 1u) << name;
  }
  EXPECT_EQ(local.counter("tcpstack.ignored.bad-checksum").value(), 5u);
  EXPECT_EQ(local.counter("tcpstack.segment_ignored").value(), 5u);
  EXPECT_FALSE(local.contains("tcpstack.ignored.bad-ack-number"));
}

TEST(Profile, IgnorePathsLeaveStateUntouched) {
  // Property: every recorded ignore leaves rcv_nxt and state invariant.
  Rig rig;
  rig.handshake();
  const u32 rcv_before = rig.ep->rcv_nxt();
  const auto make_bad = [&](int which) {
    net::Packet pkt = net::make_tcp_packet(kClientTuple,
                                           net::TcpFlags::psh_ack(), rig.cseq,
                                           rig.ep->snd_nxt(),
                                           to_bytes("junk"));
    switch (which) {
      case 0: pkt.tcp->data_offset_words = 2; break;
      case 1: pkt.tcp->options.md5_signature.emplace(); break;
      case 2: pkt.tcp->flags = net::TcpFlags::none(); break;
      case 3:
        net::finalize(pkt);
        pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum ^ 0x5555);
        break;
      case 4: pkt.tcp->ack = rig.ep->snd_nxt() + 0x02000000; break;
      default: break;
    }
    return pkt;
  };
  for (int which = 0; which < 5; ++which) {
    rig.feed(make_bad(which));
    EXPECT_EQ(rig.ep->state(), TcpState::kEstablished) << which;
    EXPECT_EQ(rig.ep->rcv_nxt(), rcv_before) << which;
  }
  EXPECT_EQ(rig.ep->ignore_log().size(), 5u);
}

}  // namespace
}  // namespace ys::tcp
