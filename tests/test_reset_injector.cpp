// Reset injector tests: the exact §2.1 fingerprints — type-1 randomness,
// type-2 cyclic TTL/window progression and sequence offsets, the
// block-period forged SYN/ACK, and whole-IP blocking responses, each
// crafted into an inline Volley.
#include <gtest/gtest.h>

#include <set>

#include "gfw/reset_injector.h"
#include "obs/alloc_hook.h"

namespace ys::gfw {
namespace {

const net::FourTuple kTuple{net::make_ip(10, 0, 0, 1), 40000,
                            net::make_ip(93, 184, 216, 34), 80};

GfwTcb make_tcb(u32 client_next = 2000, u32 server_next = 9000) {
  GfwTcb tcb(kTuple, net::Dir::kC2S, /*reversed=*/false);
  tcb.client_next = client_next;
  tcb.server_next = server_next;
  tcb.server_seq_known = true;
  return tcb;
}

TEST(ResetInjector, Type1IsOneBareRstPerDirection) {
  ResetInjector injector{Rng(3)};
  const GfwTcb tcb = make_tcb();
  const Volley resets = injector.type1_resets(tcb);
  ASSERT_EQ(resets.size(), 2u);

  const auto& to_client = resets[0];
  EXPECT_EQ(to_client.dir, net::Dir::kS2C);
  EXPECT_TRUE(to_client.packet.tcp->flags.rst);
  EXPECT_FALSE(to_client.packet.tcp->flags.ack);
  EXPECT_EQ(to_client.packet.tcp->seq, 9000u);  // server-side seq
  EXPECT_EQ(to_client.packet.ip.src, kTuple.dst_ip);

  const auto& to_server = resets[1];
  EXPECT_EQ(to_server.dir, net::Dir::kC2S);
  EXPECT_EQ(to_server.packet.tcp->seq, 2000u);  // client-side seq
  EXPECT_EQ(to_server.packet.ip.src, kTuple.src_ip);
}

TEST(ResetInjector, Type1TtlAndWindowLookRandom) {
  ResetInjector injector{Rng(3)};
  const GfwTcb tcb = make_tcb();
  std::set<int> ttls;
  std::set<int> windows;
  for (int i = 0; i < 12; ++i) {
    const Volley resets = injector.type1_resets(tcb);
    ttls.insert(resets[0].packet.ip.ttl);
    windows.insert(resets[0].packet.tcp->window);
  }
  // Random draws: many distinct values over 12 volleys.
  EXPECT_GE(ttls.size(), 8u);
  EXPECT_GE(windows.size(), 8u);
}

TEST(ResetInjector, Type2VolleyHasPaperSequenceOffsets) {
  ResetInjector injector{Rng(3)};
  const GfwTcb tcb = make_tcb(2000, 9000);
  const Volley volley = injector.type2_resets(tcb);
  ASSERT_EQ(volley.size(), 6u);

  // Toward the client: X, X+1460, X+4380 anchored at the server seq.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(volley[static_cast<std::size_t>(i)].dir, net::Dir::kS2C);
    EXPECT_TRUE(volley[static_cast<std::size_t>(i)].packet.tcp->flags.rst);
    EXPECT_TRUE(volley[static_cast<std::size_t>(i)].packet.tcp->flags.ack);
  }
  EXPECT_EQ(volley[0].packet.tcp->seq, 9000u);
  EXPECT_EQ(volley[1].packet.tcp->seq, 9000u + 1460);
  EXPECT_EQ(volley[2].packet.tcp->seq, 9000u + 4380);
  // Toward the server: anchored at the client seq.
  EXPECT_EQ(volley[3].packet.tcp->seq, 2000u);
  EXPECT_EQ(volley[4].packet.tcp->seq, 2000u + 1460);
  EXPECT_EQ(volley[5].packet.tcp->seq, 2000u + 4380);
}

TEST(ResetInjector, Type2TtlAndWindowCycle) {
  ResetInjector injector{Rng(3)};
  const GfwTcb tcb = make_tcb();
  const Volley volley = injector.type2_resets(tcb);
  // Cyclically increasing TTLs within a volley (§2.1's fingerprint).
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(volley[i].packet.ip.ttl, volley[i - 1].packet.ip.ttl + 1);
    EXPECT_GT(volley[i].packet.tcp->window, volley[i - 1].packet.tcp->window);
  }
  EXPECT_EQ(injector.type2_cycle(), 6u);
}

TEST(ResetInjector, ReversedTcbFlipsInjectionDirections) {
  ResetInjector injector{Rng(3)};
  GfwTcb tcb(kTuple, net::Dir::kS2C, /*reversed=*/true);
  tcb.client_next = 100;
  tcb.server_next = 200;
  const Volley resets = injector.type1_resets(tcb);
  // "Toward the assumed client" now travels c2s on the real path.
  EXPECT_EQ(resets[0].dir, net::Dir::kC2S);
  EXPECT_EQ(resets[1].dir, net::Dir::kS2C);
}

TEST(ResetInjector, BlockPeriodSynDrawsForgedSynAck) {
  ResetInjector injector{Rng(3)};
  net::Packet syn = net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(),
                                         31337, 0);
  const Volley response = injector.block_period_response(syn, net::Dir::kC2S);
  ASSERT_EQ(response.size(), 1u);
  const net::Packet& forged = response[0].packet;
  EXPECT_TRUE(forged.tcp->flags.syn);
  EXPECT_TRUE(forged.tcp->flags.ack);
  EXPECT_EQ(forged.tcp->ack, 31338u);       // acks the SYN correctly...
  EXPECT_NE(forged.tcp->seq, 0u);           // ...with a bogus sequence
  EXPECT_EQ(response[0].dir, net::Dir::kS2C);
  EXPECT_EQ(forged.ip.src, kTuple.dst_ip);  // "from" the server
}

TEST(ResetInjector, BlockPeriodDataDrawsRstBothWays) {
  ResetInjector injector{Rng(3)};
  net::Packet data = net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(),
                                          500, 700, to_bytes("hello"));
  const Volley response = injector.block_period_response(data, net::Dir::kC2S);
  ASSERT_EQ(response.size(), 2u);
  EXPECT_EQ(response[0].dir, net::Dir::kS2C);
  EXPECT_TRUE(response[0].packet.tcp->flags.rst);
  EXPECT_EQ(response[0].packet.tcp->ack, 505u);  // acks past the data
  EXPECT_EQ(response[1].dir, net::Dir::kC2S);
  EXPECT_TRUE(response[1].packet.tcp->flags.rst);
  EXPECT_EQ(response[1].packet.tcp->seq, 505u);
}

TEST(ResetInjector, BlockPeriodIgnoresNonTcp) {
  ResetInjector injector{Rng(3)};
  net::Packet udp = net::make_udp_packet(kTuple, to_bytes("dns"));
  EXPECT_TRUE(injector.block_period_response(udp, net::Dir::kC2S).empty());
  EXPECT_TRUE(injector.ip_block_response(udp, net::Dir::kC2S).empty());
}

TEST(ResetInjector, IpBlockResetsBothWaysWithoutForgery) {
  ResetInjector injector{Rng(3)};
  net::Packet syn = net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(),
                                         42, 0);
  const Volley response = injector.ip_block_response(syn, net::Dir::kC2S);
  ASSERT_EQ(response.size(), 2u);
  for (const auto& inj : response) {
    EXPECT_TRUE(inj.packet.tcp->flags.rst);
    EXPECT_FALSE(inj.packet.tcp->flags.syn);  // no forged handshakes here
  }
}

TEST(ResetInjector, VolleysAreCraftedWithoutTheHeap) {
  if (!obs::perf::alloc_hook_available()) {
    GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
  }
  ResetInjector injector{Rng(3)};
  const GfwTcb tcb = make_tcb();
  const net::Packet data = net::make_tcp_packet(
      kTuple, net::TcpFlags::psh_ack(), 500, 77, to_bytes("x"));
  const auto before = obs::perf::thread_alloc_counters();
  const Volley type1 = injector.type1_resets(tcb);
  const Volley type2 = injector.type2_resets(tcb);
  const Volley block = injector.block_period_response(data, net::Dir::kC2S);
  const Volley ip = injector.ip_block_response(data, net::Dir::kC2S);
  const auto after = obs::perf::thread_alloc_counters();
  EXPECT_EQ(after.count - before.count, 0u);
  EXPECT_EQ(type1.size() + type2.size() + block.size() + ip.size(), 12u);
  EXPECT_EQ(type2.size(), Volley::kCapacity);
}

}  // namespace
}  // namespace ys::gfw
