// Whole packets skip IP-fragment reassembly: the GFW tap and end hosts
// hand only fragments to their FragmentReassembler and inspect whole
// packets in place, so a non-fragment costs no reassembly copy.
#include <gtest/gtest.h>

#include "gfw/dns_poisoner.h"
#include "gfw/gfw_device.h"
#include "middlebox/profiles.h"
#include "netsim/fragment.h"
#include "obs/alloc_hook.h"
#include "tcpstack/host.h"

namespace ys {
namespace {

const net::FourTuple kTuple{net::make_ip(10, 0, 0, 1), 40000,
                            net::make_ip(93, 184, 216, 34), 80};

net::Packet data_packet(u32 seq, u16 ip_id) {
  net::Packet pkt = net::make_tcp_packet(
      kTuple, net::TcpFlags::psh_ack(), seq, 5000,
      to_bytes("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n"));
  pkt.ip.identification = ip_id;
  net::finalize(pkt);
  return pkt;
}

/// Forwarder that swallows everything without allocating.
struct NullFwd final : net::Forwarder {
  Rng rng_{3};
  void forward(net::Packet) override {}
  void inject(net::Packet, net::Dir, SimTime) override {}
  void drop(const net::Packet&, std::string_view) override {}
  SimTime now() const override { return SimTime::zero(); }
  Rng& rng() override { return rng_; }
};

TEST(FragmentGate, GfwInspectsWholePacketsWithoutAReassemblyCopy) {
  if (!obs::perf::alloc_hook_available()) {
    GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
  }
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  gfw::GfwDevice dev("gfw", gfw::GfwConfig{}, &rules, Rng(9));
  NullFwd fwd;
  dev.process(data_packet(1, 1), net::Dir::kC2S, fwd);  // warm up metrics

  const net::Packet pkt = data_packet(100, 2);
  net::Packet arg = pkt;
  const auto before = obs::perf::thread_alloc_counters();
  dev.process(std::move(arg), net::Dir::kC2S, fwd);
  const auto after = obs::perf::thread_alloc_counters();
  // The tap's own copy of the payload is the only allocation left.
  EXPECT_LE(after.count - before.count, 1u);
  EXPECT_EQ(dev.pending_fragments(), 0u);
}

TEST(FragmentGate, WholeDataPacketCrossesARealPathWithoutAllocating) {
  if (!obs::perf::alloc_hook_available()) {
    GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
  }
  // Figure 1's path: a stateful client-side box at hop 1, both GFW device
  // types and the DNS poisoner at hop 5, the server host at hop 10. The
  // taps read each packet where it lies and the host logs it by move.
  net::EventLoop loop;
  net::PathConfig pc;
  pc.server_hops = 10;
  net::Path path(loop, Rng(1), pc);
  mbox::MiddleboxConfig box_cfg = mbox::aliyun_profile();
  box_cfg.stateful = true;
  box_cfg.seq_checking = true;
  mbox::Middlebox box(box_cfg, Rng(2));
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  gfw::GfwConfig type1;
  type1.device_type = gfw::DeviceType::kType1;
  gfw::GfwConfig type2;
  type2.device_type = gfw::DeviceType::kType2;
  gfw::GfwDevice gfw1("gfw-1", type1, &rules, Rng(3));
  gfw::GfwDevice gfw2("gfw-2", type2, &rules, Rng(4));
  gfw::DnsPoisoner poisoner("gfw-dns", &rules, Rng(5));
  path.attach(1, &box);
  path.attach(5, &gfw1);
  path.attach(5, &gfw2);
  path.attach(5, &poisoner);
  tcp::Host::Config cfg;
  cfg.address = kTuple.dst_ip;
  cfg.side = tcp::HostSide::kServer;
  cfg.suppress_kernel_resets = true;
  tcp::Host server(cfg, path, loop, Rng(6));
  server.attach();
  path.set_client_sink([](net::Packet&) {});

  // Warm up: a handshake the box and both devices track, then innocuous
  // requests. The type-2 device keeps the stream it reassembles, and that
  // buffer grows geometrically: after three requests it has room for a
  // fourth.
  path.send_from_client(
      net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), 0, 0));
  loop.run();
  path.send_from_server(net::make_tcp_packet(
      kTuple.reversed(), net::TcpFlags::syn_ack(), 4999, 1));
  loop.run();
  path.send_from_client(
      net::make_tcp_packet(kTuple, net::TcpFlags::only_ack(), 1, 5000));
  loop.run();
  constexpr u32 kRequestBytes = 47;
  for (u16 i = 0; i < 3; ++i) {
    path.send_from_client(data_packet(1 + i * kRequestBytes, i));
    loop.run();
  }
  ASSERT_EQ(gfw1.tcb_count(), 1u);
  ASSERT_EQ(gfw2.tcb_count(), 1u);

  net::Packet pkt = data_packet(1 + 3 * kRequestBytes, 3);
  const std::size_t logged = server.received_log().size();
  const auto before = obs::perf::thread_alloc_counters();
  path.send_from_client(std::move(pkt));
  loop.run();
  const auto after = obs::perf::thread_alloc_counters();
  ASSERT_EQ(server.received_log().size(), logged + 1);
  EXPECT_EQ(server.received_log().back().tcp->seq, 1 + 3 * kRequestBytes);
  EXPECT_EQ(after.count - before.count, 0u);
  EXPECT_EQ(gfw1.reset_volleys() + gfw2.reset_volleys(), 0);
}

TEST(FragmentGate, GfwStillReassemblesAroundWholePackets) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  gfw::GfwDevice dev("gfw", gfw::GfwConfig{}, &rules, Rng(9));
  NullFwd fwd;
  const std::vector<net::Packet> frags =
      net::fragment_packet(data_packet(100, 7), 16);
  ASSERT_GE(frags.size(), 3u);
  dev.process(frags[0], net::Dir::kC2S, fwd);
  EXPECT_EQ(dev.pending_fragments(), 1u);
  dev.process(data_packet(200, 8), net::Dir::kC2S, fwd);
  EXPECT_EQ(dev.pending_fragments(), 1u);
  for (std::size_t i = 1; i < frags.size(); ++i) {
    dev.process(frags[i], net::Dir::kC2S, fwd);
  }
  EXPECT_EQ(dev.pending_fragments(), 0u);
}

TEST(FragmentGate, HostPassesWholePacketsAroundPendingFragments) {
  net::EventLoop loop;
  net::Path path(loop, Rng(1), net::PathConfig{});
  tcp::Host::Config cfg;
  cfg.address = kTuple.dst_ip;
  cfg.side = tcp::HostSide::kServer;
  cfg.suppress_kernel_resets = true;
  tcp::Host host(cfg, path, loop, Rng(2));
  host.attach();

  const net::Packet whole = data_packet(100, 7);
  const std::vector<net::Packet> frags = net::fragment_packet(whole, 16);
  ASSERT_GE(frags.size(), 3u);
  host.inject_local(frags[0]);
  EXPECT_EQ(host.pending_fragments(), 1u);
  EXPECT_TRUE(host.received_log().empty());

  host.inject_local(data_packet(200, 8));
  EXPECT_EQ(host.pending_fragments(), 1u);
  ASSERT_EQ(host.received_log().size(), 1u);
  EXPECT_EQ(host.received_log()[0].tcp->seq, 200u);

  for (std::size_t i = 1; i < frags.size(); ++i) host.inject_local(frags[i]);
  EXPECT_EQ(host.pending_fragments(), 0u);
  ASSERT_EQ(host.received_log().size(), 2u);
  EXPECT_EQ(host.received_log()[1].payload, whole.payload);
  EXPECT_EQ(host.received_log()[1].tcp->seq, 100u);
}

}  // namespace
}  // namespace ys
