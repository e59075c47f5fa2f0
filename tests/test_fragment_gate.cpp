// Whole packets skip IP-fragment reassembly: the GFW tap and end hosts
// hand only fragments to their FragmentReassembler and inspect whole
// packets in place, so a non-fragment costs no reassembly copy.
#include <gtest/gtest.h>

#include "gfw/gfw_device.h"
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
