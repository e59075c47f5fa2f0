// Robustness sweeps with seeded pseudo-random inputs: parsers must never
// crash or mis-handle hostile bytes, endpoints must survive arbitrary
// segment storms without violating their invariants, and the GFW device
// must stay consistent under random packet interleavings.
#include <gtest/gtest.h>

#include <cctype>

#include "app/dns.h"
#include "gfw/gfw_device.h"
#include "netsim/wire.h"
#include "tcpstack/tcp_endpoint.h"

namespace ys {
namespace {

const net::FourTuple kTuple{net::make_ip(10, 0, 0, 1), 40000,
                            net::make_ip(93, 184, 216, 34), 80};

// ------------------------------------------------------------ wire parser

class WireFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(WireFuzz, RandomBytesNeverCrashTheParser) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.uniform(120));
    for (auto& b : garbage) b = static_cast<u8>(rng.next_u32());
    auto parsed = net::parse(garbage);
    if (parsed.ok()) {
      // Whatever parsed must re-serialize without crashing.
      (void)net::serialize(parsed.value());
      (void)parsed.value().summary();
    }
  }
}

TEST_P(WireFuzz, BitFlippedPacketsParseOrFailCleanly) {
  Rng rng(GetParam() + 1000);
  net::Packet pkt = net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(),
                                         1000, 2000, to_bytes("payload"));
  pkt.tcp->options.timestamps = net::TcpTimestamps{1, 2};
  pkt.tcp->options.mss = 1460;
  net::finalize(pkt);
  const Bytes image = net::serialize(pkt);

  for (int i = 0; i < 500; ++i) {
    Bytes mutated = image;
    const std::size_t pos = rng.uniform(mutated.size());
    mutated[pos] ^= static_cast<u8>(1u << rng.uniform(8));
    auto parsed = net::parse(mutated);
    if (parsed.ok()) {
      // A single bit flip in header/payload is representable; checksum
      // validation is the layer that rejects it semantically.
      (void)net::transport_checksum_ok(parsed.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Values(1, 2, 3));

// --------------------------------------------------------------- DNS codec

class DnsFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(DnsFuzz, RandomBytesNeverCrashDnsParsing) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.uniform(80));
    for (auto& b : garbage) b = static_cast<u8>(rng.next_u32());
    auto parsed = app::dns_parse(garbage);
    if (parsed.ok()) {
      (void)app::dns_encode(parsed.value());
    }
    // TCP stream extraction on garbage must terminate too.
    std::size_t offset = 0;
    (void)app::dns_tcp_extract(garbage, &offset);
    EXPECT_LE(offset, garbage.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsFuzz, ::testing::Values(7, 8));

// ----------------------------------------------------------- TCP endpoint

class EndpointStorm : public ::testing::TestWithParam<u64> {};

TEST_P(EndpointStorm, RandomSegmentStormPreservesInvariants) {
  net::EventLoop loop;
  Rng rng(GetParam());
  std::vector<net::Packet> sent;
  Bytes delivered;
  tcp::TcpEndpoint::Callbacks cb;
  cb.send = [&sent](net::Packet p) { sent.push_back(std::move(p)); };
  cb.on_data = [&delivered](tcp::TcpEndpoint&, ByteView d) {
    delivered.insert(delivered.end(), d.begin(), d.end());
  };
  tcp::TcpEndpoint ep(loop, Rng(3),
                      tcp::StackProfile::for_version(tcp::LinuxVersion::k4_4),
                      kTuple.reversed(), std::move(cb));
  ep.open_passive();

  for (int i = 0; i < 3000; ++i) {
    net::Packet pkt = net::make_tcp_packet(
        kTuple, net::TcpFlags::from_byte(static_cast<u8>(rng.uniform(64))),
        rng.next_u32(), rng.next_u32(),
        Bytes(rng.uniform(32), static_cast<u8>('a' + i % 26)));
    if (rng.chance(0.2)) pkt.tcp->options.md5_signature.emplace();
    if (rng.chance(0.2)) {
      pkt.tcp->options.timestamps =
          net::TcpTimestamps{rng.next_u32(), rng.next_u32()};
    }
    if (rng.chance(0.1)) pkt.tcp->data_offset_words = static_cast<u8>(rng.uniform(16));
    net::finalize(pkt);
    if (rng.chance(0.2)) {
      pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum + 1);
    }
    ep.on_segment(pkt);

    // Invariants that must hold under any input:
    // delivered bytes only grow, and never beyond what was in-window.
    ASSERT_LE(delivered.size(), static_cast<std::size_t>(70000));
  }
  // The endpoint is still in *a* defined state and its logs are coherent.
  (void)tcp::to_string(ep.state());
  for (const auto& event : ep.ignore_log()) {
    (void)tcp::to_string(event.reason);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndpointStorm, ::testing::Values(11, 12, 13));

// -------------------------------------------------------------- GFW device

class GfwStorm : public ::testing::TestWithParam<u64> {};

TEST_P(GfwStorm, RandomInterleavingsNeverBreakTheDevice) {
  gfw::DetectionRules rules = gfw::DetectionRules::standard();
  gfw::GfwConfig cfg;
  cfg.detection_miss_rate = 0.0;
  gfw::GfwDevice dev("gfw", cfg, &rules, Rng(9));
  Rng rng(GetParam());

  struct Fwd final : public net::Forwarder {
    explicit Fwd(Rng* rng) : rng_(rng) {}
    void forward(net::Packet) override {}
    void inject(net::Packet, net::Dir, SimTime) override { ++injections; }
    void drop(const net::Packet&, std::string_view) override {}
    SimTime now() const override { return SimTime::zero(); }
    Rng& rng() override { return *rng_; }
    int injections = 0;
    Rng* rng_;
  } fwd{&rng};

  for (int i = 0; i < 3000; ++i) {
    net::FourTuple tuple = kTuple;
    tuple.src_port = static_cast<u16>(40000 + rng.uniform(4));  // few conns
    const bool reverse = rng.chance(0.3);
    net::Packet pkt = net::make_tcp_packet(
        reverse ? tuple.reversed() : tuple,
        net::TcpFlags::from_byte(static_cast<u8>(rng.uniform(64))),
        rng.next_u32() % 10000, rng.next_u32() % 10000,
        Bytes(rng.uniform(40), 'x'));
    net::finalize(pkt);
    dev.process(std::move(pkt), reverse ? net::Dir::kS2C : net::Dir::kC2S,
                fwd);
  }
  // No keyword ever appeared, so no detections; TCB count stays bounded by
  // the small connection population.
  EXPECT_EQ(dev.detections(), 0);
  EXPECT_LE(dev.tcb_count(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GfwStorm, ::testing::Values(21, 22, 23));

// ------------------------------------------------------------- aho-corasick

TEST(AhoCorasickRandom, MatchesBruteForceOnRandomTexts) {
  Rng rng(31);
  const std::vector<std::string> patterns = {"abc", "bca", "aab", "cab",
                                             "aaaa"};
  gfw::AhoCorasick ac(patterns);
  for (int trial = 0; trial < 400; ++trial) {
    std::string text;
    const std::size_t len = 1 + rng.uniform(60);
    // 'd' occurs in no pattern; upper case must match like lower case.
    for (std::size_t i = 0; i < len; ++i) {
      text += "abcdABC"[rng.uniform(7)];
    }
    std::string lowered = text;
    for (char& c : lowered) c = static_cast<char>(std::tolower(c));
    bool brute = false;
    for (const auto& p : patterns) {
      if (lowered.find(p) != std::string::npos) brute = true;
    }
    EXPECT_EQ(ac.contains(text), brute) << text;
  }
}

}  // namespace
}  // namespace ys
