// Packet model and wire codec tests: round trips across flag and option
// combinations, checksum semantics, and the deliberately-malformed fields
// insertion packets rely on.
#include <gtest/gtest.h>

#include "core/checksum.h"
#include "netsim/fragment.h"
#include "netsim/packet.h"
#include "netsim/wire.h"

namespace ys::net {
namespace {

const FourTuple kTuple{make_ip(10, 0, 0, 1), 40000,
                       make_ip(93, 184, 216, 34), 80};

Packet finalized_tcp(TcpFlags flags, Bytes payload = {}) {
  Packet pkt = make_tcp_packet(kTuple, flags, 1000, 2000, std::move(payload));
  finalize(pkt);
  return pkt;
}

// --------------------------------------------------------------- TcpFlags

TEST(TcpFlags, ByteRoundTrip) {
  for (int b = 0; b < 64; ++b) {
    const TcpFlags f = TcpFlags::from_byte(static_cast<u8>(b));
    EXPECT_EQ(f.to_byte(), b);
  }
}

TEST(TcpFlags, Rendering) {
  EXPECT_EQ(TcpFlags::only_syn().to_string(), "[S]");
  EXPECT_EQ(TcpFlags::syn_ack().to_string(), "[S.]");
  EXPECT_EQ(TcpFlags::rst_ack().to_string(), "[R.]");
  EXPECT_EQ(TcpFlags::none().to_string(), "[none]");
  EXPECT_FALSE(TcpFlags::none().any());
}

// --------------------------------------------------------------- finalize

TEST(Finalize, FillsLengthsAndChecksums) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1, 2,
                               to_bytes("hello"));
  EXPECT_EQ(pkt.ip.total_length, 0);
  finalize(pkt);
  EXPECT_EQ(pkt.ip.total_length, wire_size(pkt));
  EXPECT_NE(pkt.tcp->checksum, 0);
  EXPECT_TRUE(transport_checksum_ok(pkt));
  EXPECT_TRUE(ip_length_consistent(pkt));
}

TEST(Finalize, PreservesDeliberateCorruption) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1, 2,
                               to_bytes("hello"));
  pkt.tcp->checksum = 0xBEEF;        // pre-set: must survive
  pkt.ip.total_length = 9999;        // claimed length lie
  finalize(pkt);
  EXPECT_EQ(pkt.tcp->checksum, 0xBEEF);
  EXPECT_EQ(pkt.ip.total_length, 9999);
  EXPECT_FALSE(transport_checksum_ok(pkt));
  EXPECT_FALSE(ip_length_consistent(pkt));
}

TEST(Finalize, DataOffsetTracksOptions) {
  Packet plain = finalized_tcp(TcpFlags::only_ack());
  EXPECT_EQ(plain.tcp->data_offset_words, 5);

  Packet with_ts = make_tcp_packet(kTuple, TcpFlags::only_ack(), 1, 2);
  with_ts.tcp->options.timestamps = TcpTimestamps{1, 2};
  finalize(with_ts);
  EXPECT_EQ(with_ts.tcp->data_offset_words, 8);  // 20 + 12 option bytes

  Packet corrupted = make_tcp_packet(kTuple, TcpFlags::only_ack(), 1, 2);
  corrupted.tcp->data_offset_words = 4;  // deliberate short header
  finalize(corrupted);
  EXPECT_EQ(corrupted.tcp->data_offset_words, 4);
}

TEST(Finalize, OptionLengthsArePadded) {
  TcpOptions opts;
  opts.mss = 1460;
  EXPECT_EQ(opts.wire_length(), 4u);
  opts.window_scale = 7;
  EXPECT_EQ(opts.wire_length(), 8u);  // 4 + 3, padded
  opts.timestamps = TcpTimestamps{1, 2};
  EXPECT_EQ(opts.wire_length(), 20u);  // 4 + 3 + 10, padded
  opts.md5_signature.emplace();
  EXPECT_EQ(opts.wire_length(), 36u);  // + 18, padded
}

// ------------------------------------------------------------ round trips

struct FlagCase {
  TcpFlags flags;
  std::size_t payload;
};

class WireRoundTrip : public ::testing::TestWithParam<FlagCase> {};

TEST_P(WireRoundTrip, SerializeParsePreservesEverything) {
  const FlagCase& tc = GetParam();
  Bytes payload;
  for (std::size_t i = 0; i < tc.payload; ++i) {
    payload.push_back(static_cast<u8>(i));
  }
  Packet pkt = make_tcp_packet(kTuple, tc.flags, 0xCAFEBABE, 0x1BADB002,
                               payload);
  pkt.tcp->window = 4321;
  pkt.tcp->urgent_pointer = 7;
  pkt.tcp->options.mss = 1400;
  pkt.tcp->options.window_scale = 9;
  pkt.tcp->options.sack_permitted = true;
  pkt.tcp->options.timestamps = TcpTimestamps{111, 222};
  pkt.ip.ttl = 33;
  pkt.ip.identification = 0x4242;
  finalize(pkt);

  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Packet& out = parsed.value();
  EXPECT_EQ(out.ip.src, pkt.ip.src);
  EXPECT_EQ(out.ip.dst, pkt.ip.dst);
  EXPECT_EQ(out.ip.ttl, 33);
  EXPECT_EQ(out.ip.identification, 0x4242);
  ASSERT_TRUE(out.tcp.has_value());
  EXPECT_EQ(out.tcp->flags, tc.flags);
  EXPECT_EQ(out.tcp->seq, 0xCAFEBABEu);
  EXPECT_EQ(out.tcp->ack, 0x1BADB002u);
  EXPECT_EQ(out.tcp->window, 4321);
  EXPECT_EQ(out.tcp->urgent_pointer, 7);
  EXPECT_EQ(out.tcp->options, pkt.tcp->options);
  EXPECT_EQ(out.payload, payload);
  EXPECT_TRUE(transport_checksum_ok(out));
}

INSTANTIATE_TEST_SUITE_P(
    AllFlagShapes, WireRoundTrip,
    ::testing::Values(FlagCase{TcpFlags::only_syn(), 0},
                      FlagCase{TcpFlags::syn_ack(), 0},
                      FlagCase{TcpFlags::only_ack(), 0},
                      FlagCase{TcpFlags::psh_ack(), 64},
                      FlagCase{TcpFlags::only_rst(), 0},
                      FlagCase{TcpFlags::rst_ack(), 0},
                      FlagCase{TcpFlags::fin_ack(), 0},
                      FlagCase{TcpFlags::none(), 32},
                      FlagCase{TcpFlags::only_fin(), 16},
                      FlagCase{TcpFlags::psh_ack(), 1460}));

TEST(Wire, UdpRoundTrip) {
  Packet pkt = make_udp_packet(kTuple, to_bytes("dns query bytes"));
  finalize(pkt);
  EXPECT_TRUE(transport_checksum_ok(pkt));

  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().is_udp());
  EXPECT_EQ(parsed.value().udp->src_port, 40000);
  EXPECT_EQ(parsed.value().udp->dst_port, 80);
  EXPECT_EQ(parsed.value().udp->length, 8 + 15);
  EXPECT_EQ(to_string(parsed.value().payload), "dns query bytes");
}

TEST(Wire, Md5OptionRoundTrip) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1, 2,
                               to_bytes("x"));
  std::array<u8, 16> digest;
  for (std::size_t i = 0; i < 16; ++i) digest[i] = static_cast<u8>(i * 3);
  pkt.tcp->options.md5_signature = digest;
  finalize(pkt);

  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().tcp->options.md5_signature.has_value());
  EXPECT_EQ(*parsed.value().tcp->options.md5_signature, digest);
}

TEST(Wire, CorruptedChecksumSurvivesRoundTrip) {
  Packet pkt = finalized_tcp(TcpFlags::psh_ack(), to_bytes("junk"));
  pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum + 1);
  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(transport_checksum_ok(parsed.value()));
}

TEST(Wire, ShortDataOffsetSurvivesRoundTrip) {
  Packet pkt = finalized_tcp(TcpFlags::psh_ack(), to_bytes("junk"));
  pkt.tcp->data_offset_words = 4;
  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().tcp->data_offset_words, 4);
}

TEST(Wire, ParseRejectsGarbage) {
  EXPECT_FALSE(parse(Bytes{}).ok());
  EXPECT_FALSE(parse(Bytes{0x45, 0x00}).ok());
  Bytes not_ipv4(40, 0);
  not_ipv4[0] = 0x60;  // version 6
  EXPECT_FALSE(parse(not_ipv4).ok());
}

TEST(Wire, ParseTruncatedTcpHeader) {
  Packet pkt = finalized_tcp(TcpFlags::only_syn());
  Bytes image = serialize(pkt);
  image.resize(24);  // IP header + 4 bytes of TCP
  EXPECT_FALSE(parse(image).ok());
}

// ------------------------------------------- checksum over header fields

// correct_transport_checksum sums the header and the payload in place; it
// must equal the checksum over the serialized segment it replaced.
u16 serialized_checksum(const Packet& pkt) {
  const Bytes segment = serialize_transport(pkt, /*zero_checksum=*/true);
  u16 sum = transport_checksum(pkt.ip.src, pkt.ip.dst,
                               static_cast<u8>(pkt.ip.protocol), segment);
  if (pkt.ip.protocol == IpProto::kUdp && sum == 0) sum = 0xFFFF;
  return sum;
}

Bytes counting_payload(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 7 + 3);
  return b;
}

TEST(ChecksumOverFields, EveryTcpOptionCombinationAndPayloadLength) {
  for (int mask = 0; mask < 32; ++mask) {
    for (std::size_t len : {0u, 1u, 2u, 3u, 7u, 64u, 1461u}) {
      Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 0xFFFFFFF0u,
                                   77, counting_payload(len));
      TcpOptions& o = pkt.tcp->options;
      if (mask & 1) o.mss = 1460;
      if (mask & 2) o.window_scale = 7;
      if (mask & 4) o.sack_permitted = true;
      if (mask & 8) o.timestamps = TcpTimestamps{0xDEADBEEF, 42};
      if (mask & 16) o.md5_signature = std::array<u8, 16>{1, 2, 3, 4, 5};
      finalize(pkt);
      EXPECT_EQ(correct_transport_checksum(pkt), serialized_checksum(pkt))
          << "options " << mask << " payload " << len;
      EXPECT_TRUE(transport_checksum_ok(pkt));
    }
  }
}

TEST(ChecksumOverFields, CorruptedDataOffset) {
  // Short-TCP-header insertion packets write the stored data offset, not
  // the option length; the sum covers the field as written.
  for (u8 words : {0, 4, 5, 9, 15}) {
    Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1, 2,
                                 counting_payload(13));
    pkt.tcp->options.timestamps = TcpTimestamps{5, 6};
    pkt.tcp->data_offset_words = words;
    EXPECT_EQ(correct_transport_checksum(pkt), serialized_checksum(pkt))
        << "data offset " << int{words};
  }
}

TEST(ChecksumOverFields, UdpZeroSumIsSentAsAllOnes) {
  // Search two payload bytes for a datagram whose computed sum is 0.
  bool found = false;
  for (u32 v = 0; v <= 0xFFFF && !found; ++v) {
    Packet pkt = make_udp_packet(
        kTuple, Bytes{static_cast<u8>(v >> 8), static_cast<u8>(v), 0x11});
    pkt.udp->length = 11;
    const Bytes segment = serialize_transport(pkt, /*zero_checksum=*/true);
    if (transport_checksum(pkt.ip.src, pkt.ip.dst, 17, segment) != 0) continue;
    found = true;
    EXPECT_EQ(correct_transport_checksum(pkt), 0xFFFF);
    EXPECT_EQ(correct_transport_checksum(pkt), serialized_checksum(pkt));
    finalize(pkt);
    EXPECT_EQ(pkt.udp->checksum, 0xFFFF);
    EXPECT_TRUE(transport_checksum_ok(pkt));
  }
  EXPECT_TRUE(found);
  for (std::size_t len : {0u, 1u, 2u, 15u, 512u}) {
    Packet pkt = make_udp_packet(kTuple, counting_payload(len));
    finalize(pkt);
    EXPECT_EQ(correct_transport_checksum(pkt), serialized_checksum(pkt));
  }
}

TEST(ChecksumOverFields, TrailingFragmentsSumTheirRawSlice) {
  Packet whole = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 9, 10,
                                 counting_payload(301));
  whole.tcp->options.timestamps = TcpTimestamps{1, 2};
  finalize(whole);
  const std::vector<Packet> frags = fragment_packet(whole, 64);
  ASSERT_GT(frags.size(), 2u);
  for (const Packet& f : frags) {
    EXPECT_EQ(correct_transport_checksum(f), serialized_checksum(f));
  }
  EXPECT_TRUE(frags.back().is_trailing_fragment());
  EXPECT_EQ(frags.back().payload.size() % 2, 1u);  // odd tail
}

TEST(ChecksumOverFields, HeaderWriterMatchesSerializedPrefix) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::syn_ack(), 5, 6,
                               counting_payload(9));
  pkt.tcp->options.mss = 1400;
  pkt.tcp->options.md5_signature.emplace();
  finalize(pkt);
  HeaderBuf hdr;
  const std::size_t n = write_transport_header(pkt, hdr);
  const Bytes segment = serialize_transport(pkt);
  ASSERT_EQ(segment.size(), n + pkt.payload.size());
  EXPECT_TRUE(std::equal(hdr.begin(), hdr.begin() + static_cast<long>(n),
                         segment.begin()));
  const std::size_t ip_len = write_ip_header(pkt.ip, hdr);
  EXPECT_EQ(Bytes(hdr.begin(), hdr.begin() + static_cast<long>(ip_len)),
            serialize_ip_header(pkt.ip));
}

// -------------------------------------------------------------- summaries

TEST(Summary, MentionsKeyFields) {
  Packet pkt = finalized_tcp(TcpFlags::only_syn());
  const std::string s = pkt.summary();
  EXPECT_NE(s.find("[S]"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.1:40000"), std::string::npos);
  EXPECT_NE(s.find("93.184.216.34:80"), std::string::npos);
}

TEST(Summary, FlagsBadChecksum) {
  Packet pkt = finalized_tcp(TcpFlags::psh_ack(), to_bytes("x"));
  EXPECT_EQ(pkt.summary().find("badcsum"), std::string::npos);
  pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum + 1);
  EXPECT_NE(pkt.summary().find("badcsum"), std::string::npos);
}

TEST(SeqEnd, CountsSynAndFin) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::only_syn(), 100, 0);
  EXPECT_EQ(pkt.tcp_seq_end(), 101u);
  Packet fin = make_tcp_packet(kTuple, TcpFlags::fin_ack(), 100, 0,
                               to_bytes("abc"));
  EXPECT_EQ(fin.tcp_seq_end(), 104u);
}

// ------------------------------------------------------------ four tuples

TEST(FourTuple, ReversalAndCanonical) {
  EXPECT_EQ(kTuple.reversed().src_ip, kTuple.dst_ip);
  EXPECT_EQ(kTuple.reversed().reversed(), kTuple);
  EXPECT_EQ(kTuple.canonical(), kTuple.reversed().canonical());
}

TEST(FourTuple, HashConsistentWithEquality) {
  FourTupleHash hash;
  EXPECT_EQ(hash(kTuple), hash(FourTuple{kTuple}));
  EXPECT_NE(hash(kTuple), hash(kTuple.reversed()));
}

TEST(HostPair, OrderInsensitive) {
  const HostPair a = HostPair::of(1, 2);
  const HostPair b = HostPair::of(2, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(HostPairHash{}(a), HostPairHash{}(b));
}

TEST(IpToString, DottedQuad) {
  EXPECT_EQ(ip_to_string(make_ip(93, 184, 216, 34)), "93.184.216.34");
  EXPECT_EQ(ip_to_string(0), "0.0.0.0");
  EXPECT_EQ(ip_to_string(0xFFFFFFFF), "255.255.255.255");
}

}  // namespace
}  // namespace ys::net
