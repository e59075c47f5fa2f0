#include "netsim/wire.h"

#include <cassert>

#include "core/byte_io.h"

namespace ys::net {
namespace {

/// Writes big-endian fields into a fixed header buffer; the headers are
/// short enough to live on the stack, so building one allocates nothing.
class HeaderWriter {
 public:
  explicit HeaderWriter(std::span<u8> out) : out_(out) {}

  void u8_(u8 v) {
    assert(size_ < out_.size());
    out_[size_++] = v;
  }
  void u16_(u16 v) {
    u8_(static_cast<u8>(v >> 8));
    u8_(static_cast<u8>(v));
  }
  void u32_(u32 v) {
    u16_(static_cast<u16>(v >> 16));
    u16_(static_cast<u16>(v));
  }
  void bytes(ByteView v) {
    for (u8 b : v) u8_(b);
  }
  void zeros(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) u8_(0);
  }

  std::size_t size() const { return size_; }

 private:
  std::span<u8> out_;
  std::size_t size_ = 0;
};

// TCP option kinds we encode/decode structurally.
constexpr u8 kOptEol = 0;
constexpr u8 kOptNop = 1;
constexpr u8 kOptMss = 2;
constexpr u8 kOptWScale = 3;
constexpr u8 kOptSackPerm = 4;
constexpr u8 kOptTimestamps = 8;
constexpr u8 kOptMd5 = 19;

void write_tcp_options(HeaderWriter& w, const TcpOptions& opts) {
  std::size_t start = w.size();
  if (opts.mss) {
    w.u8_(kOptMss);
    w.u8_(4);
    w.u16_(*opts.mss);
  }
  if (opts.window_scale) {
    w.u8_(kOptWScale);
    w.u8_(3);
    w.u8_(*opts.window_scale);
  }
  if (opts.sack_permitted) {
    w.u8_(kOptSackPerm);
    w.u8_(2);
  }
  if (opts.timestamps) {
    w.u8_(kOptTimestamps);
    w.u8_(10);
    w.u32_(opts.timestamps->ts_val);
    w.u32_(opts.timestamps->ts_ecr);
  }
  if (opts.md5_signature) {
    w.u8_(kOptMd5);
    w.u8_(18);
    w.bytes(ByteView(opts.md5_signature->data(), 16));
  }
  while ((w.size() - start) % 4 != 0) w.u8_(kOptNop);
}

Status read_tcp_options(BufReader& r, std::size_t options_len,
                        TcpOptions& out) {
  std::size_t end = r.position() + options_len;
  while (r.position() < end) {
    auto kind = r.u8_();
    if (!kind.ok()) return kind.error();
    if (kind.value() == kOptEol) break;
    if (kind.value() == kOptNop) continue;
    auto len = r.u8_();
    if (!len.ok()) return len.error();
    if (len.value() < 2) return Error::make("TCP option length < 2");
    const std::size_t body = len.value() - 2u;
    switch (kind.value()) {
      case kOptMss: {
        auto v = r.u16_();
        if (!v.ok()) return v.error();
        out.mss = v.value();
        break;
      }
      case kOptWScale: {
        auto v = r.u8_();
        if (!v.ok()) return v.error();
        out.window_scale = v.value();
        break;
      }
      case kOptSackPerm:
        out.sack_permitted = true;
        break;
      case kOptTimestamps: {
        auto val = r.u32_();
        auto ecr = r.u32_();
        if (!val.ok() || !ecr.ok()) return Error::make("short timestamps");
        out.timestamps = TcpTimestamps{val.value(), ecr.value()};
        break;
      }
      case kOptMd5: {
        auto digest = r.bytes(16);
        if (!digest.ok()) return digest.error();
        std::array<u8, 16> md5{};
        std::copy(digest.value().begin(), digest.value().end(), md5.begin());
        out.md5_signature = md5;
        break;
      }
      default: {
        auto st = r.skip(body);
        if (!st.ok()) return st;
        break;
      }
    }
  }
  // Consume any remaining padding inside the declared option area.
  if (r.position() < end) {
    auto st = r.skip(end - r.position());
    if (!st.ok()) return st;
  }
  return Status::ok_status();
}

}  // namespace

std::size_t write_ip_header(const Ipv4Header& ip, HeaderBuf& out,
                            bool zero_checksum) {
  HeaderWriter w(out);
  w.u8_(static_cast<u8>(0x40 | (ip.ihl_words & 0x0F)));
  w.u8_(ip.dscp_ecn);
  w.u16_(ip.total_length);
  w.u16_(ip.identification);
  u16 frag = ip.fragment_offset & 0x1FFF;
  if (ip.dont_fragment) frag |= 0x4000;
  if (ip.more_fragments) frag |= 0x2000;
  w.u16_(frag);
  w.u8_(ip.ttl);
  w.u8_(static_cast<u8>(ip.protocol));
  w.u16_(zero_checksum ? 0 : ip.header_checksum);
  w.u32_(ip.src);
  w.u32_(ip.dst);
  if (ip.ihl_words > 5) {
    w.zeros((static_cast<std::size_t>(ip.ihl_words) - 5) * 4);
  }
  return w.size();
}

std::size_t write_transport_header(const Packet& pkt, HeaderBuf& out,
                                   bool zero_checksum) {
  HeaderWriter w(out);
  if (pkt.is_trailing_fragment()) return 0;
  if (pkt.tcp) {
    const TcpHeader& t = *pkt.tcp;
    w.u16_(t.src_port);
    w.u16_(t.dst_port);
    w.u32_(t.seq);
    w.u32_(t.ack);
    // data offset is written as stored even when inconsistent with the
    // actual option length — the "TCP header length < 20" discrepancy.
    w.u8_(static_cast<u8>((t.data_offset_words & 0x0F) << 4));
    w.u8_(t.flags.to_byte());
    w.u16_(t.window);
    w.u16_(zero_checksum ? 0 : t.checksum);
    w.u16_(t.urgent_pointer);
    write_tcp_options(w, t.options);
  } else if (pkt.udp) {
    const UdpHeader& u = *pkt.udp;
    w.u16_(u.src_port);
    w.u16_(u.dst_port);
    w.u16_(u.length);
    w.u16_(zero_checksum ? 0 : u.checksum);
  }
  return w.size();
}

Bytes serialize_ip_header(const Ipv4Header& ip) {
  HeaderBuf hdr;
  const std::size_t n = write_ip_header(ip, hdr);
  return Bytes(hdr.begin(), hdr.begin() + static_cast<long>(n));
}

Bytes serialize_transport(const Packet& pkt, bool zero_checksum) {
  HeaderBuf hdr;
  const std::size_t n = write_transport_header(pkt, hdr, zero_checksum);
  Bytes out;
  out.reserve(n + pkt.payload.size());
  out.insert(out.end(), hdr.begin(), hdr.begin() + static_cast<long>(n));
  out.insert(out.end(), pkt.payload.begin(), pkt.payload.end());
  return out;
}

Bytes serialize(const Packet& pkt) {
  Bytes out = serialize_ip_header(pkt.ip);
  Bytes transport = serialize_transport(pkt);
  out.insert(out.end(), transport.begin(), transport.end());
  return out;
}

Result<Packet> parse(ByteView data) {
  BufReader r(data);
  Packet pkt;

  auto vihl = r.u8_();
  if (!vihl.ok()) return Error::make("truncated IP header");
  if ((vihl.value() >> 4) != 4) return Error::make("not IPv4");
  pkt.ip.ihl_words = vihl.value() & 0x0F;
  if (pkt.ip.ihl_words < 5) return Error::make("IP IHL < 5");

  auto tos = r.u8_();
  auto total = r.u16_();
  auto ident = r.u16_();
  auto frag = r.u16_();
  auto ttl = r.u8_();
  auto proto = r.u8_();
  auto hsum = r.u16_();
  auto src = r.u32_();
  auto dst = r.u32_();
  if (!tos.ok() || !total.ok() || !ident.ok() || !frag.ok() || !ttl.ok() ||
      !proto.ok() || !hsum.ok() || !src.ok() || !dst.ok()) {
    return Error::make("truncated IP header");
  }
  pkt.ip.dscp_ecn = tos.value();
  pkt.ip.total_length = total.value();
  pkt.ip.identification = ident.value();
  pkt.ip.dont_fragment = (frag.value() & 0x4000) != 0;
  pkt.ip.more_fragments = (frag.value() & 0x2000) != 0;
  pkt.ip.fragment_offset = frag.value() & 0x1FFF;
  pkt.ip.ttl = ttl.value();
  pkt.ip.protocol = static_cast<IpProto>(proto.value());
  pkt.ip.header_checksum = hsum.value();
  pkt.ip.src = src.value();
  pkt.ip.dst = dst.value();
  if (pkt.ip.ihl_words > 5) {
    auto st = r.skip((static_cast<std::size_t>(pkt.ip.ihl_words) - 5) * 4);
    if (!st.ok()) return Error::make("truncated IP options");
  }

  // Trailing fragment: raw transport bytes only.
  if (pkt.ip.fragment_offset != 0) {
    auto body = r.bytes(r.remaining());
    pkt.payload = std::move(body).take();
    return pkt;
  }

  if (pkt.ip.protocol == IpProto::kTcp) {
    TcpHeader t;
    auto sp = r.u16_();
    auto dp = r.u16_();
    auto seq = r.u32_();
    auto ack = r.u32_();
    auto off = r.u8_();
    auto flags = r.u8_();
    auto win = r.u16_();
    auto csum = r.u16_();
    auto urg = r.u16_();
    if (!sp.ok() || !dp.ok() || !seq.ok() || !ack.ok() || !off.ok() ||
        !flags.ok() || !win.ok() || !csum.ok() || !urg.ok()) {
      return Error::make("truncated TCP header");
    }
    t.src_port = sp.value();
    t.dst_port = dp.value();
    t.seq = seq.value();
    t.ack = ack.value();
    t.data_offset_words = off.value() >> 4;
    t.flags = TcpFlags::from_byte(flags.value());
    t.window = win.value();
    t.checksum = csum.value();
    t.urgent_pointer = urg.value();
    // A data offset below 5 is structurally invalid; we still parse the
    // remaining bytes as payload so the endpoint can observe and reject it.
    if (t.data_offset_words > 5) {
      const std::size_t opt_len =
          (static_cast<std::size_t>(t.data_offset_words) - 5) * 4;
      if (opt_len > r.remaining()) return Error::make("truncated TCP options");
      auto st = read_tcp_options(r, opt_len, t.options);
      if (!st.ok()) return st.error();
    }
    pkt.tcp = t;
    auto body = r.bytes(r.remaining());
    pkt.payload = std::move(body).take();
    return pkt;
  }

  if (pkt.ip.protocol == IpProto::kUdp) {
    UdpHeader u;
    auto sp = r.u16_();
    auto dp = r.u16_();
    auto len = r.u16_();
    auto csum = r.u16_();
    if (!sp.ok() || !dp.ok() || !len.ok() || !csum.ok()) {
      return Error::make("truncated UDP header");
    }
    u.src_port = sp.value();
    u.dst_port = dp.value();
    u.length = len.value();
    u.checksum = csum.value();
    pkt.udp = u;
    auto body = r.bytes(r.remaining());
    pkt.payload = std::move(body).take();
    return pkt;
  }

  auto body = r.bytes(r.remaining());
  pkt.payload = std::move(body).take();
  return pkt;
}

}  // namespace ys::net
