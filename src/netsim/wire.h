// Wire-format serialization and parsing for the packet model.
//
// Round-tripping through real big-endian wire images keeps the model honest:
// checksum validation, option parsing, and the malformed-field insertion
// packets all operate on genuine byte layouts.
#pragma once

#include <array>

#include "core/result.h"
#include "core/types.h"
#include "netsim/packet.h"

namespace ys::net {

/// Room for the longest IPv4 header (ihl_words = 15) and the longest
/// transport header (20-byte TCP header plus 40 bytes of options).
inline constexpr std::size_t kMaxHeaderBytes = 60;
using HeaderBuf = std::array<u8, kMaxHeaderBytes>;

/// Write the IPv4 header into `out` and return its length (ihl_words * 4
/// bytes; option area zero-filled when ihl_words > 5). If `zero_checksum`,
/// the checksum field is written as zero (for checksum computation).
std::size_t write_ip_header(const Ipv4Header& ip, HeaderBuf& out,
                            bool zero_checksum = false);

/// Write the transport header (TCP header with options, or UDP header)
/// into `out` and return its length: 0 for trailing fragments and packets
/// with neither header. This is the one place the header layout lives;
/// the serializers and the checksum both use it.
std::size_t write_transport_header(const Packet& pkt, HeaderBuf& out,
                                   bool zero_checksum = false);

/// Serialize the IPv4 header; see write_ip_header.
Bytes serialize_ip_header(const Ipv4Header& ip);

/// Serialize the transport header + payload (no IP header). For trailing
/// fragments this is just the raw payload slice.
Bytes serialize_transport(const Packet& pkt, bool zero_checksum = false);

/// Full wire image: IP header + transport. Note the IP `total_length`
/// *field* is written as stored, which may disagree with the buffer size —
/// that mismatch is exactly the "IP length" insertion-packet discrepancy,
/// so callers must carry the actual size alongside the image.
Bytes serialize(const Packet& pkt);

/// Parse a wire image back into a structured packet. `data.size()` is the
/// actual received length (may be shorter than the claimed total_length).
/// Returns an error only for images too mangled to represent structurally;
/// semantically invalid packets (bad checksum, short TCP offset) parse fine
/// and carry their invalid fields, since endpoints must *see* them to
/// ignore them.
Result<Packet> parse(ByteView data);

}  // namespace ys::net
