// RFC 1071 Internet checksum and the TCP/UDP pseudo-header checksums.
//
// The simulator serializes real wire images and validates real checksums:
// "bad checksum" insertion packets (Table 1/Table 3) are crafted by
// corrupting the stored checksum, and every endpoint/middlebox that claims
// to validate checksums recomputes them from the wire image.
#pragma once

#include "core/types.h"

namespace ys {

/// One's-complement sum of 16-bit words over `data`, folded to 16 bits.
/// An odd trailing byte is padded with zero per RFC 1071.
u16 internet_checksum(ByteView data);

/// Incremental helper: returns the unfolded 32-bit partial sum so callers
/// can chain pseudo-header + segment bytes.
u32 checksum_accumulate(ByteView data, u32 acc);

/// Fold a 32-bit accumulated sum to the final 16-bit complement.
u16 checksum_finish(u32 acc);

/// TCP/UDP checksum over the IPv4 pseudo-header (src, dst, proto, length)
/// followed by the transport header+payload bytes in `segment`.
u16 transport_checksum(u32 src_ip, u32 dst_ip, u8 protocol, ByteView segment);

/// The same checksum over a segment given as its header and its payload,
/// so the segment need not be copied into one buffer. `header` must have
/// even length (TCP and UDP headers always do).
u16 transport_checksum(u32 src_ip, u32 dst_ip, u8 protocol, ByteView header,
                       ByteView payload);

}  // namespace ys
