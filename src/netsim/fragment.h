// IP fragmentation and reassembly.
//
// The paper's out-of-order IP-fragment strategy (§3.2) crafts overlapping
// fragments and exploits reassembly-preference differences between the GFW
// (prefers the *first* copy of an overlapped range) and end hosts.
// Middleboxes on some paths (Table 2) either drop fragments outright or
// reassemble them before forwarding — both behaviours use this engine.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/result.h"
#include "core/types.h"
#include "netsim/packet.h"

namespace ys::net {

/// Which copy of an overlapped byte range wins at reassembly.
enum class OverlapPolicy {
  kPreferFirst,  // GFW IP-fragment behaviour, BSD-style
  kPreferLast,   // overwrite with the newest copy
};

/// Split a finalized, non-fragmented packet into IP fragments whose payload
/// slices are at most `mtu_payload` bytes (rounded down to a multiple of 8
/// except for the last fragment). Every output fragment carries raw
/// transport bytes (tcp/udp unset) and is finalized.
std::vector<Packet> fragment_packet(const Packet& pkt,
                                    std::size_t mtu_payload);

/// Craft a single raw fragment of the transport image of `whole` covering
/// [offset_bytes, offset_bytes + bytes.size()). `offset_bytes` must be a
/// multiple of 8. Used by the overlapping-fragment evasion strategy, which
/// sends ranges out of order and with conflicting contents.
Packet make_raw_fragment(const Packet& whole, std::size_t offset_bytes,
                         Bytes bytes, bool more_fragments);

/// Per-(src, dst, id, proto) reassembly with a configurable overlap policy.
class FragmentReassembler {
 public:
  explicit FragmentReassembler(OverlapPolicy policy) : policy_(policy) {}

  /// Feed one fragment. Returns the fully reassembled packet once every
  /// byte of the datagram is present, otherwise nullopt. Whole packets need
  /// no reassembly: callers gate on `ip.is_fragmented()` and use them in
  /// place (one passed here anyway comes back as an unchanged copy).
  std::optional<Packet> push(const Packet& pkt);

  /// Drop partial state older than callers care about (simple flush; the
  /// simulator's flows are short so no per-fragment timer is modeled).
  void clear() { partial_.clear(); }

  std::size_t pending_datagrams() const { return partial_.size(); }

 private:
  struct Key {
    IpAddr src;
    IpAddr dst;
    u16 id;
    u8 proto;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      u64 h = (static_cast<u64>(k.src) << 32) | k.dst;
      h ^= (static_cast<u64>(k.id) << 8) | k.proto;
      h *= 0x9E3779B97F4A7C15ULL;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  struct Partial {
    // Sparse assembled transport bytes plus a presence bitmap.
    std::vector<u8> bytes;
    std::vector<bool> present;
    std::optional<std::size_t> total_length;  // known once MF=0 arrives
    Ipv4Header first_header;                  // header of the offset-0 frag
    bool have_first = false;
  };

  OverlapPolicy policy_;
  std::unordered_map<Key, Partial, KeyHash> partial_;
};

}  // namespace ys::net
