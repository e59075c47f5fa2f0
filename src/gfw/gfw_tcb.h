// The GFW's shadow TCP Control Block.
//
// Roles inside a TCB are *assumed*, not known: a TCB created from a SYN
// assumes the SYN's sender is the client; a TCB created from a SYN/ACK
// (Hypothesized New Behavior 1) assumes the SYN/ACK's sender is the server.
// The TCB Reversal strategy (§5.2) exploits exactly this assumption by
// letting the client forge the SYN/ACK, flipping the monitored direction.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/types.h"
#include "gfw/aho_corasick.h"
#include "gfw/gfw_types.h"
#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/segment_reassembler.h"

namespace ys::gfw {

class GfwTcb {
 public:
  /// `assumed_client_to_server`: tuple in the direction the device will
  /// monitor. `monitored_dir` is the *real* path direction those packets
  /// travel (kS2C for reversed TCBs).
  GfwTcb(net::FourTuple assumed_client_to_server, net::Dir monitored_dir,
         bool reversed)
      : tuple_(assumed_client_to_server), monitored_dir_(monitored_dir),
        reversed_(reversed) {}

  const net::FourTuple& tuple() const { return tuple_; }
  net::Dir monitored_dir() const { return monitored_dir_; }
  bool reversed() const { return reversed_; }

  TcbState state = TcbState::kEstablished;

  /// Next expected monitored-direction sequence number.
  u32 client_next = 0;
  /// Next expected reverse-direction sequence number (used as the "current
  /// server-side sequence number" X in injected resets).
  u32 server_next = 0;
  bool server_seq_known = false;

  /// True once a SYN/ACK from the assumed server has been processed
  /// (multiple SYN/ACKs → resync, Behavior 2b).
  bool syn_ack_seen = false;
  /// True once any monitored-direction payload has been processed.
  bool client_data_seen = false;
  /// True once the client's handshake-completing ACK has been observed;
  /// §4 found RSTs *during* the handshake provoke the resync state far
  /// more often than RSTs after it, so the phase split keys off this.
  bool handshake_acked = false;

  bool in_handshake_phase() const {
    return !client_data_seen && !handshake_acked;
  }

  /// Keyword already found on this connection (resets may have been
  /// suppressed by an overload miss; either way, scan no further).
  bool detected = false;
  /// First monitored payload already checked against protocol
  /// fingerprints (Tor/VPN DPI applies to the first flight only).
  bool first_payload_checked = false;

  // ---------------------------------------------------- stream assembly

  /// Merge monitored-direction payload bytes at `seq` under `policy`,
  /// clipped to [client_next, client_next + window), and append the bytes
  /// now contiguous at client_next to the assembled stream. Returns that
  /// newly contiguous chunk, valid until the next call.
  ByteView assemble(u32 seq, ByteView data, net::OverlapPolicy policy,
                    u32 window);

  /// Reset the reassembly anchor to `seq` (resync): pending out-of-order
  /// bytes are discarded, the assembled stream continues from the new
  /// anchor.
  void reanchor(u32 seq);

  /// Full monitored stream assembled so far.
  const Bytes& stream() const { return stream_; }

  AhoCorasick::Cursor scan_cursor;
  std::size_t dns_parse_offset = 0;

  /// §8 "require server ACK" hardening: drained client bytes wait here
  /// until the server acknowledges past them; `pending_base_seq` is the
  /// sequence number of pending_scan.front().
  Bytes pending_scan;
  u32 pending_base_seq = 0;
  bool pending_base_valid = false;
  /// Hardened resync: anchor candidates observed while in the resync
  /// state; the device commits to the one the server later acknowledges
  /// (an unacked desync packet therefore never becomes the anchor).
  std::vector<std::pair<u32, Bytes>> anchor_candidates;

 private:
  net::FourTuple tuple_;
  net::Dir monitored_dir_;
  bool reversed_;
  net::SegmentReassembler reassembler_;
  Bytes stream_;
};

}  // namespace ys::gfw
