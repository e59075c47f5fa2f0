// TCP endpoint types: states, per-Linux-version behaviour profiles, and the
// machine-readable "ignore path" taxonomy of §5.3 / Table 3.
#pragma once

#include <string>
#include <vector>

#include "core/types.h"
#include "netsim/fragment.h"

namespace ys::tcp {

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynRecv,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

const char* to_string(TcpState s);

/// Sequence-number comparison helpers (wrap-around safe, RFC 793 §3.3).
constexpr bool seq_lt(u32 a, u32 b) { return static_cast<i32>(a - b) < 0; }
constexpr bool seq_le(u32 a, u32 b) { return static_cast<i32>(a - b) <= 0; }
constexpr bool seq_gt(u32 a, u32 b) { return static_cast<i32>(a - b) > 0; }
constexpr bool seq_ge(u32 a, u32 b) { return static_cast<i32>(a - b) >= 0; }

/// Why a segment was discarded without changing connection state. Each
/// value corresponds to one "ignore path" in the sense of §5.3: the paper's
/// insertion-packet discovery enumerates exactly these paths in the server
/// stack and probes which of them the GFW does *not* share.
enum class IgnoreReason {
  kBadIpLength,        // IP total length disagrees with actual packet size
  kShortTcpHeader,     // data offset < 5 words
  kBadChecksum,        // TCP checksum validation failed
  kUnsolicitedMd5,     // RFC 2385 option present but never negotiated
  kNoAckFlag,          // segment without ACK flag in a synchronized state
                       // (covers the "no flag" and "FIN only" rows)
  kBadAckNumber,       // ACK field acknowledges data never sent
  kOldTimestamp,       // PAWS: timestamp older than last accepted
  kOutOfWindowSeq,     // data entirely outside the receive window
  kDuplicateData,      // segment entirely below rcv_nxt
  kChallengeAckSyn,    // RFC 5961: SYN in ESTABLISHED answered w/ challenge
  kSynSilentlyIgnored, // Linux 3.14: SYN in ESTABLISHED dropped, no reply
  kChallengeAckRst,    // RFC 5961: in-window (non-exact) RST challenged
  kOutOfWindowRst,     // RST outside window
  kOutOfWindowSynOld,  // pre-5961 stack: out-of-window SYN acked + dropped
  kBadStateForSegment, // e.g. plain ACK arriving in LISTEN
  kNotListening,       // no matching endpoint on the host (keep last: it
                       // sizes the endpoint's per-reason counter cache)
};

const char* to_string(IgnoreReason r);

struct IgnoreEvent {
  TcpState state;
  IgnoreReason reason;
  /// The call site's fixed note (e.g. "RST in LISTEN"), or nullptr. No
  /// per-packet text: a trace already records the packet itself.
  const char* note = nullptr;
};

/// Linux versions cross-validated in §5.3.
enum class LinuxVersion {
  k2_4_37,
  k2_6_34,
  k3_14,
  k4_0,
  k4_4,  // keep last, and the order: tcp_endpoint.cpp's counter names follow it
};

const char* to_string(LinuxVersion v);

/// Behavioural knobs distinguishing the modeled stacks. The defaults are
/// Linux 4.4 (the paper's reference stack); `for_version` derives the
/// others per the §5.3 cross-validation findings. What every modeled stack
/// shares is fixed in TcpEndpoint: checksum validation, timestamps with
/// PAWS, MSS 1460, and no negotiated MD5 (so any MD5 option is unsolicited).
struct StackProfile {
  LinuxVersion version = LinuxVersion::k4_4;

  /// RFC 2385: reject segments with an unsolicited MD5 option. Linux
  /// 2.4.37 predates the implementation and accepts such segments.
  bool rejects_unsolicited_md5 = true;

  /// Modern stacks ignore any non-SYN/RST segment lacking the ACK flag in
  /// synchronized states; 2.6.34 and 2.4.37 accept data without ACK (§5.3).
  bool requires_ack_flag = true;

  /// RFC 5961 behaviours (Linux >= 3.6/3.8-ish; true for 4.0/4.4):
  /// SYN in ESTABLISHED draws a challenge ACK; RST must hit rcv_nxt
  /// exactly, in-window RSTs are challenged.
  bool rfc5961_challenge_acks = true;

  /// Linux 3.14 silently ignores a SYN in ESTABLISHED (neither challenge
  /// nor reset). Only meaningful when rfc5961_challenge_acks is false.
  bool ignores_syn_in_established = false;

  /// Reject segments whose ACK field acknowledges unsent data. A minority
  /// of real-world servers/middlebox front ends "accept packets regardless
  /// of the (wrong) ACK number" (§7.1) — those are modeled by clearing
  /// this flag.
  bool validates_ack_field = true;

  /// Overlap preference when reassembling out-of-order TCP segments.
  /// Linux keeps the first-arrived copy of a byte.
  net::OverlapPolicy segment_overlap = net::OverlapPolicy::kPreferFirst;

  /// Overlap preference of the host IP-fragment reassembler.
  net::OverlapPolicy ip_fragment_overlap = net::OverlapPolicy::kPreferLast;

  static StackProfile for_version(LinuxVersion v);
};

}  // namespace ys::tcp
