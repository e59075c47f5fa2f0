// Configuration for GFW device instances: the prior ("old") model of
// Khattak et al. and the evolved model this paper infers (§4).
#pragma once

#include <string>
#include <unordered_set>

#include "core/clock.h"
#include "gfw/aho_corasick.h"
#include "netsim/fragment.h"

namespace ys::gfw {

/// §2.1: two kinds of GFW instances are deployed together. Type-1 injects
/// bare RSTs with random TTL/window and — critically — cannot reassemble
/// across segments (a keyword split over two packets escapes it). Type-2
/// reassembles streams, injects RST/ACK triplets with cyclic TTL/window,
/// and enforces the 90-second blocking period with forged SYN/ACKs.
enum class DeviceType { kType1, kType2 };

/// What a device does to a tracked connection when it sees a RST.
enum class RstReaction {
  kTeardown,  // prior-model behaviour: destroy the TCB
  kResync,    // Hypothesized New Behavior 3: enter the resync state
};

/// The per-TCB state machine of the evolved model.
enum class TcbState {
  kEstablished,  // tracking; monitored-direction data is reassembled
  kResync,       // Behavior 2: waiting to re-anchor on the next client data
                 // packet or server SYN/ACK
};

struct GfwConfig {
  DeviceType device_type = DeviceType::kType2;

  /// false = prior model (TCB on SYN only; RST/FIN always tear down; no
  /// resync state). true = evolved model (Behaviors 1–3).
  bool evolved = true;

  /// Behavior 3 reactions, split by connection phase: the paper found
  /// resync-instead-of-teardown "way more frequently" for RSTs sent during
  /// the handshake than after it.
  RstReaction rst_reaction_handshake = RstReaction::kResync;
  RstReaction rst_reaction_established = RstReaction::kTeardown;

  /// Whether a TCP segment with no flags at all is processed as data.
  /// Varies per device in the wild (Table 1's 48/48 split on the no-flag
  /// insertion packet).
  bool accepts_no_flag_data = true;

  /// Overlap preference when reassembling out-of-order TCP segments.
  /// The prior model preferred the *latter* copy ([17]); evolved devices
  /// mostly prefer the former, which is what broke the segment-overlap
  /// evasion strategy (Table 1).
  net::OverlapPolicy tcp_segment_overlap = net::OverlapPolicy::kPreferFirst;

  /// IP fragments: the GFW records the first copy ([17], still true).
  net::OverlapPolicy ip_fragment_overlap = net::OverlapPolicy::kPreferFirst;

  /// Probability a detection is missed (GFW overload — the paper's
  /// persistent 2.8 % no-strategy success rate).
  double detection_miss_rate = 0.028;

  /// Device reaction time between observing a sensitive packet and its
  /// injected resets hitting the wire.
  SimTime reaction_delay = SimTime::from_us(400);

  /// Blocking period after a detection (measured at 90 s).
  SimTime block_duration = SimTime::from_sec(90);
  /// Type-2 devices enforce the block period; type-1 normally do not.
  bool enforce_block_period = true;

  /// Rare paths also censor keywords in HTTP *responses* (§3.3).
  bool censors_responses = false;

  /// Tor-filtering deployments (§7.3): fingerprint + active probe + IP
  /// block. Absent on paths from Northern China in the measurements.
  bool tor_filtering = false;

  /// OpenVPN handshake DPI (observed Nov 2016, §7.3).
  bool vpn_dpi = false;

  /// Monitored receive window for the reassembler.
  u32 window = 65535;

  /// TTL the device stamps on injected packets (before path decrement).
  u8 inject_ttl = 64;

  // ------------------------------------------------- §8 countermeasures
  // Hypothetical hardened GFW variants discussed in the paper's arms-race
  // section. All default OFF (the measured GFW validates none of these);
  // the ablation bench switches them on to show which evasion strategies
  // each countermeasure would kill.

  /// Validate TCP checksums like an end host (kills bad-checksum
  /// insertion packets).
  bool harden_validate_checksum = false;
  /// Ignore segments carrying unsolicited MD5 options (kills MD5-based
  /// insertion packets — at the cost of opening the reverse evasion the
  /// paper notes, since servers that don't check MD5 then diverge).
  bool harden_reject_md5 = false;
  /// Ignore RSTs whose sequence number is not exactly the tracked one
  /// (RFC 5961-style strictness; kills loose teardown RSTs).
  bool harden_strict_rst = false;
  /// Only trust client bytes once the server has acknowledged them ("trust
  /// the data packet sent by the client only after seeing the server's ACK
  /// packet", §8). Kills prefill/desync junk, which servers never ack —
  /// but greatly complicates the design, as the paper observes.
  bool harden_require_server_ack = false;
};

/// Shared, immutable detection rules (one per experiment, many devices).
struct DetectionRules {
  AhoCorasick http_keywords;
  std::unordered_set<std::string> dns_blacklist;

  /// The paper's rules, built once per process (the keyword automaton is
  /// the costly part). Copy them to get a set to modify.
  static const DetectionRules& standard() {
    static const DetectionRules rules = [] {
      DetectionRules r;
      r.http_keywords = AhoCorasick(
          {"ultrasurf", "falun", "freenet.github", "wujieliulan"});
      r.dns_blacklist = {"www.dropbox.com", "dropbox.com", "facebook.com",
                         "twitter.com", "www.nytimes.com"};
      return r;
    }();
    return rules;
  }
};

}  // namespace ys::gfw
