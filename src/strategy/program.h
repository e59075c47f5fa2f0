// Strategy programs: every evasion strategy as an ordered list of
// insertion-packet steps, run by one executor.
//
// A CandidateProgram is a list of steps, each a point in the (phase ×
// packet kind × discrepancy × tuning) grid that insertion.h exposes. Each
// paper strategy is one program (the id table in strategy.cpp), and the
// strategy search (ys::search) composes new ones; both run through the
// same executor behind the same StrategyEngine hook, so `yourstate
// explain` attributes their wins and losses the same way. Programs have a
// canonical, round-trippable spec string (serialize → parse → serialize is
// byte-exact, mirroring the FaultPlan inline-spec idiom) and a static
// insertion-packet cost.
//
// Spec grammar (one step per ';'; 'none' is the empty program):
//
//   step    := phase ':' kind ['/' disc] ['*' repeat] ['~' hedge] ['+ow']
//              ['+rev'] ['=' payload]
//   phase   := 'pre'  (fires on the client's bare SYN, before the
//                      handshake — the TCB-creation/reversal slot)
//            | 'data' (fires on the first outgoing data packet and its
//                      retransmissions — the teardown/overlap/resync slot)
//   kind    := 'syn' | 'synack' | 'rst' | 'rstack' | 'fin' | 'data'
//            | 'seg' | 'frag'
//   disc    := a strategy::Discrepancy name ('ttl', 'bad-checksum',
//              'bad-ack', 'no-flags', 'md5', 'old-timestamp',
//              'bad-ip-length', 'short-tcp-header'); omitted = none
//   repeat  := 1..9 copies, or 'auto' = the connection's insertion
//              redundancy when the step fires (§3.4; INTANG raises it on
//              lossy paths); omitted = 1
//   hedge   := 1..100: the §3.4 loss hedge — craft the packet once and
//              send its copies this many ms apart
//   '+ow'   := data phase only: anchor the step's sequence number far
//              outside the receive window (the §5.1 desync offset)
//   '+rev'  := data phase only: forge the packet as the server's — the
//              reversed tuple, sequence number anchored at rcv_nxt (the
//              West Chamber Project's "server-side" RST)
//   payload := data kind only: 'full' (junk the size of the triggering
//              request) or 1..1460 junk bytes; always serialized
//
// Each step takes 2 ms slots: one per copy, or one in all for a hedged
// step. The triggering packet is then released one slot after the last
// step. 'seg' and 'frag' instead replace the request: it leaves as
// out-of-order overlapping TCP segments or IP fragments (§3.2). Either
// must be the program's only data step and takes no suffix.
//
// Examples (paper strategies as programs):
//
//   data:rst/ttl*auto~20                  TCB teardown (Table 1)
//   data:rst/ttl*auto;data:data+ow=1      Improved teardown (§7.1)
//   data:data/md5*auto~20=full            Improved in-order overlap
//   pre:syn/ttl;data:syn/ttl+ow;data:data+ow=1   Fig. 3 combined strategy
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "strategy/insertion.h"

namespace ys::strategy {

class Strategy;

/// When a step fires on the connection.
enum class Phase {
  kPreHandshake,  // on the client's bare SYN
  kOnData,        // on the first outgoing data packet (+ retransmissions)
};

const char* to_string(Phase p);

/// What the step crafts. Mirrors PacketKind but splits RST from RST/ACK —
/// they are distinct crafting factories (and distinct Table 1 rows). The
/// last two reshape the request itself; the search never draws them.
enum class StepKind { kSyn, kSynAck, kRst, kRstAck, kFin, kData, kSeg, kFrag };

const char* to_string(StepKind k);

/// Table 5 lookup key for a step kind.
PacketKind packet_kind(StepKind k);

/// One insertion-packet step of a program.
struct Step {
  Phase phase = Phase::kOnData;
  StepKind kind = StepKind::kRst;
  Discrepancy disc = Discrepancy::kSmallTtl;
  /// Copies sent (§3.4 redundancy): 1..kMaxRepeat, or kAutoRepeat.
  int repeat = 1;
  /// 0: each copy is crafted afresh and takes its own 2 ms slot. N > 0:
  /// one packet, its copies N ms apart, one slot in all (the §3.4 hedge).
  int hedge_ms = 0;
  /// Data phase only: sequence number anchored out of window (§5.1).
  bool out_of_window = false;
  /// Data phase only: forged as the server's packet (reversed tuple).
  bool reversed = false;
  /// Data kind only: junk payload bytes; 0 = match the triggering
  /// packet's payload size ("full").
  int payload = 0;

  bool operator==(const Step&) const = default;
};

/// Hard bounds of the program space (shared by validation, mutation, and
/// the property-test sweep).
constexpr int kMaxSteps = 6;
constexpr int kMaxRepeat = 9;
constexpr int kMaxPayload = 1460;
constexpr int kMaxHedgeMs = 100;
/// Step::repeat value for '*auto'.
constexpr int kAutoRepeat = -1;

struct CandidateProgram {
  std::vector<Step> steps;

  /// Canonical spec string; parse(spec()).spec() == spec() byte-exact.
  std::string spec() const;

  /// Parse a spec. std::nullopt (and a message in *error) on syntax or
  /// validity problems. Accepts step suffix tokens in any order and
  /// explicit '/none'; spec() re-emits the canonical form.
  static std::optional<CandidateProgram> parse(const std::string& text,
                                               std::string* error);

  /// Structural validity: at most kMaxSteps steps; pre-handshake steps are
  /// SYN/SYN-ACK only, in-window and unreversed; payload on data kinds
  /// only; repeat and hedge in range; seg/frag alone in the data phase and
  /// bare. parse() only returns valid programs.
  bool valid(std::string* why = nullptr) const;

  /// Static insertion-packet cost: total crafted packets per firing
  /// (the Pareto cost axis). '*auto' counts the default redundancy.
  int insertion_cost() const;

  /// Executable form: a fresh per-connection Strategy running the steps.
  /// The strategy reads this program in place, so the program must
  /// outlive it. name() is `name` when given, else "search:" + spec(), so
  /// trace kDecision events (and explain attributions) carry the program.
  std::unique_ptr<Strategy> make_strategy(const char* name = nullptr) const;

  bool operator==(const CandidateProgram&) const = default;
};

}  // namespace ys::strategy
