// Client-side evasion strategies: the paper's primary contribution.
//
// A Strategy observes a connection's packets at the client's
// netfilter-like interception points and injects crafted insertion packets
// (or reshapes outgoing packets) to desynchronize the GFW's TCB from the
// server's. StrategyEngine wires strategies to a client Host and maintains
// the minimal per-connection state (ISNs, next sequence numbers, timestamp
// echoes) strategies need for crafting.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "strategy/insertion.h"
#include "strategy/program.h"
#include "tcpstack/host.h"

namespace ys::strategy {

/// What the client knows about the path, measured the way INTANG measures
/// it: a tcptraceroute-style hop count to the server, minus a safety margin
/// δ for TTL-limited insertion packets (§7.1 uses δ = 2).
struct PathKnowledge {
  int hop_estimate = 14;
  int ttl_delta = 2;
  u8 default_ttl = 64;
  /// Copies of each insertion packet to send against loss (§3.4 uses 3;
  /// INTANG can raise it on lossy paths — the §7.1 "adjusting the level of
  /// redundancy" optimization).
  int insertion_redundancy = 3;

  u8 insertion_ttl() const {
    const int ttl = hop_estimate - ttl_delta;
    return static_cast<u8>(ttl < 1 ? 1 : (ttl > 255 ? 255 : ttl));
  }
};

/// Per-connection state tracked by the engine and exposed to strategies.
class StrategyContext {
 public:
  StrategyContext(tcp::Host& host, PathKnowledge knowledge, Rng rng)
      : host_(&host), knowledge_(knowledge), rng_(std::move(rng)) {}

  /// Mark a packet as this connection's strategy output: crafted, and
  /// causally linked to the strategy decision that armed the connection.
  void stamp(net::Packet& pkt) const {
    pkt.crafted = true;
    pkt.cause_hint = decision_event;
  }

  /// Stamped raw injection below the interception hook (no recursion),
  /// scheduled `delay` from now even when that is zero. The delay spaces
  /// insertion packets so path jitter cannot reorder them, and implements
  /// the paper's "repeat thrice with 20 ms intervals" loss hedge.
  void raw_send_after(SimTime delay, net::Packet pkt);

  /// Release the connection's own packet (the request or SYN a strategy
  /// held back) `delay` from now, below the hook. It stays linked to the
  /// arming decision but is not crafted: it is not an insertion packet.
  void release_after(SimTime delay, net::Packet pkt);

  /// Current insertion redundancy for this connection.
  int redundancy() const { return knowledge_.insertion_redundancy; }

  net::EventLoop& loop() { return host_->loop(); }
  Rng& rng() { return rng_; }
  const PathKnowledge& knowledge() const { return knowledge_; }

  /// Tuning for insertion-packet discrepancies, kept current by the
  /// engine as the connection progresses.
  InsertionTuning tuning() const;

  // Observed connection state (client view: src = client).
  net::FourTuple tuple;
  u32 client_isn = 0;
  bool client_isn_known = false;
  u32 server_isn = 0;
  bool server_isn_known = false;
  u32 snd_nxt = 0;  // next client sequence number to go out
  u32 rcv_nxt = 0;  // next expected server sequence number
  u32 last_ts_val = 0;
  bool handshake_done = false;

  /// Trace-event id of the "strategy armed" decision for this connection
  /// (0 when tracing is off); stamped onto every insertion packet.
  u64 decision_event = 0;

 private:
  tcp::Host* host_;
  PathKnowledge knowledge_;
  Rng rng_;
};

/// Retransmission-aware trigger. Fires on the first outgoing data packet
/// and again on every kernel retransmission of that same segment: INTANG's
/// callbacks run on retransmitted packets too, and without that a single
/// lost insertion packet would let the stack leak the request in plaintext.
class DataTrigger {
 public:
  bool fires(const net::Packet& pkt) {
    if (pkt.payload.empty()) return false;
    if (!armed_) {
      armed_ = true;
      seq_ = pkt.tcp->seq;
      return true;
    }
    return pkt.tcp->seq == seq_;
  }

 private:
  bool armed_ = false;
  u32 seq_ = 0;
};

/// Base class for all evasion strategies. Handlers may inject packets via
/// the context and may drop/modify the triggering packet via the verdict.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;

  /// Outgoing packet (from the client TCP stack or raw sends above the
  /// hook). Called before the packet reaches the wire.
  virtual tcp::Host::Verdict on_egress(StrategyContext& ctx,
                                       net::Packet& pkt) {
    (void)ctx;
    (void)pkt;
    return tcp::Host::Verdict::kAccept;
  }

  /// Incoming packet, before the client TCP stack processes it.
  virtual tcp::Host::Verdict on_ingress(StrategyContext& ctx,
                                        net::Packet& pkt) {
    (void)ctx;
    (void)pkt;
    return tcp::Host::Verdict::kAccept;
  }
};

/// Identifiers for every strategy in the paper, used by benchmarks and by
/// INTANG's per-server cache.
enum class StrategyId {
  kNone,
  // §3.2 existing strategies (Table 1 rows).
  kTcbCreationSynTtl,
  kTcbCreationSynBadChecksum,
  kOutOfOrderIpFragments,
  kOutOfOrderTcpSegments,
  kInOrderTtl,
  kInOrderBadAck,
  kInOrderBadChecksum,
  kInOrderNoFlags,
  kTeardownRstTtl,
  kTeardownRstBadChecksum,
  kTeardownRstAckTtl,
  kTeardownRstAckBadChecksum,
  kTeardownFinTtl,
  kTeardownFinBadChecksum,
  /// The West Chamber Project's approach ([25], development ceased 2011):
  /// tear the GFW's TCB down "from both directions" with a client RST plus
  /// a source-spoofed server-side RST. Measured ineffective in §1/§9.
  kWestChamber,
  // §5.2 new strategies.
  kResyncDesync,
  kTcbReversal,
  // §7.1 improved + combined strategies (Table 4 rows).
  kImprovedTeardown,
  kImprovedInOrder,
  kCreationResyncDesync,   // Figure 3
  kTeardownReversal,       // Figure 4
};

const char* to_string(StrategyId id);

/// The strategy's canonical program spec (strategy/program.h grammar).
const char* spec(StrategyId id);

/// That spec, parsed once on first use and shared by every connection.
const CandidateProgram& program(StrategyId id);

/// Instantiate a fresh strategy object for one connection: program(id)
/// run by the one program executor.
std::unique_ptr<Strategy> make_strategy(StrategyId id);

/// The four robust strategies INTANG tries, in default preference order
/// (§7.1 Table 4).
std::vector<StrategyId> intang_candidate_strategies();

/// All Table 1 (existing) strategy rows in presentation order.
std::vector<StrategyId> legacy_strategies();

/// Every strategy id, including kNone (for CLIs and sweeps).
std::vector<StrategyId> all_strategies();

/// Reverse lookup by the to_string() name; nullopt for unknown names.
std::optional<StrategyId> strategy_from_name(std::string_view name);

/// Hooks strategies into a client Host. One engine per host; it tracks
/// per-connection contexts and forwards interception events.
class StrategyEngine {
 public:
  /// Factory chooses the strategy per destination (INTANG plugs its
  /// selector in here; benchmarks return a fixed strategy).
  using Factory =
      std::function<std::unique_ptr<Strategy>(const net::FourTuple&)>;

  StrategyEngine(tcp::Host& host, Factory factory, PathKnowledge knowledge,
                 Rng rng);

  /// Install as the host's egress/ingress hooks. Skip if a higher layer
  /// (INTANG) owns the hooks and calls egress()/ingress() itself.
  void install();

  /// Raise/lower insertion redundancy for *future* connections (INTANG's
  /// loss adaptation). Existing connections keep their level.
  void set_insertion_redundancy(int copies) {
    knowledge_.insertion_redundancy = copies;
  }
  int insertion_redundancy() const {
    return knowledge_.insertion_redundancy;
  }

  tcp::Host::Verdict egress(net::Packet& pkt);
  tcp::Host::Verdict ingress(net::Packet& pkt);

  /// Context lookup for tests (client-view tuple).
  const StrategyContext* find_context(const net::FourTuple& tuple) const;

 private:
  struct Conn {
    std::unique_ptr<Strategy> strategy;
    StrategyContext ctx;
  };

  Conn& conn_for(const net::FourTuple& client_tuple);

  tcp::Host& host_;
  Factory factory_;
  PathKnowledge knowledge_;
  Rng rng_;
  std::unordered_map<net::FourTuple, Conn, net::FourTupleHash> conns_;
};

}  // namespace ys::strategy
