#include "strategy/strategy.h"

#include "strategy/strategy_impl.h"
#include "tcpstack/tcp_types.h"

namespace ys::strategy {

void StrategyContext::raw_send_after(SimTime delay, net::Packet pkt) {
  pkt.crafted = true;
  pkt.cause_hint = decision_event;
  host_->send_raw_unhooked_after(delay, std::move(pkt));
}

void StrategyContext::raw_send_repeated(net::Packet pkt, int times,
                                        SimTime interval) {
  if (times <= 0) times = redundancy();
  for (int i = 0; i < times; ++i) {
    raw_send_after(SimTime::from_us(interval.us * i), pkt);
  }
}

InsertionTuning StrategyContext::tuning() const {
  InsertionTuning t;
  t.small_ttl = knowledge_.insertion_ttl();
  t.peer_snd_nxt = rcv_nxt;
  // Anything far behind the last timestamp we emitted fails PAWS at the
  // server; the GFW never checks.
  t.stale_ts_val = last_ts_val - 1'000'000;
  return t;
}

const char* to_string(StrategyId id) {
  switch (id) {
    case StrategyId::kNone: return "no-strategy";
    case StrategyId::kTcbCreationSynTtl: return "tcb-creation-syn/ttl";
    case StrategyId::kTcbCreationSynBadChecksum:
      return "tcb-creation-syn/bad-checksum";
    case StrategyId::kOutOfOrderIpFragments: return "ooo-ip-fragments";
    case StrategyId::kOutOfOrderTcpSegments: return "ooo-tcp-segments";
    case StrategyId::kInOrderTtl: return "in-order-overlap/ttl";
    case StrategyId::kInOrderBadAck: return "in-order-overlap/bad-ack";
    case StrategyId::kInOrderBadChecksum:
      return "in-order-overlap/bad-checksum";
    case StrategyId::kInOrderNoFlags: return "in-order-overlap/no-flags";
    case StrategyId::kTeardownRstTtl: return "teardown-rst/ttl";
    case StrategyId::kTeardownRstBadChecksum:
      return "teardown-rst/bad-checksum";
    case StrategyId::kTeardownRstAckTtl: return "teardown-rstack/ttl";
    case StrategyId::kTeardownRstAckBadChecksum:
      return "teardown-rstack/bad-checksum";
    case StrategyId::kTeardownFinTtl: return "teardown-fin/ttl";
    case StrategyId::kTeardownFinBadChecksum:
      return "teardown-fin/bad-checksum";
    case StrategyId::kWestChamber: return "west-chamber";
    case StrategyId::kResyncDesync: return "resync-desync";
    case StrategyId::kTcbReversal: return "tcb-reversal";
    case StrategyId::kImprovedTeardown: return "improved-tcb-teardown";
    case StrategyId::kImprovedInOrder: return "improved-in-order-overlap";
    case StrategyId::kCreationResyncDesync:
      return "tcb-creation+resync-desync";
    case StrategyId::kTeardownReversal: return "tcb-teardown+tcb-reversal";
  }
  return "?";
}

std::unique_ptr<Strategy> make_strategy(StrategyId id) {
  if (auto s = detail::make_legacy_strategy(id)) return s;
  if (auto s = detail::make_new_strategy(id)) return s;
  return detail::make_no_strategy();
}

std::vector<StrategyId> intang_candidate_strategies() {
  return {StrategyId::kTeardownReversal, StrategyId::kImprovedTeardown,
          StrategyId::kCreationResyncDesync, StrategyId::kImprovedInOrder};
}

std::vector<StrategyId> legacy_strategies() {
  return {
      StrategyId::kTcbCreationSynTtl,
      StrategyId::kTcbCreationSynBadChecksum,
      StrategyId::kOutOfOrderIpFragments,
      StrategyId::kOutOfOrderTcpSegments,
      StrategyId::kInOrderTtl,
      StrategyId::kInOrderBadAck,
      StrategyId::kInOrderBadChecksum,
      StrategyId::kInOrderNoFlags,
      StrategyId::kTeardownRstTtl,
      StrategyId::kTeardownRstBadChecksum,
      StrategyId::kTeardownRstAckTtl,
      StrategyId::kTeardownRstAckBadChecksum,
      StrategyId::kTeardownFinTtl,
      StrategyId::kTeardownFinBadChecksum,
  };
}

std::vector<StrategyId> all_strategies() {
  std::vector<StrategyId> out{StrategyId::kNone};
  for (auto id : legacy_strategies()) out.push_back(id);
  out.push_back(StrategyId::kWestChamber);
  out.push_back(StrategyId::kResyncDesync);
  out.push_back(StrategyId::kTcbReversal);
  for (auto id : intang_candidate_strategies()) out.push_back(id);
  return out;
}

std::optional<StrategyId> strategy_from_name(std::string_view name) {
  for (auto id : all_strategies()) {
    if (name == to_string(id)) return id;
  }
  return std::nullopt;
}

// ------------------------------------------------------------------ engine

StrategyEngine::StrategyEngine(tcp::Host& host, Factory factory,
                               PathKnowledge knowledge, Rng rng)
    : host_(host), factory_(std::move(factory)), knowledge_(knowledge),
      rng_(std::move(rng)) {}

void StrategyEngine::install() {
  host_.set_egress_hook(
      [this](net::Packet& pkt) { return egress(pkt); });
  host_.set_ingress_hook(
      [this](net::Packet& pkt) { return ingress(pkt); });
}

StrategyEngine::Conn& StrategyEngine::conn_for(
    const net::FourTuple& client_tuple) {
  auto it = conns_.find(client_tuple);
  if (it == conns_.end()) {
    StrategyContext ctx(host_, knowledge_, rng_.fork());
    ctx.tuple = client_tuple;
    it = conns_
             .emplace(client_tuple,
                      Conn{factory_(client_tuple), std::move(ctx)})
             .first;
    Conn& conn = it->second;
    if (obs::TraceRecorder* tr = host_.path().trace()) {
      // The factory just ran; if it was INTANG's selector it recorded a
      // kDecision we chain to, attributing insertion packets selector ->
      // armed strategy -> packet.
      const u64 selector_decision = tr->last_decision();
      conn.ctx.decision_event = tr->note(
          host_.loop().now(), "strategy", obs::TraceKind::kDecision,
          "strategy " + conn.strategy->name() + " armed for " +
              client_tuple.to_string(),
          selector_decision);
    }
  }
  return it->second;
}

tcp::Host::Verdict StrategyEngine::egress(net::Packet& pkt) {
  if (!pkt.is_tcp()) return tcp::Host::Verdict::kAccept;
  Conn& conn = conn_for(pkt.tuple());
  StrategyContext& ctx = conn.ctx;

  const net::TcpHeader& t = *pkt.tcp;
  if (t.flags.syn && !t.flags.ack && !ctx.client_isn_known) {
    ctx.client_isn = t.seq;
    ctx.client_isn_known = true;
    ctx.snd_nxt = t.seq + 1;
  }
  if (t.options.timestamps) ctx.last_ts_val = t.options.timestamps->ts_val;
  if (tcp::seq_gt(pkt.tcp_seq_end(), ctx.snd_nxt)) {
    ctx.snd_nxt = pkt.tcp_seq_end();
  }

  return conn.strategy->on_egress(ctx, pkt);
}

tcp::Host::Verdict StrategyEngine::ingress(net::Packet& pkt) {
  if (!pkt.is_tcp()) return tcp::Host::Verdict::kAccept;
  Conn& conn = conn_for(pkt.tuple().reversed());
  StrategyContext& ctx = conn.ctx;

  const net::TcpHeader& t = *pkt.tcp;
  if (t.flags.syn && t.flags.ack && !ctx.server_isn_known) {
    ctx.server_isn = t.seq;
    ctx.server_isn_known = true;
    ctx.rcv_nxt = t.seq + 1;
    ctx.handshake_done = true;
  }
  if (!pkt.payload.empty() && tcp::seq_gt(pkt.tcp_seq_end(), ctx.rcv_nxt)) {
    ctx.rcv_nxt = pkt.tcp_seq_end();
  }

  return conn.strategy->on_ingress(ctx, pkt);
}

const StrategyContext* StrategyEngine::find_context(
    const net::FourTuple& tuple) const {
  auto it = conns_.find(tuple);
  return it == conns_.end() ? nullptr : &it->second.ctx;
}

}  // namespace ys::strategy
