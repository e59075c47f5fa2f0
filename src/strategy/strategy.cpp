#include "strategy/strategy.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "tcpstack/tcp_types.h"

namespace ys::strategy {
namespace {

/// Every paper strategy as one program, in StrategyId order. Each picks an
/// insertion packet type, a server-ignore discrepancy and a placement
/// around the handshake and the request; §3.4's loss hedge ("*auto~20":
/// the connection's redundancy level of copies, 20 ms apart, the request
/// after the first) rides on the Table 1 in-order and teardown rows.
struct PaperStrategy {
  StrategyId id;
  const char* name;  // to_string(id): CLI, INTANG cache and report name
  const char* spec;
  /// Strategy::name() in traces, where it differs from `name`.
  const char* trace_name = nullptr;
};

constexpr PaperStrategy kPaperStrategies[] = {
    {StrategyId::kNone, "no-strategy", "none"},
    // §3.2 Table 1. The out-of-order rows split the request itself.
    {StrategyId::kTcbCreationSynTtl, "tcb-creation-syn/ttl", "pre:syn/ttl"},
    {StrategyId::kTcbCreationSynBadChecksum, "tcb-creation-syn/bad-checksum",
     "pre:syn/bad-checksum"},
    {StrategyId::kOutOfOrderIpFragments, "ooo-ip-fragments", "data:frag"},
    {StrategyId::kOutOfOrderTcpSegments, "ooo-tcp-segments", "data:seg"},
    {StrategyId::kInOrderTtl, "in-order-overlap/ttl",
     "data:data/ttl*auto~20=full"},
    {StrategyId::kInOrderBadAck, "in-order-overlap/bad-ack",
     "data:data/bad-ack*auto~20=full"},
    {StrategyId::kInOrderBadChecksum, "in-order-overlap/bad-checksum",
     "data:data/bad-checksum*auto~20=full"},
    {StrategyId::kInOrderNoFlags, "in-order-overlap/no-flags",
     "data:data/no-flags*auto~20=full"},
    {StrategyId::kTeardownRstTtl, "teardown-rst/ttl", "data:rst/ttl*auto~20"},
    {StrategyId::kTeardownRstBadChecksum, "teardown-rst/bad-checksum",
     "data:rst/bad-checksum*auto~20"},
    {StrategyId::kTeardownRstAckTtl, "teardown-rstack/ttl",
     "data:rstack/ttl*auto~20"},
    {StrategyId::kTeardownRstAckBadChecksum, "teardown-rstack/bad-checksum",
     "data:rstack/bad-checksum*auto~20"},
    {StrategyId::kTeardownFinTtl, "teardown-fin/ttl", "data:fin/ttl*auto~20"},
    {StrategyId::kTeardownFinBadChecksum, "teardown-fin/bad-checksum",
     "data:fin/bad-checksum*auto~20"},
    // [25]: a client RST plus a source-spoofed server-side RST.
    {StrategyId::kWestChamber, "west-chamber", "data:rst/ttl;data:rst/ttl+rev"},
    // §5.2.
    {StrategyId::kResyncDesync, "resync-desync",
     "data:syn/ttl+ow;data:data+ow=1"},
    {StrategyId::kTcbReversal, "tcb-reversal", "pre:synack/ttl"},
    // §7.1 Table 4 and Figures 3 and 4.
    {StrategyId::kImprovedTeardown, "improved-tcb-teardown",
     "data:rst/ttl*auto;data:data+ow=1", "improved-tcb-teardown/ttl"},
    {StrategyId::kImprovedInOrder, "improved-in-order-overlap",
     "data:data/md5*auto~20=full", "improved-in-order-overlap/md5"},
    {StrategyId::kCreationResyncDesync, "tcb-creation+resync-desync",
     "pre:syn/ttl;data:syn/ttl+ow;data:data+ow=1"},
    {StrategyId::kTeardownReversal, "tcb-teardown+tcb-reversal",
     "pre:synack/ttl;data:rst/ttl*auto"},
};

/// The table row of `id`. An id outside the enum (decoded from a corrupt
/// store) runs as kNone.
const PaperStrategy& row(StrategyId id) {
  const auto i = static_cast<std::size_t>(id);
  return kPaperStrategies[i < std::size(kPaperStrategies) ? i : 0];
}

}  // namespace

void StrategyContext::raw_send_after(SimTime delay, net::Packet pkt) {
  stamp(pkt);
  host_->send_raw_unhooked_after(delay, std::move(pkt));
}

void StrategyContext::release_after(SimTime delay, net::Packet pkt) {
  pkt.cause_hint = decision_event;
  host_->send_raw_unhooked_after(delay, std::move(pkt));
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
  return static_cast<std::size_t>(id) < std::size(kPaperStrategies)
             ? row(id).name
             : "?";
}

const char* spec(StrategyId id) { return row(id).spec; }

const CandidateProgram& program(StrategyId id) {
  static const std::vector<CandidateProgram> kPrograms = [] {
    std::vector<CandidateProgram> out;
    for (const PaperStrategy& s : kPaperStrategies) {
      std::string error;
      auto prog = CandidateProgram::parse(s.spec, &error);
      if (!prog || s.id != static_cast<StrategyId>(out.size())) {
        std::fprintf(stderr, "strategy table row %s: %s\n", s.name,
                     error.c_str());
        std::abort();
      }
      out.push_back(std::move(*prog));
    }
    return out;
  }();
  return kPrograms[static_cast<std::size_t>(row(id).id)];
}

std::unique_ptr<Strategy> make_strategy(StrategyId id) {
  const PaperStrategy& r = row(id);
  return program(id).make_strategy(r.trace_name ? r.trace_name : r.name);
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
