#include "strategy/program.h"

#include <cstdlib>

#include "netsim/fragment.h"
#include "netsim/wire.h"
#include "strategy/strategy.h"

namespace ys::strategy {
namespace {

using Verdict = tcp::Host::Verdict;

constexpr SimTime kSpacing = SimTime::from_ms(2);
/// Offset that puts an insertion sequence number far outside any plausible
/// receive window (the desync building block of §5.1).
constexpr u32 kOutOfWindow = 0x00800000;

bool is_bare_syn(const net::Packet& pkt) {
  return pkt.tcp->flags.syn && !pkt.tcp->flags.ack;
}

SimTime spaced(int slot) { return SimTime::from_us(kSpacing.us * slot); }

std::optional<StepKind> kind_from_name(const std::string& name) {
  for (int k = 0; k <= static_cast<int>(StepKind::kFrag); ++k) {
    if (name == to_string(static_cast<StepKind>(k))) {
      return static_cast<StepKind>(k);
    }
  }
  return std::nullopt;
}

std::optional<Discrepancy> discrepancy_from_name(const std::string& name) {
  for (int d = 0; d <= static_cast<int>(Discrepancy::kShortTcpHeader); ++d) {
    if (name == to_string(static_cast<Discrepancy>(d))) {
      return static_cast<Discrepancy>(d);
    }
  }
  return std::nullopt;
}

/// Serialize one step canonically:
/// kind [/disc] [*N] [~hedge] [+ow] [+rev] [=payload].
std::string step_spec(const Step& s) {
  std::string out = to_string(s.phase);
  out += ':';
  out += to_string(s.kind);
  if (s.disc != Discrepancy::kNone) {
    out += '/';
    out += to_string(s.disc);
  }
  if (s.repeat != 1) {
    out += '*';
    out += s.repeat == kAutoRepeat ? "auto" : std::to_string(s.repeat);
  }
  if (s.hedge_ms != 0) {
    out += '~';
    out += std::to_string(s.hedge_ms);
  }
  if (s.out_of_window) out += "+ow";
  if (s.reversed) out += "+rev";
  if (s.kind == StepKind::kData) {
    out += '=';
    out += s.payload == 0 ? "full" : std::to_string(s.payload);
  }
  return out;
}

/// Decimal digits only, at most four of them (every bound is below 10^4).
bool parse_int(const std::string& text, int* out) {
  if (text.empty() || text.size() > 4) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::atoi(text.c_str());
  return true;
}

/// Parse one step token. Suffix tokens ('/', '*', '~', '+', '=') are
/// accepted in any order; spec() re-emits the canonical order.
std::optional<Step> parse_step(const std::string& text, std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<Step> {
    *error = "step '" + text + "': " + why;
    return std::nullopt;
  };

  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return fail("missing ':' after phase");
  const std::string phase = text.substr(0, colon);
  Step s;
  if (phase == "pre") {
    s.phase = Phase::kPreHandshake;
  } else if (phase == "data") {
    s.phase = Phase::kOnData;
  } else {
    return fail("unknown phase '" + phase + "' (want pre|data)");
  }

  // The kind runs until the first suffix delimiter.
  static constexpr const char* kDelims = "/*~+=";
  std::size_t pos = colon + 1;
  const std::size_t kind_end = text.find_first_of(kDelims, pos);
  const std::string kind =
      text.substr(pos, kind_end == std::string::npos ? std::string::npos
                                                     : kind_end - pos);
  const auto k = kind_from_name(kind);
  if (!k) return fail("unknown packet kind '" + kind + "'");
  s.kind = *k;
  s.disc = Discrepancy::kNone;
  pos = kind_end == std::string::npos ? text.size() : kind_end;

  std::string seen;  // delimiters (and '+' flags) already consumed
  while (pos < text.size()) {
    const char delim = text[pos++];
    const std::size_t end = text.find_first_of(kDelims, pos);
    const std::string token =
        text.substr(pos, end == std::string::npos ? std::string::npos
                                                  : end - pos);
    pos = end == std::string::npos ? text.size() : end;
    const std::string key = delim == '+' ? "+" + token : std::string(1, delim);
    if (seen.find(key + ' ') != std::string::npos) {
      return fail("duplicate '" + key + "'");
    }
    seen += key + ' ';
    switch (delim) {
      case '/': {
        const auto d = discrepancy_from_name(token);
        if (!d) return fail("unknown discrepancy '" + token + "'");
        s.disc = *d;
        break;
      }
      case '*':
        if (token == "auto") {
          s.repeat = kAutoRepeat;
        } else if (!parse_int(token, &s.repeat)) {
          return fail("bad repeat '" + token + "'");
        }
        break;
      case '~':
        if (!parse_int(token, &s.hedge_ms) || s.hedge_ms == 0) {
          return fail("bad hedge '" + token + "' (want 1.." +
                      std::to_string(kMaxHedgeMs) + " ms)");
        }
        break;
      case '+':
        if (token == "ow") {
          s.out_of_window = true;
        } else if (token == "rev") {
          s.reversed = true;
        } else {
          return fail("unknown flag '+" + token + "'");
        }
        break;
      default:  // '='
        if (s.kind != StepKind::kData) {
          return fail("payload only applies to data steps");
        }
        if (token == "full") {
          s.payload = 0;
        } else if (!parse_int(token, &s.payload) || s.payload == 0) {
          return fail("bad payload '" + token + "' (want full|1..1460)");
        }
        break;
    }
  }
  return s;
}

/// Executes a program's steps at the strategy hook. Pre-handshake steps
/// fire on every bare SYN (a lost insertion packet must be replaced along
/// with the SYN it guards); data steps fire on the first data packet and
/// its retransmissions (the DataTrigger loss contract). The program is
/// read in place: paper strategies share one parsed program per id.
class ProgramStrategy final : public Strategy {
 public:
  ProgramStrategy(const CandidateProgram& prog, const char* name)
      : prog_(prog), name_(name) {}

  std::string name() const override {
    return name_ != nullptr ? name_ : "search:" + prog_.spec();
  }

  Verdict on_egress(StrategyContext& ctx, net::Packet& pkt) override {
    const net::Packet* trigger = nullptr;
    if (!is_bare_syn(pkt) || !has(Phase::kPreHandshake)) {
      if (!has(Phase::kOnData) || !trigger_.fires(pkt)) {
        return Verdict::kAccept;
      }
      trigger = &pkt;
    }
    const Phase phase = trigger ? Phase::kOnData : Phase::kPreHandshake;
    int slot = 0;
    for (const Step& s : prog_.steps) {
      if (s.phase != phase) continue;
      if (s.kind == StepKind::kSeg || s.kind == StepKind::kFrag) {
        split_request(ctx, s.kind, pkt);
        return Verdict::kAccept;
      }
      emit(ctx, s, trigger, &slot);
    }
    // Space the real packet behind the insertion packets so path jitter
    // cannot reorder them in front of the GFW.
    ctx.release_after(spaced(slot), std::move(pkt));
    return Verdict::kDrop;
  }

 private:
  bool has(Phase p) const {
    for (const Step& s : prog_.steps) {
      if (s.phase == p) return true;
    }
    return false;
  }

  /// Craft and send one step's packets from `*slot` on. `trigger` is the
  /// data packet the step fires on (null in the pre-handshake phase, where
  /// sequence numbers are fresh random ISNs instead).
  void emit(StrategyContext& ctx, const Step& s, const net::Packet* trigger,
            int* slot) {
    const int copies = s.repeat == kAutoRepeat ? ctx.redundancy() : s.repeat;
    if (s.hedge_ms == 0) {
      for (int i = 0; i < copies; ++i) {
        ctx.raw_send_after(spaced((*slot)++), craft(ctx, s, trigger));
      }
      return;
    }
    const net::Packet p = craft(ctx, s, trigger);
    for (int i = 0; i < copies; ++i) {
      ctx.raw_send_after(
          SimTime::from_us(spaced(*slot).us + s.hedge_ms * 1000LL * i), p);
    }
    ++*slot;
  }

  net::Packet craft(StrategyContext& ctx, const Step& s,
                    const net::Packet* trigger) {
    net::Packet p = craft_bare(ctx, s, trigger);
    if (s.disc != Discrepancy::kNone) {
      apply_discrepancy(p, s.disc, ctx.tuning());
    }
    return p;
  }

  net::Packet craft_bare(StrategyContext& ctx, const Step& s,
                         const net::Packet* trigger) {
    if (trigger == nullptr) {
      // Pre-handshake: no established sequence space yet; SYN/SYN-ACK
      // forgeries use fresh random numbers (TCB creation / reversal).
      if (s.kind == StepKind::kSynAck) {
        return craft_syn_ack(ctx.tuple, ctx.rng().next_u32(),
                             ctx.rng().next_u32());
      }
      return craft_syn(ctx.tuple, ctx.rng().next_u32());
    }
    const net::TcpHeader& t = *trigger->tcp;
    const net::FourTuple tuple = s.reversed ? ctx.tuple.reversed() : ctx.tuple;
    const u32 seq = (s.reversed ? ctx.rcv_nxt : t.seq) +
                    (s.out_of_window ? kOutOfWindow : 0);
    switch (s.kind) {
      case StepKind::kSyn: return craft_syn(tuple, seq);
      case StepKind::kSynAck: return craft_syn_ack(tuple, seq, ctx.rcv_nxt);
      case StepKind::kRst: return craft_rst(tuple, seq);
      case StepKind::kRstAck: return craft_rst_ack(tuple, seq, ctx.rcv_nxt);
      case StepKind::kFin: return craft_fin(tuple, seq, ctx.rcv_nxt);
      default: break;  // data (seg/frag never reach here)
    }
    const std::size_t size = s.payload == 0
                                 ? trigger->payload.size()
                                 : static_cast<std::size_t>(s.payload);
    return craft_data(tuple, seq, t.ack, junk_payload(size, ctx.rng()));
  }

  /// 'seg'/'frag' (§3.2 out-of-order overlap): the request leaves as a
  /// head piece plus two overlapping copies of its tail, one real and one
  /// junk, out of order. The GFW keeps the first IP fragment copy but the
  /// latter TCP segment copy; hosts keep the opposite, so the junk copy
  /// goes where the prior-model GFW looks. The first piece takes the
  /// request's place (`pkt` is rewritten, the hook accepts it): it leaves
  /// at once, before any event already due now. Sent one event later it
  /// falls behind a same-instant arrival or timer, which changes outcomes
  /// (6 of the 33 recorded perfbench paper_grid digests). A request too
  /// short to split leaves untouched.
  void split_request(StrategyContext& ctx, StepKind kind, net::Packet& pkt) {
    Bytes head, tail, junk;
    net::Packet pieces[3];
    if (kind == StepKind::kFrag) {
      net::Packet base = pkt;
      // All fragments of one datagram share a (fresh) identification.
      base.ip.identification =
          static_cast<u16>(ctx.rng().uniform_range(1, 65535));
      net::finalize(base);
      Bytes transport = net::serialize_transport(base);
      // The head fragment must cover the TCP header; 24 bytes keeps the
      // split 8-aligned and the keyword inside the overlapped tail.
      constexpr std::size_t kSplit = 24;
      if (transport.size() < kSplit + 8) return;
      head.assign(transport.begin(), transport.begin() + kSplit);
      tail.assign(transport.begin() + kSplit, transport.end());
      junk = junk_payload(tail.size(), ctx.rng());
      pieces[0] = net::make_raw_fragment(base, kSplit, std::move(junk), false);
      pieces[1] = net::make_raw_fragment(base, kSplit, std::move(tail), false);
      pieces[2] = net::make_raw_fragment(base, 0, std::move(head), true);
    } else {
      constexpr std::size_t kSplit = 8;
      if (pkt.payload.size() < kSplit + 8) return;
      const net::TcpHeader& t = *pkt.tcp;
      head.assign(pkt.payload.begin(), pkt.payload.begin() + kSplit);
      tail.assign(pkt.payload.begin() + kSplit, pkt.payload.end());
      junk = junk_payload(tail.size(), ctx.rng());
      const u32 tail_seq = t.seq + static_cast<u32>(kSplit);
      pieces[0] = craft_data(ctx.tuple, tail_seq, t.ack, std::move(tail));
      pieces[1] = craft_data(ctx.tuple, tail_seq, t.ack, std::move(junk));
      pieces[2] = craft_data(ctx.tuple, t.seq, t.ack, std::move(head));
    }
    ctx.raw_send_after(spaced(1), std::move(pieces[1]));
    ctx.raw_send_after(spaced(2), std::move(pieces[2]));
    pkt = std::move(pieces[0]);
    ctx.stamp(pkt);
  }

  const CandidateProgram& prog_;
  const char* name_;
  DataTrigger trigger_;
};

}  // namespace

const char* to_string(Phase p) {
  return p == Phase::kPreHandshake ? "pre" : "data";
}

const char* to_string(StepKind k) {
  switch (k) {
    case StepKind::kSyn: return "syn";
    case StepKind::kSynAck: return "synack";
    case StepKind::kRst: return "rst";
    case StepKind::kRstAck: return "rstack";
    case StepKind::kFin: return "fin";
    case StepKind::kData: return "data";
    case StepKind::kSeg: return "seg";
    case StepKind::kFrag: return "frag";
  }
  return "?";
}

PacketKind packet_kind(StepKind k) {
  switch (k) {
    case StepKind::kSyn: return PacketKind::kSyn;
    case StepKind::kSynAck: return PacketKind::kSynAck;
    case StepKind::kRst:
    case StepKind::kRstAck: return PacketKind::kRst;
    case StepKind::kFin: return PacketKind::kFin;
    default: return PacketKind::kData;
  }
}

std::string CandidateProgram::spec() const {
  if (steps.empty()) return "none";
  std::string out;
  for (const Step& s : steps) {
    if (!out.empty()) out += ';';
    out += step_spec(s);
  }
  return out;
}

std::optional<CandidateProgram> CandidateProgram::parse(
    const std::string& text, std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  error->clear();
  CandidateProgram prog;
  if (text == "none") return prog;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(';', begin);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(begin, end - begin);
    if (token.empty()) {
      *error = "empty step";
      return std::nullopt;
    }
    const auto step = parse_step(token, error);
    if (!step) return std::nullopt;
    prog.steps.push_back(*step);
    if (end == text.size()) break;
    begin = end + 1;
  }
  if (!prog.valid(error)) return std::nullopt;
  return prog;
}

bool CandidateProgram::valid(std::string* why) const {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (steps.size() > static_cast<std::size_t>(kMaxSteps)) {
    return fail("program exceeds " + std::to_string(kMaxSteps) + " steps");
  }
  int data_steps = 0;
  bool splits = false;
  for (const Step& s : steps) {
    if (s.repeat != kAutoRepeat && (s.repeat < 1 || s.repeat > kMaxRepeat)) {
      return fail("repeat out of range [1, " + std::to_string(kMaxRepeat) +
                  "]");
    }
    if (s.hedge_ms < 0 || s.hedge_ms > kMaxHedgeMs) {
      return fail("hedge out of range [1, " + std::to_string(kMaxHedgeMs) +
                  "] ms");
    }
    if (s.phase == Phase::kPreHandshake) {
      // Before the handshake there is no sequence space to be out of (or
      // to forge the server's side of), and only TCB-creating packet kinds
      // (SYN, SYN/ACK) mean anything to a censor that has not seen a
      // connection yet.
      if (s.kind != StepKind::kSyn && s.kind != StepKind::kSynAck) {
        return fail("pre-handshake steps must be syn or synack");
      }
      if (s.out_of_window) return fail("+ow needs an established window");
      if (s.reversed) return fail("+rev needs an established connection");
    } else {
      ++data_steps;
    }
    if (s.kind == StepKind::kSeg || s.kind == StepKind::kFrag) {
      splits = true;
      if (s.disc != Discrepancy::kNone || s.repeat != 1 || s.hedge_ms != 0 ||
          s.out_of_window || s.reversed || s.payload != 0) {
        return fail("seg/frag take no discrepancy, repeat, hedge or flag");
      }
    }
    if (s.kind == StepKind::kData) {
      if (s.payload < 0 || s.payload > kMaxPayload) {
        return fail("payload out of range [full, 1.." +
                    std::to_string(kMaxPayload) + "]");
      }
    } else if (s.payload != 0) {
      return fail("payload only applies to data steps");
    }
  }
  if (splits && data_steps > 1) {
    return fail("seg/frag replace the request: no other data-phase step");
  }
  return true;
}

int CandidateProgram::insertion_cost() const {
  int cost = 0;
  for (const Step& s : steps) {
    cost += s.repeat == kAutoRepeat ? PathKnowledge{}.insertion_redundancy
                                    : s.repeat;
  }
  return cost;
}

std::unique_ptr<Strategy> CandidateProgram::make_strategy(
    const char* name) const {
  return std::make_unique<ProgramStrategy>(*this, name);
}

}  // namespace ys::strategy
