#include "tcpstack/tcp_endpoint.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "obs/metrics.h"

namespace ys::tcp {

namespace {
constexpr i64 kInitialRtoMs = 200;
constexpr int kMaxRetransmits = 6;
constexpr u16 kWindowBytes = 65535;
constexpr u16 kMss = 1460;  // announced in the SYN and used to segment

constexpr std::size_t kIgnoreReasons =
    static_cast<std::size_t>(IgnoreReason::kNotListening) + 1;
constexpr std::size_t kVersions =
    static_cast<std::size_t>(LinuxVersion::k4_4) + 1;

/// Per-profile ignore counter names, indexed by LinuxVersion.
constexpr std::array<const char*, kVersions> kIgnoredByProfile{
    "tcpstack.ignored_by_profile.linux-2.4.37",
    "tcpstack.ignored_by_profile.linux-2.6.34",
    "tcpstack.ignored_by_profile.linux-3.14",
    "tcpstack.ignored_by_profile.linux-4.0",
    "tcpstack.ignored_by_profile.linux-4.4"};

struct StackMetrics {
  obs::MetricsRegistry& reg;
  obs::Counter& segments_in;
  obs::Counter& segments_out;
  obs::Counter& retransmits;
  obs::Counter& challenge_acks;
  obs::Counter& ignored_total;
  // Registered on first hit, so a snapshot names only the paths that fired.
  std::array<obs::Counter*, kIgnoreReasons> ignored_by_reason{};
  std::array<obs::Counter*, kVersions> ignored_by_profile{};
};

StackMetrics& metrics() {
  return obs::bind_per_thread<StackMetrics>([](obs::MetricsRegistry& reg) {
    return StackMetrics{reg,
                        reg.counter("tcpstack.segment_in"),
                        reg.counter("tcpstack.segment_out"),
                        reg.counter("tcpstack.segment_retransmit"),
                        reg.counter("tcpstack.challenge_ack_sent"),
                        reg.counter("tcpstack.segment_ignored")};
  });
}

/// Ignore-path hits split by reason and by Linux profile — the §5.3 view
/// ("which discard paths does this stack exercise") as registry counters.
/// Insertion packets are meant to land here, so every evading flow passes
/// through: each counter is resolved once per registry, not per segment.
void count_ignore(IgnoreReason reason, LinuxVersion version) {
  StackMetrics& m = metrics();
  m.ignored_total.inc();
  obs::Counter*& by_reason =
      m.ignored_by_reason[static_cast<std::size_t>(reason)];
  if (by_reason == nullptr) {
    by_reason =
        &m.reg.counter(std::string("tcpstack.ignored.") + to_string(reason));
  }
  by_reason->inc();
  const auto v = static_cast<std::size_t>(version);
  if (m.ignored_by_profile[v] == nullptr) {
    m.ignored_by_profile[v] = &m.reg.counter(kIgnoredByProfile[v]);
  }
  m.ignored_by_profile[v]->inc();
}

}  // namespace

TcpEndpoint::TcpEndpoint(net::EventLoop& loop, Rng rng, StackProfile profile,
                         net::FourTuple local, Callbacks callbacks)
    : loop_(loop), rng_(std::move(rng)), profile_(profile), local_(local),
      cb_(std::move(callbacks)) {}

void TcpEndpoint::set_state(TcpState next) {
  if (state_ == next) return;
  state_ = next;
  if (next == TcpState::kEstablished && cb_.on_established) {
    cb_.on_established();
  }
}

void TcpEndpoint::ignore(const net::Packet& pkt, IgnoreReason reason,
                         const char* note) {
  count_ignore(reason, profile_.version);
  if (trace_ != nullptr) {
    // The §5.3 "server ignore path" record: which profile discarded the
    // packet, on which path, in which TCP state — linked to the packet.
    obs::TraceEvent ev;
    ev.at = loop_.now();
    ev.kind = obs::TraceKind::kIgnore;
    ev.actor = trace_actor_;
    ev.packet = net::to_trace_ref(pkt, trace_dir_);
    ev.caused_by = trace_->event_for_packet(pkt.trace_id);
    ev.detail = std::string(to_string(reason)) + " [" +
                to_string(profile_.version) + ", " + to_string(state_) + "]";
    trace_->record(std::move(ev));
  }
  ignore_log_.push_back(IgnoreEvent{state_, reason, note});
}

// ----------------------------------------------------------------- user API

void TcpEndpoint::open_active() {
  assert(state_ == TcpState::kClosed);
  iss_ = rng_.next_u32();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  set_state(TcpState::kSynSent);
  send_and_queue(Unacked{.seq = iss_, .syn = true});
  schedule_retransmit();
}

void TcpEndpoint::open_passive() {
  assert(state_ == TcpState::kClosed);
  set_state(TcpState::kListen);
}

void TcpEndpoint::send_data(Bytes data) {
  pending_send_.insert(pending_send_.end(), data.begin(), data.end());
  transmit_queued();
}

void TcpEndpoint::close() {
  if ((state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) ||
      !pending_send_.empty()) {
    fin_queued_ = true;
    return;
  }
  const u32 fin_seq = snd_nxt_;
  snd_nxt_ += 1;
  fin_sent_ = true;
  set_state(state_ == TcpState::kCloseWait ? TcpState::kLastAck
                                           : TcpState::kFinWait1);
  send_and_queue(Unacked{.seq = fin_seq, .fin = true});
  schedule_retransmit();
}

// --------------------------------------------------------------- emitters

net::Packet TcpEndpoint::make_segment(net::TcpFlags flags, u32 seq, u32 ack,
                                      Bytes payload) {
  net::Packet pkt =
      net::make_tcp_packet(local_, flags, seq, ack, std::move(payload));
  pkt.tcp->window = kWindowBytes;
  if (flags.syn || ts_enabled_peer_) {
    // A coarse 1 ms timestamp clock, offset per connection.
    const u32 ts_val = static_cast<u32>(loop_.now().millis()) + iss_ % 1000;
    pkt.tcp->options.timestamps = net::TcpTimestamps{ts_val, ts_recent_};
  }
  if (flags.syn) {
    pkt.tcp->options.mss = kMss;
  }
  return pkt;
}

void TcpEndpoint::emit(net::Packet pkt) {
  metrics().segments_out.inc();
  if (cb_.send) cb_.send(std::move(pkt));
}

void TcpEndpoint::send_ack() {
  emit(make_segment(net::TcpFlags::only_ack(), snd_nxt_, rcv_nxt_));
}

void TcpEndpoint::send_challenge_ack() {
  ++challenge_acks_sent_;
  metrics().challenge_acks.inc();
  send_ack();
}

void TcpEndpoint::send_rst(u32 seq) {
  emit(make_segment(net::TcpFlags::only_rst(), seq, 0));
}

void TcpEndpoint::reset_by_peer() {
  reset_seen_ = true;
  // A handshake that ends here has no SYN left to resend.
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRecv) {
    retransmit_queue_.clear();
  }
  set_state(TcpState::kClosed);
}

bool TcpEndpoint::in_window(u32 seq) const {
  return seq_ge(seq, rcv_nxt_) && seq_lt(seq, rcv_nxt_ + kWindowBytes);
}

// ------------------------------------------------------------ validation

bool TcpEndpoint::prevalidate(const net::Packet& pkt) {
  // Stage 1 of Linux's tcp_v4_rcv: drop malformed packets before any state
  // is touched. Each early return here is a Table 3 ignore path.
  if (!net::ip_length_consistent(pkt)) {
    ignore(pkt, IgnoreReason::kBadIpLength);
    return false;
  }
  if (!pkt.tcp || pkt.tcp->data_offset_words < 5) {
    ignore(pkt, IgnoreReason::kShortTcpHeader);
    return false;
  }
  if (!net::transport_checksum_ok(pkt)) {
    ignore(pkt, IgnoreReason::kBadChecksum);
    return false;
  }
  if (pkt.tcp->options.md5_signature && profile_.rejects_unsolicited_md5) {
    ignore(pkt, IgnoreReason::kUnsolicitedMd5);
    return false;
  }
  return true;
}

void TcpEndpoint::on_segment(const net::Packet& pkt) {
  metrics().segments_in.inc();
  if (state_ == TcpState::kClosed) {
    // RFC 793 CLOSED: discard RSTs, answer everything else with a RST —
    // this is the observable "connection was killed" signal peers rely on.
    if (pkt.tcp && !pkt.tcp->flags.rst && prevalidate(pkt)) {
      if (pkt.tcp->flags.ack) {
        send_rst(pkt.tcp->ack);
      } else {
        emit(make_segment(net::TcpFlags::rst_ack(), 0, pkt.tcp_seq_end()));
      }
    }
    return;
  }
  if (!prevalidate(pkt)) return;

  if (state_ == TcpState::kListen) process_listen(pkt);
  else if (state_ == TcpState::kSynSent) process_syn_sent(pkt);
  else if (state_ == TcpState::kSynRecv) process_syn_recv(pkt);
  else process_synchronized(pkt);
}

// ---------------------------------------------------------------- LISTEN

void TcpEndpoint::process_listen(const net::Packet& pkt) {
  const net::TcpHeader& t = *pkt.tcp;
  if (t.flags.rst) {
    ignore(pkt, IgnoreReason::kBadStateForSegment, "RST in LISTEN");
    return;
  }
  if (t.flags.ack) {
    // An ACK in LISTEN draws a RST (RFC 793).
    send_rst(t.ack);
    ignore(pkt, IgnoreReason::kBadStateForSegment, "ACK in LISTEN");
    return;
  }
  if (t.flags.syn) {
    irs_ = t.seq;
    rcv_nxt_ = t.seq + 1;
    iss_ = rng_.next_u32();
    snd_una_ = iss_;
    snd_nxt_ = iss_ + 1;
    if (t.options.timestamps) {
      ts_enabled_peer_ = true;
      ts_recent_ = t.options.timestamps->ts_val;
    }
    set_state(TcpState::kSynRecv);
    send_and_queue(Unacked{.seq = iss_, .syn = true});
    schedule_retransmit();
    return;
  }
  ignore(pkt, IgnoreReason::kBadStateForSegment, "no SYN in LISTEN");
}

// -------------------------------------------------------------- SYN_SENT

void TcpEndpoint::process_syn_sent(const net::Packet& pkt) {
  const net::TcpHeader& t = *pkt.tcp;

  if (t.flags.rst) {
    // RFC 793: a RST in SYN_SENT is acceptable only if it acks our SYN.
    if (t.flags.ack && t.ack == snd_nxt_) {
      reset_by_peer();
    } else {
      ignore(pkt, IgnoreReason::kBadAckNumber, "RST in SYN_SENT w/ bad ack");
    }
    return;
  }

  if (t.flags.syn && t.flags.ack) {
    if (t.ack != snd_nxt_) {
      // Unacceptable ACK: reply RST, stay in SYN_SENT (RFC 793 p.66).
      send_rst(t.ack);
      ignore(pkt, IgnoreReason::kBadAckNumber, "SYN/ACK w/ bad ack");
      return;
    }
    irs_ = t.seq;
    rcv_nxt_ = t.seq + 1;
    snd_una_ = t.ack;
    if (t.options.timestamps) {
      ts_enabled_peer_ = true;
      ts_recent_ = t.options.timestamps->ts_val;
    }
    retransmit_queue_.clear();
    retransmit_attempts_ = 0;
    // The handshake-completing ACK must hit the wire before anything the
    // on_established callback sends (apps — and evasion strategies hooked
    // below them — react to establishment, and their packets must follow
    // the ACK like they would on a real stack).
    state_ = TcpState::kEstablished;
    send_ack();
    if (cb_.on_established) cb_.on_established();
    transmit_queued();
    return;
  }

  if (t.flags.syn) {
    // Simultaneous open: the queued SYN now goes out as a SYN/ACK, here
    // and on the SYN's running timer.
    irs_ = t.seq;
    rcv_nxt_ = t.seq + 1;
    set_state(TcpState::kSynRecv);
    emit_queued(retransmit_queue_.front());
    return;
  }

  ignore(pkt, IgnoreReason::kBadStateForSegment, "non-SYN in SYN_SENT");
}

// -------------------------------------------------------------- SYN_RECV

void TcpEndpoint::process_syn_recv(const net::Packet& pkt) {
  const net::TcpHeader& t = *pkt.tcp;

  // Table 3: a RST/ACK with a wrong acknowledgment number is ignored in
  // SYN_RECV — the GFW, in contrast, accepts it. Any other RST meets the
  // synchronized-state rule.
  if (t.flags.rst && t.flags.ack && t.ack != snd_nxt_) {
    ignore(pkt, IgnoreReason::kBadAckNumber, "RST/ACK w/ bad ack in SYN_RECV");
    return;
  }
  if (handle_rst(pkt)) return;

  if (t.flags.syn && !t.flags.ack) {
    // Duplicate SYN: retransmit our SYN/ACK.
    emit_queued(retransmit_queue_.front());
    return;
  }

  if (!t.flags.ack) {
    ignore(pkt, IgnoreReason::kNoAckFlag, "segment w/o ACK in SYN_RECV");
    return;
  }
  if (t.ack != snd_nxt_) {
    // Table 3: ACK with wrong acknowledgment number ignored in SYN_RECV.
    ignore(pkt, IgnoreReason::kBadAckNumber, "ACK w/ bad ack in SYN_RECV");
    return;
  }
  if (paws_reject(pkt)) return;

  snd_una_ = t.ack;
  retransmit_queue_.clear();
  retransmit_attempts_ = 0;
  set_state(TcpState::kEstablished);
  transmit_queued();
  // The completing ACK may itself carry data or FIN.
  if (!pkt.payload.empty() || t.flags.fin) process_synchronized(pkt);
}

// --------------------------------------------------- synchronized states

bool TcpEndpoint::paws_reject(const net::Packet& pkt) {
  // PAWS (RFC 7323) protects data/ACK segments. RSTs are explicitly exempt
  // — the paper leans on this: an old-timestamp *RST* still resets, so old
  // timestamps are only safe for data insertion packets.
  const net::TcpHeader& t = *pkt.tcp;
  if (!ts_enabled_peer_ || t.flags.rst) return false;
  if (!t.options.timestamps) return false;
  if (seq_lt(t.options.timestamps->ts_val, ts_recent_)) {
    send_ack();  // Linux acks PAWS-rejected segments
    ignore(pkt, IgnoreReason::kOldTimestamp);
    return true;
  }
  return false;
}

bool TcpEndpoint::handle_rst(const net::Packet& pkt) {
  const net::TcpHeader& t = *pkt.tcp;
  if (!t.flags.rst) return false;
  // Note: in synchronized states Linux does NOT require a valid ACK field
  // on RSTs — §5.3: "even if the RST/ACK has a wrong ACK number or old
  // timestamp, it will still be able to reset the connection".
  if (!in_window(t.seq)) {
    ignore(pkt, IgnoreReason::kOutOfWindowRst);
  } else if (t.seq != rcv_nxt_ && profile_.rfc5961_challenge_acks) {
    // RFC 5961 §3: only an exact-sequence RST resets; others are challenged.
    send_challenge_ack();
    ignore(pkt, IgnoreReason::kChallengeAckRst);
  } else {
    reset_by_peer();
  }
  return true;
}

bool TcpEndpoint::handle_syn_in_sync_state(const net::Packet& pkt) {
  const net::TcpHeader& t = *pkt.tcp;
  if (!t.flags.syn) return false;
  if (profile_.rfc5961_challenge_acks) {
    // RFC 5961 §4: never reset on an in-window SYN; send a challenge ACK.
    send_challenge_ack();
    ignore(pkt, IgnoreReason::kChallengeAckSyn);
    return true;
  }
  if (profile_.ignores_syn_in_established) {
    // Linux 3.14 (§5.3): SYN in ESTABLISHED silently ignored.
    ignore(pkt, IgnoreReason::kSynSilentlyIgnored);
    return true;
  }
  // Pre-5961 stack: an in-window SYN aborts the connection.
  if (in_window(t.seq)) {
    send_rst(snd_nxt_);
    reset_by_peer();
  } else {
    send_ack();
    ignore(pkt, IgnoreReason::kOutOfWindowSynOld);
  }
  return true;
}

void TcpEndpoint::process_ack_field(const net::Packet& pkt) {
  const net::TcpHeader& t = *pkt.tcp;
  if (!t.flags.ack) return;
  if (seq_gt(t.ack, snd_nxt_)) return;  // handled by caller as bad ack
  if (seq_gt(t.ack, snd_una_)) {
    snd_una_ = t.ack;
    while (!retransmit_queue_.empty() &&
           seq_le(retransmit_queue_.front().end(), snd_una_)) {
      retransmit_queue_.pop_front();
    }
    retransmit_attempts_ = 0;
    // Our FIN being acked drives the closing transitions.
    if (fin_sent_ && snd_una_ == snd_nxt_) {
      if (state_ == TcpState::kFinWait1) set_state(TcpState::kFinWait2);
      else if (state_ == TcpState::kClosing) set_state(TcpState::kTimeWait);
      else if (state_ == TcpState::kLastAck) set_state(TcpState::kClosed);
    }
  }
}

void TcpEndpoint::accept_payload(const net::Packet& pkt) {
  const net::TcpHeader& t = *pkt.tcp;
  const u32 seg_seq = t.seq;
  const u32 seg_len = static_cast<u32>(pkt.payload.size());
  if (seg_len == 0) return;
  const u32 seg_end = seg_seq + seg_len;

  if (seq_le(seg_end, rcv_nxt_)) {
    send_ack();
    ignore(pkt, IgnoreReason::kDuplicateData);
    return;
  }
  if (seq_ge(seg_seq, rcv_nxt_ + kWindowBytes)) {
    // Entirely beyond the window: duplicate ACK, state unchanged — the
    // canonical "ignored possibly with an ACK in response" path of §5.3.
    send_ack();
    ignore(pkt, IgnoreReason::kOutOfWindowSeq);
    return;
  }

  // Clip to the receive window, merge into the out-of-order store under
  // the profile's overlap policy (Linux keeps the first copy) and take the
  // bytes now contiguous from rcv_nxt.
  const ByteView delivered = reassembler_.push(
      rcv_nxt_, seg_seq, pkt.payload, kWindowBytes, profile_.segment_overlap);
  if (!delivered.empty()) {
    received_stream_.insert(received_stream_.end(), delivered.begin(),
                            delivered.end());
    if (t.options.timestamps && ts_enabled_peer_ &&
        seq_ge(t.options.timestamps->ts_val, ts_recent_)) {
      ts_recent_ = t.options.timestamps->ts_val;
    }
    if (cb_.on_data) cb_.on_data(*this, delivered);
  }
  send_ack();
}

void TcpEndpoint::process_synchronized(const net::Packet& pkt) {
  const net::TcpHeader& t = *pkt.tcp;

  if (handle_rst(pkt)) return;
  if (handle_syn_in_sync_state(pkt)) return;

  // Modern stacks drop any non-SYN/RST segment lacking the ACK flag; this
  // single gate implements both the "no TCP flag" and the "only FIN flag"
  // rows of Table 3. Linux 2.6.34/2.4.37 fall through and treat the bytes
  // as data (§5.3) — which is why no-flag insertion packets backfire there.
  if (!t.flags.ack && profile_.requires_ack_flag) {
    ignore(pkt, IgnoreReason::kNoAckFlag);
    return;
  }

  if (paws_reject(pkt)) return;

  if (t.flags.ack && profile_.validates_ack_field &&
      seq_gt(t.ack, snd_nxt_)) {
    // Acks data we never sent: ack + drop (Table 3 row 5 in ESTABLISHED).
    send_ack();
    ignore(pkt, IgnoreReason::kBadAckNumber);
    return;
  }

  process_ack_field(pkt);
  accept_payload(pkt);

  if (t.flags.fin) {
    const u32 fin_pos = t.seq + static_cast<u32>(pkt.payload.size());
    if (fin_pos == rcv_nxt_) {
      ++rcv_nxt_;
      send_ack();
      // TIME_WAIT is parked: 2*MSL teardown is irrelevant to the experiments.
      if (state_ == TcpState::kEstablished) {
        set_state(TcpState::kCloseWait);
      } else if (state_ == TcpState::kFinWait1) {
        set_state(fin_sent_ && snd_una_ == snd_nxt_ ? TcpState::kTimeWait
                                                    : TcpState::kClosing);
      } else if (state_ == TcpState::kFinWait2) {
        set_state(TcpState::kTimeWait);
      }
    }
    // An out-of-order FIN just waits in the reassembly gap.
  }
}

// ------------------------------------------------------------ transmission

void TcpEndpoint::emit_queued(const Unacked& seg) {
  net::TcpFlags flags = net::TcpFlags::psh_ack();
  if (seg.syn) {
    flags = state_ == TcpState::kSynRecv ? net::TcpFlags::syn_ack()
                                         : net::TcpFlags::only_syn();
  } else if (seg.fin) {
    flags = net::TcpFlags::fin_ack();
  }
  emit(make_segment(flags, seg.seq, flags.ack ? rcv_nxt_ : 0, seg.data));
}

void TcpEndpoint::send_and_queue(Unacked seg) {
  retransmit_queue_.push_back(std::move(seg));
  emit_queued(retransmit_queue_.back());
}

void TcpEndpoint::transmit_queued() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }
  const bool sent = !pending_send_.empty();
  while (!pending_send_.empty()) {
    const auto chunk_end =
        pending_send_.begin() +
        static_cast<long>(std::min<std::size_t>(pending_send_.size(), kMss));
    Unacked seg{.seq = snd_nxt_,
                .data = Bytes(pending_send_.begin(), chunk_end)};
    pending_send_.erase(pending_send_.begin(), chunk_end);
    snd_nxt_ += static_cast<u32>(seg.data.size());
    send_and_queue(std::move(seg));
  }
  if (sent) schedule_retransmit();
  if (fin_queued_ && pending_send_.empty()) {
    fin_queued_ = false;
    close();
  }
}

void TcpEndpoint::schedule_retransmit() {
  const u64 epoch = ++retransmit_epoch_;
  const i64 rto_ms = kInitialRtoMs << std::min(retransmit_attempts_, 4);
  loop_.schedule_after(SimTime::from_ms(rto_ms),
                       [this, epoch] { on_retransmit_timer(epoch); });
}

void TcpEndpoint::on_retransmit_timer(u64 epoch) {
  if (epoch != retransmit_epoch_) return;  // superseded or cancelled
  if (retransmit_attempts_ >= kMaxRetransmits) return;
  if (retransmit_queue_.empty()) return;
  ++retransmit_attempts_;
  metrics().retransmits.inc(retransmit_queue_.size());
  for (const Unacked& seg : retransmit_queue_) emit_queued(seg);
  schedule_retransmit();
}

}  // namespace ys::tcp
