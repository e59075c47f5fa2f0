#include "gfw/gfw_device.h"

#include "app/dns.h"
#include "app/tor.h"
#include "app/vpn.h"
#include "obs/metrics.h"
#include "tcpstack/tcp_types.h"

namespace ys::gfw {

using tcp::seq_ge;
using tcp::seq_gt;

namespace {

/// Registry handles shared by every GFW device in the process (type-1 and
/// type-2 aggregate; per-device splits still live on the int accessors).
struct GfwMetrics {
  obs::Counter& packets_seen;
  obs::Counter& tcb_create;
  obs::Counter& tcb_teardown;
  obs::Counter& tcb_resync;
  obs::Counter& keyword_hits;
  obs::Counter& detection_missed;
  obs::Counter& rst_type1_injected;
  obs::Counter& rst_type2_injected;
  obs::Counter& synack_forged;
  obs::Counter& block_period_starts;
  obs::Counter& block_period_hits;
  obs::Counter& ip_block_hits;
};

GfwMetrics& metrics() {
  return obs::bind_per_thread<GfwMetrics>([](obs::MetricsRegistry& reg) {
    return GfwMetrics{reg.counter("gfw.packets_seen"),
                      reg.counter("gfw.tcb_create"),
                      reg.counter("gfw.tcb_teardown"),
                      reg.counter("gfw.tcb_resync"),
                      reg.counter("gfw.keyword_hits"),
                      reg.counter("gfw.detection_missed"),
                      reg.counter("gfw.rst_type1_injected"),
                      reg.counter("gfw.rst_type2_injected"),
                      reg.counter("gfw.synack_forged"),
                      reg.counter("gfw.block_period_starts"),
                      reg.counter("gfw.block_period_hits"),
                      reg.counter("gfw.ip_block_hits")};
  });
}

}  // namespace

GfwDevice::GfwDevice(std::string name, GfwConfig cfg,
                     const DetectionRules* rules, Rng rng)
    : name_(std::move(name)), cfg_(cfg), rules_(rules), rng_(rng),
      injector_(rng.fork(), cfg.inject_ttl),
      reassembler_(cfg.ip_fragment_overlap),
      tor_probe_([](net::IpAddr) { return true; }) {}

const GfwTcb* GfwDevice::find_tcb(const net::FourTuple& tuple) const {
  auto it = tcbs_.find(tuple.canonical());
  return it == tcbs_.end() ? nullptr : &it->second;
}

GfwTcb* GfwDevice::lookup(const net::FourTuple& tuple) {
  auto it = tcbs_.find(tuple.canonical());
  return it == tcbs_.end() ? nullptr : &it->second;
}

GfwTcb& GfwDevice::create_tcb(net::FourTuple assumed_c2s,
                              net::Dir monitored_dir, bool reversed) {
  ++tcbs_created_;
  metrics().tcb_create.inc();
  auto [it, inserted] = tcbs_.emplace(
      assumed_c2s.canonical(), GfwTcb(assumed_c2s, monitored_dir, reversed));
  return it->second;
}

void GfwDevice::erase_tcb(const net::FourTuple& tuple) {
  ++teardowns_;
  metrics().tcb_teardown.inc();
  tcbs_.erase(tuple.canonical());
}

bool GfwDevice::host_pair_blocked(net::IpAddr a, net::IpAddr b,
                                  SimTime now) const {
  auto it = blocklist_.find(net::HostPair::of(a, b));
  return it != blocklist_.end() && now < it->second;
}

void GfwDevice::process(net::Packet pkt, net::Dir dir, net::Forwarder& fwd) {
  // On-path tap: the original packet always continues untouched; the
  // device reads a copy and may inject.
  net::Packet copy = pkt;
  fwd.forward(std::move(pkt));
  trace_ = fwd.trace();
  trace_now_ = fwd.now();
  current_pkt_ = copy.trace_id;
  metrics().packets_seen.inc();
  // The GFW reassembles IP fragments itself (preferring the first copy of
  // any overlapped range — the [17] behaviour that still holds). Whole
  // packets need no reassembly and are inspected in place.
  if (copy.ip.is_fragmented()) {
    std::optional<net::Packet> whole = reassembler_.push(copy);
    if (!whole) return;
    copy = std::move(*whole);
  }
  inspect(copy, dir, fwd);
}

void GfwDevice::trace_state(obs::GfwState from, obs::GfwState to,
                            obs::GfwBehavior b, const char* detail) {
  if (trace_ == nullptr) return;
  obs::TraceEvent ev;
  ev.at = trace_now_;
  ev.kind = obs::TraceKind::kState;
  ev.actor = name_;
  ev.gfw = obs::GfwTransition{from, to, b};
  ev.caused_by = trace_->event_for_packet(current_pkt_);
  ev.detail = detail;
  trace_->record(std::move(ev));
}

void GfwDevice::trace_ignore(const char* detail) {
  if (trace_ == nullptr) return;
  trace_->note(trace_now_, name_, obs::TraceKind::kIgnore, detail,
               trace_->event_for_packet(current_pkt_));
}

void GfwDevice::inspect(const net::Packet& pkt, net::Dir dir,
                        net::Forwarder& fwd) {
  if (!pkt.is_tcp()) return;  // UDP DNS is the DnsPoisoner's job

  // Tor aftermath: a confirmed-bridge IP is blocked on every port.
  if (ip_blocklist_.contains(pkt.ip.dst) ||
      ip_blocklist_.contains(pkt.ip.src)) {
    metrics().ip_block_hits.inc();
    trace_state(obs::GfwState::kNone, obs::GfwState::kNone,
                obs::GfwBehavior::kIpBlock,
                "endpoint on the IP blocklist; injecting response");
    inject_all(injector_.ip_block_response(pkt, dir), fwd);
    return;
  }

  // 90-second host-pair blocking period after a detection.
  if (cfg_.enforce_block_period &&
      host_pair_blocked(pkt.ip.src, pkt.ip.dst, fwd.now())) {
    metrics().block_period_hits.inc();
    trace_state(obs::GfwState::kNone, obs::GfwState::kNone,
                obs::GfwBehavior::kBlockPeriod,
                "host pair inside the 90 s block period; forging responses");
    auto injections = injector_.block_period_response(pkt, dir);
    for (const auto& inj : injections) {
      if (inj.packet.tcp->flags.syn && inj.packet.tcp->flags.ack) {
        ++forged_syn_acks_;
        metrics().synack_forged.inc();
      }
    }
    inject_all(std::move(injections), fwd);
    return;
  }

  const net::TcpHeader& t = *pkt.tcp;

  // NOTE the deliberate absence of validation here: wrong checksums,
  // unsolicited MD5 options, wrong ACK numbers and stale timestamps are
  // all processed as if valid (Table 3's GFW column). The harden_* flags
  // below model the §8 countermeasures and default off.
  if (cfg_.harden_validate_checksum && !net::transport_checksum_ok(pkt)) {
    trace_ignore("bad transport checksum dropped by hardened GFW");
    return;
  }
  if (cfg_.harden_reject_md5 && t.options.md5_signature.has_value()) {
    trace_ignore("unsolicited MD5 option dropped by hardened GFW");
    return;
  }

  if (t.flags.rst) {
    if (handle_rst(pkt, dir)) return;
  }
  if (!cfg_.evolved && handle_fin_teardown(pkt)) return;

  if (t.flags.syn && t.flags.ack) {
    handle_syn_ack(pkt, dir);
    return;
  }
  if (t.flags.syn) {
    handle_syn(pkt, dir);
    return;
  }

  handle_payload(pkt, dir, fwd);
}

bool GfwDevice::handle_rst(const net::Packet& pkt, net::Dir dir) {
  (void)dir;
  GfwTcb* tcb = lookup(pkt.tuple());
  if (tcb == nullptr) return true;

  if (cfg_.harden_strict_rst) {
    // §8 countermeasure: accept teardown only at the exact tracked
    // sequence number, like an RFC 5961 endpoint.
    const u32 expected = from_assumed_client(*tcb, pkt)
                             ? tcb->client_next
                             : tcb->server_next;
    if (pkt.tcp->seq != expected) {
      trace_ignore("RST at unexpected seq ignored (strict-rst hardening)");
      return true;  // ignored
    }
  }

  if (!cfg_.evolved) {
    trace_state(to_obs(tcb->state), obs::GfwState::kGone,
                obs::GfwBehavior::kRstTeardown,
                "prior model: RST tears the TCB down");
    erase_tcb(pkt.tuple());
    return true;
  }
  const bool handshake = tcb->in_handshake_phase();
  const RstReaction reaction = handshake ? cfg_.rst_reaction_handshake
                                         : cfg_.rst_reaction_established;
  if (reaction == RstReaction::kTeardown) {
    trace_state(to_obs(tcb->state), obs::GfwState::kGone,
                obs::GfwBehavior::kRstTeardown,
                handshake ? "B3: RST during handshake tears the TCB down"
                          : "B3: RST after handshake tears the TCB down");
    erase_tcb(pkt.tuple());
  } else {
    enter_resync(*tcb, obs::GfwBehavior::kB3RstResync);
  }
  return true;
}

bool GfwDevice::handle_fin_teardown(const net::Packet& pkt) {
  // Prior model only: any FIN tears the TCB down.
  if (!pkt.tcp->flags.fin) return false;
  if (lookup(pkt.tuple()) != nullptr) {
    trace_state(to_obs(lookup(pkt.tuple())->state), obs::GfwState::kGone,
                obs::GfwBehavior::kFinTeardown,
                "prior model: FIN tears the TCB down");
    erase_tcb(pkt.tuple());
  }
  return true;
}

void GfwDevice::enter_resync(GfwTcb& tcb, obs::GfwBehavior why) {
  if (tcb.state != TcbState::kResync) {
    trace_state(to_obs(tcb.state), obs::GfwState::kResync, why,
                "TCB enters resync; next client data re-anchors the stream");
    tcb.state = TcbState::kResync;
    ++resyncs_;
    metrics().tcb_resync.inc();
  }
}

void GfwDevice::handle_syn(const net::Packet& pkt, net::Dir dir) {
  GfwTcb* tcb = lookup(pkt.tuple());
  if (tcb == nullptr) {
    // Both models: TCB on SYN; the SYN's sender is assumed to be the
    // client and its sequence number anchors the monitored stream.
    GfwTcb& fresh = create_tcb(pkt.tuple(), dir, /*reversed=*/false);
    fresh.client_next = pkt.tcp->seq + 1;
    trace_state(obs::GfwState::kNone, obs::GfwState::kEstablished,
                obs::GfwBehavior::kB1CreateOnSyn, "TCB created on SYN");
    return;
  }
  if (!cfg_.evolved) {
    trace_ignore("prior model: later SYN ignored");
    return;  // prior model ignores later SYNs
  }

  if (from_assumed_client(*tcb, pkt)) {
    // Behavior 2a: multiple SYNs from the client side → resync state.
    enter_resync(*tcb, obs::GfwBehavior::kB2aMultipleSyn);
  }
  // A SYN from the assumed-server side is meaningless; ignored.
}

void GfwDevice::handle_syn_ack(const net::Packet& pkt, net::Dir dir) {
  GfwTcb* tcb = lookup(pkt.tuple());
  if (tcb == nullptr) {
    if (!cfg_.evolved) return;  // prior model: TCB on SYN only
    // Behavior 1: TCB from a SYN/ACK. Sender presumed server, receiver
    // presumed client; the expected client sequence number comes from the
    // acknowledgment field. When the *client* forges this packet the
    // roles invert — the TCB Reversal strategy.
    net::FourTuple assumed_c2s = pkt.tuple().reversed();
    GfwTcb& fresh = create_tcb(assumed_c2s, net::opposite(dir),
                               /*reversed=*/dir == net::Dir::kC2S);
    fresh.client_next = pkt.tcp->ack;
    fresh.server_next = pkt.tcp->seq + 1;
    fresh.server_seq_known = true;
    fresh.syn_ack_seen = true;
    trace_state(obs::GfwState::kNone, obs::GfwState::kEstablished,
                obs::GfwBehavior::kB1CreateOnSynAck,
                dir == net::Dir::kC2S
                    ? "B1: TCB created on client-sent SYN/ACK (roles reversed)"
                    : "B1: TCB created on SYN/ACK");
    return;
  }

  const bool from_server = !from_assumed_client(*tcb, pkt);
  if (!from_server) return;  // SYN/ACK from the assumed client: ignored

  if (!cfg_.evolved) {
    // Prior model just learns the server's ISN.
    tcb->server_next = pkt.tcp->seq + 1;
    tcb->server_seq_known = true;
    return;
  }

  if (tcb->state == TcbState::kResync) {
    // A server SYN/ACK is one of the two resynchronization sources (§4).
    tcb->reanchor(pkt.tcp->ack);
    tcb->server_next = pkt.tcp->seq + 1;
    tcb->server_seq_known = true;
    tcb->syn_ack_seen = true;
    tcb->state = TcbState::kEstablished;
    trace_state(obs::GfwState::kResync, obs::GfwState::kEstablished,
                obs::GfwBehavior::kResyncReanchor,
                "re-anchored on server SYN/ACK");
    return;
  }
  if (!tcb->syn_ack_seen) {
    tcb->syn_ack_seen = true;
    tcb->server_next = pkt.tcp->seq + 1;
    tcb->server_seq_known = true;
    if (pkt.tcp->ack != tcb->client_next) {
      // Behavior 2c: acknowledgment disagrees with the SYN we tracked.
      enter_resync(*tcb, obs::GfwBehavior::kB2cSynAckAckMismatch);
    }
    return;
  }
  // Behavior 2b: multiple SYN/ACKs from the server side.
  tcb->server_next = pkt.tcp->seq + 1;
  enter_resync(*tcb, obs::GfwBehavior::kB2bMultipleSynAck);
}

void GfwDevice::handle_payload(const net::Packet& pkt, net::Dir dir,
                               net::Forwarder& fwd) {
  (void)dir;
  GfwTcb* tcb = lookup(pkt.tuple());
  if (tcb == nullptr) return;  // untracked connection: invisible

  const net::TcpHeader& t = *pkt.tcp;
  if (!t.flags.any() && !cfg_.accepts_no_flag_data) return;
  if (pkt.payload.empty()) {
    // Pure ACKs never resynchronize a TCB (§4), but the handshake-closing
    // ACK does move the connection out of the handshake phase.
    if (t.flags.ack && tcb->syn_ack_seen && from_assumed_client(*tcb, pkt)) {
      tcb->handshake_acked = true;
    }
    // Hardened mode: a server ACK releases the buffered client bytes it
    // covers for scanning.
    if (cfg_.harden_require_server_ack && t.flags.ack &&
        !from_assumed_client(*tcb, pkt)) {
      release_acked_bytes(*tcb, t.ack, fwd);
    }
    return;
  }

  if (from_assumed_client(*tcb, pkt)) {
    if (tcb->state == TcbState::kResync) {
      if (cfg_.harden_require_server_ack) {
        // Hardened resync (§8): do not anchor on unconfirmed data. Hold
        // the packet as a candidate; the server's ACK picks the winner,
        // so an out-of-window desync packet never becomes the anchor.
        if (tcb->anchor_candidates.size() < 16) {
          tcb->anchor_candidates.emplace_back(t.seq, pkt.payload);
        }
        return;
      }
      // Resynchronize on the next client data packet: its sequence number
      // becomes the new anchor, whatever it is (§4/§5.1 — this is also the
      // hole the desync building block drives through).
      tcb->reanchor(t.seq);
      tcb->state = TcbState::kEstablished;
      trace_state(obs::GfwState::kResync, obs::GfwState::kEstablished,
                  obs::GfwBehavior::kResyncReanchor,
                  "re-anchored on next client data");
    }
    if (tcb->detected) return;
    if (cfg_.device_type == DeviceType::kType1) {
      scan_packet_type1(*tcb, pkt, fwd);
    } else {
      const u32 drain_start = tcb->client_next;
      const ByteView fresh = tcb->assemble(
          t.seq, pkt.payload, cfg_.tcp_segment_overlap, cfg_.window);
      if (!fresh.empty()) {
        if (cfg_.harden_require_server_ack) {
          if (!tcb->pending_base_valid) {
            tcb->pending_base_seq = drain_start;
            tcb->pending_base_valid = true;
          }
          tcb->pending_scan.insert(tcb->pending_scan.end(), fresh.begin(),
                                   fresh.end());
        } else {
          scan_monitored(*tcb, fresh, fwd);
        }
      }
    }
    return;
  }

  // Reverse (assumed server → client) data: track the sequence number for
  // reset injection; optionally scan responses (rare paths, §3.3).
  const u32 end = t.seq + static_cast<u32>(pkt.payload.size());
  if (!tcb->server_seq_known || seq_gt(end, tcb->server_next)) {
    tcb->server_next = end;
    tcb->server_seq_known = true;
  }
  if (cfg_.harden_require_server_ack && t.flags.ack) {
    release_acked_bytes(*tcb, t.ack, fwd);
  }
  if (cfg_.censors_responses && !tcb->detected) {
    AhoCorasick::Cursor cursor;
    if (rules_->http_keywords.scan(pkt.payload, cursor) >= 0) {
      on_sensitive(*tcb, fwd, "response-keyword");
    }
  }
}

void GfwDevice::release_acked_bytes(GfwTcb& tcb, u32 server_ack,
                                    net::Forwarder& fwd) {
  // Hardened resync: commit to the candidate anchor the server confirmed.
  if (tcb.state == TcbState::kResync && !tcb.anchor_candidates.empty()) {
    for (const auto& [seq, payload] : tcb.anchor_candidates) {
      const u32 end = seq + static_cast<u32>(payload.size());
      if (tcp::seq_lt(seq, server_ack) && tcp::seq_le(end, server_ack)) {
        tcb.reanchor(seq);
        tcb.state = TcbState::kEstablished;
        trace_state(obs::GfwState::kResync, obs::GfwState::kEstablished,
                    obs::GfwBehavior::kResyncReanchor,
                    "hardened resync: re-anchored on server-acked candidate");
        const ByteView confirmed = tcb.assemble(
            seq, payload, cfg_.tcp_segment_overlap, cfg_.window);
        if (!confirmed.empty() && !tcb.detected) {
          scan_monitored(tcb, confirmed, fwd);
        }
        break;
      }
    }
    if (tcb.state == TcbState::kEstablished) tcb.anchor_candidates.clear();
  }

  if (!tcb.pending_base_valid || tcb.pending_scan.empty() || tcb.detected) {
    return;
  }
  const i32 covered = static_cast<i32>(server_ack - tcb.pending_base_seq);
  if (covered <= 0) return;
  const std::size_t n = std::min<std::size_t>(
      static_cast<std::size_t>(covered), tcb.pending_scan.size());
  Bytes released(tcb.pending_scan.begin(),
                 tcb.pending_scan.begin() + static_cast<long>(n));
  tcb.pending_scan.erase(tcb.pending_scan.begin(),
                         tcb.pending_scan.begin() + static_cast<long>(n));
  tcb.pending_base_seq += static_cast<u32>(n);
  scan_monitored(tcb, released, fwd);
}

void GfwDevice::scan_packet_type1(GfwTcb& tcb, const net::Packet& pkt,
                                  net::Forwarder& fwd) {
  // Type-1 devices match within a single in-order packet: no cross-packet
  // reassembly (a split keyword escapes), no out-of-order buffering.
  const net::TcpHeader& t = *pkt.tcp;
  if (t.seq != tcb.client_next) return;
  tcb.client_next += static_cast<u32>(pkt.payload.size());
  tcb.client_data_seen = true;

  AhoCorasick::Cursor cursor;  // fresh per packet
  if (rules_->http_keywords.scan(pkt.payload, cursor) >= 0) {
    on_sensitive(tcb, fwd, "keyword");
    return;
  }
  if (tcb.tuple().dst_port == 53) {
    std::size_t offset = 0;
    for (const auto& msg : app::dns_tcp_extract(pkt.payload, &offset)) {
      for (const auto& q : msg.questions) {
        if (rules_->dns_blacklist.contains(q.qname)) {
          on_sensitive(tcb, fwd, "dns-qname");
          return;
        }
      }
    }
  }
}

void GfwDevice::scan_monitored(GfwTcb& tcb, ByteView fresh,
                               net::Forwarder& fwd) {
  // First-flight protocol fingerprints (Tor / OpenVPN DPI).
  if (!tcb.first_payload_checked) {
    tcb.first_payload_checked = true;
    if (cfg_.tor_filtering && app::is_tor_client_hello(tcb.stream())) {
      ++detections_;
      metrics().keyword_hits.inc();
      trace_state(to_obs(tcb.state), to_obs(tcb.state),
                  obs::GfwBehavior::kDetection,
                  "Tor client hello fingerprinted; probing suspected bridge");
      if (tor_probe_(tcb.tuple().dst_ip)) {
        // Active probe confirms a bridge: block the IP outright (§7.3 —
        // "any node in China can no longer connect to this IP via any
        // port") and kill the current connection.
        ip_blocklist_.insert(tcb.tuple().dst_ip);
        tcb.detected = true;
        trace_state(to_obs(tcb.state), to_obs(tcb.state),
                    obs::GfwBehavior::kIpBlock,
                    "probe confirmed Tor bridge; IP blocked on every port");
        inject_all(injector_.type2_resets(tcb), fwd);
        ++reset_volleys_;
        metrics().rst_type2_injected.inc();
      }
      return;
    }
    if (cfg_.vpn_dpi && app::is_openvpn_client_reset(tcb.stream())) {
      on_sensitive(tcb, fwd, "openvpn");
      return;
    }
  }

  // DNS-over-TCP QNAME censorship (§7.2).
  if (tcb.tuple().dst_port == 53) {
    for (const auto& msg :
         app::dns_tcp_extract(tcb.stream(), &tcb.dns_parse_offset)) {
      for (const auto& q : msg.questions) {
        if (rules_->dns_blacklist.contains(q.qname)) {
          on_sensitive(tcb, fwd, "dns-qname");
          return;
        }
      }
    }
  }

  // Streaming keyword scan over the newly contiguous bytes.
  if (rules_->http_keywords.scan(fresh, tcb.scan_cursor) >= 0) {
    on_sensitive(tcb, fwd, "keyword");
  }
}

void GfwDevice::on_sensitive(GfwTcb& tcb, net::Forwarder& fwd,
                             const char* what) {
  tcb.detected = true;
  ++detections_;
  metrics().keyword_hits.inc();
  trace_state(to_obs(tcb.state), to_obs(tcb.state),
              obs::GfwBehavior::kDetection, what);
  if (rng_.chance(cfg_.detection_miss_rate)) {
    // Overload: the detection engine fired but injection didn't happen —
    // the paper's stubborn 2.8 % success-without-strategy rate.
    ++missed_;
    metrics().detection_missed.inc();
    trace_state(to_obs(tcb.state), to_obs(tcb.state),
                obs::GfwBehavior::kDetectionMissed,
                "detector fired but the injector was overloaded; no resets");
    return;
  }
  ++reset_volleys_;
  if (cfg_.device_type == DeviceType::kType1) {
    metrics().rst_type1_injected.inc();
    inject_all(injector_.type1_resets(tcb), fwd);
  } else {
    metrics().rst_type2_injected.inc();
    inject_all(injector_.type2_resets(tcb), fwd);
    if (cfg_.enforce_block_period) {
      metrics().block_period_starts.inc();
      trace_state(to_obs(tcb.state), to_obs(tcb.state),
                  obs::GfwBehavior::kBlockPeriod,
                  "host-pair block period started (90 s)");
      blocklist_[net::HostPair::of(tcb.tuple().src_ip, tcb.tuple().dst_ip)] =
          fwd.now() + cfg_.block_duration;
    }
  }
}

void GfwDevice::inject_all(std::vector<Injection> injections,
                           net::Forwarder& fwd) {
  SimTime delay = cfg_.reaction_delay;
  for (auto& inj : injections) {
    // Attribute each injected packet to the packet under inspection, so
    // the trace links forged RSTs back to the sensitive request.
    fwd.inject_caused_by(std::move(inj.packet), inj.dir, delay, current_pkt_);
    // Successive packets of a volley leave back-to-back.
    delay = delay + SimTime::from_us(30);
  }
}

}  // namespace ys::gfw
