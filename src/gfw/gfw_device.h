// On-path GFW device (PathElement).
//
// Implements both the prior model of Khattak et al. [17] and the evolved
// model inferred in §4 of the paper, selected by GfwConfig::evolved:
//
//   prior model                        evolved model
//   ---------------------------------  -----------------------------------
//   TCB created on SYN only            TCB created on SYN or SYN/ACK (B1)
//   later SYNs ignored                 multiple SYNs → resync state (B2a)
//                                      multiple SYN/ACKs → resync (B2b)
//                                      SYN/ACK w/ wrong ack → resync (B2c)
//   RST/RST-ACK/FIN tear down the TCB  FIN ignored; RST tears down or
//                                      enters resync per phase (B3)
//   TCP segment overlap: prefer last   prefer first (most devices)
//
// Both models share: no checksum validation, no MD5-option validation, no
// ACK-number validation, no PAWS — the discrepancies of Table 3 that make
// insertion packets possible.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/rng.h"
#include "gfw/gfw_tcb.h"
#include "gfw/gfw_types.h"
#include "gfw/reset_injector.h"
#include "netsim/fragment.h"
#include "netsim/path.h"

namespace ys::gfw {

class GfwDevice final : public net::PathElement {
 public:
  /// `rules` must outlive the device (shared across devices/trials).
  GfwDevice(std::string name, GfwConfig cfg, const DetectionRules* rules,
            Rng rng);

  std::string name() const override { return name_; }
  void process(net::Packet pkt, net::Dir dir, net::Forwarder& fwd) override;

  /// Active-probe oracle for Tor filtering: given a suspected bridge IP,
  /// does the probe confirm a Tor bridge? Defaults to "yes".
  void set_tor_probe(std::function<bool(net::IpAddr)> probe) {
    tor_probe_ = std::move(probe);
  }

  // -------------------------------------------------------------- inspect

  const GfwConfig& config() const { return cfg_; }
  const GfwTcb* find_tcb(const net::FourTuple& tuple) const;
  std::size_t tcb_count() const { return tcbs_.size(); }
  /// IP datagrams with fragments still outstanding.
  std::size_t pending_fragments() const {
    return reassembler_.pending_datagrams();
  }
  bool host_pair_blocked(net::IpAddr a, net::IpAddr b, SimTime now) const;
  bool ip_blocked(net::IpAddr ip) const { return ip_blocklist_.contains(ip); }

  int detections() const { return detections_; }
  int missed_detections() const { return missed_; }
  int reset_volleys() const { return reset_volleys_; }
  int forged_syn_acks() const { return forged_syn_acks_; }
  int tcbs_created() const { return tcbs_created_; }
  int resyncs_entered() const { return resyncs_; }
  int teardowns() const { return teardowns_; }

 private:
  void inspect(const net::Packet& pkt, net::Dir dir, net::Forwarder& fwd);
  void handle_syn(const net::Packet& pkt, net::Dir dir);
  void handle_syn_ack(const net::Packet& pkt, net::Dir dir);
  bool handle_rst(const net::Packet& pkt, net::Dir dir);
  bool handle_fin_teardown(const net::Packet& pkt);
  void handle_payload(const net::Packet& pkt, net::Dir dir,
                      net::Forwarder& fwd);

  void scan_monitored(GfwTcb& tcb, ByteView fresh, net::Forwarder& fwd);
  /// §8 hardened mode: release buffered client bytes covered by a server
  /// acknowledgment into the scanner.
  void release_acked_bytes(GfwTcb& tcb, u32 server_ack, net::Forwarder& fwd);
  void scan_packet_type1(GfwTcb& tcb, const net::Packet& pkt,
                         net::Forwarder& fwd);
  void on_sensitive(GfwTcb& tcb, net::Forwarder& fwd, const char* what);
  void inject_all(std::vector<Injection> injections, net::Forwarder& fwd);
  void enter_resync(GfwTcb& tcb, obs::GfwBehavior why);

  /// Record a state-machine transition attributed to the packet currently
  /// under inspection. No-op (no strings built) when tracing is off.
  void trace_state(obs::GfwState from, obs::GfwState to, obs::GfwBehavior b,
                   const char* detail);
  /// Record a silently-ignored packet (hardened-mode validations).
  void trace_ignore(const char* detail);
  static obs::GfwState to_obs(TcbState s) {
    return s == TcbState::kResync ? obs::GfwState::kResync
                                  : obs::GfwState::kEstablished;
  }

  GfwTcb* lookup(const net::FourTuple& tuple);
  GfwTcb& create_tcb(net::FourTuple assumed_c2s, net::Dir monitored_dir,
                     bool reversed);
  void erase_tcb(const net::FourTuple& tuple);

  /// True if the packet was sent by the TCB's assumed client.
  static bool from_assumed_client(const GfwTcb& tcb, const net::Packet& pkt) {
    return pkt.ip.src == tcb.tuple().src_ip &&
           pkt.tcp->src_port == tcb.tuple().src_port;
  }

  std::string name_;
  GfwConfig cfg_;
  const DetectionRules* rules_;
  Rng rng_;

  // Tracing context for the packet currently being inspected, refreshed at
  // the top of process(); null/zero when the path runs untraced.
  obs::TraceRecorder* trace_ = nullptr;
  SimTime trace_now_{};
  u64 current_pkt_ = 0;
  ResetInjector injector_;
  net::FragmentReassembler reassembler_;
  std::function<bool(net::IpAddr)> tor_probe_;

  std::unordered_map<net::FourTuple, GfwTcb, net::FourTupleHash> tcbs_;
  std::unordered_map<net::HostPair, SimTime, net::HostPairHash> blocklist_;
  std::unordered_set<net::IpAddr> ip_blocklist_;

  int detections_ = 0;
  int missed_ = 0;
  int reset_volleys_ = 0;
  int forged_syn_acks_ = 0;
  int tcbs_created_ = 0;
  int resyncs_ = 0;
  int teardowns_ = 0;
};

}  // namespace ys::gfw
