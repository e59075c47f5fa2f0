// A TCP connection endpoint with per-version Linux behaviour.
//
// This is the "server model" of §5.3: every way the stack can discard a
// segment without touching connection state is an explicit ignore path,
// recorded in a machine-readable log. Strategies rely on these paths — an
// insertion packet is precisely a segment that lands on a server ignore
// path while the GFW accepts it.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.h"
#include "netsim/event_loop.h"
#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/segment_reassembler.h"
#include "tcpstack/tcp_types.h"

namespace ys::tcp {

/// One reliable TCP endpoint (one connection). Host manages demux and
/// listener semantics; the endpoint implements RFC 793 segment processing
/// plus the modern-Linux extensions the paper's analysis depends on
/// (RFC 5961 challenge ACKs, PAWS, RFC 2385 option rejection).
class TcpEndpoint {
 public:
  /// In-order application data delivery; the endpoint is passed so the
  /// application can reply in place.
  using DataHandler = std::function<void(TcpEndpoint&, ByteView)>;

  struct Callbacks {
    /// Emit a finalized-on-send packet to the wire.
    std::function<void(net::Packet)> send;
    DataHandler on_data;
    /// Connection reached ESTABLISHED.
    std::function<void()> on_established;
  };

  /// `local` is the endpoint's view: src = local address, dst = remote.
  TcpEndpoint(net::EventLoop& loop, Rng rng, StackProfile profile,
              net::FourTuple local, Callbacks callbacks);

  // ------------------------------------------------------------- user API

  /// Active open: send SYN, enter SYN_SENT.
  void open_active();

  /// Passive open: enter LISTEN and wait for a SYN.
  void open_passive();

  /// Queue application data; segments at MSS, retransmits until acked.
  void send_data(Bytes data);

  /// Orderly close (FIN).
  void close();

  /// Process one incoming segment addressed to this endpoint.
  void on_segment(const net::Packet& pkt);

  // ----------------------------------------------------------- inspection

  TcpState state() const { return state_; }
  u32 snd_nxt() const { return snd_nxt_; }
  u32 snd_una() const { return snd_una_; }
  u32 rcv_nxt() const { return rcv_nxt_; }
  u32 iss() const { return iss_; }
  u32 irs() const { return irs_; }
  const net::FourTuple& tuple() const { return local_; }
  const StackProfile& profile() const { return profile_; }
  bool was_reset() const { return reset_seen_; }

  /// Attach causal tracing: every ignore path emits a kIgnore event naming
  /// this endpoint's Linux profile, linked to the discarded packet's last
  /// trace event. `inbound_dir` is the direction packets travel to reach
  /// this endpoint (kC2S for servers, kS2C for clients).
  void set_trace(obs::TraceRecorder* trace, std::string actor,
                 net::Dir inbound_dir) {
    trace_ = trace;
    trace_actor_ = std::move(actor);
    trace_dir_ = inbound_dir;
  }

  /// Every discarded segment with its ignore path (§5.3 instrumentation).
  const std::vector<IgnoreEvent>& ignore_log() const { return ignore_log_; }
  /// Count of challenge ACKs emitted (RFC 5961 observable feedback).
  int challenge_acks_sent() const { return challenge_acks_sent_; }
  /// All in-order data the application has received so far.
  const Bytes& received_stream() const { return received_stream_; }

 private:
  // An entry of the retransmission queue: the SYN, a data segment or the
  // FIN. A SYN entry goes out as a SYN in SYN_SENT and as a SYN/ACK in
  // SYN_RECV.
  struct Unacked {
    u32 seq;
    Bytes data{};
    bool syn = false;
    bool fin = false;
    /// One past the last sequence number the entry occupies.
    u32 end() const {
      return seq + static_cast<u32>(data.size()) + (syn || fin ? 1 : 0);
    }
  };

  void set_state(TcpState next);
  void ignore(const net::Packet& pkt, IgnoreReason reason,
              const char* note = nullptr);

  // Packet construction: stamps ports/addresses, window, timestamps.
  net::Packet make_segment(net::TcpFlags flags, u32 seq, u32 ack,
                           Bytes payload = {});
  void emit(net::Packet pkt);
  void send_ack();
  void send_challenge_ack();
  void send_rst(u32 seq);
  void reset_by_peer();
  bool in_window(u32 seq) const;

  // Segment-processing stages.
  bool prevalidate(const net::Packet& pkt);
  void process_listen(const net::Packet& pkt);
  void process_syn_sent(const net::Packet& pkt);
  void process_syn_recv(const net::Packet& pkt);
  void process_synchronized(const net::Packet& pkt);

  bool handle_rst(const net::Packet& pkt);
  bool handle_syn_in_sync_state(const net::Packet& pkt);
  bool paws_reject(const net::Packet& pkt);
  void accept_payload(const net::Packet& pkt);
  void process_ack_field(const net::Packet& pkt);

  // Transmission machinery.
  void emit_queued(const Unacked& seg);
  void send_and_queue(Unacked seg);
  void transmit_queued();
  void schedule_retransmit();
  void on_retransmit_timer(u64 epoch);

  net::EventLoop& loop_;
  Rng rng_;
  StackProfile profile_;
  net::FourTuple local_;
  Callbacks cb_;

  TcpState state_ = TcpState::kClosed;
  u32 iss_ = 0;       // initial send sequence
  u32 irs_ = 0;       // initial receive sequence
  u32 snd_una_ = 0;   // oldest unacknowledged
  u32 snd_nxt_ = 0;   // next to send
  u32 rcv_nxt_ = 0;   // next expected
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool reset_seen_ = false;

  // Timestamp state (RFC 7323).
  bool ts_enabled_peer_ = false;
  u32 ts_recent_ = 0;

  // Out-of-order receive bytes beyond rcv_nxt, merged under
  // profile_.segment_overlap.
  net::SegmentReassembler reassembler_;

  // Sent but not yet acknowledged, oldest first.
  std::deque<Unacked> retransmit_queue_;
  Bytes pending_send_;  // not yet segmented
  u64 retransmit_epoch_ = 0;
  int retransmit_attempts_ = 0;

  Bytes received_stream_;
  std::vector<IgnoreEvent> ignore_log_;
  int challenge_acks_sent_ = 0;

  obs::TraceRecorder* trace_ = nullptr;
  std::string trace_actor_;
  net::Dir trace_dir_ = net::Dir::kC2S;
};

}  // namespace ys::tcp
