// The simulated network path: client — middleboxes — GFW tap — middleboxes
// — server (Figure 1 of the paper).
//
// Hop positions are explicit so TTL-limited insertion packets behave like
// the real thing: a packet with TTL k crosses exactly k links, so it is seen
// by every element at position <= k and never by anything beyond. The GFW is
// an on-path *tap*: its element always forwards the original packet
// unchanged and can only inject new packets at its own position.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/log.h"
#include "core/rng.h"
#include "netsim/event_loop.h"
#include "netsim/packet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ys::net {

enum class Dir {
  kC2S,  // client to server
  kS2C,  // server to client
};

constexpr Dir opposite(Dir d) { return d == Dir::kC2S ? Dir::kS2C : Dir::kC2S; }
inline const char* dir_name(Dir d) { return d == Dir::kC2S ? "c2s" : "s2c"; }

/// Typed trace summary of a packet (obs cannot depend on netsim, so the
/// conversion lives here).
obs::PacketRef to_trace_ref(const Packet& pkt, Dir dir);

class PathElement;

/// Interface handed to a PathElement while it processes one packet.
class Forwarder {
 public:
  virtual ~Forwarder() = default;

  /// Continue the packet along its current direction from this element.
  /// May be called zero times (drop) or once; middleboxes that reassemble
  /// fragments may forward a different packet than they received.
  virtual void forward(Packet pkt) = 0;

  /// forward() for an on-path tap that reads what it passes on: forwards
  /// `pkt` (leaving it moved from), then calls `tap.observe` with the
  /// packet as it arrived. The packet is forwarded first, so its draws and
  /// its place among same-instant events come before anything the tap
  /// injects. This default copies the packet for the tap; Path's forwarder
  /// lets the tap read the packet where it lies.
  virtual void forward_and_observe(Packet& pkt, Dir dir, PathElement& tap);

  /// Emit a brand-new packet from this element's position traveling `dir`
  /// after `delay` (models device reaction time). Injection is the only
  /// write primitive an on-path device has.
  virtual void inject(Packet pkt, Dir dir, SimTime delay) = 0;

  /// inject(), attributing the new packet to the packet that triggered it
  /// (by trace id) so the trace links e.g. an injected RST back to the
  /// sensitive request. The default forwards to inject() — harness/test
  /// Forwarders that don't trace need not override.
  virtual void inject_caused_by(Packet pkt, Dir dir, SimTime delay,
                                u64 cause_packet_id) {
    (void)cause_packet_id;
    inject(std::move(pkt), dir, delay);
  }

  /// Record an intentional drop (in-path devices only).
  virtual void drop(const Packet& pkt, std::string_view reason) = 0;

  /// The trace recorder for this path visit, nullptr when tracing is off.
  /// Elements use it to record state-machine transitions and ignores.
  virtual obs::TraceRecorder* trace() const { return nullptr; }

  virtual SimTime now() const = 0;
  virtual Rng& rng() = 0;
};

/// An in-path or on-path device attached at a hop position.
class PathElement {
 public:
  virtual ~PathElement() = default;
  virtual std::string name() const = 0;
  virtual void process(Packet pkt, Dir dir, Forwarder& fwd) = 0;

  /// An on-path tap's read of a packet it passed on through
  /// Forwarder::forward_and_observe: the packet as it arrived here, with
  /// its arrival TTL and payload. The tap may inject through `fwd`. In-path
  /// elements never pass packets that way and keep this no-op.
  virtual void observe(const Packet&, Dir, Forwarder&) {}
};

/// Deterministic fault-injection hook consulted by the path (ys::faults
/// implements it; netsim only defines the contract so the dependency points
/// faults -> netsim). The hook owns its own seeded RNG: with no hook
/// installed the path makes exactly the same draws as before the fault
/// layer existed, which is what keeps fault-free runs bit-identical.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// What the fault layer did to one packet crossing one path segment.
  /// `reason` must point at storage that outlives the call (string
  /// literals); it is only read when an action fired.
  struct LinkAction {
    bool drop = false;         ///< packet dies on this segment
    bool duplicate = false;    ///< a second copy is delivered
    bool corrupt = false;      ///< payload mutated, checksum left stale
    i64 extra_delay_us = 0;    ///< added to the segment latency
    bool bypass_fifo = false;  ///< skip the FIFO clamp (true reordering)
    const char* reason = nullptr;

    bool any() const {
      return drop || duplicate || corrupt || extra_delay_us != 0 ||
             bypass_fifo;
    }
  };

  /// Consulted once per surviving segment crossing (after TTL and base
  /// loss), for the segment `from_pos` -> `to_pos` in direction `dir`.
  virtual LinkAction on_segment(const Packet& pkt, Dir dir, int from_pos,
                                int to_pos, SimTime now) = 0;

  /// What the fault layer did to one on-path injection attempt.
  struct InjectAction {
    bool suppress = false;   ///< the injector is "down": packet never sent
    i64 extra_delay_us = 0;  ///< injector latency flap
    const char* reason = nullptr;
  };

  /// Consulted when element `actor` injects a packet (GFW outage and
  /// latency flaps key on the actor name).
  virtual InjectAction on_inject(const std::string& actor, SimTime now) = 0;
};

/// Per-path link characteristics.
struct PathConfig {
  /// Server sits this many links from the client (positions 1..hops-1 hold
  /// intermediate devices).
  int server_hops = 14;
  i64 per_hop_latency_us = 800;
  i64 jitter_us = 300;
  /// Loss probability per link crossing, in [0, 1).
  double per_link_loss = 0.0;
};

/// Linear bidirectional path with TTL, latency, jitter, and loss semantics.
/// Packets in flight are typed loop events addressed to the path itself.
class Path : private PacketTarget {
 public:
  /// Endpoint delivery: the packet, still in its loop event's slot. The
  /// sink may read it or move from it.
  using PacketSink = std::function<void(Packet&)>;
  /// Client-side capture tap: sees every packet the client sends or
  /// receives, with the virtual timestamp (pcap-style observation point).
  using CaptureFn = std::function<void(const Packet&, SimTime)>;

  Path(EventLoop& loop, Rng rng, PathConfig cfg,
       obs::TraceRecorder* trace = nullptr);

  /// Attach an element at `position` (0 < position < server_hops). Elements
  /// sharing a position process packets in attachment order (C2S) and the
  /// reverse order (S2C), like devices stacked at one router.
  void attach(int position, PathElement* element);

  void set_client_sink(PacketSink sink) { client_sink_ = std::move(sink); }
  void set_server_sink(PacketSink sink) { server_sink_ = std::move(sink); }
  void set_client_capture(CaptureFn fn) { client_capture_ = std::move(fn); }

  /// Install (or clear, with nullptr) the fault-injection hook. The hook
  /// must outlive the path. No hook = the exact pre-fault-layer behavior.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  /// Endpoint send APIs. The packet is finalized (lengths/checksums
  /// autofilled) unless fields were pre-set.
  void send_from_client(Packet pkt);
  void send_from_server(Packet pkt);

  const PathConfig& config() const { return cfg_; }
  EventLoop& loop() { return loop_; }
  obs::TraceRecorder* trace() { return trace_; }

  /// Live hop-count estimate from client to server, as a tcptraceroute-like
  /// probe would measure it right now (reflects route changes).
  int current_server_hops() const { return cfg_.server_hops + hop_shift_; }

  /// Simulate a route change of `delta` hops (positive = path grew). The
  /// GFW and middlebox positions shift with the route tail; TTL estimates
  /// made earlier become stale, exactly the paper's "network dynamics"
  /// failure cause.
  void shift_route(int delta) { hop_shift_ += delta; }

  /// Statistics for tests.
  std::size_t packets_delivered_to_server() const { return to_server_count_; }
  std::size_t packets_delivered_to_client() const { return to_client_count_; }

 private:
  struct Attachment {
    int position;
    PathElement* element;
    /// Per-actor event count ("netsim.actor_events.<name>"), resolved once
    /// at attach time so per-packet delivery costs one pointer bump.
    obs::Counter* events = nullptr;
  };

  struct PathMetrics {
    obs::Counter& delivered_client;
    obs::Counter& delivered_server;
    obs::Counter& dropped_loss;
    obs::Counter& ttl_expired;
    obs::Counter& injected;
    obs::Counter& element_drops;
    obs::Counter& reorder_clamped;
    obs::Counter& fault_drops;
    obs::Counter& fault_duplicates;
    obs::Counter& fault_corruptions;
    obs::Counter& fault_inject_suppressed;
  };
  static PathMetrics& metrics();

  class ForwarderImpl;

  /// Elements a path is sized for up front (a Scenario attaches 4-6), so
  /// building one does not regrow its element and FIFO-floor vectors.
  static constexpr std::size_t kTypicalElements = 8;

  int endpoint_position(Dir dir) const {
    return dir == Dir::kC2S ? cfg_.server_hops + hop_shift_ : 0;
  }

  /// A packet's crossing to its next stop, decided but not yet made: the
  /// loop slots it lands in (none when it dies on the way) and what the
  /// crossing still does to it.
  struct Crossing {
    Packet* slot = nullptr;
    Packet* dup_slot = nullptr;  ///< a fault duplicate trailing the packet
    u8 ttl = 0;                  ///< TTL on arrival at the next stop
    bool corrupt = false;
  };

  /// Decide the crossing of `pkt` from `from_pos` (exclusive) to the next
  /// element or endpoint in `dir`: every TTL, loss, fault and latency draw,
  /// the trace events, the FIFO floor and the loop events, in that order.
  /// `after_index` is the index in elements_ the packet last visited (-1
  /// when leaving an endpoint). `pkt` keeps its payload; its TTL is left
  /// where the crossing stopped.
  Crossing cross(Packet& pkt, Dir dir, int from_pos, int after_index);

  /// Make a decided crossing: set the arrival TTL, apply a fault
  /// corruption and move `pkt` into its slot (copying it first for a
  /// duplicate). No-op for a packet that died on the way.
  void land(Packet& pkt, const Crossing& c);

  /// Move `pkt` on to its next stop: cross(), then land().
  void transit(Packet& pkt, Dir dir, int from_pos, int after_index) {
    land(pkt, cross(pkt, dir, from_pos, after_index));
  }

  /// Packet-event tags: the next stop (element index, or -1 for the
  /// endpoint), the direction, and whether the event is a delayed
  /// injection from that element (whose cause event rides in `aux`).
  static u32 event_tag(int index, Dir dir, bool inject) {
    return (static_cast<u32>(index + 1) << 2) |
           (dir == Dir::kS2C ? 2u : 0u) | (inject ? 1u : 0u);
  }
  void on_packet_event(Packet& pkt, u32 tag, u64 aux) override;

  /// FIFO floor slot of a next stop (element index, -1 = endpoint).
  SimTime& fifo_floor(int stop, Dir dir) {
    return fifo_floor_[static_cast<std::size_t>(stop + 1) * 2 +
                       (dir == Dir::kC2S ? 0u : 1u)];
  }

  void deliver_to_element(Packet& pkt, Dir dir, int index);
  void deliver_to_endpoint(Packet& pkt, Dir dir);

  /// Trace/fault actor name of the element at `index` (built on demand:
  /// only tracing and the fault hook read it).
  std::string actor_name(int index) const {
    return elements_[static_cast<std::size_t>(index)].element->name();
  }

  /// Record a packet-lifecycle event; no-op (and builds no strings) when
  /// tracing is off. Returns the event id (0 untraced).
  u64 trace_packet(obs::TraceKind kind, const std::string& actor,
                   const Packet& pkt, Dir dir, u64 caused_by = 0,
                   const char* extra = nullptr);

  EventLoop& loop_;
  Rng rng_;
  PathConfig cfg_;
  /// Rng::chance_threshold(cfg_.per_link_loss), 0 when there is no loss.
  u64 loss_threshold_;
  obs::TraceRecorder* trace_;
  FaultHook* fault_hook_ = nullptr;
  std::vector<Attachment> elements_;  // sorted by position (stable)
  PacketSink client_sink_;
  PacketSink server_sink_;
  CaptureFn client_capture_;
  int hop_shift_ = 0;
  u64 next_trace_id_ = 1;
  /// FIFO floor per (next stop, direction), see fifo_floor(): jitter may
  /// stretch latency but packets on one path segment never overtake each
  /// other, like real router queues.
  std::vector<SimTime> fifo_floor_;
  std::size_t to_server_count_ = 0;
  std::size_t to_client_count_ = 0;
};

}  // namespace ys::net
