#include "netsim/path.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ys::net {

namespace {

/// Metric-name-safe rendering of an actor name ("mbox:nat" → "mbox_nat").
std::string sanitize_actor(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

/// "netsim.actor_events.<actor>" counters, resolved once per thread,
/// registry and actor name: every flow attaches the same few names again.
struct ActorCounters {
  obs::MetricsRegistry& reg;
  std::vector<std::pair<std::string, obs::Counter*>> by_name{};
};

obs::Counter& actor_events(const std::string& name) {
  ActorCounters& a = obs::bind_per_thread<ActorCounters>(
      [](obs::MetricsRegistry& reg) { return ActorCounters{reg}; });
  for (const auto& [known, counter] : a.by_name) {
    if (known == name) return *counter;
  }
  obs::Counter& counter =
      a.reg.counter("netsim.actor_events." + sanitize_actor(name));
  a.by_name.emplace_back(name, &counter);
  return counter;
}

}  // namespace

void Forwarder::forward_and_observe(Packet& pkt, Dir dir, PathElement& tap) {
  const Packet arrived = pkt;
  forward(std::move(pkt));
  tap.observe(arrived, dir, *this);
}

obs::PacketRef to_trace_ref(const Packet& pkt, Dir dir) {
  obs::PacketRef ref;
  ref.id = pkt.trace_id;
  ref.ttl = pkt.ip.ttl;
  ref.dir = dir == Dir::kC2S ? 0 : 1;
  ref.crafted = pkt.crafted;
  ref.payload_len = static_cast<u16>(pkt.payload.size());
  if (pkt.tcp) {
    ref.is_tcp = true;
    ref.seq = pkt.tcp->seq;
    ref.ack = pkt.tcp->ack;
    ref.flags = pkt.tcp->flags.to_byte();
  }
  return ref;
}

Path::PathMetrics& Path::metrics() {
  return obs::bind_per_thread<PathMetrics>([](obs::MetricsRegistry& reg) {
    return PathMetrics{reg.counter("netsim.packet_delivered_client"),
                       reg.counter("netsim.packet_delivered_server"),
                       reg.counter("netsim.packet_dropped_loss"),
                       reg.counter("netsim.packet_ttl_expired"),
                       reg.counter("netsim.packet_injected"),
                       reg.counter("netsim.packet_element_drop"),
                       reg.counter("netsim.packet_reorder_clamped"),
                       reg.counter("netsim.fault_drop"),
                       reg.counter("netsim.fault_duplicate"),
                       reg.counter("netsim.fault_corrupt"),
                       reg.counter("netsim.fault_inject_suppressed")};
  });
}

// Forwarder implementation bound to one (element, packet, direction) visit.
class Path::ForwarderImpl final : public Forwarder {
 public:
  ForwarderImpl(Path& path, Dir dir, int index, int position, u64 trace_id)
      : path_(path), dir_(dir), index_(index), position_(position),
        trace_id_(trace_id) {}

  void forward(Packet pkt) override {
    pkt.trace_id = trace_id_;
    path_.transit(pkt, dir_, position_, index_);
  }

  // The crossing is decided first, as forward() would, and made only once
  // the tap has read the packet: the tap reads it in place, with the TTL
  // it arrived with and before a fault corrupts or duplicates it.
  void forward_and_observe(Packet& pkt, Dir dir, PathElement& tap) override {
    pkt.trace_id = trace_id_;
    const u8 arrival_ttl = pkt.ip.ttl;
    const Crossing crossing = path_.cross(pkt, dir_, position_, index_);
    pkt.ip.ttl = arrival_ttl;
    tap.observe(pkt, dir, *this);
    path_.land(pkt, crossing);
  }

  void inject(Packet pkt, Dir dir, SimTime delay) override {
    inject_caused_by(std::move(pkt), dir, delay, 0);
  }

  void inject_caused_by(Packet pkt, Dir dir, SimTime delay,
                        u64 cause_packet_id) override {
    finalize(pkt);
    pkt.trace_id = path_.next_trace_id_++;
    // Resolve the causal link now: at injection-decision time the trigger
    // packet's latest trace event is the one that reached this element.
    const u64 cause_event =
        (path_.trace_ != nullptr && cause_packet_id != 0)
            ? path_.trace_->event_for_packet(cause_packet_id)
            : 0;
    if (path_.fault_hook_ != nullptr) {
      const std::string actor = path_.actor_name(index_);
      const FaultHook::InjectAction act =
          path_.fault_hook_->on_inject(actor, path_.loop_.now());
      if (act.suppress) {
        // The injector is "down" (e.g. a GFW outage flap): the forged
        // packet never makes it onto the wire.
        Path::metrics().fault_inject_suppressed.inc();
        path_.trace_packet(obs::TraceKind::kFault, actor, pkt, dir,
                           cause_event, act.reason);
        return;
      }
      delay = delay + SimTime::from_us(act.extra_delay_us);
    }
    Path::metrics().injected.inc();
    path_.loop_.schedule_packet_at(path_.loop_.now() + delay, &path_,
                                   event_tag(index_, dir, true),
                                   std::move(pkt), cause_event);
  }

  void drop(const Packet& pkt, std::string_view reason) override {
    Path::metrics().element_drops.inc();
    if (path_.trace_ != nullptr) {
      path_.trace_packet(obs::TraceKind::kDrop, path_.actor_name(index_),
                         pkt, dir_,
                         path_.trace_->event_for_packet(pkt.trace_id),
                         std::string(reason).c_str());
    }
  }

  obs::TraceRecorder* trace() const override { return path_.trace_; }

  SimTime now() const override { return path_.loop_.now(); }
  Rng& rng() override { return path_.rng_; }

 private:
  Path& path_;
  Dir dir_;
  int index_;
  int position_;
  u64 trace_id_;
};

Path::Path(EventLoop& loop, Rng rng, PathConfig cfg, obs::TraceRecorder* trace)
    : loop_(loop), rng_(rng), cfg_(cfg),
      loss_threshold_(cfg.per_link_loss > 0.0
                          ? Rng::chance_threshold(cfg.per_link_loss)
                          : 0),
      trace_(trace) {
  elements_.reserve(kTypicalElements);
  fifo_floor_.reserve((kTypicalElements + 1) * 2);
  fifo_floor_.resize(2);  // the two endpoints
}

u64 Path::trace_packet(obs::TraceKind kind, const std::string& actor,
                       const Packet& pkt, Dir dir, u64 caused_by,
                       const char* extra) {
  if (trace_ == nullptr) return 0;
  obs::TraceEvent ev;
  ev.at = loop_.now();
  ev.kind = kind;
  ev.actor = actor;
  ev.caused_by = caused_by;
  ev.packet = to_trace_ref(pkt, dir);
  ev.detail = pkt.summary();
  if (extra != nullptr) {
    ev.detail += "  (";
    ev.detail += extra;
    ev.detail += ')';
  }
  if (pkt.crafted) ev.detail += "  [insertion]";
  return trace_->record(std::move(ev));
}

void Path::attach(int position, PathElement* element) {
  auto it = std::upper_bound(
      elements_.begin(), elements_.end(), position,
      [](int pos, const Attachment& a) { return pos < a.position; });
  elements_.insert(
      it, Attachment{position, element, &actor_events(element->name())});
  fifo_floor_.resize((elements_.size() + 1) * 2);
}

void Path::send_from_client(Packet pkt) {
  finalize(pkt);
  pkt.trace_id = next_trace_id_++;
  // Insertion packets carry the trace-event id of the strategy decision
  // that crafted them; the send event chains to it.
  if (trace_ != nullptr) {
    trace_packet(obs::TraceKind::kSend, "client", pkt, Dir::kC2S,
                 pkt.cause_hint);
  }
  if (client_capture_) client_capture_(pkt, loop_.now());
  transit(pkt, Dir::kC2S, 0, -1);
}

void Path::send_from_server(Packet pkt) {
  finalize(pkt);
  pkt.trace_id = next_trace_id_++;
  if (trace_ != nullptr) {
    trace_packet(obs::TraceKind::kSend, "server", pkt, Dir::kS2C,
                 pkt.cause_hint);
  }
  transit(pkt, Dir::kS2C, endpoint_position(Dir::kC2S),
          static_cast<int>(elements_.size()));
}

Path::Crossing Path::cross(Packet& pkt, Dir dir, int from_pos,
                           int after_index) {
  // Find the next stop in the travel direction.
  int next_index = -1;
  int next_pos = endpoint_position(dir);
  if (dir == Dir::kC2S) {
    if (after_index + 1 < static_cast<int>(elements_.size())) {
      next_index = after_index + 1;
      next_pos = elements_[static_cast<std::size_t>(next_index)].position;
    }
  } else {
    if (after_index - 1 >= 0) {
      next_index = after_index - 1;
      next_pos = elements_[static_cast<std::size_t>(next_index)].position;
    }
  }

  const int distance = std::max(0, dir == Dir::kC2S ? next_pos - from_pos
                                                    : from_pos - next_pos);

  // TTL and loss are evaluated link by link, interleaved: a packet with
  // TTL k crosses exactly k links, and each crossing is an independent
  // Bernoulli loss trial — so an element at hop k sees packets that later
  // die at hop k+1 (one end-to-end draw could not represent that, and
  // insertion-packet fault tests depend on the distinction).
  if (distance > 0) {
    const int step = dir == Dir::kC2S ? 1 : -1;
    int pos = from_pos;
    for (int hop = 0; hop < distance; ++hop) {
      if (pkt.ip.ttl == 0) {
        metrics().ttl_expired.inc();
        if (trace_ != nullptr) {
          const std::string extra =
              "ttl expired " + std::to_string(pos) + " hops from client";
          trace_packet(obs::TraceKind::kExpire, "path", pkt, dir,
                       trace_->event_for_packet(pkt.trace_id), extra.c_str());
        }
        return {};
      }
      pkt.ip.ttl = static_cast<u8>(pkt.ip.ttl - 1);
      pos += step;
      // rng_.chance(cfg_.per_link_loss), compared as an integer.
      if (loss_threshold_ != 0 && rng_.draw_below(loss_threshold_)) {
        metrics().dropped_loss.inc();
        if (trace_ != nullptr) {
          trace_packet(obs::TraceKind::kLoss, "path", pkt, dir,
                       trace_->event_for_packet(pkt.trace_id));
        }
        return {};
      }
    }
  }

  // Fault layer: one consultation per surviving segment. No hook installed
  // means no extra draws and no behavior change whatsoever.
  FaultHook::LinkAction fault;
  if (fault_hook_ != nullptr && distance > 0) {
    fault = fault_hook_->on_segment(pkt, dir, from_pos, next_pos, loop_.now());
    if (fault.any() && trace_ != nullptr) {
      trace_packet(obs::TraceKind::kFault, "faults", pkt, dir,
                   trace_->event_for_packet(pkt.trace_id), fault.reason);
    }
    if (fault.drop) {
      metrics().fault_drops.inc();
      return {};
    }
  }

  const SimTime delay = SimTime::from_us(
      distance * cfg_.per_hop_latency_us +
      (cfg_.jitter_us > 0
           ? rng_.uniform_range(0, cfg_.jitter_us)
           : 0) +
      fault.extra_delay_us);

  // Enforce FIFO per (stop, direction): a packet entering this segment
  // later never arrives earlier (router queues don't reorder a flow). A
  // fault-layer reorder window bypasses the clamp — true reordering beyond
  // what jitter can produce — without lowering the floor for others.
  SimTime deliver_at = loop_.now() + delay;
  if (!fault.bypass_fifo) {
    SimTime& floor = fifo_floor(next_index, dir);
    if (deliver_at < floor) {
      // Jitter alone would have reordered this packet past an earlier one on
      // the same segment; the FIFO clamp is where "reordering pressure" shows.
      metrics().reorder_clamped.inc();
      deliver_at = floor;
    }
    floor = deliver_at;
  }

  Crossing c;
  c.ttl = pkt.ip.ttl;
  c.corrupt = fault.corrupt;
  const u32 tag = event_tag(next_index, dir, false);
  c.slot = &loop_.schedule_packet_slot(deliver_at, this, tag);
  if (!fault.duplicate) return c;

  // The copy trails the original by one hop latency and respects the
  // same FIFO floor, like a retransmitting link layer. The original's
  // event comes first in the loop's order.
  metrics().fault_duplicates.inc();
  SimTime dup_at = deliver_at + SimTime::from_us(cfg_.per_hop_latency_us);
  if (!fault.bypass_fifo) {
    SimTime& floor = fifo_floor(next_index, dir);
    if (dup_at < floor) dup_at = floor;
    floor = dup_at;
  }
  c.dup_slot = &loop_.schedule_packet_slot(dup_at, this, tag);
  return c;
}

void Path::land(Packet& pkt, const Crossing& c) {
  if (c.slot == nullptr) return;
  pkt.ip.ttl = c.ttl;
  if (c.corrupt) {
    // Mutate the content but leave the already-finalized checksum stale,
    // like a flaky link flipping bits after the NIC computed the sums.
    metrics().fault_corruptions.inc();
    if (!pkt.payload.empty()) {
      pkt.payload[0] ^= 0x20;
    } else if (pkt.tcp) {
      pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum ^ 0x5555);
    } else if (pkt.udp) {
      pkt.udp->checksum = static_cast<u16>(pkt.udp->checksum ^ 0x5555);
    }
  }
  if (c.dup_slot != nullptr) {
    *c.slot = pkt;
    *c.dup_slot = std::move(pkt);
  } else {
    *c.slot = std::move(pkt);
  }
}

void Path::on_packet_event(Packet& pkt, u32 tag, u64 aux) {
  const int index = static_cast<int>(tag >> 2) - 1;
  const Dir dir = (tag & 2u) != 0 ? Dir::kS2C : Dir::kC2S;
  if ((tag & 1u) != 0) {
    // A delayed injection leaves its element now; `aux` is its cause.
    if (trace_ != nullptr) {
      trace_packet(obs::TraceKind::kInject, actor_name(index), pkt, dir, aux);
    }
    transit(pkt, dir, elements_[static_cast<std::size_t>(index)].position,
            index);
  } else if (index >= 0) {
    deliver_to_element(pkt, dir, index);
  } else {
    deliver_to_endpoint(pkt, dir);
  }
}

void Path::deliver_to_element(Packet& pkt, Dir dir, int index) {
  const Attachment& at = elements_[static_cast<std::size_t>(index)];
  at.events->inc();
  ForwarderImpl fwd(*this, dir, index, at.position, pkt.trace_id);
  at.element->process(std::move(pkt), dir, fwd);
}

void Path::deliver_to_endpoint(Packet& pkt, Dir dir) {
  if (dir == Dir::kC2S) {
    ++to_server_count_;
    metrics().delivered_server.inc();
    if (trace_ != nullptr) {
      trace_packet(obs::TraceKind::kRecv, "server", pkt, dir,
                   trace_->event_for_packet(pkt.trace_id));
    }
    if (server_sink_) server_sink_(pkt);
  } else {
    ++to_client_count_;
    metrics().delivered_client.inc();
    if (trace_ != nullptr) {
      trace_packet(obs::TraceKind::kRecv, "client", pkt, dir,
                   trace_->event_for_packet(pkt.trace_id));
    }
    if (client_capture_) client_capture_(pkt, loop_.now());
    if (client_sink_) client_sink_(pkt);
  }
}

}  // namespace ys::net
