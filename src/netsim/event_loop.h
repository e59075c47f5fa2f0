// Discrete-event scheduler driving all simulations on virtual time.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/clock.h"
#include "core/log.h"
#include "core/types.h"
#include "netsim/packet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ys::net {

/// What one `run`/`run_until` call did. `hit_max_events` disambiguates
/// "queue drained" from "the livelock guard tripped" — the raw executed
/// count alone cannot (executed == max_events can be either). Converts to
/// the executed count so historical `std::size_t n = loop.run()` callers
/// keep compiling.
struct RunResult {
  std::size_t executed = 0;
  bool hit_max_events = false;

  operator std::size_t() const { return executed; }
};

/// Receiver of typed packet events: a packet handed back at its scheduled
/// time with the `tag` and `aux` words the scheduler chose (Path encodes
/// the next stop and direction in them). Typed events carry no closure, so
/// moving a packet one hop costs no allocation.
class PacketTarget {
 public:
  virtual void on_packet_event(Packet pkt, u32 tag, u64 aux) = 0;

 protected:
  ~PacketTarget() = default;
};

/// Min-heap event loop. Events scheduled for the same instant run in
/// scheduling order (a monotonically increasing tiebreaker guarantees
/// determinism); typed packet events and closures share that order.
class EventLoop {
 public:
  using Action = std::function<void()>;

  EventLoop() = default;
  /// Pre-size the queue and the slot pool for `pending_events` events in
  /// flight, so a loop that lives for one flow never regrows them.
  explicit EventLoop(std::size_t pending_events) {
    queue_.reserve(pending_events);
    slots_.reserve(pending_events);
  }

  SimTime now() const { return clock_.now(); }
  const VirtualClock& clock() const { return clock_; }

  /// Move the clock to `t` before any event runs. Fleet sweeps use this to
  /// multiplex many flows over one shared virtual timeline: each flow's
  /// scenario starts at its arrival time, so TTL-bearing state (selector
  /// records, block periods) ages consistently across the whole sweep.
  /// Monotonic like everything else on the clock; a no-op for t <= now().
  void start_at(SimTime t) { clock_.advance_to(t); }

  /// Timer event: run `action` at `when`.
  void schedule_at(SimTime when, Action action) {
    const u32 slot = acquire_slot();
    slots_[slot].action = std::move(action);
    push(when, slot);
  }

  void schedule_after(SimTime delay, Action action) {
    schedule_at(now() + delay, std::move(action));
  }

  /// Typed packet event: at `when`, call
  /// `target->on_packet_event(pkt, tag, aux)`. The packet waits in a pooled
  /// slot; `target` must outlive the event.
  void schedule_packet_at(SimTime when, PacketTarget* target, u32 tag,
                          Packet pkt, u64 aux = 0) {
    const u32 slot = acquire_slot();
    Slot& s = slots_[slot];
    s.target = target;
    s.tag = tag;
    s.aux = aux;
    s.pkt = std::move(pkt);
    push(when, slot);
  }

  /// Run until the queue drains or `max_events` fire (a bound guards
  /// against accidental livelock in tests).
  RunResult run(std::size_t max_events = 1'000'000) {
    RunResult result;
    while (!queue_.empty() && result.executed < max_events) {
      run_next();
      ++result.executed;
    }
    finish_run(result, !queue_.empty());
    return result;
  }

  /// Run events with timestamps <= deadline, then set the clock there.
  RunResult run_until(SimTime deadline, std::size_t max_events = 1'000'000) {
    RunResult result;
    while (!queue_.empty() && queue_.front().when <= deadline &&
           result.executed < max_events) {
      run_next();
      ++result.executed;
    }
    finish_run(result, !queue_.empty() && queue_.front().when <= deadline);
    clock_.advance_to(deadline);
    return result;
  }

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  /// Attach a trace recorder; the loop annotates anomalies (today: the
  /// livelock guard tripping) as kNote events so they show up in replays.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  struct LoopMetrics {
    obs::Counter& events_executed;
    obs::Counter& runs;
    obs::Counter& max_events_hits;
    obs::Gauge& queue_depth_hwm;
    obs::Gauge& max_events_hit;  // 1 while any run this trial tripped
  };

  /// One name-lookup per (thread, registry); every loop instance on a
  /// thread shares the metrics (they aggregate across trials until
  /// reset_all()). The cache resolves through current() and rebinds on
  /// registry change, so runner workers write their private registries,
  /// not the global one.
  static LoopMetrics& metrics() {
    return obs::bind_per_thread<LoopMetrics>([](obs::MetricsRegistry& reg) {
      return LoopMetrics{reg.counter("loop.events_executed"),
                         reg.counter("loop.runs"),
                         reg.counter("loop.max_events_hits"),
                         reg.gauge("loop.queue_depth_hwm"),
                         reg.gauge("loop.max_events_hit")};
    });
  }

  void finish_run(RunResult& result, bool more_work_pending) {
    result.hit_max_events = more_work_pending;
    LoopMetrics& m = metrics();
    m.runs.inc();
    m.events_executed.inc(result.executed);
    if (result.hit_max_events) {
      m.max_events_hits.inc();
      m.max_events_hit.set(1.0);
      const std::string msg =
          "event loop stopped at the max_events bound after " +
          std::to_string(result.executed) + " events with " +
          std::to_string(queue_.size()) + " still pending (possible livelock)";
      YS_LOG(LogLevel::kWarn, msg);
      if (trace_ != nullptr) {
        trace_->note(now(), "loop", obs::TraceKind::kNote, msg);
      }
    }
  }
  /// One pending event's payload: a packet for its target, or a closure
  /// when `target` is null. Free slots chain through `next_free`.
  struct Slot {
    PacketTarget* target = nullptr;
    u32 tag = 0;
    u32 next_free = 0;
    u64 aux = 0;
    Packet pkt;
    Action action;
  };

  /// Heap entry: the ordering key and the slot holding the event.
  struct Key {
    SimTime when;
    u64 seq;
    u32 slot;

    bool operator>(const Key& other) const {
      if (when != other.when) return other.when < when;
      return seq > other.seq;
    }
  };

  static constexpr u32 kNoSlot = ~u32{0};

  u32 acquire_slot() {
    if (free_head_ == kNoSlot) {
      slots_.emplace_back();
      return static_cast<u32>(slots_.size() - 1);
    }
    const u32 slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }

  void release_slot(u32 slot) {
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
  }

  void push(SimTime when, u32 slot) {
    queue_.push_back(Key{when, next_seq_++, slot});
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
    metrics().queue_depth_hwm.max_of(static_cast<double>(queue_.size()));
  }

  /// Pop the earliest event and run it. Its payload is moved out of the
  /// slot and the slot freed first, so the event may schedule more events
  /// (which can regrow the pool) while it runs.
  void run_next() {
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
    const Key key = queue_.back();
    queue_.pop_back();
    clock_.advance_to(key.when);
    Slot& s = slots_[key.slot];
    if (PacketTarget* target = s.target) {
      s.target = nullptr;
      const u32 tag = s.tag;
      const u64 aux = s.aux;
      Packet pkt = std::move(s.pkt);
      release_slot(key.slot);
      target->on_packet_event(std::move(pkt), tag, aux);
    } else {
      Action action = std::move(s.action);
      s.action = nullptr;
      release_slot(key.slot);
      action();
    }
  }

  VirtualClock clock_;
  u64 next_seq_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  // Min-heap on (when, seq) kept with push_heap/pop_heap; (when, seq) is a
  // strict total order, so the pop order does not depend on the heap.
  std::vector<Key> queue_;
  // Event payloads, reused across events through the free list.
  std::vector<Slot> slots_;
  u32 free_head_ = kNoSlot;
};

}  // namespace ys::net
