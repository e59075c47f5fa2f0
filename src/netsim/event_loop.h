// Discrete-event scheduler driving all simulations on virtual time.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
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
/// moving a packet one hop costs no allocation. `pkt` lives in the loop's
/// slot until the call returns: the target may read it, move from it, or
/// schedule more events while it holds the reference.
class PacketTarget {
 public:
  virtual void on_packet_event(Packet& pkt, u32 tag, u64 aux) = 0;

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
  /// Pre-size the queue and the first slot chunk for `pending_events`
  /// events in flight, so a loop that lives for one flow never grows them.
  explicit EventLoop(std::size_t pending_events)
      : first_chunk_(std::make_unique<Slot[]>(pending_events)),
        fresh_(first_chunk_.get()),
        fresh_end_(first_chunk_.get() + pending_events) {
    queue_.reserve(pending_events);
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
    Slot& s = acquire_slot();
    s.target = nullptr;
    s.action = std::move(action);
    push(when, s);
  }

  void schedule_after(SimTime delay, Action action) {
    schedule_at(now() + delay, std::move(action));
  }

  /// Typed packet event: at `when`, call
  /// `target->on_packet_event(pkt, tag, aux)`. The packet waits in a pooled
  /// slot; `target` must outlive the event.
  void schedule_packet_at(SimTime when, PacketTarget* target, u32 tag,
                          Packet&& pkt, u64 aux = 0) {
    Slot& s = acquire_slot();
    s.target = target;
    s.tag = tag;
    s.aux = aux;
    s.pkt = std::move(pkt);
    push(when, s);
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
    const u64 last = biased(deadline);
    while (!queue_.empty() && queue_.front().when <= last &&
           result.executed < max_events) {
      run_next();
      ++result.executed;
    }
    finish_run(result, !queue_.empty() && queue_.front().when <= last);
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

  /// Publish one run: its counts, and the deepest queue this loop has
  /// reached (push() only tracks it, so pushes touch no metric).
  void finish_run(RunResult& result, bool more_work_pending) {
    result.hit_max_events = more_work_pending;
    LoopMetrics& m = metrics();
    m.runs.inc();
    m.events_executed.inc(result.executed);
    m.queue_depth_hwm.max_of(static_cast<double>(depth_hwm_));
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
  /// when `target` is null. A free slot has no target and links to the
  /// next free slot in the same word.
  struct Slot {
    union {
      PacketTarget* target = nullptr;
      Slot* next_free;
    };
    u32 tag = 0;
    u64 aux = 0;
    Packet pkt;
    Action action;
  };

  __extension__ using u128 = unsigned __int128;

  /// Heap entry: the ordering key and the slot holding the event. `when`
  /// is the time biased to unsigned (sign bit flipped), so the order of
  /// (when, seq) is the order of one 128-bit unsigned integer.
  struct Key {
    u64 seq;
    u64 when;
    Slot* slot;

    u128 order() const { return (u128{when} << 64) | seq; }
    bool operator>(const Key& other) const { return order() > other.order(); }
  };

  static constexpr u64 kTimeBias = u64{1} << 63;
  static u64 biased(SimTime t) { return static_cast<u64>(t.us) ^ kTimeBias; }
  static SimTime unbiased(u64 when) {
    return SimTime::from_us(static_cast<i64>(when ^ kTimeBias));
  }

  /// Slots added per chunk once the constructor-sized first chunk is full.
  static constexpr std::size_t kChunkSlots = 16;

  Slot& acquire_slot() {
    if (free_head_ != nullptr) {
      Slot& s = *free_head_;
      free_head_ = s.next_free;
      return s;
    }
    if (fresh_ == fresh_end_) {
      more_chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      fresh_ = more_chunks_.back().get();
      fresh_end_ = fresh_ + kChunkSlots;
    }
    return *fresh_++;
  }

  void release_slot(Slot& s) {
    s.next_free = free_head_;
    free_head_ = &s;
  }

  void push(SimTime when, Slot& s) {
    queue_.push_back(Key{next_seq_++, biased(when), &s});
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
    depth_hwm_ = std::max(depth_hwm_, queue_.size());
  }

  /// Pop the earliest event and run it in its slot. Slots live in chunks
  /// that never move and the slot is freed only after the event returns,
  /// so the packet (or closure) stays put while the event schedules more.
  void run_next() {
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
    const Key key = queue_.back();
    queue_.pop_back();
    clock_.advance_to(unbiased(key.when));
    Slot& s = *key.slot;
    if (s.target != nullptr) {
      s.target->on_packet_event(s.pkt, s.tag, s.aux);
    } else {
      s.action();
      s.action = nullptr;
    }
    release_slot(s);
  }

  VirtualClock clock_;
  u64 next_seq_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  // Min-heap on (when, seq) kept with push_heap/pop_heap; (when, seq) is a
  // strict total order, so the pop order does not depend on the heap.
  std::vector<Key> queue_;
  // Deepest the queue has been; finish_run publishes it.
  std::size_t depth_hwm_ = 0;
  // Event payloads in chunks: the first sized by the constructor, more of
  // kChunkSlots each only if it overflows. Freed slots are reused through
  // the free list before a never-used slot [fresh_, fresh_end_) is taken.
  std::unique_ptr<Slot[]> first_chunk_;
  std::vector<std::unique_ptr<Slot[]>> more_chunks_;
  Slot* fresh_ = nullptr;
  Slot* fresh_end_ = nullptr;
  Slot* free_head_ = nullptr;
};

}  // namespace ys::net
