// ys::obs — process-wide metrics for the simulated GFW ecosystem.
//
// Design goals, in order:
//   1. Hot-path updates must be a load, an add, and a store — components
//      resolve their Counter/Gauge/Histogram once (constructor or
//      function-local static) and then bump a stable reference.
//   2. Snapshots are deep copies, so exporters and tests never observe a
//      half-updated registry, and `reset_all()` gives per-trial isolation
//      without invalidating any held reference.
//   3. The whole layer can be compiled out (-DYS_OBS_DISABLE) or switched
//      off at runtime (`set_metrics_enabled(false)`) to measure its own
//      overhead (bench/bench_obs_overhead.cpp).
//
// Naming convention: `component.noun_verb` (e.g. "gfw.tcb_create",
// "tcpstack.segment_in", "netsim.packet_delivered"). Dynamic suffixes are
// dot-separated ("tcpstack.ignored.bad-checksum").
//
// Threading model: a registry is NOT internally synchronized. The rule the
// whole codebase follows is "one registry per thread": code always resolves
// metrics through MetricsRegistry::current(), which returns the process
// registry unless the thread carries a ScopedMetricsRegistry override. The
// ys::runner worker threads install an override around every task, so
// hot-path updates land in worker-private registries and are folded into
// the orchestrating thread's registry afterwards via merge_from() — the
// process-global registry is only ever touched from the orchestrating
// thread. Components cache resolved metric references per thread through
// bind_per_thread() below, which also rebinds them whenever the thread's
// current() registry changes.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"

namespace ys::obs {

class MetricsRegistry;

namespace detail {
// Each simulation is single-threaded (one event loop drives everything),
// but the runner executes many simulations on concurrent workers, all of
// which read this flag — a relaxed atomic keeps the hot-path check
// branch-predictable and race-clean. Only the orchestrating thread writes
// it, and never while workers run.
inline std::atomic<bool> g_metrics_enabled{true};

// Per-thread registry override installed by ScopedMetricsRegistry; null
// means "publish into the process registry".
inline thread_local MetricsRegistry* t_current_registry = nullptr;
}  // namespace detail

/// Runtime kill switch. Metric *updates* become no-ops when disabled;
/// registration, snapshotting and resets still work. Inline, so a metric
/// update on the hot path is a load, a test and an add.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on);

#if defined(YS_OBS_DISABLE)
#define YS_OBS_UPDATES_ENABLED() false
#else
#define YS_OBS_UPDATES_ENABLED() (::ys::obs::metrics_enabled())
#endif

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(u64 n = 1) {
    if (YS_OBS_UPDATES_ENABLED()) value_ += n;
  }
  u64 value() const { return value_; }
  void reset() { value_ = 0; }

  /// Fold another registry's observations in (snapshot merging). Unlike
  /// inc(), this is bookkeeping, not a measurement: it bypasses the
  /// runtime kill switch.
  void merge_add(u64 n) { value_ += n; }

 private:
  u64 value_ = 0;
};

/// A value that can go up and down (queue depths, rates, high-water marks).
class Gauge {
 public:
  void set(double v) {
    if (YS_OBS_UPDATES_ENABLED()) value_ = v;
  }
  void add(double d) {
    if (YS_OBS_UPDATES_ENABLED()) value_ += d;
  }
  /// Keep the maximum of the current value and `v` (high-water mark).
  void max_of(double v) {
    if (YS_OBS_UPDATES_ENABLED() && v > value_) value_ = v;
  }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

  /// Merge policy for gauges is max: every cross-registry gauge in the
  /// codebase is a high-water mark or a 0/1 flag, and max is the only
  /// associative, commutative fold that is correct for both — so merge
  /// order can never change a merged snapshot. Bypasses the kill switch.
  void merge_max(double v) {
    if (v > value_) value_ = v;
  }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bucket `i` counts observations with
/// `v <= bounds[i]` (and greater than the previous bound); one implicit
/// overflow bucket catches everything above the last bound, so
/// `bucket_counts().size() == bounds().size() + 1`.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)),
        counts_(bounds_.size() + 1, 0) {}

  void observe(double v) {
    if (!YS_OBS_UPDATES_ENABLED()) return;
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++counts_[i];
    ++count_;
    sum_ += v;
  }

  u64 count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<u64>& bucket_counts() const { return counts_; }

  void reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
  }

  /// Bucket-wise fold of another histogram's state. The source must have
  /// identical bounds (all registration sites use fixed per-name bounds,
  /// so a mismatch is a programming error and throws). Bypasses the kill
  /// switch.
  void merge(const struct HistogramSnapshot& other);

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::vector<u64> counts_;     // bounds_.size() + 1 (overflow last)
  u64 count_ = 0;
  double sum_ = 0.0;
};

/// `factor`-spaced exponential upper bounds starting at `start` — the
/// default shape for microsecond latency histograms.
std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count);

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<u64> counts;
  u64 count = 0;
  double sum = 0.0;

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank; the first bucket interpolates from 0
  /// and the overflow bucket clamps to the last bound (the histogram does
  /// not know its true maximum). 0 for an empty histogram. Resolution is
  /// bucket-limited — exact values need finer bounds, not a better
  /// estimator.
  double percentile(double q) const;
};

/// Deep copy of every metric at one instant, sorted by name.
struct Snapshot {
  std::map<std::string, u64> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Named metric registry. Get-or-create: the first call registers, later
/// calls with the same name return the same object (stable address for the
/// registry's lifetime — `reset_all()` zeroes values but never removes a
/// metric). Registering a name that already exists with a *different* kind
/// is a programming error and throws std::logic_error; a histogram
/// re-registered with different bounds keeps the first registration's
/// bounds (first writer wins).
class MetricsRegistry {
 public:
  MetricsRegistry();

  /// The process-wide registry. Must only be mutated from the
  /// orchestrating thread; worker threads publish into their own registry
  /// via current() + ScopedMetricsRegistry.
  static MetricsRegistry& global();

  /// The registry this thread publishes into: the innermost
  /// ScopedMetricsRegistry override, or global() when none is installed.
  /// Every instrumentation site resolves through this.
  static MetricsRegistry& current();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = exponential_buckets(
                           1.0, 4.0, 12));

  bool contains(const std::string& name) const {
    return slots_.find(name) != slots_.end();
  }
  std::size_t size() const { return slots_.size(); }

  /// Process-unique, never-reused identity of this registry instance.
  /// Caches key on this rather than the address: a short-lived registry's
  /// storage can be reused for a successor at the same address, which a
  /// pointer compare cannot distinguish.
  u64 uid() const { return uid_; }

  /// Zero every metric (between trials); registrations survive.
  void reset_all();

  Snapshot snapshot() const;

  /// Fold a snapshot of another registry into this one: counters and
  /// histograms add, gauges take the max (see the per-kind merge methods
  /// for why those folds are the deterministic ones). Metrics absent here
  /// are registered on the fly, so merging into a fresh registry
  /// reproduces the source. Associative and commutative: merging worker
  /// snapshots in any order yields the same registry state.
  void merge_from(const Snapshot& snap);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Slot {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot& find_or_create(const std::string& name, Kind kind);

  const u64 uid_;

  // std::map keeps iteration (and thus every exporter) name-sorted and
  // deterministic; pointers to mapped values are stable across inserts.
  std::map<std::string, Slot> slots_;
};

inline MetricsRegistry& MetricsRegistry::current() {
  MetricsRegistry* override_registry = detail::t_current_registry;
  return override_registry != nullptr ? *override_registry : global();
}

/// RAII thread-local registry override: while alive, every
/// MetricsRegistry::current() resolution on this thread lands in
/// `registry`. Nests (the previous override is restored on destruction).
/// The ys::runner workers wrap each worker's lifetime in one of these so
/// per-packet instrumentation never touches the process registry.
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* registry);
  ~ScopedMetricsRegistry();

  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Per-thread cache of a component's resolved metric handles (a struct of
/// Counter& / Gauge& / Histogram& members). Returns the handles bound to
/// the thread's current() registry, re-resolving through `make(registry)`
/// only when the registry changed — one pointer compare on the hot path.
/// This keeps design goal 1 (resolve once, bump a stable reference) while
/// staying correct on threads that switch registries mid-life: a plain
/// `static thread_local` cache would keep dangling references into a
/// ScopedMetricsRegistry's registry after it is destroyed.
template <typename Handles, typename Factory>
Handles& bind_per_thread(Factory&& make) {
  thread_local u64 bound_uid = 0;  // no registry has uid 0
  thread_local std::optional<Handles> handles;
  MetricsRegistry& reg = MetricsRegistry::current();
  if (bound_uid != reg.uid()) {
    handles.emplace(make(reg));
    bound_uid = reg.uid();
  }
  return *handles;
}

}  // namespace ys::obs
