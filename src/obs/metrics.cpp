#include "obs/metrics.h"

#include <atomic>
#include <stdexcept>

namespace ys::obs {

namespace {
// Registry identities for bind_per_thread's cache key. Starts at 1 so the
// sentinel 0 never matches a live registry.
std::atomic<u64> g_next_registry_uid{1};

const char* kind_name(int k) {
  switch (k) {
    case 0: return "counter";
    case 1: return "gauge";
    case 2: return "histogram";
  }
  return "?";
}
}  // namespace

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

MetricsRegistry::MetricsRegistry()
    : uid_(g_next_registry_uid.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies:
  // function-local statics in components hold references into it, and
  // destruction order at exit must not invalidate them.
  return *registry;
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry* registry)
    : previous_(detail::t_current_registry) {
  detail::t_current_registry = registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  detail::t_current_registry = previous_;
}

MetricsRegistry::Slot& MetricsRegistry::find_or_create(const std::string& name,
                                                       Kind kind) {
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error(
          "obs: metric '" + name + "' already registered as " +
          kind_name(static_cast<int>(it->second.kind)) + ", requested as " +
          kind_name(static_cast<int>(kind)));
    }
    return it->second;
  }
  Slot slot;
  slot.kind = kind;
  return slots_.emplace(name, std::move(slot)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Slot& slot = find_or_create(name, Kind::kCounter);
  if (!slot.counter) slot.counter = std::make_unique<Counter>();
  return *slot.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Slot& slot = find_or_create(name, Kind::kGauge);
  if (!slot.gauge) slot.gauge = std::make_unique<Gauge>();
  return *slot.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  Slot& slot = find_or_create(name, Kind::kHistogram);
  if (!slot.histogram) {
    slot.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot.histogram;  // first registration's bounds win
}

void Histogram::merge(const HistogramSnapshot& other) {
  if (other.bounds != bounds_) {
    throw std::logic_error(
        "obs: histogram merge with mismatched bounds (same-name histograms "
        "must be registered with identical bounds)");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts[i];
  count_ += other.count;
  sum_ += other.sum;
}

double HistogramSnapshot::percentile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Target rank in (0, count]; walk the cumulative distribution to the
  // bucket that holds it.
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (rank <= next || i + 1 == counts.size()) {
      if (i >= bounds.size()) {
        // Overflow bucket: no upper bound to interpolate toward.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac = (rank - cum) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
    }
    cum = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void MetricsRegistry::merge_from(const Snapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    counter(name).merge_add(value);
  }
  for (const auto& [name, value] : snap.gauges) {
    gauge(name).merge_max(value);
  }
  for (const auto& [name, h] : snap.histograms) {
    histogram(name, h.bounds).merge(h);
  }
}

void MetricsRegistry::reset_all() {
  for (auto& [name, slot] : slots_) {
    switch (slot.kind) {
      case Kind::kCounter: slot.counter->reset(); break;
      case Kind::kGauge: slot.gauge->reset(); break;
      case Kind::kHistogram: slot.histogram->reset(); break;
    }
  }
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  for (const auto& [name, slot] : slots_) {
    switch (slot.kind) {
      case Kind::kCounter:
        snap.counters[name] = slot.counter->value();
        break;
      case Kind::kGauge:
        snap.gauges[name] = slot.gauge->value();
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.bounds = slot.histogram->bounds();
        h.counts = slot.histogram->bucket_counts();
        h.count = slot.histogram->count();
        h.sum = slot.histogram->sum();
        snap.histograms[name] = std::move(h);
        break;
      }
    }
  }
  return snap;
}

}  // namespace ys::obs
