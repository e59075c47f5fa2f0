#include "intang/kv_store.h"

#include "obs/metrics.h"

namespace ys::intang {

namespace {

struct KvMetrics {
  obs::Counter& sets;
  obs::Counter& get_hits;
  obs::Counter& get_misses;
  obs::Counter& incrs;
  obs::Counter& expired_reaped;
};

KvMetrics& metrics() {
  return obs::bind_per_thread<KvMetrics>([](obs::MetricsRegistry& reg) {
    return KvMetrics{reg.counter("intang.kv_set"),
                     reg.counter("intang.kv_get_hit"),
                     reg.counter("intang.kv_get_miss"),
                     reg.counter("intang.kv_incr"),
                     reg.counter("intang.kv_expired_reaped")};
  });
}

}  // namespace

void KvStore::set(KvKey key, i64 value, SimTime now, SimTime ttl) {
  metrics().sets.inc();
  map_[key] = Entry{value, ttl > SimTime::zero() ? now + ttl : SimTime::zero()};
}

std::optional<i64> KvStore::get(KvKey key, SimTime now) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    metrics().get_misses.inc();
    return std::nullopt;
  }
  if (expired(it->second, now)) {
    metrics().get_misses.inc();
    metrics().expired_reaped.inc();
    map_.erase(it);
    return std::nullopt;
  }
  metrics().get_hits.inc();
  return it->second.value;
}

i64 KvStore::incr(KvKey key, SimTime now, i64 delta, SimTime ttl) {
  metrics().incrs.inc();
  Entry& e = map_[key];
  if (expired(e, now)) e = Entry{};
  if (ttl > SimTime::zero()) e.expiry = now + ttl;
  return e.value += delta;
}

bool KvStore::erase(KvKey key) { return map_.erase(key) > 0; }

std::size_t KvStore::size(SimTime now) {
  for (auto it = map_.begin(); it != map_.end();) {
    it = expired(it->second, now) ? map_.erase(it) : std::next(it);
  }
  return map_.size();
}

}  // namespace ys::intang
