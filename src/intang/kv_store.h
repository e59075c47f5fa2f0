// In-memory key-value store with per-key TTL expiry — the reproduction's
// stand-in for the Redis instance INTANG uses to persist per-server
// strategy measurements (§6). Same semantics the tool relies on: get/set,
// key expiration, and atomic counters. Keys are packed integers and values
// are integers: the selector's records are all counters or strategy ids.
#pragma once

#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/clock.h"
#include "core/types.h"

namespace ys::intang {

using KvKey = u64;

class KvStore {
 public:
  /// Set (or overwrite) a key. ttl of zero means "no expiry".
  void set(KvKey key, i64 value, SimTime now, SimTime ttl = SimTime::zero());

  /// Get a live value; expired keys read as absent (and are reaped).
  std::optional<i64> get(KvKey key, SimTime now);

  /// Atomic increment (absent/expired counts as 0); returns the new value.
  /// With ttl zero the key's remaining TTL is preserved; a positive ttl
  /// refreshes the expiry to now + ttl (the INCR+EXPIRE idiom the
  /// selector's decaying health counters use).
  i64 incr(KvKey key, SimTime now, i64 delta = 1,
           SimTime ttl = SimTime::zero());

  bool erase(KvKey key);

  /// Number of live keys (sweeps expired entries).
  std::size_t size(SimTime now);

 private:
  struct Entry {
    i64 value = 0;
    SimTime expiry = SimTime::zero();  // zero = never
  };

  static bool expired(const Entry& e, SimTime now) {
    return e.expiry > SimTime::zero() && now >= e.expiry;
  }

  std::unordered_map<KvKey, Entry> map_;
};

/// Mutex-guarded KvStore: one instance is the per-vantage shared strategy
/// cache of a simulated INTANG deployment (§6's Redis stands behind every
/// client on the box). Same API, every call atomic. In the deterministic
/// runner each vantage chain runs on one worker, so the lock is
/// uncontended there — it exists so stress tests and future cross-vantage
/// topologies can share a store across threads safely.
class SharedKvStore {
 public:
  void set(KvKey key, i64 value, SimTime now, SimTime ttl = SimTime::zero()) {
    std::lock_guard<std::mutex> lock(mu_);
    store_.set(key, value, now, ttl);
  }
  std::optional<i64> get(KvKey key, SimTime now) {
    std::lock_guard<std::mutex> lock(mu_);
    return store_.get(key, now);
  }
  i64 incr(KvKey key, SimTime now, i64 delta = 1,
           SimTime ttl = SimTime::zero()) {
    std::lock_guard<std::mutex> lock(mu_);
    return store_.incr(key, now, delta, ttl);
  }
  bool erase(KvKey key) {
    std::lock_guard<std::mutex> lock(mu_);
    return store_.erase(key);
  }
  std::size_t size(SimTime now) {
    std::lock_guard<std::mutex> lock(mu_);
    return store_.size(now);
  }

 private:
  std::mutex mu_;
  KvStore store_;
};

}  // namespace ys::intang
