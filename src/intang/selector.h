// Measurement-driven strategy selection (§6): INTANG caches, per server,
// which strategy last worked, and falls back to the historically
// best-performing candidate otherwise. Records persist in the KvStore with
// an expiry so stale knowledge ages out as networks and servers change.
#pragma once

#include <vector>

#include "intang/kv_store.h"
#include "intang/lru_cache.h"
#include "netsim/addr.h"
#include "strategy/strategy.h"

namespace ys::intang {

class StrategySelector {
 public:
  struct Config {
    std::vector<strategy::StrategyId> candidates =
        strategy::intang_candidate_strategies();
    /// How long a "known good" verdict stays authoritative.
    SimTime record_ttl = SimTime::from_sec(3600);
    std::size_t lru_capacity = 1024;
    /// Consecutive failures against one server before the selector stops
    /// inserting packets entirely (safe mode: kNone = the no-INTANG
    /// baseline, the floor §8 promises degradation never drops below).
    /// 0 disables safe mode.
    int retry_budget = 3;
    /// After a failure, the failed strategy cools off for this long before
    /// the failover ladder will pick it for that server again. zero()
    /// disables backoff.
    SimTime failure_backoff = SimTime::from_sec(180);
    /// Probation length: the consecutive-failure counter decays away after
    /// this long without a new failure, ending safe mode.
    SimTime safe_mode_ttl = SimTime::from_sec(600);
    /// Health decay for ok:/bad: tallies — measurements idle this long stop
    /// influencing cold picks (networks change; §6's records must age).
    SimTime tally_ttl = SimTime::from_sec(7200);
  };

  explicit StrategySelector(Config cfg)
      : cfg_(std::move(cfg)), cache_(cfg_.lru_capacity) {}

  /// Selector bound to a shared backing store: many clients on one vantage
  /// point consult the same per-server records (§6's deployment shape —
  /// one Redis per box, many INTANG processes). The LRU front cache stays
  /// private to this selector, modeling per-process memory. `backing` must
  /// outlive the selector.
  StrategySelector(Config cfg, SharedKvStore* backing)
      : cfg_(std::move(cfg)), backing_(backing), cache_(cfg_.lru_capacity) {}

  /// Drop the private LRU front cache (session churn: a restarted client
  /// loses its process memory but keeps the persistent store).
  void forget_cache() { cache_.clear(); }

  /// One pick with provenance: where the decision came from (§6's
  /// measurement-driven loop exposed for tracing and `yourstate explain`).
  struct Choice {
    strategy::StrategyId id;
    enum class Source : u8 {
      kCacheHit,    ///< LRU-cached known-good strategy
      kStoreHit,    ///< persisted known-good record
      kUntried,     ///< cold pick: first candidate with no tallies yet
      kBestScore,   ///< cold pick: best Laplace-smoothed success ratio
      kFailover,    ///< preferred pick was cooling off; next rung chosen
      kSafeMode,    ///< retry budget exhausted: kNone, no insertion packets
    } source;
  };

  /// Pick the strategy for a new connection to `server`.
  strategy::StrategyId choose(net::IpAddr server, SimTime now) {
    return choose_explained(server, now).id;
  }

  /// As choose(), but also reports which selection path fired.
  Choice choose_explained(net::IpAddr server, SimTime now);

  /// Feed back one trial result.
  void report(net::IpAddr server, strategy::StrategyId id, bool success,
              SimTime now);

  const Config& config() const { return cfg_; }
  KvStore& store() { return store_; }

  /// Success/failure tallies for one (server, strategy) pair.
  std::pair<i64, i64> tallies(net::IpAddr server, strategy::StrategyId id,
                              SimTime now);

  /// Live consecutive-failure count for `server` (0 = healthy).
  i64 consecutive_failures(net::IpAddr server, SimTime now);

 private:
  bool cooling(net::IpAddr server, strategy::StrategyId id, SimTime now);

  // Every record access routes through these, hitting either the private
  // store_ or the shared backing_ — selection logic stays store-agnostic.
  std::optional<i64> kv_get(KvKey key, SimTime now);
  void kv_set(KvKey key, i64 value, SimTime now, SimTime ttl);
  void kv_incr(KvKey key, SimTime now, SimTime ttl);
  void kv_erase(KvKey key);

  Config cfg_;
  SharedKvStore* backing_ = nullptr;
  KvStore store_;
  /// Front cache: server → last known good strategy.
  LruCache<net::IpAddr, strategy::StrategyId> cache_;
};

const char* to_string(StrategySelector::Choice::Source source);

}  // namespace ys::intang
