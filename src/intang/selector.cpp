#include "intang/selector.h"

#include "obs/metrics.h"
#include "obs/span.h"

namespace ys::intang {

namespace {

// The record kinds INTANG keeps per server, or per (server, strategy).
enum class Record : u8 {
  kGood,  ///< server → known-good StrategyId
  kOk,    ///< (server, strategy) → success tally
  kBad,   ///< (server, strategy) → failure tally
  kFail,  ///< server → consecutive-failure count
  kCool,  ///< (server, strategy) → 1 while cooling off after a failure
};

// Packs {kind, server, strategy} into one key: kind in bits 48-55, the IPv4
// server in bits 16-47, the strategy id in bits 0-15.
constexpr KvKey key(Record kind, net::IpAddr server,
                    strategy::StrategyId id = strategy::StrategyId::kNone) {
  return static_cast<KvKey>(kind) << 48 | static_cast<KvKey>(server) << 16 |
         static_cast<KvKey>(id);
}
// Ids run from kNone to the last enumerator, kTeardownReversal; keep this
// on whichever enumerator is last.
static_assert(static_cast<int>(strategy::StrategyId::kNone) == 0 &&
                  static_cast<int>(strategy::StrategyId::kTeardownReversal) <
                      (1 << 16),
              "every StrategyId must fit the key's 16-bit id field");

struct SelectorMetrics {
  obs::Counter& picks;
  obs::Counter& cache_hits;
  obs::Counter& store_hits;
  obs::Counter& cold_picks;
  obs::Counter& failover_picks;
  obs::Counter& safe_mode_picks;
  obs::Counter& report_success;
  obs::Counter& report_failure;
  obs::Histogram& choose_wall_us;
};

SelectorMetrics& metrics() {
  return obs::bind_per_thread<SelectorMetrics>(
      [](obs::MetricsRegistry& reg) {
        return SelectorMetrics{reg.counter("intang.strategy_pick"),
                               reg.counter("intang.pick_cache_hit"),
                               reg.counter("intang.pick_store_hit"),
                               reg.counter("intang.pick_cold"),
                               reg.counter("intang.pick_failover"),
                               reg.counter("intang.safe_mode_pick"),
                               reg.counter("intang.report_success"),
                               reg.counter("intang.report_failure"),
                               reg.histogram("intang.choose_wall_us")};
      });
}

}  // namespace

std::optional<i64> StrategySelector::kv_get(KvKey key, SimTime now) {
  return backing_ != nullptr ? backing_->get(key, now) : store_.get(key, now);
}

void StrategySelector::kv_set(KvKey key, i64 value, SimTime now, SimTime ttl) {
  if (backing_ != nullptr) {
    backing_->set(key, value, now, ttl);
  } else {
    store_.set(key, value, now, ttl);
  }
}

void StrategySelector::kv_incr(KvKey key, SimTime now, SimTime ttl) {
  if (backing_ != nullptr) {
    backing_->incr(key, now, 1, ttl);
  } else {
    store_.incr(key, now, 1, ttl);
  }
}

void StrategySelector::kv_erase(KvKey key) {
  if (backing_ != nullptr) {
    backing_->erase(key);
  } else {
    store_.erase(key);
  }
}

bool StrategySelector::cooling(net::IpAddr server, strategy::StrategyId id,
                               SimTime now) {
  return cfg_.failure_backoff > SimTime::zero() &&
         kv_get(key(Record::kCool, server, id), now).has_value();
}

i64 StrategySelector::consecutive_failures(net::IpAddr server, SimTime now) {
  return kv_get(key(Record::kFail, server), now).value_or(0);
}

StrategySelector::Choice StrategySelector::choose_explained(net::IpAddr server,
                                                            SimTime now) {
  obs::ScopedTimer timer(metrics().choose_wall_us);
  metrics().picks.inc();
  // Safe mode: the retry budget for this server is exhausted. Insertion
  // packets have been making things *worse* here, so stop crafting them —
  // kNone degrades to the no-INTANG baseline until the probation counter
  // decays (its TTL refreshes on each new failure).
  if (cfg_.retry_budget > 0 &&
      consecutive_failures(server, now) >= cfg_.retry_budget) {
    metrics().safe_mode_picks.inc();
    return Choice{strategy::StrategyId::kNone, Choice::Source::kSafeMode};
  }
  // Fast path: LRU-cached known-good strategy — unless it is cooling off
  // after a recent failure, in which case the ladder moves on.
  bool skipped_cooling = false;
  if (auto cached = cache_.get(server)) {
    if (!cooling(server, *cached, now)) {
      metrics().cache_hits.inc();
      return Choice{*cached, Choice::Source::kCacheHit};
    }
    skipped_cooling = true;
  }
  // Store path: a persisted known-good record.
  if (auto good = kv_get(key(Record::kGood, server), now)) {
    const auto sid = static_cast<strategy::StrategyId>(*good);
    if (!cooling(server, sid, now)) {
      metrics().store_hits.inc();
      cache_.put(server, sid);
      return Choice{sid, Choice::Source::kStoreHit};
    }
    skipped_cooling = true;
  }
  // Cold path: prefer untried candidates in order, then the best success
  // ratio (Laplace-smoothed so sparse data doesn't pin a loser). Cooling
  // candidates sit out a round — unless every rung is cooling, when the
  // backoff is moot and the full ladder competes again.
  metrics().cold_picks.inc();
  std::vector<strategy::StrategyId> pool;
  pool.reserve(cfg_.candidates.size());
  for (auto id : cfg_.candidates) {
    if (!cooling(server, id, now)) pool.push_back(id);
  }
  if (pool.empty()) {
    pool = cfg_.candidates;
  } else if (pool.size() != cfg_.candidates.size()) {
    skipped_cooling = true;
  }
  const auto source_for = [&](Choice::Source cold_source) {
    if (!skipped_cooling) return cold_source;
    metrics().failover_picks.inc();
    return Choice::Source::kFailover;
  };
  strategy::StrategyId best = pool.front();
  double best_score = -1.0;
  for (auto id : pool) {
    auto [ok, bad] = tallies(server, id, now);
    if (ok + bad == 0) {
      // untried: measure it
      return Choice{id, source_for(Choice::Source::kUntried)};
    }
    const double score =
        (static_cast<double>(ok) + 1.0) / (static_cast<double>(ok + bad) + 2.0);
    if (score > best_score) {
      best_score = score;
      best = id;
    }
  }
  return Choice{best, source_for(Choice::Source::kBestScore)};
}

const char* to_string(StrategySelector::Choice::Source source) {
  switch (source) {
    case StrategySelector::Choice::Source::kCacheHit: return "cache-hit";
    case StrategySelector::Choice::Source::kStoreHit: return "store-hit";
    case StrategySelector::Choice::Source::kUntried: return "untried";
    case StrategySelector::Choice::Source::kBestScore: return "best-score";
    case StrategySelector::Choice::Source::kFailover: return "failover";
    case StrategySelector::Choice::Source::kSafeMode: return "safe-mode";
  }
  return "?";
}

void StrategySelector::report(net::IpAddr server, strategy::StrategyId id,
                              bool success, SimTime now) {
  (success ? metrics().report_success : metrics().report_failure).inc();
  if (id == strategy::StrategyId::kNone) {
    // Safe-mode probe: no strategy was exercised, so there is nothing to
    // tally or cool. Either way probation ends: a success means the plain
    // path works (strategies are not needed), a failure means the path is
    // censored and safe mode cannot help — re-arm the ladder, whose
    // cool-offs steer it away from the rungs that just failed.
    kv_erase(key(Record::kFail, server));
    return;
  }
  kv_incr(key(success ? Record::kOk : Record::kBad, server, id), now,
          cfg_.tally_ttl);
  if (success) {
    kv_erase(key(Record::kFail, server));
    kv_set(key(Record::kGood, server), static_cast<i64>(id), now,
           cfg_.record_ttl);
    cache_.put(server, id);
  } else {
    // Consecutive-failure probation (TTL refreshes with each failure) and
    // a per-(server, strategy) cool-off for the failover ladder.
    kv_incr(key(Record::kFail, server), now, cfg_.safe_mode_ttl);
    if (cfg_.failure_backoff > SimTime::zero()) {
      kv_set(key(Record::kCool, server, id), 1, now, cfg_.failure_backoff);
    }
    // A failed known-good record must not keep winning the fast path —
    // but only the record for *this* strategy is invalidated.
    if (auto cached = cache_.get(server); cached && *cached == id) {
      cache_.erase(server);
    }
    if (kv_get(key(Record::kGood, server), now) == static_cast<i64>(id)) {
      kv_erase(key(Record::kGood, server));
    }
  }
}

std::pair<i64, i64> StrategySelector::tallies(net::IpAddr server,
                                              strategy::StrategyId id,
                                              SimTime now) {
  const i64 ok = kv_get(key(Record::kOk, server, id), now).value_or(0);
  return {ok, kv_get(key(Record::kBad, server, id), now).value_or(0)};
}

}  // namespace ys::intang
