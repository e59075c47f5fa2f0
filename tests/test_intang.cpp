// INTANG component tests: the TTL'd key-value store (Redis stand-in), the
// LRU cache front, the measurement-driven strategy selector, the DNS
// forwarder, and the orchestrator's automatic feedback loop.
#include <gtest/gtest.h>

#include "exp/scenario.h"
#include "exp/trial.h"
#include "intang/intang.h"

namespace ys::intang {
namespace {

// ---------------------------------------------------------------- KvStore

TEST(KvStore, SetGetOverwrite) {
  KvStore store;
  const SimTime now = SimTime::zero();
  EXPECT_FALSE(store.get(7, now).has_value());
  store.set(7, 1, now);
  EXPECT_EQ(store.get(7, now).value(), 1);
  store.set(7, 2, now);
  EXPECT_EQ(store.get(7, now).value(), 2);
  EXPECT_FALSE(store.get(8, now).has_value());
  EXPECT_TRUE(store.erase(7));
  EXPECT_FALSE(store.erase(7));
}

TEST(KvStore, TtlExpiry) {
  KvStore store;
  store.set(7, 1, SimTime::zero(), SimTime::from_sec(10));
  EXPECT_TRUE(store.get(7, SimTime::from_sec(9)).has_value());
  EXPECT_FALSE(store.get(7, SimTime::from_sec(10)).has_value());
  // Expired entries are reaped on read.
  EXPECT_EQ(store.size(SimTime::from_sec(11)), 0u);
}

TEST(KvStore, TtlRemaining) {
  // A key lives exactly its TTL; a key set without one never expires.
  KvStore store;
  store.set(7, 1, SimTime::zero(), SimTime::from_sec(60));
  store.set(8, 1, SimTime::zero());
  EXPECT_TRUE(store.get(7, SimTime::from_sec(20)).has_value());
  EXPECT_TRUE(store.get(7, SimTime::from_us(SimTime::from_sec(60).us - 1))
                  .has_value());
  EXPECT_FALSE(store.get(7, SimTime::from_sec(60)).has_value());
  EXPECT_TRUE(store.get(8, SimTime::from_sec(1'000'000)).has_value());
}

TEST(KvStore, IncrCountsAndPreservesTtl) {
  KvStore store;
  const SimTime now = SimTime::zero();
  EXPECT_EQ(store.incr(7, now), 1);
  EXPECT_EQ(store.incr(7, now), 2);
  EXPECT_EQ(store.incr(7, now, 10), 12);
  EXPECT_EQ(store.get(7, now).value(), 12);

  store.set(8, 5, now, SimTime::from_sec(30));
  EXPECT_EQ(store.incr(8, SimTime::from_sec(10)), 6);
  EXPECT_FALSE(store.get(8, SimTime::from_sec(31)).has_value());
}

TEST(KvStore, IncrWithTtlRefreshesExpiry) {
  KvStore store;
  store.set(7, 5, SimTime::zero(), SimTime::from_sec(30));
  EXPECT_EQ(store.incr(7, SimTime::from_sec(20), 1, SimTime::from_sec(30)), 6);
  EXPECT_EQ(store.get(7, SimTime::from_sec(49)).value_or(0), 6);
  EXPECT_FALSE(store.get(7, SimTime::from_sec(50)).has_value());
}

TEST(KvStore, IncrOnExpiredStartsFresh) {
  KvStore store;
  store.set(7, 100, SimTime::zero(), SimTime::from_sec(1));
  EXPECT_EQ(store.incr(7, SimTime::from_sec(2)), 1);
  // The fresh counter does not inherit the dead key's TTL.
  EXPECT_TRUE(store.get(7, SimTime::from_sec(1'000)).has_value());
}

// --------------------------------------------------------------- LruCache

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, std::string> cache(2);
  cache.put(1, "one");
  cache.put(2, "two");
  cache.put(3, "three");  // evicts 1
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.get(2).value(), "two");
  EXPECT_EQ(cache.get(3).value(), "three");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCache, GetRefreshesRecency) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_TRUE(cache.get(1).has_value());  // 1 becomes most recent
  cache.put(3, 30);                       // evicts 2, not 1
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(LruCache, PutRefreshesExistingKey) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(1, 11);  // refresh, not insert
  cache.put(3, 30);  // evicts 2
  EXPECT_EQ(cache.get(1).value(), 11);
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(LruCache, EraseAndClear) {
  LruCache<int, int> cache(4);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(2));
}

// ----------------------------------------------------------------- selector

const net::IpAddr kServer = net::make_ip(93, 184, 216, 34);

TEST(Selector, TriesCandidatesInOrderWhenCold) {
  StrategySelector::Config cfg;
  cfg.candidates = {strategy::StrategyId::kImprovedTeardown,
                    strategy::StrategyId::kImprovedInOrder};
  StrategySelector selector(cfg);
  const SimTime now = SimTime::zero();
  EXPECT_EQ(selector.choose(kServer, now),
            strategy::StrategyId::kImprovedTeardown);
  // Feedback: the first candidate failed → try the untried one next.
  selector.report(kServer, strategy::StrategyId::kImprovedTeardown, false,
                  now);
  EXPECT_EQ(selector.choose(kServer, now),
            strategy::StrategyId::kImprovedInOrder);
}

TEST(Selector, CachesKnownGoodStrategy) {
  StrategySelector selector{StrategySelector::Config{}};
  const SimTime now = SimTime::zero();
  selector.report(kServer, strategy::StrategyId::kImprovedInOrder, true, now);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(selector.choose(kServer, now),
              strategy::StrategyId::kImprovedInOrder);
  }
}

TEST(Selector, FailureInvalidatesKnownGood) {
  StrategySelector::Config cfg;
  cfg.candidates = {strategy::StrategyId::kImprovedTeardown,
                    strategy::StrategyId::kImprovedInOrder};
  StrategySelector selector(cfg);
  const SimTime now = SimTime::zero();
  selector.report(kServer, strategy::StrategyId::kImprovedTeardown, true,
                  now);
  ASSERT_EQ(selector.choose(kServer, now),
            strategy::StrategyId::kImprovedTeardown);
  selector.report(kServer, strategy::StrategyId::kImprovedTeardown, false,
                  now);
  // The invalidated record no longer pins the choice; the untried
  // candidate gets its chance.
  EXPECT_EQ(selector.choose(kServer, now),
            strategy::StrategyId::kImprovedInOrder);
}

TEST(Selector, KnownGoodExpiresWithRecordTtl) {
  StrategySelector::Config cfg;
  cfg.record_ttl = SimTime::from_sec(100);
  cfg.lru_capacity = 0;  // force the store path (no front cache)
  StrategySelector selector(cfg);
  selector.report(kServer, strategy::StrategyId::kImprovedInOrder, true,
                  SimTime::zero());
  EXPECT_EQ(selector.choose(kServer, SimTime::from_sec(50)),
            strategy::StrategyId::kImprovedInOrder);
  // After expiry the choice falls back to exploration order.
  EXPECT_EQ(selector.choose(kServer, SimTime::from_sec(101)),
            selector.config().candidates.front());
}

TEST(Selector, PrefersBestSuccessRatio) {
  StrategySelector::Config cfg;
  cfg.candidates = {strategy::StrategyId::kImprovedTeardown,
                    strategy::StrategyId::kImprovedInOrder};
  StrategySelector selector(cfg);
  const SimTime now = SimTime::zero();
  // teardown: 1 ok, 3 bad. in-order: 3 ok, 1 bad. Kill the known-good
  // record afterwards so the ratio logic decides.
  selector.report(kServer, strategy::StrategyId::kImprovedTeardown, true, now);
  for (int i = 0; i < 3; ++i) {
    selector.report(kServer, strategy::StrategyId::kImprovedTeardown, false,
                    now);
  }
  for (int i = 0; i < 3; ++i) {
    selector.report(kServer, strategy::StrategyId::kImprovedInOrder, true,
                    now);
  }
  selector.report(kServer, strategy::StrategyId::kImprovedInOrder, false, now);
  EXPECT_EQ(selector.choose(kServer, now),
            strategy::StrategyId::kImprovedInOrder);
  auto [ok, bad] = selector.tallies(
      kServer, strategy::StrategyId::kImprovedTeardown, now);
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(bad, 3);
}

TEST(Selector, PerServerIsolation) {
  StrategySelector selector{StrategySelector::Config{}};
  const net::IpAddr other = net::make_ip(1, 2, 3, 4);
  const SimTime now = SimTime::zero();
  selector.report(kServer, strategy::StrategyId::kImprovedInOrder, true, now);
  // The other server is still cold: exploration order.
  EXPECT_EQ(selector.choose(other, now),
            selector.config().candidates.front());
}

TEST(Selector, PackedKeysNeverAlias) {
  // Records for one (server, strategy) pair must not leak into any other
  // pair: the key packs kind, server and id into disjoint bit fields.
  using strategy::StrategyId;
  using Source = StrategySelector::Choice::Source;
  const net::IpAddr servers[] = {
      net::make_ip(0, 0, 0, 0), net::make_ip(255, 255, 255, 255),
      net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 2)};
  const StrategyId first = StrategyId::kTcbCreationSynTtl;
  const StrategyId last = StrategyId::kTeardownReversal;
  const StrategyId ids[] = {StrategyId::kNone, first, last};
  const SimTime now = SimTime::zero();
  for (const net::IpAddr server : servers) {
    for (const StrategyId id : {first, last}) {
      for (const bool success : {true, false}) {
        SCOPED_TRACE(net::ip_to_string(server) + " " + strategy::to_string(id) +
                     (success ? " ok" : " bad"));
        StrategySelector::Config cfg;
        cfg.candidates = {first, last};
        cfg.retry_budget = 1;
        cfg.lru_capacity = 0;  // every read goes to the store
        StrategySelector selector(cfg);
        selector.report(server, id, success, now);
        for (const net::IpAddr s : servers) {
          for (const StrategyId other : ids) {
            const auto [ok, bad] = selector.tallies(s, other, now);
            const bool same = s == server && other == id;
            EXPECT_EQ(ok, same && success ? 1 : 0);
            EXPECT_EQ(bad, same && !success ? 1 : 0);
          }
          // Good and fail records stay per server.
          EXPECT_EQ(selector.consecutive_failures(s, now),
                    s == server && !success ? 1 : 0);
          const StrategySelector::Choice pick = selector.choose_explained(s, now);
          if (s != server) {
            // Cold and nothing cooling: the first untried candidate.
            EXPECT_EQ(pick.id, first);
            EXPECT_EQ(pick.source, Source::kUntried);
          } else if (success) {
            EXPECT_EQ(pick.id, id);
            EXPECT_EQ(pick.source, Source::kStoreHit);
          } else {
            EXPECT_EQ(pick.source, Source::kSafeMode);
          }
        }
        if (!success) {
          // Lift safe mode: only the failed pair cools off, so the ladder
          // fails over to the other candidate.
          selector.report(server, StrategyId::kNone, true, now);
          const StrategySelector::Choice pick =
              selector.choose_explained(server, now);
          EXPECT_EQ(pick.id, id == first ? last : first);
          EXPECT_EQ(pick.source, Source::kFailover);
        }
      }
    }
  }
}

// ----------------------------------------------------- forwarder + intang

exp::Scenario make_scenario(u64 seed, net::IpAddr resolver) {
  static const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  exp::ScenarioOptions opt;
  opt.vp = exp::china_vantage_points()[0];
  opt.server.host = "resolver";
  opt.server.ip = resolver;
  opt.cal = exp::Calibration::standard();
  opt.cal.detection_miss = 0.0;
  opt.cal.per_link_loss = 0.0;
  opt.cal.ttl_estimate_error_prob = 0.0;
  opt.seed = seed;
  return exp::Scenario(&rules, opt);
}

TEST(DnsForwarder, ConvertsAndMapsResponsesBack) {
  const net::IpAddr resolver = net::make_ip(216, 146, 35, 35);
  exp::Scenario sc = make_scenario(31, resolver);
  exp::DnsTrialOptions dns;
  dns.domain = "www.dropbox.com";
  dns.use_intang = true;
  const exp::DnsTrialResult result = exp::run_dns_trial(sc, dns);
  EXPECT_TRUE(result.answered);
  EXPECT_FALSE(result.poisoned);
  EXPECT_EQ(result.outcome, exp::Outcome::kSuccess);
}

TEST(DnsForwarder, CountsConversions) {
  const net::IpAddr resolver = net::make_ip(216, 146, 35, 35);
  exp::Scenario sc = make_scenario(32, resolver);

  Intang::Config cfg;
  cfg.knowledge = sc.knowledge();
  cfg.tcp_dns_resolver = resolver;
  Intang intang(sc.client(), cfg, sc.fork_rng());

  // Serve TCP DNS on the scenario server.
  auto offsets =
      std::make_shared<std::unordered_map<const void*, std::size_t>>();
  sc.server().listen(53, [offsets](tcp::TcpEndpoint& ep, ByteView) {
    std::size_t& off = (*offsets)[&ep];
    for (const auto& msg :
         app::dns_tcp_extract(ep.received_stream(), &off)) {
      if (!msg.is_response) {
        ep.send_data(app::dns_tcp_frame(
            app::make_response(msg, net::make_ip(1, 2, 3, 4))));
      }
    }
  });

  int answers = 0;
  sc.client().bind_udp(5353, [&answers](const net::FourTuple&, ByteView) {
    ++answers;
  });
  for (u16 i = 0; i < 3; ++i) {
    sc.client().send_udp(
        net::FourTuple{sc.client().config().address, 5353, resolver, 53},
        app::dns_encode(app::make_query(i, "example.org")));
  }
  sc.run();
  ASSERT_NE(intang.dns_forwarder(), nullptr);
  EXPECT_EQ(intang.dns_forwarder()->queries_converted(), 3);
  EXPECT_EQ(intang.dns_forwarder()->responses_returned(), 3);
  EXPECT_EQ(answers, 3);
}

TEST(Intang, AutomaticFeedbackMarksSuccess) {
  exp::Scenario sc = make_scenario(33, net::make_ip(93, 184, 216, 34));
  intang::StrategySelector selector{StrategySelector::Config{}};
  exp::HttpTrialOptions http;
  http.with_keyword = true;
  http.use_intang = true;
  http.shared_selector = &selector;
  const exp::TrialResult result = exp::run_http_trial(sc, http);
  EXPECT_EQ(result.outcome, exp::Outcome::kSuccess);
  auto [ok, bad] =
      selector.tallies(net::make_ip(93, 184, 216, 34), result.strategy_used,
                       sc.loop().now());
  EXPECT_GE(ok, 1);
  EXPECT_EQ(bad, 0);
}

TEST(Intang, ConvergesAwayFromFailingStrategy) {
  // A path whose hop estimate is systematically wrong breaks TTL-based
  // strategies; INTANG must settle on the MD5-based one.
  static const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  StrategySelector selector{StrategySelector::Config{}};
  int successes = 0;
  strategy::StrategyId last = strategy::StrategyId::kNone;
  for (int t = 0; t < 8; ++t) {
    exp::ScenarioOptions opt;
    opt.vp = exp::china_vantage_points()[0];
    opt.server.host = "site";
    opt.server.ip = net::make_ip(93, 184, 100, 50);
    opt.cal = exp::Calibration::standard();
    opt.cal.detection_miss = 0.0;
    opt.cal.per_link_loss = 0.0;
    // Force a stale estimate: TTL-crafted packets hit the server.
    opt.cal.ttl_estimate_error_prob = 1.0;
    opt.cal.ttl_estimate_error_hops = 2;
    opt.path_seed = 4241;  // a path draw where the error is +2
    opt.seed = 100 + static_cast<u64>(t);
    exp::Scenario sc(&rules, opt);
    if (sc.knowledge().hop_estimate <= sc.server_hops()) continue;

    exp::HttpTrialOptions http;
    http.with_keyword = true;
    http.use_intang = true;
    http.shared_selector = &selector;
    const exp::TrialResult result = exp::run_http_trial(sc, http);
    if (result.outcome == exp::Outcome::kSuccess) ++successes;
    last = result.strategy_used;
  }
  EXPECT_GE(successes, 4);
  EXPECT_EQ(last, strategy::StrategyId::kImprovedInOrder);
}

}  // namespace
}  // namespace ys::intang
