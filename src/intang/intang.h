// INTANG: the measurement-driven censorship evasion tool (§6, Figure 2).
//
// Components, mirroring the paper's architecture:
//  * the packet-processing loop = the client Host's egress/ingress hooks
//    (NFQUEUE + raw sockets in the real tool);
//  * the strategy framework = strategy::StrategyEngine with per-connection
//    strategy objects chosen by the StrategySelector;
//  * the caches = KvStore (Redis stand-in) fronted by an LruCache;
//  * the DNS forwarder converting UDP DNS to DNS-over-TCP.
//
// Feedback is automatic: a connection that produces server payload marks
// its strategy good for that server; one that draws a reset marks it bad,
// so INTANG converges on the best strategy per server and path.
#pragma once

#include <memory>
#include <optional>

#include "intang/dns_forwarder.h"
#include "intang/selector.h"
#include "strategy/strategy.h"

namespace ys::intang {

class Intang {
 public:
  struct Config {
    strategy::PathKnowledge knowledge;
    StrategySelector::Config selector;
    /// Convert UDP DNS to TCP toward this resolver (0 disables).
    net::IpAddr tcp_dns_resolver = 0;
    u16 tcp_dns_resolver_port = 53;
  };

  /// Installs itself as the client host's egress/ingress hooks. Pass
  /// `shared_selector` to persist strategy knowledge across hosts/trials
  /// (the real tool's Redis-backed store outlives connections the same
  /// way); otherwise the instance owns a fresh selector.
  Intang(tcp::Host& client, Config cfg, Rng rng,
         StrategySelector* shared_selector = nullptr);

  StrategySelector& selector() { return *selector_; }
  DnsForwarder* dns_forwarder() { return forwarder_ ? &*forwarder_ : nullptr; }

  /// The full selector decision for a connection, including where it came
  /// from (cache hit, store hit, cold pick, ...). Fleet sweeps use the
  /// provenance to attribute a flow's strategy to the cache entry that
  /// supplied it.
  std::optional<StrategySelector::Choice> choice_for(
      const net::FourTuple& tuple) const;

  /// §7.1's unimplemented optimization, implemented: after repeated
  /// failures toward one server, raise the insertion-packet redundancy for
  /// future connections (lossy paths eat single insertion packets).
  int current_redundancy() const { return engine_->insertion_redundancy(); }

 private:
  tcp::Host::Verdict egress(net::Packet& pkt);
  tcp::Host::Verdict ingress(net::Packet& pkt);

  struct ConnRecord {
    StrategySelector::Choice choice;
    bool reported = false;
  };

  tcp::Host& client_;
  Config cfg_;
  std::unique_ptr<StrategySelector> owned_selector_;
  StrategySelector* selector_;
  std::unique_ptr<strategy::StrategyEngine> engine_;
  std::optional<DnsForwarder> forwarder_;
  std::unordered_map<net::FourTuple, ConnRecord, net::FourTupleHash> conns_;
  std::unordered_map<net::IpAddr, int> consecutive_failures_;
};

}  // namespace ys::intang
