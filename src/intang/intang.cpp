#include "intang/intang.h"

#include "netsim/addr.h"
#include "obs/trace.h"

namespace ys::intang {

Intang::Intang(tcp::Host& client, Config cfg, Rng rng,
               StrategySelector* shared_selector)
    : client_(client), cfg_(cfg) {
  if (shared_selector != nullptr) {
    selector_ = shared_selector;
  } else {
    owned_selector_ = std::make_unique<StrategySelector>(cfg_.selector);
    selector_ = owned_selector_.get();
  }
  engine_ = std::make_unique<strategy::StrategyEngine>(
      client,
      [this](const net::FourTuple& tuple) {
        const StrategySelector::Choice choice =
            selector_->choose_explained(tuple.dst_ip, client_.loop().now());
        conns_[tuple] = ConnRecord{choice, false};
        if (obs::TraceRecorder* tr = client_.path().trace()) {
          tr->note(client_.loop().now(), "intang", obs::TraceKind::kDecision,
                   std::string("selector picked ") +
                       strategy::to_string(choice.id) + " for " +
                       net::ip_to_string(tuple.dst_ip) + " (" +
                       to_string(choice.source) + ")");
        }
        return strategy::make_strategy(choice.id);
      },
      cfg.knowledge, std::move(rng));

  if (cfg_.tcp_dns_resolver != 0) {
    forwarder_.emplace(client, DnsForwarder::Config{
                                   cfg_.tcp_dns_resolver,
                                   cfg_.tcp_dns_resolver_port});
  }

  client_.set_egress_hook(
      [this](net::Packet& pkt) { return egress(pkt); });
  client_.set_ingress_hook(
      [this](net::Packet& pkt) { return ingress(pkt); });
}

std::optional<StrategySelector::Choice> Intang::choice_for(
    const net::FourTuple& tuple) const {
  auto it = conns_.find(tuple);
  if (it == conns_.end()) return std::nullopt;
  return it->second.choice;
}

tcp::Host::Verdict Intang::egress(net::Packet& pkt) {
  if (forwarder_ &&
      forwarder_->intercept(pkt) == tcp::Host::Verdict::kDrop) {
    return tcp::Host::Verdict::kDrop;
  }
  return engine_->egress(pkt);
}

tcp::Host::Verdict Intang::ingress(net::Packet& pkt) {
  if (pkt.is_tcp()) {
    // Automatic feedback: server payload = the strategy worked; a reset =
    // it did not. One verdict per connection.
    auto it = conns_.find(pkt.tuple().reversed());
    if (it != conns_.end() && !it->second.reported) {
      if (pkt.tcp->flags.rst) {
        it->second.reported = true;
        selector_->report(it->first.dst_ip, it->second.choice.id, /*success=*/false,
                         client_.loop().now());
        if (obs::TraceRecorder* tr = client_.path().trace()) {
          tr->note(client_.loop().now(), "intang", obs::TraceKind::kDecision,
                   std::string("feedback: ") +
                       strategy::to_string(it->second.choice.id) + " failed against " +
                       net::ip_to_string(it->first.dst_ip) + " (RST seen)",
                   tr->event_for_packet(pkt.trace_id));
        }
        // Loss adaptation (§7.1): repeated failures toward one server
        // suggest insertion packets are not surviving the path — double
        // down on redundancy for future connections.
        if (++consecutive_failures_[it->first.dst_ip] >= 2) {
          engine_->set_insertion_redundancy(5);
        }
      } else if (!pkt.payload.empty()) {
        it->second.reported = true;
        consecutive_failures_[it->first.dst_ip] = 0;
        selector_->report(it->first.dst_ip, it->second.choice.id, /*success=*/true,
                         client_.loop().now());
        if (obs::TraceRecorder* tr = client_.path().trace()) {
          tr->note(client_.loop().now(), "intang", obs::TraceKind::kDecision,
                   std::string("feedback: ") +
                       strategy::to_string(it->second.choice.id) +
                       " succeeded against " +
                       net::ip_to_string(it->first.dst_ip) +
                       " (server payload seen)",
                   tr->event_for_packet(pkt.trace_id));
        }
      }
    }
  }
  return engine_->ingress(pkt);
}

}  // namespace ys::intang
