#include "gfw/dns_poisoner.h"

#include <array>

#include "app/dns.h"

namespace ys::gfw {

net::IpAddr DnsPoisoner::bogus_address(Rng& rng) {
  // A handful of well-documented poison targets observed in the wild.
  static constexpr std::array<net::IpAddr, 4> kPool = {
      net::make_ip(8, 7, 198, 45),
      net::make_ip(59, 24, 3, 173),
      net::make_ip(46, 82, 174, 68),
      net::make_ip(93, 46, 8, 89),
  };
  return kPool[rng.uniform(kPool.size())];
}

void DnsPoisoner::process(net::Packet pkt, net::Dir dir, net::Forwarder& fwd) {
  // Only client→resolver UDP queries on port 53 are interesting; the
  // rest pass on unread.
  if (pkt.is_udp() && pkt.udp->dst_port == 53) {
    fwd.forward_and_observe(pkt, dir, *this);
  } else {
    fwd.forward(std::move(pkt));
  }
}

void DnsPoisoner::observe(const net::Packet& pkt, net::Dir dir,
                          net::Forwarder& fwd) {
  auto parsed = app::dns_parse(pkt.payload);
  if (!parsed.ok() || parsed.value().is_response) return;
  const app::DnsMessage& query = parsed.value();

  for (const auto& q : query.questions) {
    if (!rules_->dns_blacklist.contains(q.qname)) continue;
    app::DnsMessage forged = app::make_response(query, bogus_address(rng_));
    net::Packet response =
        net::make_udp_packet(pkt.tuple().reversed(), app::dns_encode(forged));
    ++poisoned_;
    fwd.inject(std::move(response), net::opposite(dir), reaction_delay_);
    return;
  }
}

}  // namespace ys::gfw
