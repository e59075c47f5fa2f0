// GFW UDP DNS poisoning (§2.1).
//
// For a UDP query naming a blacklisted domain, the GFW injects a forged
// response with a bogus address. Because the injection happens mid-path,
// the forgery beats the resolver's genuine answer to the client — the
// classic reason DNS-over-UDP is unusable for censored names and why
// INTANG converts queries to TCP (§6).
#pragma once

#include <string>
#include <vector>

#include "core/rng.h"
#include "gfw/gfw_types.h"
#include "netsim/path.h"

namespace ys::gfw {

class DnsPoisoner final : public net::PathElement {
 public:
  DnsPoisoner(std::string name, const DetectionRules* rules, Rng rng,
              SimTime reaction_delay = SimTime::from_us(300))
      : name_(std::move(name)), rules_(rules), rng_(std::move(rng)),
        reaction_delay_(reaction_delay) {}

  std::string name() const override { return name_; }
  void process(net::Packet pkt, net::Dir dir, net::Forwarder& fwd) override;
  void observe(const net::Packet& pkt, net::Dir dir,
               net::Forwarder& fwd) override;

  int poisoned() const { return poisoned_; }

  /// The small rotating pool of bogus addresses the GFW answers with.
  static net::IpAddr bogus_address(Rng& rng);

 private:
  std::string name_;
  const DetectionRules* rules_;
  Rng rng_;
  SimTime reaction_delay_;
  int poisoned_ = 0;
};

}  // namespace ys::gfw
