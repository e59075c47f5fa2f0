// Crafting of GFW-injected packets with the fingerprints measured in §2.1:
//
//  * type-1: a single RST per direction, random TTL and window size;
//  * type-2: three RST/ACKs per direction with sequence numbers X, X+1460
//    and X+4380 (X = current sequence number of the targeted direction;
//    the future offsets pre-empt packets that might overtake the resets),
//    cyclically increasing TTL and window;
//  * the forged SYN/ACK with a wrong sequence number that obstructs new
//    handshakes during the 90-second block period.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <utility>

#include "core/rng.h"
#include "gfw/gfw_tcb.h"
#include "netsim/packet.h"
#include "netsim/path.h"

namespace ys::gfw {

/// A packet to inject plus the real path direction it must travel.
struct Injection {
  net::Packet packet;
  net::Dir dir;
};

/// The packets of one forged response in injection order, held inline:
/// the largest response, the type-2 volley, has six.
class Volley {
 public:
  static constexpr std::size_t kCapacity = 6;

  void push_back(Injection inj) {
    assert(size_ < kCapacity);
    items_[size_++] = std::move(inj);
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Injection& operator[](std::size_t i) const { return items_[i]; }
  Injection* begin() { return items_.data(); }
  Injection* end() { return items_.data() + size_; }
  const Injection* begin() const { return items_.data(); }
  const Injection* end() const { return items_.data() + size_; }

 private:
  std::array<Injection, kCapacity> items_{};
  std::size_t size_ = 0;
};

class ResetInjector {
 public:
  explicit ResetInjector(Rng rng, u8 base_ttl = 64)
      : rng_(std::move(rng)), base_ttl_(base_ttl) {}

  /// Type-1 reset pair for a tracked connection: one RST toward each end.
  Volley type1_resets(const GfwTcb& tcb);

  /// Type-2 reset volley: three RST/ACKs toward each end at X, X+1460,
  /// X+4380.
  Volley type2_resets(const GfwTcb& tcb);

  /// Block-period responses to an observed packet (§2.1): a SYN draws a
  /// forged SYN/ACK with a wrong sequence number back at its sender; any
  /// other packet draws RST + RST/ACK toward both ends.
  Volley block_period_response(const net::Packet& observed,
                               net::Dir observed_dir);

  /// Reset volley against an IP-blocked destination (Tor active-probing
  /// aftermath): RSTs toward both ends keyed off the observed packet.
  Volley ip_block_response(const net::Packet& observed,
                           net::Dir observed_dir);

  u32 type2_cycle() const { return cycle_; }

 private:
  u8 random_ttl() { return static_cast<u8>(rng_.uniform_range(40, 220)); }
  u16 random_window() { return static_cast<u16>(rng_.uniform_range(1, 65535)); }
  /// Cyclically increasing TTL/window of type-2 devices.
  u8 cyclic_ttl() { return static_cast<u8>(60 + (cycle_ % 64)); }
  u16 cyclic_window() {
    return static_cast<u16>(512 * ((cycle_ % 32) + 1));
  }

  Rng rng_;
  u8 base_ttl_;
  u32 cycle_ = 0;
};

}  // namespace ys::gfw
