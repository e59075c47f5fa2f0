#include "gfw/reset_injector.h"

namespace ys::gfw {
namespace {

constexpr u32 kType2Offsets[] = {0, 1460, 4380};

}  // namespace

Volley ResetInjector::type1_resets(const GfwTcb& tcb) {
  Volley out;
  const net::FourTuple c2s = tcb.tuple();
  const net::FourTuple s2c = c2s.reversed();

  // Toward the assumed client: RST "from the server" at the server's
  // current sequence number.
  net::Packet to_client = net::make_tcp_packet(s2c, net::TcpFlags::only_rst(),
                                               tcb.server_next, 0);
  to_client.ip.ttl = random_ttl();
  to_client.tcp->window = random_window();
  out.push_back(Injection{std::move(to_client),
                          net::opposite(tcb.monitored_dir())});

  // Toward the assumed server: RST "from the client".
  net::Packet to_server = net::make_tcp_packet(c2s, net::TcpFlags::only_rst(),
                                               tcb.client_next, 0);
  to_server.ip.ttl = random_ttl();
  to_server.tcp->window = random_window();
  out.push_back(Injection{std::move(to_server), tcb.monitored_dir()});
  return out;
}

Volley ResetInjector::type2_resets(const GfwTcb& tcb) {
  Volley out;
  const net::FourTuple c2s = tcb.tuple();
  const net::FourTuple s2c = c2s.reversed();

  for (u32 offset : kType2Offsets) {
    // Toward the client: seq anchored at the server-side sequence number X.
    net::Packet to_client = net::make_tcp_packet(
        s2c, net::TcpFlags::rst_ack(), tcb.server_next + offset,
        tcb.client_next);
    to_client.ip.ttl = cyclic_ttl();
    to_client.tcp->window = cyclic_window();
    ++cycle_;
    out.push_back(Injection{std::move(to_client),
                            net::opposite(tcb.monitored_dir())});
  }
  for (u32 offset : kType2Offsets) {
    net::Packet to_server = net::make_tcp_packet(
        c2s, net::TcpFlags::rst_ack(), tcb.client_next + offset,
        tcb.server_next);
    to_server.ip.ttl = cyclic_ttl();
    to_server.tcp->window = cyclic_window();
    ++cycle_;
    out.push_back(Injection{std::move(to_server), tcb.monitored_dir()});
  }
  return out;
}

Volley ResetInjector::block_period_response(const net::Packet& observed,
                                            net::Dir observed_dir) {
  Volley out;
  if (!observed.is_tcp()) return out;
  const net::FourTuple fwd = observed.tuple();
  const net::FourTuple rev = fwd.reversed();

  if (observed.tcp->flags.syn && !observed.tcp->flags.ack) {
    // Forged SYN/ACK with a wrong (random) sequence number back at the
    // handshake initiator; only type-2 devices exhibit this (§2.1).
    net::Packet synack = net::make_tcp_packet(
        rev, net::TcpFlags::syn_ack(), rng_.next_u32(), observed.tcp->seq + 1);
    synack.ip.ttl = cyclic_ttl();
    synack.tcp->window = cyclic_window();
    ++cycle_;
    out.push_back(Injection{std::move(synack), net::opposite(observed_dir)});
    return out;
  }

  // Any other packet draws RST and RST/ACK toward both ends.
  const u32 seq_fwd = observed.tcp_seq_end();
  const u32 seq_rev = observed.tcp->flags.ack ? observed.tcp->ack : 0;

  net::Packet rst_back = net::make_tcp_packet(rev, net::TcpFlags::rst_ack(),
                                              seq_rev, seq_fwd);
  rst_back.ip.ttl = cyclic_ttl();
  rst_back.tcp->window = cyclic_window();
  ++cycle_;
  out.push_back(Injection{std::move(rst_back), net::opposite(observed_dir)});

  net::Packet rst_fwd = net::make_tcp_packet(fwd, net::TcpFlags::only_rst(),
                                             seq_fwd, 0);
  rst_fwd.ip.ttl = random_ttl();
  rst_fwd.tcp->window = random_window();
  out.push_back(Injection{std::move(rst_fwd), observed_dir});
  return out;
}

Volley ResetInjector::ip_block_response(const net::Packet& observed,
                                        net::Dir observed_dir) {
  // Whole-IP blocking behaves like the block period, minus the forged
  // SYN/ACK: connections are refused with resets on any port.
  Volley out;
  if (!observed.is_tcp()) return out;
  const net::FourTuple fwd = observed.tuple();
  const net::FourTuple rev = fwd.reversed();

  const u32 seq_fwd = observed.tcp_seq_end();
  const u32 seq_rev = observed.tcp->flags.ack ? observed.tcp->ack : 0;

  net::Packet rst_back = net::make_tcp_packet(rev, net::TcpFlags::rst_ack(),
                                              seq_rev, seq_fwd);
  rst_back.ip.ttl = cyclic_ttl();
  rst_back.tcp->window = cyclic_window();
  ++cycle_;
  out.push_back(Injection{std::move(rst_back), net::opposite(observed_dir)});

  net::Packet rst_fwd = net::make_tcp_packet(fwd, net::TcpFlags::only_rst(),
                                             seq_fwd, 0);
  rst_fwd.ip.ttl = random_ttl();
  rst_fwd.tcp->window = random_window();
  out.push_back(Injection{std::move(rst_fwd), observed_dir});
  return out;
}

}  // namespace ys::gfw
