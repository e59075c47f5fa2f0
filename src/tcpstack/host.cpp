#include "tcpstack/host.h"

namespace ys::tcp {

Host::Host(Config cfg, net::Path& path, net::EventLoop& loop, Rng rng)
    : cfg_(std::move(cfg)), path_(path), loop_(loop), rng_(std::move(rng)),
      reassembler_(cfg_.profile.ip_fragment_overlap) {
  received_.reserve(kReceivedReserve);
}

void Host::attach() {
  auto sink = [this](net::Packet& pkt) { handle_wire(pkt); };
  if (cfg_.side == HostSide::kClient) {
    path_.set_client_sink(sink);
  } else {
    path_.set_server_sink(sink);
  }
}

void Host::listen(u16 port, DataHandler on_data) {
  listeners_[port] = std::move(on_data);
}

TcpEndpoint& Host::connect(net::IpAddr dst_ip, u16 dst_port, u16 src_port,
                           TcpEndpoint::Callbacks app_callbacks) {
  if (src_port == 0) src_port = next_ephemeral_port_++;
  net::FourTuple tuple{cfg_.address, src_port, dst_ip, dst_port};
  TcpEndpoint::Callbacks cb = std::move(app_callbacks);
  cb.send = [this](net::Packet pkt) { transmit(std::move(pkt)); };
  auto ep = std::make_unique<TcpEndpoint>(loop_, rng_.fork(), cfg_.profile,
                                          tuple, std::move(cb));
  ep->set_trace(path_.trace(), cfg_.name,
                cfg_.side == HostSide::kClient ? net::Dir::kS2C
                                               : net::Dir::kC2S);
  TcpEndpoint& ref = *ep;
  endpoints_[tuple] = std::move(ep);
  ref.open_active();
  return ref;
}

TcpEndpoint* Host::find(const net::FourTuple& local_tuple) {
  auto it = endpoints_.find(local_tuple);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

void Host::bind_udp(u16 port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void Host::send_udp(const net::FourTuple& tuple, Bytes payload) {
  transmit(net::make_udp_packet(tuple, std::move(payload)));
}

void Host::send_raw(net::Packet pkt) { transmit(std::move(pkt)); }

void Host::send_raw_unhooked(net::Packet pkt) {
  if (cfg_.side == HostSide::kClient) {
    path_.send_from_client(std::move(pkt));
  } else {
    path_.send_from_server(std::move(pkt));
  }
}

void Host::transmit(net::Packet pkt) {
  if (egress_hook_) {
    if (egress_hook_(pkt) == Verdict::kDrop) return;
  }
  send_raw_unhooked(std::move(pkt));
}

void Host::handle_wire(net::Packet& pkt) {
  // IP-layer reassembly first: hosts always reassemble before the
  // transport layer sees anything. Whole packets need none.
  if (pkt.ip.is_fragmented()) {
    std::optional<net::Packet> whole = reassembler_.push(pkt);
    if (!whole) return;  // waiting for more fragments
    pkt = std::move(*whole);
  }

  // The log keeps arrival order: the packet takes its place now and moves
  // in once the hooks and the stack are done reading it, so a packet they
  // hand back through inject_local() is logged after it.
  const std::size_t logged_at = received_.size();
  received_.emplace_back();

  if (!ingress_hook_ || ingress_hook_(pkt) == Verdict::kAccept) {
    if (pkt.is_tcp()) {
      handle_tcp(pkt);
    } else if (pkt.is_udp()) {
      handle_udp(pkt);
    }
  }
  received_[logged_at] = std::move(pkt);
}

void Host::handle_tcp(const net::Packet& pkt) {
  // Local view of the tuple: src = us, dst = remote.
  const net::FourTuple local{pkt.ip.dst, pkt.tcp->dst_port, pkt.ip.src,
                             pkt.tcp->src_port};
  if (TcpEndpoint* ep = find(local)) {
    ep->on_segment(pkt);
    return;
  }

  auto lst = listeners_.find(pkt.tcp->dst_port);
  if (lst != listeners_.end()) {
    // Create a per-connection endpoint in LISTEN and replay the segment
    // into it (SYN-cookie-free accept path).
    TcpEndpoint::Callbacks cb;
    cb.send = [this](net::Packet out) { transmit(std::move(out)); };
    cb.on_data = lst->second;
    auto ep = std::make_unique<TcpEndpoint>(loop_, rng_.fork(), cfg_.profile,
                                            local, std::move(cb));
    ep->set_trace(path_.trace(), cfg_.name,
                  cfg_.side == HostSide::kClient ? net::Dir::kS2C
                                                 : net::Dir::kC2S);
    TcpEndpoint* raw = ep.get();
    raw->open_passive();
    endpoints_[local] = std::move(ep);
    raw->on_segment(pkt);
    return;
  }

  // No endpoint and no listener: a real stack sends RST for non-RST
  // segments (connection refused).
  demux_ignores_.push_back(
      IgnoreEvent{TcpState::kClosed, IgnoreReason::kNotListening});
  if (obs::TraceRecorder* tr = path_.trace()) {
    tr->note(loop_.now(), cfg_.name, obs::TraceKind::kIgnore,
             std::string(to_string(IgnoreReason::kNotListening)) +
                 " [no endpoint, no listener]",
             tr->event_for_packet(pkt.trace_id));
  }
  if (!pkt.tcp->flags.rst && !cfg_.suppress_kernel_resets) {
    u32 rst_seq = pkt.tcp->flags.ack ? pkt.tcp->ack : 0;
    net::Packet rst = net::make_tcp_packet(local, net::TcpFlags::only_rst(),
                                           rst_seq, 0);
    if (!pkt.tcp->flags.ack) {
      rst.tcp->flags.ack = true;
      rst.tcp->ack = pkt.tcp->seq + static_cast<u32>(pkt.payload.size()) +
                     (pkt.tcp->flags.syn ? 1 : 0) +
                     (pkt.tcp->flags.fin ? 1 : 0);
    }
    transmit(std::move(rst));
  }
}

void Host::handle_udp(const net::Packet& pkt) {
  auto it = udp_handlers_.find(pkt.udp->dst_port);
  if (it == udp_handlers_.end()) return;  // ICMP unreachable not modeled
  const net::FourTuple from{pkt.ip.src, pkt.udp->src_port, pkt.ip.dst,
                            pkt.udp->dst_port};
  it->second(from, pkt.payload);
}

}  // namespace ys::tcp
