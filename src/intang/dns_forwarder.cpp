#include "intang/dns_forwarder.h"

namespace ys::intang {

tcp::Host::Verdict DnsForwarder::intercept(const net::Packet& pkt) {
  if (!pkt.is_udp() || pkt.udp->dst_port != 53) {
    return tcp::Host::Verdict::kAccept;
  }
  auto parsed = app::dns_parse(pkt.payload);
  if (!parsed.ok() || parsed.value().is_response) {
    return tcp::Host::Verdict::kAccept;
  }

  ensure_connection();
  pending_[parsed.value().id] = PendingQuery{pkt.tuple()};
  conn_->send_data(app::dns_tcp_frame(parsed.value()));
  ++converted_;
  return tcp::Host::Verdict::kDrop;
}

void DnsForwarder::ensure_connection() {
  if (conn_ != nullptr && conn_->state() != tcp::TcpState::kClosed) return;
  stream_.clear();
  parse_offset_ = 0;
  tcp::TcpEndpoint::Callbacks cb;
  cb.on_data = [this](tcp::TcpEndpoint&, ByteView chunk) {
    on_resolver_data(chunk);
  };
  conn_ = &client_.connect(cfg_.resolver, cfg_.resolver_port, /*src_port=*/0,
                           std::move(cb));
}

void DnsForwarder::on_resolver_data(ByteView chunk) {
  stream_.insert(stream_.end(), chunk.begin(), chunk.end());
  for (const auto& msg : app::dns_tcp_extract(stream_, &parse_offset_)) {
    if (!msg.is_response) continue;
    auto it = pending_.find(msg.id);
    if (it == pending_.end()) continue;
    // Convert back to UDP, apparently from the originally queried
    // resolver address.
    net::Packet udp = net::make_udp_packet(it->second.original.reversed(),
                                           app::dns_encode(msg));
    pending_.erase(it);
    ++returned_;
    client_.inject_local(std::move(udp));
  }
}

}  // namespace ys::intang
