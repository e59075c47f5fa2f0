#include "gfw/gfw_tcb.h"

namespace ys::gfw {

ByteView GfwTcb::assemble(u32 seq, ByteView data, net::OverlapPolicy policy,
                          u32 window) {
  const ByteView fresh =
      reassembler_.push(client_next, seq, data, window, policy);
  if (!fresh.empty()) {
    stream_.insert(stream_.end(), fresh.begin(), fresh.end());
    client_data_seen = true;
  }
  return fresh;
}

void GfwTcb::reanchor(u32 seq) {
  reassembler_.clear();
  client_next = seq;
}

}  // namespace ys::gfw
