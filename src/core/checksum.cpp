#include "core/checksum.h"

#include <cassert>

namespace ys {

u32 checksum_accumulate(ByteView data, u32 acc) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += (static_cast<u32>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) {
    acc += static_cast<u32>(data[i]) << 8;  // pad odd byte with zero
  }
  return acc;
}

u16 checksum_finish(u32 acc) {
  while (acc >> 16) {
    acc = (acc & 0xFFFF) + (acc >> 16);
  }
  return static_cast<u16>(~acc & 0xFFFF);
}

u16 internet_checksum(ByteView data) {
  return checksum_finish(checksum_accumulate(data, 0));
}

u16 transport_checksum(u32 src_ip, u32 dst_ip, u8 protocol, ByteView segment) {
  return transport_checksum(src_ip, dst_ip, protocol, segment, ByteView{});
}

u16 transport_checksum(u32 src_ip, u32 dst_ip, u8 protocol, ByteView header,
                       ByteView payload) {
  // An odd-length header would shift the payload's 16-bit word alignment.
  assert(header.size() % 2 == 0 || payload.empty());
  u8 pseudo[12];
  pseudo[0] = static_cast<u8>(src_ip >> 24);
  pseudo[1] = static_cast<u8>(src_ip >> 16);
  pseudo[2] = static_cast<u8>(src_ip >> 8);
  pseudo[3] = static_cast<u8>(src_ip);
  pseudo[4] = static_cast<u8>(dst_ip >> 24);
  pseudo[5] = static_cast<u8>(dst_ip >> 16);
  pseudo[6] = static_cast<u8>(dst_ip >> 8);
  pseudo[7] = static_cast<u8>(dst_ip);
  pseudo[8] = 0;
  pseudo[9] = protocol;
  const auto len = static_cast<u16>(header.size() + payload.size());
  pseudo[10] = static_cast<u8>(len >> 8);
  pseudo[11] = static_cast<u8>(len);

  u32 acc = checksum_accumulate(ByteView(pseudo, sizeof(pseudo)), 0);
  acc = checksum_accumulate(header, acc);
  acc = checksum_accumulate(payload, acc);
  return checksum_finish(acc);
}

}  // namespace ys
