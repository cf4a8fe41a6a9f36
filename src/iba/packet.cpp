#include "iba/packet.hpp"

namespace ibarb::iba {

std::vector<std::uint32_t> segment_message(std::uint32_t message_bytes,
                                           Mtu mtu) {
  const std::uint32_t cap = mtu_bytes(mtu);
  std::vector<std::uint32_t> sizes;
  if (message_bytes == 0) {
    sizes.push_back(0);
    return sizes;
  }
  sizes.reserve((message_bytes + cap - 1) / cap);
  while (message_bytes > 0) {
    const std::uint32_t chunk = message_bytes < cap ? message_bytes : cap;
    sizes.push_back(chunk);
    message_bytes -= chunk;
  }
  return sizes;
}

double mtu_efficiency(Mtu mtu) {
  const double payload = mtu_bytes(mtu);
  return payload / (payload + kPacketOverheadBytes);
}

}  // namespace ibarb::iba
