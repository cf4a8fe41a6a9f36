// The IBA link layer's invariant CRC generator (IBA 1.0 §7.8): ICRC,
// 32 bits, the CRC32 polynomial 0x04C11DB7 (reflected form 0xEDB88320).
// The simulator builds no wire images, so its one caller is the snapshot
// envelope (control/snapshot), which seals its payload with it.
//
// Table-driven, reflected implementation; the table is built at compile
// time.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ibarb::iba {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

inline constexpr auto kCrc32Table = make_crc32_table();

}  // namespace detail

/// ICRC: standard reflected CRC-32 (init 0xFFFFFFFF, final xor 0xFFFFFFFF).
constexpr std::uint32_t icrc(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const auto byte : data)
    crc = detail::kCrc32Table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace ibarb::iba
