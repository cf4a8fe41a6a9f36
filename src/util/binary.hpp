// Little-endian binary serialization for control-plane snapshots.
//
// BinWriter/BinReader are the one encoding used by the crash-consistent
// snapshot path (src/control/snapshot.*): fixed-width little-endian
// integers, doubles bit-cast through uint64 (so round-trips are bit-exact,
// including NaN payloads and signed zeros), and length-prefixed byte runs. The format is deliberately dumb — no varints, no field tags —
// because snapshots must serialize deterministically: identical state in,
// identical bytes out, on every host and compiler. Versioning and CRC
// guarding live in the envelope (control/snapshot.hpp), not here.
//
// BinReader throws std::runtime_error on any underrun, so a truncated or
// corrupted payload can never be silently half-applied.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace ibarb::util {

class BinWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }

  /// Bit-exact: the double's object representation travels as a uint64.
  void put_double(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  void put_bytes(std::span<const std::uint8_t> data) {
    put_u64(data.size());
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }
  std::size_t size() const noexcept { return bytes_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> bytes_;
};

class BinReader {
 public:
  explicit BinReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8() { return take_one(); }
  bool get_bool() { return get_u8() != 0; }

  std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>(); }

  double get_double() { return std::bit_cast<double>(get_u64()); }

  std::vector<std::uint8_t> get_bytes() {
    const auto n = checked_length(get_u64());
    std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                  data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Reads a length prefix and validates it against the bytes remaining,
  /// so callers can reserve without trusting the wire value.
  std::size_t get_length() { return checked_length(get_u64()); }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

 private:
  std::uint8_t take_one() {
    if (pos_ >= data_.size())
      throw std::runtime_error("snapshot payload underrun");
    return data_[pos_++];
  }

  template <typename T>
  T get_le() {
    if (data_.size() - pos_ < sizeof(T))
      throw std::runtime_error("snapshot payload underrun");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    pos_ += sizeof(T);
    return v;
  }

  std::size_t checked_length(std::uint64_t n) {
    if (n > remaining())
      throw std::runtime_error("snapshot length prefix exceeds payload");
    return static_cast<std::size_t>(n);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ibarb::util
