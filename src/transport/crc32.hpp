// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for wire-frame
// integrity. Constexpr table-driven so the checksum of a constant frame can
// be computed at compile time (the codec tests pin known-answer vectors).
//
// The update folds eight bytes per step ("slicing-by-8": eight 256-entry
// tables, table k advancing a byte's contribution by k further bytes), then
// finishes the tail bytewise with table 0. Both loops compute the same
// polynomial remainder, so the checksum is the bytewise one for every input
// (the codec tests compare the two over every length and start offset).
//
// This is an *integrity* check against truncation and bit rot on the wire,
// not an authenticity check — receipts and claims carry their own MACs
// (payment/receipt.hpp); the frame CRC only decides accept-vs-reject of the
// raw bytes before any payload is parsed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace p2panon::transport {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

[[nodiscard]] constexpr Crc32Tables make_crc32_tables() noexcept {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian load; compilers fuse the shifts into one 32-bit load.
[[nodiscard]] constexpr std::uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// Running update: fold `data` into a CRC state previously returned by
/// crc32_init()/crc32_update(); finish with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }

[[nodiscard]] constexpr std::uint32_t crc32_update(std::uint32_t state,
                                                   std::span<const std::byte> data) noexcept {
  const auto& t = detail::kCrc32Tables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = state ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte span.
[[nodiscard]] constexpr std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace p2panon::transport
