#pragma once

// Fixed-width 256-bit unsigned arithmetic, the substrate for the secp256k1
// group used by the Schnorr signatures in `pf::verify`.
//
// Representation: four 64-bit limbs, little-endian (w[0] is least
// significant).  All operations are constant-size; nothing allocates.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace identxx::crypto {

struct U512;  // forward declaration (eight limbs, mul result)

struct U256 {
  std::array<std::uint64_t, 4> w{0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t low) : w{low, 0, 0, 0} {}
  constexpr U256(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
                 std::uint64_t w3)
      : w{w0, w1, w2, w3} {}
  constexpr explicit U256(const std::array<std::uint64_t, 4>& limbs) : w(limbs) {}

  /// Parse big-endian hex (1..64 hex digits, optional "0x" prefix).
  [[nodiscard]] static std::optional<U256> from_hex(std::string_view hex);

  /// Parse exactly 32 big-endian bytes.
  [[nodiscard]] static U256 from_bytes(std::span<const std::uint8_t, 32> bytes) noexcept;

  /// 64 lowercase hex digits, big-endian, zero padded.
  [[nodiscard]] std::string to_hex() const;

  /// 32 big-endian bytes.
  [[nodiscard]] std::array<std::uint8_t, 32> to_bytes() const noexcept;

  [[nodiscard]] constexpr bool is_zero() const noexcept {
    return (w[0] | w[1] | w[2] | w[3]) == 0;
  }

  /// Bit i (0 = least significant).  i must be < 256.
  [[nodiscard]] constexpr bool bit(unsigned i) const noexcept {
    return (w[i / 64] >> (i % 64)) & 1;
  }

  /// Index of highest set bit plus one; 0 for zero.
  [[nodiscard]] unsigned bit_length() const noexcept;

  [[nodiscard]] constexpr bool operator==(const U256&) const noexcept = default;

  /// Three-way compare: negative / zero / positive.
  [[nodiscard]] static int cmp(const U256& a, const U256& b) noexcept;

  /// a + b; carry-out returned separately.
  [[nodiscard]] static std::pair<U256, bool> add(const U256& a, const U256& b) noexcept;

  /// a - b; borrow-out returned separately (true when a < b).
  [[nodiscard]] static std::pair<U256, bool> sub(const U256& a, const U256& b) noexcept;

  /// Full 256x256 -> 512 bit product.
  [[nodiscard]] static U512 mul_wide(const U256& a, const U256& b) noexcept;

  /// a * a: the symmetric schoolbook computes each off-diagonal partial
  /// product once and doubles, ~40% fewer word multiplies than mul_wide.
  /// Point doubling is squaring-heavy, so this shows up directly in
  /// verification latency.
  [[nodiscard]] static U512 sqr_wide(const U256& a) noexcept;

  /// Left shift by one bit; the shifted-out top bit is returned.
  [[nodiscard]] std::pair<U256, bool> shl1() const noexcept;

  /// Right shift by one bit.
  [[nodiscard]] U256 shr1() const noexcept;
};

struct U512 {
  std::array<std::uint64_t, 8> w{};

  [[nodiscard]] constexpr bool bit(unsigned i) const noexcept {
    return (w[i / 64] >> (i % 64)) & 1;
  }

  /// High and low 256-bit halves.
  [[nodiscard]] U256 low() const noexcept;
  [[nodiscard]] U256 high() const noexcept;
};

/// Generic x mod m via binary long division.  Suitable for the handful of
/// scalar (mod n) operations per signature; field operations use the
/// specialized secp256k1 reduction in ec.cpp instead.
[[nodiscard]] U256 mod(const U512& x, const U256& m) noexcept;

/// round(x / m) to nearest (ties round up).  The quotient must fit in 256
/// bits; bits above that are discarded.  Slow (bit-serial) — used once at
/// startup to derive the GLV decomposition constants rather than trusting
/// two more transcribed magic numbers.
[[nodiscard]] U256 div_round(const U512& x, const U256& m) noexcept;

/// (a + b) mod m, assuming a, b < m.
[[nodiscard]] U256 add_mod(const U256& a, const U256& b, const U256& m) noexcept;

/// (a - b) mod m, assuming a, b < m.
[[nodiscard]] U256 sub_mod(const U256& a, const U256& b, const U256& m) noexcept;

/// (a * b) mod m via full product + generic reduction.
[[nodiscard]] U256 mul_mod(const U256& a, const U256& b, const U256& m) noexcept;

/// a^(-1) mod m for odd prime m (Fermat: a^(m-2)).  m must be prime.
[[nodiscard]] U256 inv_mod(const U256& a, const U256& m) noexcept;

/// a^e mod m by square-and-multiply.
[[nodiscard]] U256 pow_mod(const U256& a, const U256& e, const U256& m) noexcept;

}  // namespace identxx::crypto
