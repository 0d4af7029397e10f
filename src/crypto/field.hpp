#pragma once

// secp256k1 base-field arithmetic on four 64-bit limbs (DESIGN.md §9, §16).
//
// The one 64-bit implementation of F_p, p = 2^256 - kFold with
// kFold = 2^32 + 977.  Verify calls it through ec.hpp's inline fp_add /
// fp_sub / fp_mul / fp_sqr, and the constant-time sign kernel's production
// instantiation (ct_sign.hpp, L = uint64_t) forwards to it, so both halves
// of the signature scheme run the same code.  Every function is
// straight-line: carries run through adc/sbb chains, and the final
// subtraction and the wrap past 2^256 are masked selects, never branches.
// Operands and results are fully reduced, in [0, p).
//
// On x86-64 the carry helpers are _addcarry_u64 / _subborrow_u64, which
// compile to plain adc / sbb (baseline ISA, no target flags); elsewhere a
// 128-bit sum stands in.  u256.cpp's generic mod path stays the oracle.
//
// Everything is always_inline: left out of line inside the point
// formulas, gcc copied the 32-byte results through SSE registers, and a
// 128-bit load of two fresh 64-bit stores stalls store forwarding.

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace identxx::crypto::field {

using Fe = std::array<std::uint64_t, 4>;
using Wide = std::array<std::uint64_t, 8>;

__extension__ typedef unsigned __int128 u128;

inline constexpr std::uint64_t kFold = 0x1000003d1ULL;  // 2^256 - p

/// lo = (a * b) mod 2^64, hi = (a * b) >> 64.
// ct-lint: certified secret(a, b)
[[gnu::always_inline]] inline std::uint64_t mul64(std::uint64_t a, std::uint64_t b,
                           std::uint64_t& hi) noexcept {
  const u128 prod = static_cast<u128>(a) * b;
  hi = static_cast<std::uint64_t>(prod >> 64);
  return static_cast<std::uint64_t>(prod);
}

/// a + b + carry; carry (0/1) updated in place.
// ct-lint: certified secret(a, b, carry)
[[gnu::always_inline]] inline std::uint64_t adc64(std::uint64_t a, std::uint64_t b,
                           unsigned char& carry) noexcept {
#if defined(__x86_64__)
  unsigned long long sum = 0;
  carry = _addcarry_u64(carry, a, b, &sum);
  return sum;
#else
  const u128 sum = static_cast<u128>(a) + b + carry;
  carry = static_cast<unsigned char>(sum >> 64);
  return static_cast<std::uint64_t>(sum);
#endif
}

/// a - b - borrow; borrow (0/1) updated in place.
// ct-lint: certified secret(a, b, borrow)
[[gnu::always_inline]] inline std::uint64_t sbb64(std::uint64_t a, std::uint64_t b,
                           unsigned char& borrow) noexcept {
#if defined(__x86_64__)
  unsigned long long diff = 0;
  borrow = _subborrow_u64(borrow, a, b, &diff);
  return diff;
#else
  const u128 diff = static_cast<u128>(a) - b - borrow;
  borrow = static_cast<unsigned char>((diff >> 64) & 1);
  return static_cast<std::uint64_t>(diff);
#endif
}

/// x + carry * 2^256 reduced into [0, p), for a value below 2p.  x >= p
/// exactly when x + kFold carries out of 2^256, and then x + kFold mod
/// 2^256 is x - p; when the value had already wrapped (carry set), x is
/// small and x + kFold is the answer.  So one chain finds the carry and a
/// second adds kFold under its mask: no select, nothing to vectorize.
// ct-lint: certified secret(x, carry)
[[gnu::always_inline]] [[nodiscard]] inline Fe fe_reduce_once(const Fe& x, std::uint64_t carry) noexcept {
  unsigned char c = 0;
  static_cast<void>(adc64(x[0], kFold, c));
  static_cast<void>(adc64(x[1], 0, c));
  static_cast<void>(adc64(x[2], 0, c));
  static_cast<void>(adc64(x[3], 0, c));
  const std::uint64_t fold = kFold & (0 - (carry | c));
  Fe s{};
  c = 0;
  s[0] = adc64(x[0], fold, c);
  s[1] = adc64(x[1], 0, c);
  s[2] = adc64(x[2], 0, c);
  s[3] = adc64(x[3], 0, c);
  return s;
}

// ct-lint: certified secret(a, b)
[[gnu::always_inline]] [[nodiscard]] inline Fe fe_add(const Fe& a, const Fe& b) noexcept {
  Fe sum{};
  unsigned char c = 0;
  for (std::size_t i = 0; i < 4; ++i) sum[i] = adc64(a[i], b[i], c);
  return fe_reduce_once(sum, c);
}

// ct-lint: certified secret(a, b)
[[gnu::always_inline]] [[nodiscard]] inline Fe fe_sub(const Fe& a, const Fe& b) noexcept {
  Fe d{};
  unsigned char br = 0;
  for (std::size_t i = 0; i < 4; ++i) d[i] = sbb64(a[i], b[i], br);
  // On a borrow d = a - b + 2^256, and d - kFold = a - b + p.
  const std::uint64_t fix = kFold & (0 - static_cast<std::uint64_t>(br));
  br = 0;
  d[0] = sbb64(d[0], fix, br);
  d[1] = sbb64(d[1], 0, br);
  d[2] = sbb64(d[2], 0, br);
  d[3] = sbb64(d[3], 0, br);
  return d;
}

/// Full 256 x 256 -> 512-bit product, one row per limb of a.  A row's
/// low halves and high halves go in as two carry chains; neither chain
/// carries out of the row's top limb.
// ct-lint: certified secret(a, b)
[[gnu::always_inline]] [[nodiscard]] inline Wide fe_mul_wide(const Fe& a, const Fe& b) noexcept {
  Wide r{};
  for (std::size_t i = 0; i < 4; ++i) {
    std::array<std::uint64_t, 4> lo{};
    std::array<std::uint64_t, 4> hi{};
    for (std::size_t j = 0; j < 4; ++j) lo[j] = mul64(a[i], b[j], hi[j]);
    unsigned char c = 0;
    for (std::size_t j = 0; j < 4; ++j) r[i + j] = adc64(r[i + j], lo[j], c);
    r[i + 4] = c;
    c = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      r[i + j + 1] = adc64(r[i + j + 1], hi[j], c);
    }
  }
  return r;
}

/// a * a with each off-diagonal product computed once and doubled: 10
/// word multiplies instead of 16.
// ct-lint: certified secret(a)
[[gnu::always_inline]] [[nodiscard]] inline Wide fe_sqr_wide(const Fe& a) noexcept {
  std::uint64_t h01 = 0, h02 = 0, h03 = 0, h12 = 0, h13 = 0, h23 = 0;
  const std::uint64_t l01 = mul64(a[0], a[1], h01);
  const std::uint64_t l02 = mul64(a[0], a[2], h02);
  const std::uint64_t l03 = mul64(a[0], a[3], h03);
  const std::uint64_t l12 = mul64(a[1], a[2], h12);
  const std::uint64_t l13 = mul64(a[1], a[3], h13);
  const std::uint64_t l23 = mul64(a[2], a[3], h23);
  // Off-diagonal sum, limbs 1..6; it stays below 2^448.
  Wide r{};
  unsigned char c = 0;
  r[1] = l01;
  r[2] = adc64(h01, l02, c);
  r[3] = adc64(h02, l03, c);
  r[4] = adc64(h03, 0, c);
  c = 0;
  r[3] = adc64(r[3], l12, c);
  r[4] = adc64(r[4], l13, c);
  r[5] = adc64(h13, 0, c);
  c = 0;
  r[4] = adc64(r[4], h12, c);
  r[5] = adc64(r[5], l23, c);
  r[6] = adc64(h23, 0, c);
  // Double it.
  c = 0;
  for (std::size_t i = 1; i < 7; ++i) r[i] = adc64(r[i], r[i], c);
  r[7] = c;
  // Add the squares on the diagonal.
  std::array<std::uint64_t, 8> diag{};
  for (std::size_t i = 0; i < 4; ++i) {
    diag[2 * i] = mul64(a[i], a[i], diag[2 * i + 1]);
  }
  c = 0;
  for (std::size_t i = 0; i < 8; ++i) r[i] = adc64(r[i], diag[i], c);
  return r;
}

/// A 512-bit value mod p: fold the high half in with 2^256 = kFold
/// (mod p), fold the small spill limb once more, then fe_reduce_once.
// ct-lint: certified secret(r)
[[gnu::always_inline]] [[nodiscard]] inline Fe fe_reduce_wide(const Wide& r) noexcept {
  std::array<std::uint64_t, 4> lo{};
  std::array<std::uint64_t, 4> hi{};
  for (std::size_t j = 0; j < 4; ++j) lo[j] = mul64(r[4 + j], kFold, hi[j]);
  // t = low half + high half * kFold: five limbs, t4 < 2^34.
  Fe t{};
  unsigned char c = 0;
  for (std::size_t j = 0; j < 4; ++j) t[j] = adc64(r[j], lo[j], c);
  std::uint64_t t4 = c;
  c = 0;
  t[1] = adc64(t[1], hi[0], c);
  t[2] = adc64(t[2], hi[1], c);
  t[3] = adc64(t[3], hi[2], c);
  t4 += hi[3] + c;
  // t + t4 * kFold is below 2^256 + 2^67 < 2p.
  std::uint64_t spill_hi = 0;
  const std::uint64_t spill_lo = mul64(t4, kFold, spill_hi);
  c = 0;
  t[0] = adc64(t[0], spill_lo, c);
  t[1] = adc64(t[1], spill_hi, c);
  t[2] = adc64(t[2], 0, c);
  t[3] = adc64(t[3], 0, c);
  return fe_reduce_once(t, c);
}

// ct-lint: certified secret(a, b)
[[gnu::always_inline]] [[nodiscard]] inline Fe fe_mul(const Fe& a, const Fe& b) noexcept {
  return fe_reduce_wide(fe_mul_wide(a, b));
}

// ct-lint: certified secret(a)
[[gnu::always_inline]] [[nodiscard]] inline Fe fe_sqr(const Fe& a) noexcept {
  return fe_reduce_wide(fe_sqr_wide(a));
}

}  // namespace identxx::crypto::field
