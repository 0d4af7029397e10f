#pragma once

// Constant-time discipline layer (DESIGN.md §16).
//
// The ident++ threat model (§5 of the paper) includes a *local* attacker
// co-resident with the signing daemon: verify handles only public data, but
// sign touches the long-term key d and the nonce k, and a variable-time
// sign path leaks them through branches, cache lines, and division timing.
// This header provides the three mechanisms the sign path is built on:
//
//  1. `ct::secret<T>` — a type-level marker for key material.  Holding a
//     value in `secret<T>` (a) zeroizes it on destruction via
//     `secure_wipe`, and (b) makes every read site greppable/lintable:
//     the only accessor is `expose_secret()`, which `tools/ct_lint` treats
//     as a taint source.
//
//  2. Branchless primitives — `ct_select`, `ct_swap`, `ct_eq_mask`, masked
//     conditional subtraction — over a limb type `L`.  All of them compile
//     to straight-line mask arithmetic with no branches, no secret-indexed
//     loads, and no variable-time operators.
//
//  3. `TracedLimb` — a shadow-execution limb in the ctgrind style: the
//     templated sign kernel (ct_sign.hpp) instantiated with `L=TracedLimb`
//     runs the *same* code as production (`L=std::uint64_t`) but carries a
//     taint bit per limb.  Any secret-dependent branch (bool conversion /
//     comparison), variable-time operator (/ %), or secret shift count
//     throws `TraceViolation`; secret-indexed loads cannot even compile,
//     because TracedLimb has no integral conversion.  tests/ct_trace_test
//     runs sign end-to-end under poisoned inputs; the IDENTXX_CT_TRACE
//     build mode makes every production sign() self-check this way.
//
// The lint annotations (`// ct-lint: ...`) are consumed by tools/ct_lint.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "crypto/field.hpp"

namespace identxx::crypto::ct {

// ---- zeroization ------------------------------------------------------------

/// memset that the optimizer cannot elide: the empty asm consumes the
/// pointer after the write, so dead-store elimination must keep it.
// ct-lint: certified
inline void secure_wipe(void* p, std::size_t n) noexcept {
  std::memset(p, 0, n);
  __asm__ __volatile__("" : : "r"(p) : "memory");
}

/// Wipe a trivially-copyable object in place.
// ct-lint: certified
template <class T>
inline void secure_wipe(T& obj) noexcept {
  static_assert(std::is_trivially_copyable_v<T>,
                "secure_wipe needs a trivially copyable object");
  secure_wipe(static_cast<void*>(&obj), sizeof(T));
}

// ---- secret<T> --------------------------------------------------------------

/// Type-level marker for key material.  The wrapped value is wiped on
/// destruction; reads go through expose_secret(), which tools/ct_lint
/// treats as a taint source, so every use of the raw value is analyzed.
template <class T>
class secret {
  static_assert(std::is_trivially_copyable_v<T>,
                "secret<T> needs a trivially copyable T (it is wiped as bytes)");

 public:
  secret() = default;
  explicit secret(const T& v) noexcept : v_(v) {}
  secret(const secret& other) noexcept = default;
  secret& operator=(const secret& other) noexcept = default;
  ~secret() { secure_wipe(v_); }

  /// The only read access.  The name is the lint's taint source marker.
  // ct-lint: certified
  [[nodiscard]] const T& expose_secret() const noexcept { return v_; }

 private:
  T v_;
};

/// Marks an intentional secret -> public transition (the signature bytes,
/// a validity verdict the API surfaces anyway).  tools/ct_lint treats the
/// result as untainted; keep every call site justifiable in review.
// ct-lint: certified
template <class T>
[[nodiscard]] inline T declassify(T v) noexcept {
  return v;
}

// ---- dynamic tracing --------------------------------------------------------

/// Thrown by TracedLimb when a tainted value reaches a branch decision,
/// a variable-time operator, or a shift count.
struct TraceViolation : std::runtime_error {
  explicit TraceViolation(const char* what) : std::runtime_error(what) {}
};

[[noreturn]] inline void trace_fail(const char* op) {
  throw TraceViolation(op);
}

/// Shadow-execution limb: a uint64_t plus a taint bit.  Data flow (bit
/// ops, add/sub/mul, constant shifts) propagates taint; control flow and
/// variable-time operations on tainted values throw.  No integral
/// conversion exists, so a tainted value can never become an array index.
struct TracedLimb {
  std::uint64_t v = 0;
  bool t = false;

  constexpr TracedLimb() = default;
  constexpr TracedLimb(std::uint64_t x) noexcept : v(x) {}  // public lift

  [[nodiscard]] static constexpr TracedLimb secret_value(std::uint64_t x) noexcept {
    TracedLimb l;
    l.v = x;
    l.t = true;
    return l;
  }

  [[nodiscard]] static constexpr TracedLimb with_taint(std::uint64_t x,
                                                       bool taint) noexcept {
    TracedLimb l;
    l.v = x;
    l.t = taint;
    return l;
  }

  // Data flow: taint propagates.
  friend constexpr TracedLimb operator+(TracedLimb a, TracedLimb b) noexcept {
    return with_taint(a.v + b.v, a.t || b.t);
  }
  friend constexpr TracedLimb operator-(TracedLimb a, TracedLimb b) noexcept {
    return with_taint(a.v - b.v, a.t || b.t);
  }
  friend constexpr TracedLimb operator*(TracedLimb a, TracedLimb b) noexcept {
    return with_taint(a.v * b.v, a.t || b.t);
  }
  friend constexpr TracedLimb operator&(TracedLimb a, TracedLimb b) noexcept {
    return with_taint(a.v & b.v, a.t || b.t);
  }
  friend constexpr TracedLimb operator|(TracedLimb a, TracedLimb b) noexcept {
    return with_taint(a.v | b.v, a.t || b.t);
  }
  friend constexpr TracedLimb operator^(TracedLimb a, TracedLimb b) noexcept {
    return with_taint(a.v ^ b.v, a.t || b.t);
  }
  constexpr TracedLimb operator~() const noexcept { return with_taint(~v, t); }
  constexpr TracedLimb operator-() const noexcept {
    return with_taint(0 - v, t);
  }
  constexpr TracedLimb& operator+=(TracedLimb o) noexcept { return *this = *this + o; }
  constexpr TracedLimb& operator-=(TracedLimb o) noexcept { return *this = *this - o; }
  constexpr TracedLimb& operator|=(TracedLimb o) noexcept { return *this = *this | o; }
  constexpr TracedLimb& operator&=(TracedLimb o) noexcept { return *this = *this & o; }
  constexpr TracedLimb& operator^=(TracedLimb o) noexcept { return *this = *this ^ o; }

  // Shifts by a public (plain integer) count propagate taint; shifts by a
  // traced count are secret-dependent latency on some cores — refuse.
  friend constexpr TracedLimb operator<<(TracedLimb a, unsigned n) noexcept {
    return with_taint(a.v << n, a.t);
  }
  friend constexpr TracedLimb operator>>(TracedLimb a, unsigned n) noexcept {
    return with_taint(a.v >> n, a.t);
  }
  friend TracedLimb operator<<(TracedLimb a, TracedLimb n) {
    if (n.t) trace_fail("secret-dependent shift count");
    return with_taint(a.v << n.v, a.t);
  }
  friend TracedLimb operator>>(TracedLimb a, TracedLimb n) {
    if (n.t) trace_fail("secret-dependent shift count");
    return with_taint(a.v >> n.v, a.t);
  }

  // Variable-time operators: refuse on taint.
  friend TracedLimb operator/(TracedLimb a, TracedLimb b) {
    if (a.t || b.t) trace_fail("secret-dependent division");
    return TracedLimb(a.v / b.v);
  }
  friend TracedLimb operator%(TracedLimb a, TracedLimb b) {
    if (a.t || b.t) trace_fail("secret-dependent modulo");
    return TracedLimb(a.v % b.v);
  }

  // Control flow: converting a tainted limb into a branchable bool is
  // exactly the leak the discipline forbids.
  explicit operator bool() const {
    if (t) trace_fail("secret-dependent branch (bool conversion)");
    return v != 0;
  }
  friend bool operator==(TracedLimb a, TracedLimb b) {
    if (a.t || b.t) trace_fail("secret-dependent branch (==)");
    return a.v == b.v;
  }
  friend bool operator!=(TracedLimb a, TracedLimb b) { return !(a == b); }
  friend bool operator<(TracedLimb a, TracedLimb b) {
    if (a.t || b.t) trace_fail("secret-dependent branch (<)");
    return a.v < b.v;
  }
  friend bool operator>(TracedLimb a, TracedLimb b) { return b < a; }
  friend bool operator<=(TracedLimb a, TracedLimb b) { return !(b < a); }
  friend bool operator>=(TracedLimb a, TracedLimb b) { return !(a < b); }
};

// ---- limb traits ------------------------------------------------------------
//
// The templated kernels in ct_sign.hpp are written against these four
// operations; uint64_t gets field.hpp's carry helpers, TracedLimb the
// shadow path.  Everything else (masks, selects, field arithmetic) is
// generic.

using field::u128;

/// lo = (a * b) mod 2^64, hi = (a * b) >> 64.
// ct-lint: certified
inline std::uint64_t ct_mul64(std::uint64_t a, std::uint64_t b,
                              std::uint64_t& hi) noexcept {
  return field::mul64(a, b, hi);
}

// ct-lint: certified
inline TracedLimb ct_mul64(TracedLimb a, TracedLimb b, TracedLimb& hi) noexcept {
  const u128 p = static_cast<u128>(a.v) * b.v;
  const bool taint = a.t || b.t;
  hi = TracedLimb::with_taint(static_cast<std::uint64_t>(p >> 64), taint);
  return TracedLimb::with_taint(static_cast<std::uint64_t>(p), taint);
}

/// sum = a + b + carry_in; carry (0/1) updated in place.
// ct-lint: certified
inline std::uint64_t ct_adc(std::uint64_t a, std::uint64_t b,
                            std::uint64_t& carry) noexcept {
  auto c = static_cast<unsigned char>(carry);
  const std::uint64_t sum = field::adc64(a, b, c);
  carry = c;
  return sum;
}

// ct-lint: certified
inline TracedLimb ct_adc(TracedLimb a, TracedLimb b, TracedLimb& carry) noexcept {
  const u128 s = static_cast<u128>(a.v) + b.v + carry.v;
  const bool taint = a.t || b.t || carry.t;
  carry = TracedLimb::with_taint(static_cast<std::uint64_t>(s >> 64), taint);
  return TracedLimb::with_taint(static_cast<std::uint64_t>(s), taint);
}

/// diff = a - b - borrow_in; borrow (0/1) updated in place.
// ct-lint: certified
inline std::uint64_t ct_sbb(std::uint64_t a, std::uint64_t b,
                            std::uint64_t& borrow) noexcept {
  auto br = static_cast<unsigned char>(borrow);
  const std::uint64_t diff = field::sbb64(a, b, br);
  borrow = br;
  return diff;
}

// ct-lint: certified
inline TracedLimb ct_sbb(TracedLimb a, TracedLimb b, TracedLimb& borrow) noexcept {
  const u128 d = static_cast<u128>(a.v) - b.v - borrow.v;
  const bool taint = a.t || b.t || borrow.t;
  borrow = TracedLimb::with_taint(static_cast<std::uint64_t>(d >> 64) & 1, taint);
  return TracedLimb::with_taint(static_cast<std::uint64_t>(d), taint);
}

/// The raw 64-bit value, shedding any taint.  Only for declassified data
/// (the lint's `declassify` rule applies at the call site above this).
// ct-lint: certified
[[nodiscard]] inline std::uint64_t ct_limb_value(std::uint64_t x) noexcept {
  return x;
}
// ct-lint: certified
[[nodiscard]] inline std::uint64_t ct_limb_value(TracedLimb x) noexcept {
  return x.v;
}

// ---- branchless primitives --------------------------------------------------

/// All-ones mask from a 0/1 bit.
// ct-lint: certified secret(bit)
template <class L>
[[nodiscard]] constexpr L ct_mask_from_bit(L bit) noexcept {
  return L(0) - bit;
}

/// mask ? a : b, with mask all-ones or all-zeros.
// ct-lint: certified secret(mask, a, b)
template <class L>
[[nodiscard]] constexpr L ct_select(L mask, L a, L b) noexcept {
  return b ^ (mask & (a ^ b));
}

/// 1 when x is nonzero, else 0 — branchless: x | -x has its top bit set
/// exactly when x != 0.
// ct-lint: certified secret(x)
template <class L>
[[nodiscard]] constexpr L ct_nonzero_bit(L x) noexcept {
  return (x | (L(0) - x)) >> 63;
}

/// All-ones when a == b, else all-zeros.
// ct-lint: certified secret(a, b)
template <class L>
[[nodiscard]] constexpr L ct_eq_mask(L a, L b) noexcept {
  return ~ct_mask_from_bit(ct_nonzero_bit(a ^ b));
}

/// Branchless equality of two public-width byte strings with secret
/// content (tag comparisons): returns 1 on equal, 0 otherwise, touching
/// every byte regardless.
// ct-lint: certified secret(a, b)
[[nodiscard]] inline bool ct_eq(const std::uint8_t* a, const std::uint8_t* b,
                                std::size_t n) noexcept {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return acc == 0;
}

/// Conditionally swap two limbs under a mask (all-ones swaps).
// ct-lint: certified secret(mask, a, b)
template <class L>
constexpr void ct_swap(L mask, L& a, L& b) noexcept {
  const L diff = mask & (a ^ b);
  a = a ^ diff;
  b = b ^ diff;
}

}  // namespace identxx::crypto::ct
