// ct_lint self-test fixture: every function here leaks on purpose, and
// fixtures/leaky.expected pins the exact findings the lint must emit.
// This file is analyzed, never compiled (U256/expand are stand-ins).

#include <cstdint>

namespace fixture {

// A wNAF-style nonce walk: branches on secret scalar bits — the exact
// shape the constant-time comb in ct_sign.hpp replaces.
// ct-lint: secret(k)
std::uint64_t leaky_double_and_add(std::uint64_t k) {
  std::uint64_t acc = 0;
  while (k > 0) {
    if (k & 1) {
      acc += 3;
    }
    k = k >> 1;
  }
  return acc;
}

// Secret-indexed table lookup: a classic cache side channel.
// ct-lint: secret(idx)
std::uint64_t leaky_table_lookup(const std::uint64_t* table,
                                 std::uint64_t idx) {
  return table[idx & 15];
}

// Variable-time operators on the secret.
// ct-lint: secret(d)
std::uint64_t leaky_divmod(std::uint64_t d) {
  const std::uint64_t q = d / 3;
  return q + d % 7;
}

std::uint64_t wnaf(std::uint64_t s);

// Secret handed to an unvetted helper (e.g. reverting the nonce chain to
// the variable-time wNAF machinery).
// ct-lint: secret(nonce)
std::uint64_t leaky_call(std::uint64_t nonce) {
  return wnaf(nonce);
}

U256 expand(std::uint64_t seed);

// Raw secret bytes never wiped before the function exits.
// ct-lint: secret(seed)
std::uint64_t leaky_no_wipe(std::uint64_t seed) {
  U256 scratch = expand(seed);
  return 0;
}

// A certified template and an unannotated overload of the same name.
// Callees are vetted by bare name, so the overload's secret-dependent
// branch would be trusted unread; the lint demands its own annotation.
// ct-lint: certified secret(a, b)
template <class L>
L fp_add_ct(L a, L b) {
  return a ^ b;
}

std::uint64_t fp_add_ct(std::uint64_t a, std::uint64_t b) {
  if (a > b) {
    return a - b;
  }
  return b - a;
}

}  // namespace fixture
