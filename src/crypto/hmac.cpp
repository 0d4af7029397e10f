#include "crypto/hmac.hpp"

#include <array>
#include <cstring>

#include "crypto/ct.hpp"

namespace identxx::crypto {

// Single-shot HMAC-SHA256: the caller hands the key in and every
// key-derived intermediate (padded block, both pads, the inner digest) is
// wiped before returning, so secret-keyed hashing leaves no residue in
// any long-lived object (DESIGN.md §16).  Control flow depends only on
// lengths, which are public in every use here (32-byte keys, message
// digests).
// ct-lint: secret(key)
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) noexcept {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {  // ct-lint: allow(branch) length is public
    Digest hashed = Sha256::hash(key);
    std::memcpy(block.data(), hashed.data(), hashed.size());
    ct::secure_wipe(hashed);
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> inner_pad;
  std::array<std::uint8_t, 64> outer_pad;
  for (std::size_t i = 0; i < 64; ++i) {
    inner_pad[i] = static_cast<std::uint8_t>(block[i] ^ 0x36);
    outer_pad[i] = static_cast<std::uint8_t>(block[i] ^ 0x5c);
  }
  ct::secure_wipe(block);

  Sha256 inner;
  inner.update(std::span(inner_pad.data(), inner_pad.size()));
  inner.update(message);
  Digest inner_digest = inner.finish();
  ct::secure_wipe(inner_pad);

  Sha256 outer;
  outer.update(std::span(outer_pad.data(), outer_pad.size()));
  outer.update(std::span(inner_digest.data(), inner_digest.size()));
  ct::secure_wipe(outer_pad);
  const Digest out = outer.finish();
  ct::secure_wipe(inner_digest);
  return out;
}

// String convenience overload: forwards the same bytes.
// ct-lint: secret(key)
Digest hmac_sha256(std::string_view key, std::string_view message) noexcept {
  return hmac_sha256(
      std::span(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span(reinterpret_cast<const std::uint8_t*>(message.data()),
                message.size()));
}

}  // namespace identxx::crypto
