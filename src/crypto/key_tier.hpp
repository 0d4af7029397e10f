#pragma once

// KeyTierStore: memory-budgeted acceleration tables for registered keys.
//
// A fleet-scale shard tracks 10^6+ principals, but per-key comb tables are
// ~69 KB each — a full-table policy would need tens of gigabytes.  This
// store keeps the *key set* unbounded (a few dozen bytes per key) and
// spends a fixed byte budget on acceleration tables only, chosen by verify
// frequency (DESIGN.md §15):
//
//   hot   — full fixed-base comb table (~69 KB): chain-free verification.
//   warm  — GLV odd-multiples table (~1.3 KB): half-length chain, every
//           addition mixed.
//   cold  — no table: per-call GLV (the ec_mul_add_glv floor).
//
// Registration never evicts: a new key gets an eager hot table only if it
// fits in *free* budget (preserving the register-then-verify fast path of
// small deployments), otherwise it starts cold.  Promotion is driven by
// use(): a key crossing `warm_after` / `hot_after` verifications earns the
// corresponding table, evicting the least-recently-used tables of other
// keys if the budget requires it — so a revocation storm of one-shot
// principals cannot strip the daemons that sign every flow.  Demoted keys
// restart cold (count reset): they must re-earn their table, which keeps a
// ping-ponging pair from thrashing builds.
//
// Byte accounting is explicit: table_bytes() is the exact sum of
// sizeof(FixedBaseTable) / sizeof(GlvTable) held, and never exceeds
// config.table_budget_bytes.

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "crypto/ec.hpp"
#include "crypto/key_id.hpp"

namespace identxx::crypto {

enum class KeyTier : std::uint8_t { kCold = 0, kWarm = 1, kHot = 2 };

struct KeyTierConfig {
  /// Byte ceiling for acceleration tables (keys themselves are unbounded).
  std::size_t table_budget_bytes = 64u << 20;
  /// Verifications before a cold key earns a warm GLV table.
  std::uint64_t warm_after = 2;
  /// Verifications before a warm key earns a hot comb table.
  std::uint64_t hot_after = 8;

  bool operator==(const KeyTierConfig&) const = default;
};

class KeyTierStore {
 public:
  struct Stats {
    std::uint64_t promotions = 0;     ///< tables built (warm or hot)
    std::uint64_t demotions = 0;      ///< tables evicted to reclaim budget
    std::uint64_t denied_builds = 0;  ///< promotions skipped: cannot fit
  };

  /// Snapshot of a key's acceleration state.  The shared_ptrs keep the
  /// tables alive even if a later use() on another key evicts them (batch
  /// verification touches many keys before multiplying).
  struct Tables {
    KeyTier tier = KeyTier::kCold;
    std::shared_ptr<const FixedBaseTable> hot;
    std::shared_ptr<const GlvTable> warm;
  };

  explicit KeyTierStore(const KeyTierConfig& config = {}) : config_(config) {}

  [[nodiscard]] static constexpr std::size_t hot_table_bytes() noexcept {
    return sizeof(FixedBaseTable);
  }
  [[nodiscard]] static constexpr std::size_t warm_table_bytes() noexcept {
    return sizeof(GlvTable);
  }

  /// Track `point`; false if it is the identity or already tracked.
  /// Builds an eager hot table only when it fits in free budget — never
  /// evicts on behalf of a registration.
  bool add(const AffinePoint& point);

  /// Replace the budget and thresholds, keeping the key set: every table,
  /// use count and stat restarts, and eager hot tables are re-seeded in
  /// key-map order — what add() would do for each key into a fresh store.
  /// The map itself is kept, so its order does not depend on how many
  /// times the store was reconfigured.
  void reconfigure(const KeyTierConfig& config);

  /// Forget `point` and free its tables.
  void remove(const AffinePoint& point);

  [[nodiscard]] bool contains(const AffinePoint& point) const;

  /// Record `uses` verifications against `point` and return its (possibly
  /// just-promoted) tables.  Promotion stops at `ceiling`; a key already
  /// above it keeps its tables.  Unknown points are cold and stay
  /// untracked.
  Tables use(const AffinePoint& point, std::uint64_t uses = 1,
             KeyTier ceiling = KeyTier::kHot);

  /// Current tables without touching counts or recency.
  [[nodiscard]] Tables peek(const AffinePoint& point) const;

  [[nodiscard]] std::size_t table_bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t key_count() const noexcept { return keys_.size(); }
  [[nodiscard]] std::size_t hot_count() const noexcept { return hot_count_; }
  [[nodiscard]] std::size_t warm_count() const noexcept { return warm_count_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const KeyTierConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    std::uint64_t count = 0;
    KeyTier tier = KeyTier::kCold;
    std::shared_ptr<const FixedBaseTable> hot;
    std::shared_ptr<const GlvTable> warm;
    /// Position in lru_ when this entry holds a table.
    std::list<detail::PointId>::iterator lru_pos;
  };
  using Map = std::unordered_map<detail::PointId, Entry, detail::PointIdHash>;

  [[nodiscard]] std::size_t entry_bytes(const Entry& e) const noexcept;
  void touch_lru(Map::iterator it);
  void drop_tables(Map::iterator it);
  /// Evict least-recently-used tables (not `keep`) until `needed` extra
  /// bytes fit.  Returns false (leaving the budget as-is) if impossible.
  bool reclaim(std::size_t needed, const detail::PointId& keep);
  void promote(Map::iterator it, KeyTier ceiling);
  /// Eager hot build for a key with a fresh Entry, strictly into free
  /// budget (add, reconfigure).
  void seed(Map::iterator it);

  KeyTierConfig config_;
  Map keys_;
  std::list<detail::PointId> lru_;  ///< front = most recently used
  std::size_t bytes_ = 0;
  std::size_t hot_count_ = 0;
  std::size_t warm_count_ = 0;
  Stats stats_;
};

}  // namespace identxx::crypto
