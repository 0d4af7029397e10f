#include "crypto/key_tier.hpp"

#include <iterator>
#include <utility>

namespace identxx::crypto {

std::size_t KeyTierStore::entry_bytes(const Entry& e) const noexcept {
  std::size_t total = 0;
  if (e.hot) total += hot_table_bytes();
  if (e.warm) total += warm_table_bytes();
  return total;
}

void KeyTierStore::touch_lru(Map::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
}

void KeyTierStore::drop_tables(Map::iterator it) {
  Entry& e = it->second;
  const std::size_t freed = entry_bytes(e);
  if (freed == 0) return;
  bytes_ -= freed;
  if (e.tier == KeyTier::kHot) --hot_count_;
  if (e.tier == KeyTier::kWarm) --warm_count_;
  e.hot.reset();
  e.warm.reset();
  e.tier = KeyTier::kCold;
  lru_.erase(e.lru_pos);
  e.lru_pos = lru_.end();
}

bool KeyTierStore::reclaim(std::size_t needed, const detail::PointId& keep) {
  if (needed > config_.table_budget_bytes) return false;
  while (bytes_ + needed > config_.table_budget_bytes) {
    // Walk victims from the cold end, skipping the key being promoted.
    auto victim = lru_.end();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (*it != keep) {
        victim = std::next(it).base();
        break;
      }
    }
    if (victim == lru_.end()) return false;
    const auto vit = keys_.find(*victim);
    drop_tables(vit);
    // Demoted keys re-earn their table from scratch; otherwise a pair of
    // keys contending for the last slot would rebuild on every use.
    vit->second.count = 0;
    ++stats_.demotions;
  }
  return true;
}

void KeyTierStore::promote(Map::iterator it, KeyTier ceiling) {
  Entry& e = it->second;
  const bool wants_hot =
      ceiling == KeyTier::kHot && e.count >= config_.hot_after;
  const bool wants_warm = e.count >= config_.warm_after;
  if (e.tier == KeyTier::kHot || (!wants_warm && !wants_hot)) return;
  if (e.tier == KeyTier::kWarm && !wants_hot) return;

  const AffinePoint point = detail::point_from(it->first);
  if (wants_hot) {
    // Upgrading frees the warm table, so only the delta must fit.
    const std::size_t extra =
        hot_table_bytes() - (e.warm ? warm_table_bytes() : 0);
    if (!reclaim(extra, it->first)) {
      ++stats_.denied_builds;
      if (e.tier != KeyTier::kCold || !wants_warm) return;
      // Fall through: a hot build can be denied while a warm one fits.
    } else {
      auto table = std::make_shared<const FixedBaseTable>(point);
      if (e.warm) {
        bytes_ -= warm_table_bytes();
        e.warm.reset();
        --warm_count_;
      } else {
        lru_.push_front(it->first);
        e.lru_pos = lru_.begin();
      }
      e.hot = std::move(table);
      e.tier = KeyTier::kHot;
      bytes_ += hot_table_bytes();
      ++hot_count_;
      ++stats_.promotions;
      touch_lru(it);
      return;
    }
  }
  // Cold -> warm.
  if (!reclaim(warm_table_bytes(), it->first)) {
    ++stats_.denied_builds;
    return;
  }
  e.warm = std::make_shared<const GlvTable>(point);
  e.tier = KeyTier::kWarm;
  bytes_ += warm_table_bytes();
  ++warm_count_;
  ++stats_.promotions;
  lru_.push_front(it->first);
  e.lru_pos = lru_.begin();
}

void KeyTierStore::seed(Map::iterator it) {
  Entry& e = it->second;
  e.lru_pos = lru_.end();
  // Eager hot build strictly into free budget: small deployments keep the
  // register-then-verify fast path, fleet-scale ones start cold.
  if (bytes_ + hot_table_bytes() <= config_.table_budget_bytes) {
    e.hot =
        std::make_shared<const FixedBaseTable>(detail::point_from(it->first));
    e.tier = KeyTier::kHot;
    bytes_ += hot_table_bytes();
    ++hot_count_;
    ++stats_.promotions;
    lru_.push_front(it->first);
    e.lru_pos = lru_.begin();
  }
}

bool KeyTierStore::add(const AffinePoint& point) {
  if (point.infinity) return false;
  const auto [it, inserted] = keys_.try_emplace(detail::point_id(point));
  if (inserted) seed(it);
  return inserted;
}

void KeyTierStore::reconfigure(const KeyTierConfig& config) {
  config_ = config;
  lru_.clear();
  bytes_ = 0;
  hot_count_ = 0;
  warm_count_ = 0;
  stats_ = {};
  for (auto it = keys_.begin(); it != keys_.end(); ++it) {
    it->second = Entry{};
    seed(it);
  }
}

void KeyTierStore::remove(const AffinePoint& point) {
  const auto it = keys_.find(detail::point_id(point));
  if (it == keys_.end()) return;
  drop_tables(it);
  keys_.erase(it);
}

bool KeyTierStore::contains(const AffinePoint& point) const {
  return keys_.find(detail::point_id(point)) != keys_.end();
}

KeyTierStore::Tables KeyTierStore::use(const AffinePoint& point,
                                       std::uint64_t uses, KeyTier ceiling) {
  const auto it = keys_.find(detail::point_id(point));
  if (it == keys_.end()) return {};
  Entry& e = it->second;
  e.count += uses;
  if (e.tier != KeyTier::kHot) {
    promote(it, ceiling);
  }
  if (e.tier != KeyTier::kCold) touch_lru(it);
  return Tables{e.tier, e.hot, e.warm};
}

KeyTierStore::Tables KeyTierStore::peek(const AffinePoint& point) const {
  const auto it = keys_.find(detail::point_id(point));
  if (it == keys_.end()) return {};
  const Entry& e = it->second;
  return Tables{e.tier, e.hot, e.warm};
}

}  // namespace identxx::crypto
