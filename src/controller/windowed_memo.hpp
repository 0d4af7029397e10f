#pragma once

// A time-windowed set: remembers when each key was last recorded and
// answers "was it recorded less than `window` ago?".  The ident++
// controller keeps two of these — consumed responses (channel-duplicate
// dedupe) and augmented transit responses (augment once per crossing) —
// see DESIGN.md §14.
//
// Expiry is insertion-ordered: every record() appends (time, key) to a
// FIFO and first pops the entries at least `window` old, so the memo
// holds at most the keys recorded in the last window and each record()
// costs amortised O(1).  No size cap is needed.  A popped FIFO entry
// erases its key only if the key was not refreshed since: a key recorded
// at t0 and again at t1 keeps living until t1 + window.
//
// Times passed to record() must be non-decreasing (simulated time).

#include <cstddef>
#include <deque>
#include <functional>
#include <unordered_map>

#include "sim/schedule.hpp"

namespace identxx::ctrl {

template <class Key, class Hash = std::hash<Key>>
class WindowedMemo {
 public:
  explicit WindowedMemo(sim::SimTime window) : window_(window) {}

  /// Was `key` recorded less than `window` before `now`?
  [[nodiscard]] bool contains(const Key& key, sim::SimTime now) const {
    const auto it = last_.find(key);
    return it != last_.end() && now - it->second < window_;
  }

  /// Remember `key` as recorded at `now`, expiring what fell out of the
  /// window.
  void record(const Key& key, sim::SimTime now) {
    while (!order_.empty() && now - order_.front().at >= window_) {
      const auto it = last_.find(order_.front().key);
      if (it != last_.end() && it->second == order_.front().at) {
        last_.erase(it);
      }
      order_.pop_front();
    }
    last_.insert_or_assign(key, now);
    order_.push_back({now, key});
  }

  /// Distinct keys held (all recorded within the window ending at the
  /// latest record()).
  [[nodiscard]] std::size_t size() const noexcept { return last_.size(); }

 private:
  struct Entry {
    sim::SimTime at;
    Key key;
  };

  sim::SimTime window_;
  std::unordered_map<Key, sim::SimTime, Hash> last_;
  std::deque<Entry> order_;
};

}  // namespace identxx::ctrl
