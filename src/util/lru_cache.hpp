// Thread-safe keyed LRU cache of shared values.  Eviction only drops the
// cache's reference, so a caller still using an evicted value keeps it
// alive.  The campaign server keeps two: deck plans keyed by deck content
// and session pools keyed by topology + session modes (sim::SessionPoolCache).
#ifndef VSSTAT_UTIL_LRU_CACHE_HPP
#define VSSTAT_UTIL_LRU_CACHE_HPP

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/error.hpp"

namespace vsstat::util {

template <class V>
class LruCache {
 public:
  using Factory = std::function<std::shared_ptr<V>()>;

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;  ///< one per inserted entry
    std::size_t evictions = 0;
  };

  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    require(capacity > 0, "LruCache: capacity must be > 0");
  }

  /// Returns the value for `key`, building it with `make` on a miss and
  /// evicting the least-recently-used entry when over capacity.  `make`
  /// runs outside the lock (a slow or throwing build stalls no other
  /// lookup and inserts nothing); when concurrent misses on one key race,
  /// the first insert wins and every caller gets its value.  `hit`, when
  /// given, reports whether the returned value was already resident.
  [[nodiscard]] std::shared_ptr<V> acquire(const std::string& key,
                                           const Factory& make,
                                           bool* hit = nullptr) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (std::shared_ptr<V> found = touch(key, hit)) return found;
    }
    std::shared_ptr<V> built = make();
    require(built != nullptr, "LruCache: factory returned null");
    const std::lock_guard<std::mutex> lock(mutex_);
    if (std::shared_ptr<V> first = touch(key, hit)) return first;
    ++stats_.misses;
    lru_.push_front(key);
    entries_.emplace(key, Entry{built, lru_.begin()});
    while (entries_.size() > capacity_) {
      ++stats_.evictions;
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
    return built;
  }

  /// True when the key is resident (does not touch recency; telemetry/tests).
  [[nodiscard]] bool contains(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(key) != 0;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  [[nodiscard]] Stats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  struct Entry {
    std::shared_ptr<V> value;
    std::list<std::string>::iterator position;
  };

  /// Under the lock: the resident value, counted as a hit and moved to the
  /// front -- or null.
  std::shared_ptr<V> touch(const std::string& key, bool* hit) {
    const auto it = entries_.find(key);
    if (hit != nullptr) *hit = it != entries_.end();
    if (it == entries_.end()) return nullptr;
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.position);
    return it->second.value;
  }

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::unordered_map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace vsstat::util

#endif  // VSSTAT_UTIL_LRU_CACHE_HPP
