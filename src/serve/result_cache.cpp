#include "serve/result_cache.h"

#include <chrono>

#include "faultz/faultz.h"

namespace adv::serve {

std::size_t ResultEntry::charged_bytes() const {
  return sizeof(ResultEntry) + frames.size() + replay_blob.size();
}

// The flight is a tiny latch: the leader sets `done` (entry may be null on
// failure) and broadcasts; followers wait with a poll period so a cancelled
// client stops waiting promptly without the leader having to know about it.
class ResultCache::Flight {
 public:
  void publish(ResultEntryPtr e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entry_ = std::move(e);
      done_ = true;
    }
    cv_.notify_all();
  }

  ResultEntryPtr wait(CancelToken* cancel) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      if (cancel != nullptr && cancel->cancelled()) return nullptr;
      cv_.wait_for(lock, std::chrono::milliseconds(20));
    }
    return entry_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  ResultEntryPtr entry_;
};

ResultCache::ResultCache(Options opts) : opts_(opts) {}

ResultCache::Lookup ResultCache::lookup(const std::string& key,
                                        CancelToken* cancel) {
  (void)cancel;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = map_.find(key);
  if (it != map_.end()) {
    if (faultz::FaultPlan::instance().should_fire(
            faultz::Site::kServeCache)) {
      // Poisoned hit: drop the entry and make the caller execute uncached
      // (leader without a flight, so the later insert is skipped too).
      ++stats_.poisoned;
      ++stats_.misses;
      erase_locked(key);
      return Lookup{nullptr, true, nullptr};
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return Lookup{it->second.entry, false, nullptr};
  }
  ++stats_.misses;
  auto fit = flights_.find(key);
  if (fit != flights_.end()) {
    ++stats_.coalesced;
    --stats_.misses;  // a follower is not an execution
    return Lookup{nullptr, false, fit->second};
  }
  auto flight = std::make_shared<Flight>();
  flights_.emplace(key, flight);
  flight_keys_.emplace(flight.get(), key);
  return Lookup{nullptr, true, flight};
}

void ResultCache::publish(const FlightPtr& flight, ResultEntryPtr entry) {
  if (flight == nullptr) return;
  std::string key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto kit = flight_keys_.find(flight.get());
    if (kit != flight_keys_.end()) {
      key = kit->second;
      flight_keys_.erase(kit);
      flights_.erase(key);
    }
    if (entry != nullptr && !key.empty()) insert_locked(key, entry);
  }
  flight->publish(std::move(entry));
}

ResultEntryPtr ResultCache::wait(const FlightPtr& flight,
                                 CancelToken* cancel) {
  if (flight == nullptr) return nullptr;
  return flight->wait(cancel);
}

void ResultCache::insert(const std::string& key, ResultEntryPtr entry) {
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  insert_locked(key, std::move(entry));
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  bytes_ = 0;
  stats_.entries = 0;
  stats_.bytes = 0;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ResultCache::insert_locked(const std::string& key, ResultEntryPtr entry) {
  std::size_t bytes = entry->charged_bytes();
  if (bytes > opts_.max_entry_bytes || bytes > opts_.capacity_bytes) {
    ++stats_.too_large;
    return;
  }
  if (faultz::FaultPlan::instance().should_fire(faultz::Site::kServeCache)) {
    ++stats_.poisoned;
    return;
  }
  erase_locked(key);  // replace, never double-charge
  lru_.push_front(key);
  map_.emplace(key, Slot{std::move(entry), bytes, lru_.begin()});
  bytes_ += bytes;
  ++stats_.inserts;
  evict_to_budget_locked();
  stats_.entries = map_.size();
  stats_.bytes = bytes_;
}

void ResultCache::evict_to_budget_locked() {
  while (bytes_ > opts_.capacity_bytes && !lru_.empty()) {
    ++stats_.evictions;
    erase_locked(lru_.back());
  }
}

void ResultCache::erase_locked(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  stats_.entries = map_.size();
  stats_.bytes = bytes_;
}

}  // namespace adv::serve
