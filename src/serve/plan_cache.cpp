#include "serve/plan_cache.h"

#include <iterator>

namespace adv {

std::shared_ptr<const CachedPlan> PlanCache::find(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses_++;
    return nullptr;
  }
  hits_++;
  touch_locked(it->second);
  return it->second->plan;
}

void PlanCache::insert(const std::string& key,
                       std::shared_ptr<const CachedPlan> plan) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->plan = std::move(plan);
    touch_locked(it->second);
    return;
  }
  probation_.push_front({key, std::move(plan)});
  map_[key] = probation_.begin();
  while (map_.size() > capacity_) {
    map_.erase(probation_.back().key);
    probation_.pop_back();
  }
}

void PlanCache::touch_locked(Lru::iterator slot) {
  protected_.splice(protected_.begin(), slot->kept ? protected_ : probation_,
                    slot);
  slot->kept = true;
  if (protected_.size() > protected_capacity_) {
    auto last = std::prev(protected_.end());
    last->kept = false;
    probation_.splice(probation_.begin(), protected_, last);
  }
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  probation_.clear();
  protected_.clear();
  map_.clear();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {hits_, misses_, map_.size(), capacity_};
}

}  // namespace adv
