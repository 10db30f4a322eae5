// LRU cache of planning outcomes for repeated queries.
//
// Planning a query — bind + one index-function run per virtual node, each
// walking the dataset's file groups and consulting the chunk filter — is
// pure: it depends only on the compiled descriptor, the query text and the
// front end's in-memory chunk filter, none of which a data rewrite
// changes.  Both front ends cache the result — VirtualTable keyed by
// (descriptor hash, normalized query shape), QueryServer by the shape
// alone.  The shape is the parsed query printed back to canonical SQL so
// formatting differences ("select *" vs "SELECT  *") share one entry.  A
// hit replays the exact per-node AFC lists of the cold run through
// StormCluster::execute_planned / execute_streaming.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "afc/types.h"
#include "expr/predicate.h"

namespace adv {

// One cached planning outcome: the bound query plus the per-node
// index-function results (chunk filter already applied).
struct CachedPlan {
  expr::BoundQuery query;
  std::vector<afc::PlanResult> node_plans;  // node_plans[n] serves node n
  // afc::plan_footprint of node_plans: the model files QueryServer folds
  // into the query's serve::DataVersion (empty in VirtualTable's entries).
  std::vector<uint32_t> footprint;

  explicit CachedPlan(expr::BoundQuery q) : query(std::move(q)) {}
};

// Thread-safe segmented LRU map.  A new key enters on probation; its
// first hit moves it to the protected segment, which holds at most three
// quarters of the capacity and drops its least recently used entry back to
// probation when it overflows.  Evictions take probation's least recently
// used entry, so a stream of one-shot queries cannot push out the plans
// that repeat.  Entries are shared_ptr<const CachedPlan> so an in-flight
// query keeps its plan alive even if the cache evicts it.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity)
      : capacity_(capacity),
        protected_capacity_(
            capacity > 0 ? capacity - std::max<std::size_t>(1, capacity / 4)
                         : 0) {}

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };

  // Returns the entry for `key` (moving it to the front of the protected
  // segment) or null, counting a hit or miss.
  std::shared_ptr<const CachedPlan> find(const std::string& key);

  // Inserts `key` on probation (or replaces it and treats the insert as a
  // use), evicting probation's least-recently-used entry beyond capacity.
  void insert(const std::string& key, std::shared_ptr<const CachedPlan> plan);

  void clear();
  Stats stats() const;

 private:
  struct Slot {
    std::string key;
    std::shared_ptr<const CachedPlan> plan;
    bool kept = false;  // in protected_
  };
  using Lru = std::list<Slot>;

  // Moves `slot` to the front of protected_, demoting that segment's least
  // recently used entry to probation_ when it overflows.
  void touch_locked(Lru::iterator slot);

  mutable std::mutex mu_;
  const std::size_t capacity_;
  // Leaves probation at least one slot, so an insert never evicts itself.
  const std::size_t protected_capacity_;
  Lru probation_;  // front = most recently used
  Lru protected_;  // front = most recently used
  std::unordered_map<std::string, Lru::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace adv
