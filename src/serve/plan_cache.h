// LRU cache of planning outcomes for repeated queries.
//
// Planning a query — bind + one index-function run per virtual node, each
// walking the dataset's file groups and consulting the chunk filter — is
// pure: it depends only on the compiled descriptor and the query text.
// Both front ends cache the result — VirtualTable keyed by (descriptor
// hash, normalized query shape), QueryServer additionally folding the
// serve::DataVersion in so a data rewrite retires the plan (its AFC lists
// embed file paths).  The shape is the parsed query printed back to
// canonical SQL so formatting differences ("select *" vs "SELECT  *")
// share one entry.  A hit replays the exact per-node AFC lists of the
// cold run through StormCluster::execute_planned / execute_streaming.
#pragma once

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

  explicit CachedPlan(expr::BoundQuery q) : query(std::move(q)) {}
};

// Thread-safe LRU map.  Entries are shared_ptr<const CachedPlan> so an
// in-flight query keeps its plan alive even if the cache evicts it.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {}

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };

  // Returns the entry for `key` (marking it most-recently-used) or null,
  // counting a hit or miss.
  std::shared_ptr<const CachedPlan> find(const std::string& key);

  // Inserts (or replaces) `key`, evicting the least-recently-used entry
  // beyond capacity.
  void insert(const std::string& key, std::shared_ptr<const CachedPlan> plan);

  void clear();
  Stats stats() const;

 private:
  using Lru =
      std::list<std::pair<std::string, std::shared_ptr<const CachedPlan>>>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  Lru lru_;  // front = most recently used
  std::unordered_map<std::string, Lru::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace adv
