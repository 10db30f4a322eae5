// Versioned result cache with single-flight execution dedup — the serving
// layer's hot path (docs/SERVING.md §6).
//
// The cache maps a *fully qualified* query key to the materialized result
// of a previously served query.  The key is built by the caller
// (storm::QueryServer) as
//
//   <canonical SQL> "|" <partition spec> "|" <DataVersion hex>
//
// so two textually different but semantically identical queries share an
// entry (the SQL is canonicalized through the parser's printer, the same
// normalization PlanCache keys on), and any rewrite of the underlying data
// files or zone-map sidecars changes the version component — stale entries
// are never *found*, they just age out of the LRU.  Correctness therefore
// never depends on an invalidation callback firing.
//
// Eviction is byte-budgeted LRU: every entry is charged its materialized
// size (column names + row payload + replay blob) and the least recently
// used entries are dropped until the configured budget holds.  Entries
// larger than max_entry_bytes are never stored (a single giant scan must
// not wipe the cache) — but they still flow through single-flight, so
// concurrent identical giants execute once.
//
// Single-flight: when several connections miss on the same key at once,
// exactly one (the *leader*) executes; the rest (*followers*) block on the
// flight and are handed the leader's entry directly, even when it was too
// large to store.  A leader that fails publishes null and followers fall
// back to executing themselves — no re-election, no convoy.
//
// Fault site faultz::Site::kServeCache makes the cache *misbehave benignly*
// for differential campaigns: a firing lookup-hit poisons the entry (it is
// evicted and reported as a miss, with no single-flight join), and a firing
// insert is dropped.  Either way the caller executes for real, so served
// rows must stay byte-identical to an uncached run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "expr/table.h"

namespace adv::serve {

// One materialized query result.  Immutable once published: consumers share
// it by shared_ptr<const> and stream it straight into row batches.
struct ResultEntry {
  std::vector<expr::Table::Column> columns;  // schema, in projection order
  std::vector<expr::Table> partitions;       // result rows, one per consumer
  // Opaque replay blob, stored verbatim and returned on every hit.  The
  // query server keeps the serialized per-node stats section of the kStats
  // frame here so cache hits report the work the original execution did.
  std::vector<unsigned char> replay_blob;

  std::size_t charged_bytes() const;
};

using ResultEntryPtr = std::shared_ptr<const ResultEntry>;

class ResultCache {
 public:
  struct Options {
    // Total byte budget across entries; inserting past it evicts LRU-first.
    std::size_t capacity_bytes = 64ull << 20;
    // Entries above this are handed to waiting followers but never stored.
    std::size_t max_entry_bytes = 8ull << 20;
  };

  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;            // entry served from the cache
    uint64_t misses = 0;          // leader executions (includes poisoned hits)
    uint64_t coalesced = 0;       // followers handed a leader's entry
    uint64_t inserts = 0;
    uint64_t evictions = 0;       // LRU budget evictions
    uint64_t too_large = 0;       // entries skipped by max_entry_bytes
    uint64_t poisoned = 0;        // kServeCache fired (hit evicted / insert
                                  // dropped)
    std::size_t entries = 0;      // current
    std::size_t bytes = 0;        // current
  };

  // In-progress execution of one key, shared by its leader and followers.
  class Flight;
  using FlightPtr = std::shared_ptr<Flight>;

  struct Lookup {
    ResultEntryPtr entry;  // non-null: cache hit, serve it
    bool leader = false;   // miss and this caller must execute + publish()
    // Miss bookkeeping: the leader publishes here; a follower waits here.
    // Null when the hit was poisoned by kServeCache (execute uncached, no
    // publish).
    FlightPtr flight;
  };

  ResultCache() : ResultCache(Options{}) {}
  explicit ResultCache(Options opts);

  // Hit, or miss with a single-flight role.  A null `cancel` never blocks;
  // lookup itself never blocks either way — followers block in wait().
  Lookup lookup(const std::string& key, CancelToken* cancel = nullptr);

  // Leader hand-off: stores `entry` (unless null, too large, or dropped by
  // kServeCache) and wakes every follower with it.  Must be called exactly
  // once per leader lookup, null on failure.
  void publish(const FlightPtr& flight, ResultEntryPtr entry);

  // Follower wait: blocks until the leader publishes or `cancel` fires.
  // Null means the leader failed or the wait was cancelled — execute
  // uncached.
  ResultEntryPtr wait(const FlightPtr& flight, CancelToken* cancel = nullptr);

  // Direct insert without a flight (used when the caller bypassed
  // single-flight, e.g. after a poisoned hit).  Same size/fault gates as
  // publish().
  void insert(const std::string& key, ResultEntryPtr entry);

  // Drops every stored entry (in-flight executions are unaffected).
  void clear();

  Stats stats() const;
  const Options& options() const { return opts_; }

 private:
  struct Slot {
    ResultEntryPtr entry;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  void insert_locked(const std::string& key, ResultEntryPtr entry);
  void evict_to_budget_locked();
  void erase_locked(const std::string& key);

  const Options opts_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Slot> map_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, FlightPtr> flights_;
  std::unordered_map<Flight*, std::string> flight_keys_;
  std::size_t bytes_ = 0;
  Stats stats_;
};

// Serving-layer knobs for storm::QueryServer, grouped here so the server
// ctor takes one struct (docs/SERVING.md §6).
struct ServeOptions {
  // Result cache: off by default — front ends opt in because correctness
  // of a hit additionally depends on the DataVersion stat sweep, which a
  // deployment with exotic storage (no stable inode identity) may not
  // want.
  bool enable_result_cache = false;
  ResultCache::Options result_cache;
  // Server-side plan cache (bind + per-node index runs),
  // keyed like the result cache so data rewrites retire stale AFC lists.
  bool enable_plan_cache = true;
  std::size_t plan_cache_capacity = 32;
  // Zone-map sidecar directory folded into DataVersion; empty = data files
  // only.  Set it to the same directory the server's chunk filter was
  // loaded from, or a sidecar rebuild will not invalidate cached results.
  std::string version_sidecar_dir;
};

}  // namespace adv::serve
