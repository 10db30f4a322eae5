// VirtualTable — the one-class front door to a virtualized dataset.
//
// Bundles descriptor compilation, optional zone-map construction or
// loading, a plan cache for repeated queries, and cluster execution behind
// a minimal interface:
//
//   auto vt = adv::codegen::VirtualTable::open(descriptor_text,
//                                              "IparsData", data_root);
//   adv::expr::Table rows = vt.query(
//       "SELECT * FROM IparsData WHERE TIME BETWEEN 10 AND 20");
//
// For anything more controlled (partitioning, transfer models, per-node
// stats, emitted code), drop down to DataServicePlan / StormCluster.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "serve/plan_cache.h"
#include "codegen/plan.h"
#include "storm/cluster.h"
#include "zonemap/zonemap.h"

namespace adv {

class VirtualTable {
 public:
  struct Options {
    // Directory holding the zone-map sidecar (<dataset>.zm).
    // When set, a fresh sidecar is loaded at open time; entries for data
    // files rewritten since the build are dropped (stale metadata falls
    // back to full scans, never wrong answers).
    std::string zonemap_dir;
    // Build the zone map at open time (one parallel scan over every chunk,
    // reusing the cluster's extraction pool).  With zonemap_dir set the
    // build runs only when no fresh sidecar loads, and the result is saved
    // there; without it the zone map stays in memory.
    bool build_zonemap = false;
    // Cached plans for repeated queries (0 disables the cache).
    std::size_t plan_cache_capacity = 16;
    // Verify file presence/sizes at open time; throws IoError listing the
    // first problem when the check fails.
    bool verify = false;
    // Graceful degradation: when some (but not all) nodes fail, return the
    // surviving nodes' rows instead of throwing.  The failures stay visible
    // in the result (NodeStats::error / error_kind, failed_nodes()), so
    // callers opting in can tell a complete answer from a partial one.
    // Cancellation still throws — a cancelled query has no answer to give.
    bool partial_results = false;
    storm::ClusterOptions cluster;
  };

  // Opens from descriptor text (native or XML, auto-detected).
  static VirtualTable open(const std::string& descriptor_text,
                           const std::string& dataset_name,
                           const std::string& root_path,
                           const Options& options);
  static VirtualTable open(const std::string& descriptor_text,
                           const std::string& dataset_name,
                           const std::string& root_path) {
    return open(descriptor_text, dataset_name, root_path, Options());
  }

  const meta::Schema& schema() const { return plan_->schema(); }
  int num_nodes() const { return cluster_->num_nodes(); }
  uint64_t total_candidate_rows() const;
  bool has_zonemap() const { return zonemap_.has_value(); }

  // Executes a query across the virtual cluster and returns merged rows.
  // `cancel` (optional) is a cooperative cancellation token threaded down
  // through the AFC planner and extraction workers.
  //
  // Node failures rethrow typed by the failing node's error kind:
  // CancelledError for a fired token / expired deadline, QueryError for a
  // query-shape problem, IoError for everything storage-related.  With
  // Options::partial_results set, a query where at least one node
  // succeeded returns the surviving rows instead (inspect
  // query_detailed()'s result for the casualty list).
  expr::Table query(const std::string& sql,
                    CancelToken* cancel = nullptr) const;

  // Full result with per-node statistics and optional partitioning.
  storm::QueryResult query_detailed(
      const std::string& sql, const storm::PartitionSpec& partition = {},
      CancelToken* cancel = nullptr) const;

  // The chunk filter queries run with: the zone map when present, else
  // null.
  const afc::ChunkFilter* chunk_filter() const;

  // Cache key for `sql`: descriptor hash + the query's canonical printed
  // form (so formatting-only differences share an entry).  Exposed for
  // tests.
  std::string plan_key(const std::string& sql) const;

  // The underlying pieces, for advanced use.
  const codegen::DataServicePlan& plan() const { return *plan_; }
  storm::StormCluster& cluster() const { return *cluster_; }
  const zonemap::ZoneMap* zone_map() const {
    return zonemap_ ? &*zonemap_ : nullptr;
  }
  PlanCache* plan_cache() const { return plan_cache_.get(); }
  PlanCache::Stats plan_cache_stats() const {
    return plan_cache_ ? plan_cache_->stats() : PlanCache::Stats{};
  }

 private:
  VirtualTable() = default;

  std::shared_ptr<codegen::DataServicePlan> plan_;
  std::shared_ptr<storm::StormCluster> cluster_;
  std::optional<zonemap::ZoneMap> zonemap_;
  std::shared_ptr<PlanCache> plan_cache_;
  uint64_t descriptor_hash_ = 0;
  bool partial_results_ = false;
};

}  // namespace adv
