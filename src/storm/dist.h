// DistCoordinator — scatter/gather over real node daemons with failover.
//
// Completes the paper's deployment picture: where StormCluster simulates
// the node set in-process (one thread per node), DistCoordinator drives a
// set of adv_node daemons — separate OS processes, possibly separate
// hosts — over the wire protocol's distribution frames.  One query is
// scattered as per-node kNodeQuery requests; row batches from all nodes
// gather concurrently and merge into the same partition layout the
// in-process cluster produces, so results are differentially comparable
// (the dq harness does exactly that).
//
// Robustness model, per shard:
//   * Liveness: every frame (rows, progress, heartbeat) resets a liveness
//     clock; silence past `liveness_timeout_seconds` declares the daemon
//     dead.  A kill -9 usually announces itself sooner as a recv EOF.
//   * Exactly-once rows: batches are STAGED as they arrive and COMMITTED
//     only at kProgress(k) checkpoints.  On failure, staged-uncommitted
//     rows are discarded and the query re-issues on the next endpoint
//     with start_afc = committed prefix, which the daemon's checkpointed
//     streaming contract (see storm/node_daemon.h) guarantees is
//     gap- and duplicate-free.  Plan fingerprints from kNodeHello gate
//     the resume: a replica whose plan diverged is refused (kInternal).
//   * Stragglers: heartbeats that keep arriving with frozen progress
//     counters past `straggler_timeout_seconds` get the connection cut
//     and the shard re-issued — a live-but-stuck daemon is treated like a
//     dead one, minus the wait for a liveness timeout.
//   * Retry budget: endpoints (primary, then replicas, round robin) are
//     tried up to `max_attempts_per_shard` times; only retryable error
//     kinds (kIo, kInternal) consume further attempts, anything else
//     (kQuery, kValidation, kCancelled...) fails the shard immediately.
//   * Partial results: with `allow_partial_results`, shards that exhaust
//     their budget become typed Casualty entries and the gather returns
//     what the surviving nodes produced; otherwise run() throws the first
//     casualty's error.  Never a hang, never a duplicated row.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storm/cluster.h"

namespace adv::storm {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

// One node's shard and the daemons serving it.  replicas[0] is the
// primary; later entries are failover targets serving the same data (and,
// for resume to work, pruning with the same zone-map sidecar).
struct ShardConfig {
  int node_id = 0;
  std::vector<ShardEndpoint> replicas;
};

struct DistOptions {
  PartitionSpec partition;
  // Passed through to wire::connect_with_timeout per attempt; <= 0 blocks
  // indefinitely (not recommended for failover configurations).
  double connect_timeout_seconds = 2.0;
  // Per-node server-side deadline shipped in kNodeQuery; <= 0 = none.
  double deadline_seconds = 0;
  // Daemon heartbeat cadence; the liveness timeout should comfortably
  // exceed it (a handful of missed beats, not one).
  double heartbeat_interval_seconds = 0.05;
  double liveness_timeout_seconds = 2.0;
  // 0 disables straggler re-issue (frozen daemons then only die by
  // deadline or liveness timeout).
  double straggler_timeout_seconds = 0;
  // kProgress commit granularity requested of the daemon (in AFCs).
  uint32_t checkpoint_afcs = 1;
  // Checkpoint cadence for aggregation-pushdown queries, where what ships
  // at each checkpoint is a partial-aggregate DELTA (kAggBatch) instead of
  // row batches.  0 = one delta at the end of the scan (aggregate state is
  // tiny, so fine-grained checkpoints buy failover granularity, not
  // bandwidth).  See docs/AGGREGATION.md.
  uint32_t agg_checkpoint_afcs = 0;
  // Endpoint connections tried per shard before it becomes a casualty.
  // 0 = one attempt per configured replica, minimum 2 (a lone replica is
  // still allowed one reconnect — kill -9 mid-stream with no standby
  // should fail over to a fresh process of the same daemon if one
  // returns, and fail typed if not).
  std::size_t max_attempts_per_shard = 0;
  bool allow_partial_results = false;

  // Test/chaos hooks, called from gather threads (keep them cheap and
  // thread-safe).  on_commit fires after AFC prefix `committed` of
  // `node_id` is committed; on_failover fires when a shard re-issues,
  // with the attempt number and the casualty-to-be that caused it.
  std::function<void(int node_id, uint64_t committed)> on_commit;
  std::function<void(int node_id, std::size_t attempt,
                     const std::string& why)>
      on_failover;
};

// A shard that exhausted its failover budget (or hit a non-retryable
// error), with the classification the caller can dispatch on.
struct Casualty {
  int node_id = 0;
  ErrorKind kind = ErrorKind::kOther;
  std::string error;
  std::size_t attempts = 0;   // endpoint connections consumed
  uint64_t committed_afcs = 0;  // progress salvaged before giving up
};

struct DistResult {
  std::vector<expr::Table> partitions;   // one per consumer
  std::vector<NodeStats> node_stats;     // surviving shards, node order
  std::vector<Casualty> casualties;      // empty on full success
  double wall_seconds = 0;
  uint64_t failovers = 0;            // re-issues that were attempted
  uint64_t straggler_reissues = 0;   // subset of the above
  uint64_t commits = 0;              // kProgress checkpoints committed

  bool partial() const { return !casualties.empty(); }
  uint64_t total_rows() const;
  // Concatenation of all partitions (same shape as QueryResult::merged()).
  expr::Table merged() const& { return expr::Table::concat(partitions); }
  expr::Table merged() && {
    return expr::Table::concat(std::move(partitions));
  }
  std::string first_error() const;
  ErrorKind first_error_kind() const;
  std::vector<int> failed_nodes() const;
};

class DistCoordinator {
 public:
  DistCoordinator(std::vector<ShardConfig> shards, DistOptions opts);

  // Scatters `sql` to every shard, gathers concurrently, merges in node
  // order (so the output is independent of gather-thread timing).  Throws
  // ValidationError for a malformed shard map; throws the first shard
  // casualty's typed error unless allow_partial_results.
  DistResult run(const std::string& sql) const;

  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct ShardOutcome;
  void run_shard(const std::string& sql, const ShardConfig& shard,
                 ShardOutcome& out) const;

  std::vector<ShardConfig> shards_;
  DistOptions opts_;
};

}  // namespace adv::storm
