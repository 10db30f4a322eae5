// StormCluster — the virtual parallel machine.
//
// One worker thread per storage node.  Each node runs the generated index
// function restricted to its own files, then extracts, filters, partitions,
// and ships its AFC list — in parallel across a shared intra-node thread
// pool when `threads_per_node` > 1: the AFC list is split into contiguous
// ranges, each range is scanned by a worker with its own Extractor and its
// own per-consumer pending batches (no shared mutable state), and batches
// flow straight into the data-mover channel.  Rows are numbered by their
// scan position in the node's AFC list, so a row's destination consumer
// under kRoundRobin/kBlockCyclic is identical whether the node scans with
// 1 thread or 64 (see docs/PIPELINE.md for the ordering contract).  The
// client thread collects the batches and allocates each consumer's
// columns; once the nodes finish, the pool transposes the batches into
// them (docs/PIPELINE.md §1, stage 4).
//
// Aggregation / top-k pushdown (docs/AGGREGATION.md): for queries where
// BoundQuery::is_pushdown() holds, workers fold matched rows into local
// aggregate state instead of shipping them.  Worker states merge into one
// per-node state, the serialized node states merge at the client (exactly —
// results are byte-identical for any thread count or merge order), and the
// *final* rows are partitioned by their output row index and handed to the
// sink, so every consumer-facing path works unchanged.
//
// Timing: the host may have fewer cores than the virtual cluster has
// nodes, so per-node *busy time* is measured around each node's compute,
// and the reported `makespan_seconds` = max over nodes (what wall-clock
// time would be on a real cluster with one CPU per node).  `wall_seconds`
// is the actual host wall time.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/kernel_mode.h"
#include "common/thread_pool.h"
#include "storm/services.h"

namespace adv::storm {

struct NodeStats {
  int node_id = 0;
  double busy_seconds = 0;          // compute + local I/O
  double transfer_seconds = 0;      // simulated network time
  uint64_t afcs = 0;
  uint64_t bytes_read = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t bytes_sent = 0;
  // Work the chunk filter (zone map) removed before this
  // node's extraction started: AFCs dropped, rows never scanned, bytes
  // never read.
  uint64_t afcs_pruned = 0;
  uint64_t rows_pruned = 0;
  uint64_t bytes_skipped = 0;
  // Transient read faults healed by the bounded per-AFC retry (the node
  // still succeeded; the count is how many extra attempts it took).
  uint64_t io_retries = 0;
  // Which kernel loop extracted this node's AFCs (one count per AFC).
  uint64_t afcs_interp = 0;
  uint64_t afcs_vector = 0;
  // Aggregation pushdown (docs/AGGREGATION.md): groups (or buffered top-k
  // rows) this node emitted, the serialized partial-aggregate state size
  // that crossed the node boundary in place of rows, and how many range
  // workers ended on each physical aggregation strategy (a hash worker
  // that upgraded itself mid-scan counts as radix).
  uint64_t groups_emitted = 0;
  uint64_t agg_bytes_shipped = 0;
  uint64_t agg_dense = 0;
  uint64_t agg_hash = 0;
  uint64_t agg_radix = 0;
  std::string error;  // non-empty when the node failed
  // Category of `error`, so callers can distinguish an I/O casualty (retry
  // the query, fail over) from a cancelled query or a query-shape bug
  // without parsing message text.
  ErrorKind error_kind = ErrorKind::kNone;
};

struct QueryResult {
  std::vector<expr::Table> partitions;  // one per consumer
  std::vector<NodeStats> node_stats;
  double makespan_seconds = 0;  // max over nodes of busy+transfer
  double wall_seconds = 0;
  double plan_seconds = 0;      // query bind + global sanity checks

  uint64_t total_rows() const;
  uint64_t total_bytes_read() const;
  uint64_t total_afcs_pruned() const;
  uint64_t total_rows_pruned() const;
  uint64_t total_bytes_skipped() const;
  uint64_t total_io_retries() const;
  uint64_t total_afcs_interp() const;
  uint64_t total_afcs_vector() const;
  uint64_t total_groups_emitted() const;
  uint64_t total_agg_bytes_shipped() const;
  // Concatenation of all partitions; the rvalue overload moves the first
  // partition instead of copying it.
  expr::Table merged() const& { return expr::Table::concat(partitions); }
  expr::Table merged() && {
    return expr::Table::concat(std::move(partitions));
  }
  // First error reported by any node ("" when none).
  std::string first_error() const;
  // Kind of the first node error (kNone when every node succeeded).
  ErrorKind first_error_kind() const;
  // Node ids that reported an error, in node order.
  std::vector<int> failed_nodes() const;
};

struct ClusterOptions {
  TransferModel transfer;           // network model (default: not modeled)
  std::size_t batch_rows = 4096;    // rows per shipped batch
  bool parallel_nodes = true;       // false: run nodes sequentially
  // Extraction workers sharing one pool across all nodes of this cluster;
  // 0 = env ADV_THREADS_PER_NODE, defaulting to hardware_concurrency;
  // 1 = scan each node's AFC list inline.
  std::size_t threads_per_node = 0;
  // Transient-read recovery: an AFC whose extraction dies with an IoError
  // is retried up to `io_retry_limit` more times (exponential backoff
  // starting at `io_retry_backoff_us`), provided none of its rows were
  // already shipped — a flaky read heals invisibly, a hard fault still
  // fails the node after the budget.  0 disables retry.
  std::size_t io_retry_limit = 2;
  uint64_t io_retry_backoff_us = 100;
  // Extraction kernel loop: vector in production; interp is the reference
  // loop the oracle and the differential harness pin.
  KernelMode kernel_mode = KernelMode::kVector;
  // Admission heuristic: a node splits its AFC list into at most
  // total_rows / min_rows_per_worker parallel ranges, so each range worker
  // amortizes its setup (extractor scratch, per-consumer pending batches)
  // over a meaningful row count and par-* configs never lose to seq-* on
  // small post-pruning scans.  Values below 1 act as 1.
  uint64_t min_rows_per_worker = 64 * 1024;
};

class StormCluster {
 public:
  StormCluster(std::shared_ptr<codegen::DataServicePlan> plan,
               ClusterOptions opts = {});

  int num_nodes() const;
  const QueryService& query_service() const { return query_service_; }

  // Executes a query across all virtual nodes.  Throws QueryError /
  // ParseError for malformed queries; per-node runtime failures (I/O) are
  // reported in NodeStats::error instead of aborting other nodes.
  //
  // `cancel` (optional) is the query's cooperative cancellation token: it
  // is polled inside the per-node AFC planner, before every AFC and every
  // extraction batch, and on the row-shipping path, so a fired token (an
  // explicit cancel or an expired deadline) releases this cluster's pool
  // workers within one extraction batch.  Cancellation surfaces as the
  // affected nodes' NodeStats::error, or as CancelledError when the token
  // fires while shipped rows are being assembled; concurrently executing
  // queries with other tokens are unaffected.  The token is also *fired
  // by* the cluster when a streaming sink throws (the consumer is gone),
  // so producers stop instead of scanning for a dead connection.
  QueryResult execute(const std::string& sql,
                      const PartitionSpec& partition = {},
                      const afc::ChunkFilter* filter = nullptr,
                      CancelToken* cancel = nullptr);
  QueryResult execute(const expr::BoundQuery& q,
                      const PartitionSpec& partition = {},
                      const afc::ChunkFilter* filter = nullptr,
                      CancelToken* cancel = nullptr);

  // Streaming execution: row batches are handed to `sink` as nodes produce
  // them instead of being materialized into tables (the callback runs on
  // the client thread; batches from different nodes interleave, and the
  // sink may move a batch's rows out).  The returned QueryResult carries
  // stats only — its partitions are empty.  A sink exception cancels the
  // query (when it has a token), drains the remaining batches, and is
  // rethrown once every node worker joined.
  using BatchSink = std::function<void(RowBatch&)>;
  QueryResult execute_streaming(const expr::BoundQuery& q,
                                const BatchSink& sink,
                                const PartitionSpec& partition = {},
                                const afc::ChunkFilter* filter = nullptr,
                                const std::vector<afc::PlanResult>*
                                    node_plans = nullptr,
                                CancelToken* cancel = nullptr);

  // Executes against precomputed per-node plans (node_plans[n] is the
  // index-function result for node n, with any chunk filter already
  // applied), skipping the per-node planning step entirely.  This is the
  // plan-cache fast path: a cached hit replays the exact AFC lists the
  // cold run produced.
  QueryResult execute_planned(const expr::BoundQuery& q,
                              const std::vector<afc::PlanResult>& node_plans,
                              const PartitionSpec& partition = {},
                              CancelToken* cancel = nullptr);

  // Runs the per-node index function for every node (as execute() would)
  // and returns the plans, one per node.
  std::vector<afc::PlanResult> plan_nodes(
      const expr::BoundQuery& q, const afc::ChunkFilter* filter = nullptr);

  // Lazily-built pool shared by all node workers (and all concurrent
  // queries) of this cluster; null while threads_per_node resolves to 1.
  // Public so open-time index builds can reuse the same workers.
  ThreadPool* extraction_pool();

 private:
  std::shared_ptr<codegen::DataServicePlan> plan_;
  ClusterOptions opts_;
  QueryService query_service_;
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace adv::storm
