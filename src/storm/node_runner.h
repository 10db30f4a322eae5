// NodeRunner — one node's share of a query, written once.
//
// The paper's STORM runs a data-source service, a partition-generation
// service and a data mover on every node (§2.3).  Both node backends run
// that work through this core: StormCluster's in-process node workers
// (run_node in cluster.cpp, which splits the AFC list into contiguous
// ranges over the extraction pool) and NodeDaemon (one range, checkpointed
// to its socket).  The core binds the plan's groups, numbers rows by scan
// position, extracts each AFC with a bounded retry for transient read
// faults, and feeds either a PartitionSink (plain queries) or an
// agg::PushdownSink (aggregation / top-k pushdown).  Internal to
// src/storm/.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agg/agg.h"
#include "storm/cluster.h"

namespace adv::storm {

// Per-worker output: extraction counters, shipping accounting, and any
// failure, written lock-free by exactly one range worker and merged into
// the node's NodeStats by add_worker_stats.  Errors travel as strings, not
// exceptions — an exception object rethrown across threads would be
// shared mutable state.
struct WorkerStats {
  codegen::ExtractStats extract;
  uint64_t bytes_sent = 0;
  double transfer_seconds = 0;
  uint64_t io_retries = 0;
  std::string error;
  ErrorKind error_kind = ErrorKind::kNone;
};

// Runs the node-local index function (zone-map pruning included).
afc::PlanResult plan_node(const codegen::DataServicePlan& plan,
                          const expr::BoundQuery& q, int node,
                          const afc::ChunkFilter* filter,
                          const CancelToken* cancel);
// Folds one range worker's counters into its node's stats; the first
// error wins.
void add_worker_stats(NodeStats& stats, const WorkerStats& ws);
// Counts one aggregation strategy a node ended on.
void count_strategy(NodeStats& stats, agg::Strategy s);
// Serializes a finished pushdown sink's state — what crosses the node
// boundary in place of rows — and counts its groups and bytes.
std::string ship_agg_state(agg::PushdownSink& sink, NodeStats& stats);

// The data-mover step of a PartitionSink: moves one full batch off the
// node and returns the simulated transfer seconds.  Called once per batch
// on the scanning thread; it may take the batch's data.
using ShipFn = std::function<double(RowBatch&)>;

// Partitions matched rows into per-consumer pending batches and ships full
// batches through a ShipFn.  Rows land in a batch directly from the
// extractor's decode buffer — no intermediate table or row copy.
class PartitionSink final : public codegen::RowSink {
 public:
  PartitionSink(int node, std::size_t ncols,
                const PartitionGenerationService& partsvc,
                std::size_t batch_rows, WorkerStats& ws,
                const CancelToken* cancel, ShipFn ship)
      : ncols_(ncols),
        partsvc_(partsvc),
        batch_rows_(batch_rows),
        ws_(ws),
        cancel_(cancel),
        ship_(std::move(ship)),
        pending_(static_cast<std::size_t>(partsvc.num_consumers())),
        mark_(pending_.size()) {
    for (std::size_t c = 0; c < pending_.size(); ++c)
      pending_[c] = RowBatch{node, static_cast<int>(c), ncols, {}};
  }

  // Scan-position sequence of the next AFC's first row.  Also marks the
  // pending-batch fill levels so a failed extraction of this AFC can be
  // rolled back.
  void begin_afc(uint64_t base_seq) {
    base_seq_ = base_seq;
    for (std::size_t c = 0; c < pending_.size(); ++c)
      mark_[c] = pending_[c].data.size();
    flushed_since_mark_ = false;
  }

  // Discards rows buffered since the last begin_afc, making an IoError
  // retry of that AFC safe.  Returns false when any batch was already
  // shipped since the mark — those rows are beyond recall, so the caller
  // must NOT retry and must fail instead.
  bool rollback_afc() {
    if (flushed_since_mark_) return false;
    for (std::size_t c = 0; c < pending_.size(); ++c)
      pending_[c].data.resize(mark_[c]);
    return true;
  }

  void on_row(const double* vals, uint64_t scan_index) override {
    const auto dest = static_cast<std::size_t>(
        partsvc_.destination(vals, base_seq_ + scan_index));
    RowBatch& b = pending_[dest];
    b.data.insert(b.data.end(), vals, vals + ncols_);
    if (b.num_rows() >= batch_rows_) flush(dest);
  }

  // With a single consumer the whole batch lands in one insert; otherwise
  // rows route individually, preserving on_row semantics exactly.
  void on_rows(const double* rows, std::size_t ncols, std::size_t nrows,
               const uint64_t* scan_index) override {
    if (pending_.size() == 1 &&
        partsvc_.spec().policy == PartitionSpec::Policy::kSingle) {
      RowBatch& b = pending_[0];
      b.data.insert(b.data.end(), rows, rows + nrows * ncols);
      if (b.num_rows() >= batch_rows_) flush(0);
      return;
    }
    for (std::size_t i = 0; i < nrows; ++i)
      on_row(rows + i * ncols, scan_index[i]);
  }

  void flush_all() {
    for (std::size_t c = 0; c < pending_.size(); ++c) flush(c);
  }

 private:
  void flush(std::size_t c) {
    RowBatch& b = pending_[c];
    if (b.data.empty()) return;
    flushed_since_mark_ = true;
    // The row-shipping poll: a cancelled query must not keep feeding the
    // data mover (whose consumer may be about to stop draining).
    if (cancel_) cancel_->check();
    ws_.bytes_sent += b.bytes();
    ws_.transfer_seconds += ship_(b);
    b.data.clear();
  }

  std::size_t ncols_;
  const PartitionGenerationService& partsvc_;
  std::size_t batch_rows_;
  WorkerStats& ws_;
  const CancelToken* cancel_;
  ShipFn ship_;
  std::vector<RowBatch> pending_;
  std::vector<std::size_t> mark_;
  bool flushed_since_mark_ = false;
  uint64_t base_seq_ = 0;
};

// One range worker's sink: a PartitionSink for plain queries, a
// PushdownSink for pushdown queries (exactly one is set).  A per-AFC hook
// may replace `agg` with a fresh sink between AFCs to cut a delta.
struct RangeSink {
  std::optional<PartitionSink> part;
  std::unique_ptr<agg::PushdownSink> agg;

  codegen::RowSink& rows() {
    return agg ? static_cast<codegen::RowSink&>(*agg) : *part;
  }
  void begin_afc(uint64_t base_seq) {
    if (agg) agg->begin_afc();
    else part->begin_afc(base_seq);
  }
  // A pushdown sink buffers the AFC as an uncommitted delta, so its
  // rollback always succeeds.
  bool rollback_afc() {
    return agg ? agg->rollback_afc() : part->rollback_afc();
  }
  // Ships every pending batch, or commits the pushdown sink's state.
  void finish() {
    if (agg) agg->finish();
    else part->flush_all();
  }
};

class NodeRunner {
 public:
  // Plans `node`'s share of `q` (unless `preplanned` is given) and records
  // the plan's size and pruning counters in `stats`.  `filter` (optional)
  // prunes the plan and seeds the aggregation strategy with zone-map
  // bounds.  Every reference must outlive the runner.
  NodeRunner(const codegen::DataServicePlan& plan, const expr::BoundQuery& q,
             int node, const afc::PlanResult* preplanned,
             const afc::ChunkFilter* filter, const ClusterOptions& opts,
             const CancelToken* cancel, NodeStats& stats);

  // Per-AFC hook of scan().  Both members are optional and run on the
  // scanning thread, outside the retry loop:
  //   * before(i) runs once before AFC i's first extraction attempt (after
  //     the cancel poll);
  //   * after(i) runs once AFC i extracted successfully — every row of
  //     AFCs [lo, i] is then in the range's sink (pending batches, or the
  //     pushdown sink's committed state), so finishing the sink here makes
  //     [lo, i] durable, and the hook may replace the sink's `agg`.
  // Either may throw; the exception ends the range exactly like a failed
  // extraction (it is never retried).
  struct AfcHook {
    std::function<void(std::size_t afc)> before;
    std::function<void(std::size_t afc)> after;
  };

  // Scans AFCs [lo, hi) in plan order into `sink`, then finishes it.  An
  // AFC whose extraction dies with an IoError is retried up to
  // ClusterOptions::io_retry_limit more times (exponential backoff),
  // provided the sink can roll its rows back; anything else throws.
  void scan(std::size_t lo, std::size_t hi, RangeSink& sink, WorkerStats& ws,
            const AfcHook* hook = nullptr) const;

  // A sink for one range; `ship` is used by plain queries only.
  RangeSink make_sink(int node, const PartitionGenerationService& partsvc,
                      WorkerStats& ws, ShipFn ship) const;
  std::unique_ptr<agg::PushdownSink> make_agg_sink() const;

  const afc::PlanResult& plan() const { return pr_; }
  bool pushdown() const { return pushdown_; }
  std::size_t num_afcs() const { return pr_.afcs.size(); }
  // row_base()[i] is AFC i's first scan-position row; the last entry is
  // the plan's row total.
  const std::vector<uint64_t>& row_base() const { return base_; }

 private:
  const expr::BoundQuery& q_;
  const afc::PlanResult planned_;  // empty when preplanned
  const afc::PlanResult& pr_;
  const ClusterOptions& opts_;
  const CancelToken* cancel_;
  const bool pushdown_;
  std::vector<codegen::GroupBinding> bindings_;
  std::vector<uint64_t> base_;
  codegen::ExtractorOptions xopts_;
  agg::StrategyChoice agg_choice_;
};

// Pushdown's last step: the merged aggregate's final rows, dealt to
// consumers by output row index and handed to `emit` in per-consumer
// batches of at most `batch_rows` rows (`emit` may move the rows out).
// StormCluster and DistCoordinator both end pushdown queries here, so their
// partitions agree bit for bit.
void emit_final_rows(const agg::MergeAcc& acc,
                     const PartitionGenerationService& partsvc,
                     std::size_t batch_rows,
                     const std::function<void(RowBatch&)>& emit);

}  // namespace adv::storm
