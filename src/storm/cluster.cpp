#include "storm/cluster.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "agg/agg.h"
#include "common/env.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "faultz/faultz.h"

namespace adv::storm {

namespace {

// Per-worker output: extraction counters, shipping accounting, and any
// failure, written lock-free by exactly one worker and merged by the node
// after the joins.  Errors travel as strings, not exceptions — an
// exception object rethrown across threads would be shared mutable state.
struct WorkerStats {
  codegen::ExtractStats extract;
  uint64_t bytes_sent = 0;
  double transfer_seconds = 0;
  uint64_t io_retries = 0;
  std::string error;
  ErrorKind error_kind = ErrorKind::kNone;
};

// Sink that partitions matched rows into per-consumer pending batches and
// ships full batches through the data mover.  Rows land in a batch
// directly from the extractor's decode buffer — no intermediate table or
// row copy.  One instance per worker; the only cross-worker state it
// touches is the mover's channel, which is internally synchronized.
class PartitionSink final : public codegen::RowSink {
 public:
  PartitionSink(int node, std::size_t ncols, int nconsumers,
                const PartitionGenerationService& partsvc,
                DataMoverService& mover, std::size_t batch_rows,
                WorkerStats& ws, const CancelToken* cancel)
      : node_(node),
        ncols_(ncols),
        partsvc_(partsvc),
        mover_(mover),
        batch_rows_(batch_rows),
        ws_(ws),
        cancel_(cancel),
        pending_(static_cast<std::size_t>(nconsumers)) {
    for (int c = 0; c < nconsumers; ++c) reset(c);
  }

  // Scan-position sequence of the next AFC's first row.  Also marks the
  // current pending-batch fill levels so a failed extraction of this AFC
  // can be rolled back (see rollback_afc).
  void begin_afc(uint64_t base_seq) {
    base_seq_ = base_seq;
    for (std::size_t c = 0; c < pending_.size(); ++c)
      mark_[c] = pending_[c].data.size();
    flushed_since_mark_ = false;
  }

  // Discards rows buffered since the last begin_afc, making an IoError
  // retry of that AFC safe (re-extraction cannot duplicate rows).  Returns
  // false when any batch was already shipped since the mark — those rows
  // are beyond recall, so the caller must NOT retry and must fail instead.
  bool rollback_afc() {
    if (flushed_since_mark_) return false;
    for (std::size_t c = 0; c < pending_.size(); ++c)
      pending_[c].data.resize(mark_[c]);
    return true;
  }

  void on_row(const double* vals, uint64_t scan_index) override {
    int dest = partsvc_.destination(vals, base_seq_ + scan_index);
    RowBatch& b = pending_[static_cast<std::size_t>(dest)];
    b.data.insert(b.data.end(), vals, vals + ncols_);
    if (b.num_rows() >= batch_rows_) flush(dest);
  }

  // Bulk path for the vector kernel.  With a single consumer every
  // row has destination 0, so the whole batch lands in one insert; with
  // multiple consumers rows route individually (destinations depend on row
  // content / sequence), preserving on_row semantics exactly.
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
    for (std::size_t c = 0; c < pending_.size(); ++c)
      flush(static_cast<int>(c));
  }

 private:
  void reset(int c) {
    RowBatch& b = pending_[static_cast<std::size_t>(c)];
    b = RowBatch{};
    b.source_node = node_;
    b.consumer = c;
    b.num_cols = ncols_;
  }

  void flush(int c) {
    RowBatch& b = pending_[static_cast<std::size_t>(c)];
    if (b.data.empty()) return;
    flushed_since_mark_ = true;
    // The row-shipping poll: a cancelled query must not keep feeding the
    // data-mover channel (whose consumer may be about to stop draining).
    if (cancel_) cancel_->check();
    ws_.bytes_sent += b.bytes();
    ws_.transfer_seconds += mover_.send(std::move(b));
    reset(c);
  }

  int node_;
  std::size_t ncols_;
  const PartitionGenerationService& partsvc_;
  DataMoverService& mover_;
  std::size_t batch_rows_;
  WorkerStats& ws_;
  const CancelToken* cancel_;
  std::vector<RowBatch> pending_;
  std::vector<std::size_t> mark_ = std::vector<std::size_t>(pending_.size());
  bool flushed_since_mark_ = false;
  uint64_t base_seq_ = 0;
};

// Per-node worker: index -> parallel extract/filter -> partition -> ship.
// When `pool` is non-null the AFC list is split into contiguous ranges
// (balanced by row count, ~4 per pool thread) and scanned concurrently;
// each range worker owns its Extractor and PartitionSink.
// For pushdown queries `agg_out` (required then) receives the node's
// serialized partial-aggregate state; no row batches are shipped.
void run_node(int node, const codegen::DataServicePlan& plan,
              const expr::BoundQuery& q, const afc::ChunkFilter* filter,
              const PartitionGenerationService& partsvc,
              DataMoverService& mover, const ClusterOptions& opts,
              ThreadPool* pool, NodeStats& stats,
              const afc::PlanResult* preplanned = nullptr,
              const CancelToken* cancel = nullptr,
              std::string* agg_out = nullptr) {
  stats.node_id = node;
  Stopwatch busy;
  try {
    // Node-death campaign: the whole virtual node dies before planning.
    // The try below turns it into a typed per-node error; other nodes are
    // unaffected (that is the graceful-degradation contract under test).
    faultz::maybe_throw_io(faultz::Site::kNodeRun, "storm node worker died");
    afc::PlanResult planned;
    if (!preplanned) {
      afc::PlannerOptions popts;
      popts.filter = filter;
      popts.only_node = node;
      popts.cancel = cancel;
      planned = plan.index_fn(q, popts);
    }
    const afc::PlanResult& pr = preplanned ? *preplanned : planned;
    const std::size_t nafcs = pr.afcs.size();
    stats.afcs = nafcs;
    stats.afcs_pruned = pr.stats.afcs_filtered_by_index;
    stats.rows_pruned = pr.stats.rows_pruned;
    stats.bytes_skipped = pr.stats.bytes_skipped;

    std::vector<codegen::GroupBinding> bindings;
    bindings.reserve(pr.groups.size());
    for (const auto& g : pr.groups)
      bindings.push_back(codegen::bind_group(g, q, plan.schema()));

    // Ordering contract: rows are numbered by scan position.  AFC i's rows
    // start at the prefix sum of earlier AFCs' row counts — a numbering
    // that is a function of the plan alone, so kRoundRobin/kBlockCyclic
    // destinations are identical no matter how the list is split across
    // workers (or whether a predicate drops rows in between).
    std::vector<uint64_t> base(nafcs + 1, 0);
    for (std::size_t i = 0; i < nafcs; ++i)
      base[i + 1] = base[i] + pr.afcs[i].num_rows;

    const std::size_t ncols = q.select_slots().size();
    const int nconsumers = partsvc.num_consumers();
    codegen::ExtractorOptions xopts;
    xopts.io_mode = opts.io_mode;
    xopts.cancel = cancel;
    xopts.kernel_mode = opts.kernel_mode;

    // Aggregation / top-k pushdown: workers fold rows into local aggregate
    // state (one PushdownSink per range worker, merged below) instead of
    // partitioning and shipping them.  The strategy is chosen once from
    // the plan's cardinality hints so every worker of this query agrees.
    const bool pushdown = q.is_pushdown();
    agg::StrategyChoice agg_choice;
    if (pushdown && q.has_aggregates())
      agg_choice = agg::choose_strategy(
          q, pr, dynamic_cast<const afc::ChunkBoundsSource*>(filter));
    std::vector<std::unique_ptr<agg::PushdownSink>> psinks;

    auto scan_range = [&](std::size_t lo, std::size_t hi, WorkerStats& ws,
                          agg::PushdownSink* psink) {
      try {
        codegen::Extractor extractor(xopts);
        std::optional<PartitionSink> part;
        if (!psink)
          part.emplace(node, ncols, nconsumers, partsvc, mover,
                       opts.batch_rows, ws, cancel);
        codegen::RowSink& sink =
            psink ? static_cast<codegen::RowSink&>(*psink)
                  : static_cast<codegen::RowSink&>(*part);
        for (std::size_t i = lo; i < hi; ++i) {
          if (cancel) cancel->check();
          const afc::Afc& a = pr.afcs[i];
          // Bounded retry for transient read faults, valid only while no
          // row of this AFC left the sink: begin_afc marks the pending
          // batches and rollback_afc restores them, so a retried
          // extraction re-emits the same rows at the same scan positions.
          // Once a batch shipped, retrying would duplicate rows — the
          // error propagates instead.  (The pushdown sink buffers the AFC
          // as an uncommitted delta, so its rollback always succeeds.)
          for (std::size_t attempt = 0;; ++attempt) {
            if (psink) psink->begin_afc();
            else part->begin_afc(base[i]);
            try {
              ws.extract += extractor.extract(
                  pr.groups[static_cast<std::size_t>(a.group)], a,
                  bindings[static_cast<std::size_t>(a.group)], q, sink);
              break;
            } catch (const IoError&) {
              const bool rolled =
                  psink ? psink->rollback_afc() : part->rollback_afc();
              if (attempt >= opts.io_retry_limit || !rolled) throw;
              ++ws.io_retries;
              std::this_thread::sleep_for(std::chrono::microseconds(
                  opts.io_retry_backoff_us << attempt));
            }
          }
        }
        if (psink) psink->finish();
        else part->flush_all();
      } catch (const std::exception& e) {
        ws.error = e.what();
        ws.error_kind = classify_error(e);
      }
    };
    auto merge = [&stats](const WorkerStats& ws) {
      stats.bytes_read += ws.extract.bytes_read;
      stats.rows_scanned += ws.extract.rows_scanned;
      stats.rows_matched += ws.extract.rows_matched;
      stats.bytes_sent += ws.bytes_sent;
      stats.transfer_seconds += ws.transfer_seconds;
      stats.io_retries += ws.io_retries;
      stats.afcs_interp += ws.extract.afcs_interp;
      stats.afcs_vector += ws.extract.afcs_vector;
      if (stats.error.empty() && !ws.error.empty()) {
        stats.error = ws.error;
        stats.error_kind = ws.error_kind;
      }
    };

    // The pool is shared by every node worker, so size this node's range
    // fan-out for its *share* of the pool: every node splitting into
    // pool->size() * 4 ranges of its own would multiply the per-range
    // setup cost (extractor scratch, pread batch buffers, per-consumer
    // pending batches) by the node count without adding parallelism —
    // measurably slower on short filtered scans (see docs/PIPELINE.md).
    const std::size_t sharing =
        opts.parallel_nodes
            ? static_cast<std::size_t>(plan.model().num_nodes())
            : 1;
    std::size_t ntasks =
        pool ? std::min(nafcs,
                        std::max<std::size_t>(1, pool->size() * 4 / sharing))
             : 1;
    // Admission heuristic: don't split below ~min_rows_per_worker rows per
    // range — on small post-pruning scans the per-range setup cost exceeds
    // the parallel win and par-* configs lose to seq-* (docs/PIPELINE.md).
    uint64_t min_rows = opts.min_rows_per_worker;
    if (min_rows == 0)
      min_rows = static_cast<uint64_t>(
          std::max<int64_t>(1, env_int("ADV_MIN_ROWS_PER_WORKER", 64 * 1024)));
    ntasks = std::min<std::size_t>(
        ntasks,
        std::max<uint64_t>(1, base[nafcs] / min_rows));
    if (!pool || pool->size() <= 1 || ntasks <= 1) ntasks = 1;
    if (pushdown)
      for (std::size_t k = 0; k < ntasks; ++k)
        psinks.push_back(std::make_unique<agg::PushdownSink>(q, agg_choice));
    if (ntasks <= 1) {
      WorkerStats ws;
      scan_range(0, nafcs, ws, pushdown ? psinks[0].get() : nullptr);
      merge(ws);
    } else {
      // Contiguous ranges cut at balanced row counts, so one heavyweight
      // AFC doesn't serialize the tail.
      std::vector<std::size_t> cuts(ntasks + 1, nafcs);
      cuts[0] = 0;
      for (std::size_t k = 1; k < ntasks; ++k) {
        uint64_t target = base[nafcs] / ntasks * k;
        cuts[k] = static_cast<std::size_t>(
            std::lower_bound(base.begin(), base.begin() + nafcs, target) -
            base.begin());
      }
      std::vector<WorkerStats> wstats(ntasks);
      // The pool-level token check makes queued ranges of a cancelled
      // query return before constructing any per-range state (the ranges
      // themselves poll per AFC and per batch once running).
      pool->parallel_for(
          ntasks,
          [&](std::size_t k) {
            scan_range(cuts[k], cuts[k + 1], wstats[k],
                       pushdown ? psinks[k].get() : nullptr);
          },
          cancel);
      for (const WorkerStats& ws : wstats) merge(ws);
    }

    // Two-phase merge, phase one: fold every range worker's aggregate
    // state into one per-node state and serialize it — the only bytes
    // that cross the node boundary.  Merging is exact, so the worker
    // order is irrelevant to the final result.
    if (pushdown && stats.error.empty()) {
      faultz::maybe_throw_io(faultz::Site::kAggMerge,
                             "partial-aggregate merge failed");
      for (const auto& ps : psinks) {
        if (!ps->table()) continue;
        switch (ps->table()->strategy()) {
          case agg::Strategy::kDense: ++stats.agg_dense; break;
          case agg::Strategy::kHash: ++stats.agg_hash; break;
          case agg::Strategy::kRadix: ++stats.agg_radix; break;
        }
      }
      agg::PushdownSink& node_sink = *psinks[0];
      for (std::size_t k = 1; k < psinks.size(); ++k)
        psinks[k]->merge_into(node_sink);
      std::string enc;
      node_sink.encode(enc);
      stats.groups_emitted = node_sink.table() ? node_sink.table()->ngroups()
                                               : node_sink.topk()->nrows();
      stats.agg_bytes_shipped = enc.size();
      stats.bytes_sent += enc.size();
      if (agg_out) *agg_out = std::move(enc);
    }
  } catch (const Error& e) {
    stats.error = e.what();
    stats.error_kind = classify_error(e);
  } catch (const std::exception& e) {
    stats.error = e.what();
    stats.error_kind = classify_error(e);
  }
  stats.busy_seconds = busy.elapsed_seconds();
}

}  // namespace

int PartitionGenerationService::destination(const double* row,
                                            uint64_t row_seq) const {
  switch (spec_.policy) {
    case PartitionSpec::Policy::kSingle:
      return 0;
    case PartitionSpec::Policy::kRoundRobin:
      return static_cast<int>(row_seq % spec_.num_consumers);
    case PartitionSpec::Policy::kHashAttr: {
      double v = row[spec_.select_index];
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      return static_cast<int>(mix64(bits) %
                              static_cast<uint64_t>(spec_.num_consumers));
    }
    case PartitionSpec::Policy::kRangeAttr: {
      double v = row[spec_.select_index];
      double span = spec_.range_hi - spec_.range_lo;
      if (span <= 0) return 0;
      double t = (v - spec_.range_lo) / span;
      int dest = static_cast<int>(t * spec_.num_consumers);
      return std::clamp(dest, 0, spec_.num_consumers - 1);
    }
    case PartitionSpec::Policy::kBlockCyclic: {
      uint64_t block = spec_.block_size == 0 ? 1 : spec_.block_size;
      return static_cast<int>((row_seq / block) %
                              static_cast<uint64_t>(spec_.num_consumers));
    }
  }
  return 0;
}

StormCluster::StormCluster(std::shared_ptr<codegen::DataServicePlan> plan,
                           ClusterOptions opts)
    : plan_(std::move(plan)), opts_(opts), query_service_(plan_) {}

int StormCluster::num_nodes() const { return plan_->model().num_nodes(); }

ThreadPool* StormCluster::extraction_pool() {
  std::size_t t = opts_.threads_per_node;
  if (t == 0)
    t = static_cast<std::size_t>(env_int(
        "ADV_THREADS_PER_NODE",
        std::max<int64_t>(1, std::thread::hardware_concurrency())));
  if (t <= 1) return nullptr;
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (!pool_) pool_ = std::make_unique<ThreadPool>(t);
  return pool_.get();
}

QueryResult StormCluster::execute(const std::string& sql,
                                  const PartitionSpec& partition,
                                  const afc::ChunkFilter* filter,
                                  CancelToken* cancel) {
  Stopwatch plan_sw;
  expr::BoundQuery q = query_service_.submit(sql);
  QueryResult r = execute(q, partition, filter, cancel);
  r.plan_seconds += plan_sw.elapsed_seconds() - r.wall_seconds;
  return r;
}

QueryResult StormCluster::execute(const expr::BoundQuery& q,
                                  const PartitionSpec& partition,
                                  const afc::ChunkFilter* filter,
                                  CancelToken* cancel) {
  // Materializing execution is streaming execution draining into tables.
  std::vector<expr::Table> tables;
  for (int c = 0; c < std::max(1, partition.num_consumers); ++c)
    tables.emplace_back(q.result_columns());
  QueryResult result = execute_streaming(
      q,
      [&](const RowBatch& batch) {
        tables[static_cast<std::size_t>(batch.consumer)].append_rows(
            batch.data.data(), batch.num_rows());
      },
      partition, filter, nullptr, cancel);
  result.partitions = std::move(tables);
  return result;
}

std::vector<afc::PlanResult> StormCluster::plan_nodes(
    const expr::BoundQuery& q, const afc::ChunkFilter* filter) {
  std::vector<afc::PlanResult> plans;
  const int nodes = num_nodes();
  plans.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    afc::PlannerOptions popts;
    popts.filter = filter;
    popts.only_node = n;
    plans.push_back(plan_->index_fn(q, popts));
  }
  return plans;
}

QueryResult StormCluster::execute_planned(
    const expr::BoundQuery& q, const std::vector<afc::PlanResult>& node_plans,
    const PartitionSpec& partition, CancelToken* cancel) {
  if (node_plans.size() != static_cast<std::size_t>(num_nodes()))
    throw QueryError("execute_planned: expected one plan per node");
  std::vector<expr::Table> tables;
  for (int c = 0; c < std::max(1, partition.num_consumers); ++c)
    tables.emplace_back(q.result_columns());
  QueryResult result = execute_streaming(
      q,
      [&](const RowBatch& batch) {
        tables[static_cast<std::size_t>(batch.consumer)].append_rows(
            batch.data.data(), batch.num_rows());
      },
      partition, nullptr, &node_plans, cancel);
  result.partitions = std::move(tables);
  return result;
}

QueryResult StormCluster::execute_streaming(
    const expr::BoundQuery& q, const BatchSink& sink,
    const PartitionSpec& partition, const afc::ChunkFilter* filter,
    const std::vector<afc::PlanResult>* node_plans, CancelToken* cancel) {
  if (partition.num_consumers < 1)
    throw QueryError("PartitionSpec.num_consumers must be >= 1");
  // Pushdown queries partition *final* rows (result-column order); plain
  // queries partition scan rows (select-slot order).
  const bool pushdown = q.is_pushdown();
  const std::size_t part_width =
      pushdown ? q.result_columns().size() : q.select_slots().size();
  if ((partition.policy == PartitionSpec::Policy::kHashAttr ||
       partition.policy == PartitionSpec::Policy::kRangeAttr) &&
      (partition.select_index < 0 ||
       static_cast<std::size_t>(partition.select_index) >= part_width))
    throw QueryError("PartitionSpec.select_index out of range");

  Stopwatch wall;
  const int nodes = num_nodes();
  QueryResult result;
  result.node_stats.resize(static_cast<std::size_t>(nodes));

  auto channel = std::make_shared<Channel<RowBatch>>(256);
  DataMoverService mover(channel, opts_.transfer);
  PartitionGenerationService partsvc(partition);
  ThreadPool* pool = extraction_pool();

  if (node_plans && node_plans->size() != static_cast<std::size_t>(nodes))
    throw QueryError("execute_streaming: expected one plan per node");
  std::vector<std::string> agg_states(static_cast<std::size_t>(nodes));
  auto node_body = [&](int n) {
    run_node(n, *plan_, q, filter, partsvc, mover, opts_, pool,
             result.node_stats[static_cast<std::size_t>(n)],
             node_plans ? &(*node_plans)[static_cast<std::size_t>(n)]
                        : nullptr,
             cancel, &agg_states[static_cast<std::size_t>(n)]);
  };

  // A sink that throws (a remote consumer hung up mid-stream) must not
  // leak node workers blocked on a never-drained channel: capture the
  // first sink failure, cancel the query so producers stop scanning, keep
  // draining the channel (discarding batches), and rethrow only after
  // every worker joined.
  std::exception_ptr sink_error;
  auto guarded_sink = [&](const RowBatch& batch) {
    if (sink_error) return;
    try {
      sink(batch);
    } catch (...) {
      sink_error = std::current_exception();
      if (cancel) cancel->cancel();
    }
  };

  if (opts_.parallel_nodes) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) workers.emplace_back(node_body, n);
    // Close the channel once every node finished.
    std::thread closer([&] {
      for (auto& w : workers) w.join();
      channel->close();
    });
    // Client side: hand batches to the sink as they arrive.
    while (auto batch = channel->pop()) guarded_sink(*batch);
    closer.join();
  } else {
    // Sequential mode: run one node at a time, draining its output after it
    // finishes.  The per-node channel is unbounded so a node never blocks
    // on its own undrained batches.
    for (int n = 0; n < nodes; ++n) {
      auto ch = std::make_shared<Channel<RowBatch>>(
          std::numeric_limits<std::size_t>::max());
      DataMoverService seq_mover(ch, opts_.transfer);
      run_node(n, *plan_, q, filter, partsvc, seq_mover, opts_, pool,
               result.node_stats[static_cast<std::size_t>(n)],
               node_plans ? &(*node_plans)[static_cast<std::size_t>(n)]
                          : nullptr,
               cancel, &agg_states[static_cast<std::size_t>(n)]);
      ch->close();
      while (auto batch = ch->pop()) guarded_sink(*batch);
    }
  }
  // Two-phase merge, phase two: fold the surviving nodes' serialized
  // states (exact — node order is immaterial), materialize the final
  // deterministically-ordered rows, and hand them to the sink as synthetic
  // batches partitioned by *final* row index.  Failed nodes contribute
  // nothing: partial results for a pushdown query are aggregates over the
  // surviving nodes' data.
  if (pushdown && !sink_error) {
    agg::MergeAcc acc(agg::finalize_spec(q));
    for (int n = 0; n < nodes; ++n)
      if (result.node_stats[static_cast<std::size_t>(n)].error.empty())
        acc.merge_encoded(agg_states[static_cast<std::size_t>(n)]);
    const std::vector<double> rows = acc.finalize_rows();
    const std::size_t out_cols = static_cast<std::size_t>(acc.spec().ncols);
    std::vector<RowBatch> out(
        static_cast<std::size_t>(partition.num_consumers));
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c].consumer = static_cast<int>(c);
      out[c].num_cols = out_cols;
    }
    const std::size_t nrows = out_cols ? rows.size() / out_cols : 0;
    for (std::size_t i = 0; i < nrows; ++i) {
      const double* row = rows.data() + i * out_cols;
      const int dest = partsvc.destination(row, i);
      RowBatch& b = out[static_cast<std::size_t>(dest)];
      b.data.insert(b.data.end(), row, row + out_cols);
      if (b.num_rows() >= opts_.batch_rows) {
        guarded_sink(b);
        b.data.clear();
      }
    }
    for (RowBatch& b : out)
      if (!b.data.empty()) guarded_sink(b);
  }
  if (sink_error) std::rethrow_exception(sink_error);

  result.wall_seconds = wall.elapsed_seconds();
  for (const auto& ns : result.node_stats)
    result.makespan_seconds = std::max(
        result.makespan_seconds, ns.busy_seconds + ns.transfer_seconds);
  return result;
}

uint64_t QueryResult::total_rows() const {
  uint64_t n = 0;
  for (const auto& p : partitions) n += p.num_rows();
  return n;
}

uint64_t QueryResult::total_bytes_read() const {
  uint64_t n = 0;
  for (const auto& s : node_stats) n += s.bytes_read;
  return n;
}

uint64_t QueryResult::total_afcs_pruned() const {
  uint64_t n = 0;
  for (const auto& s : node_stats) n += s.afcs_pruned;
  return n;
}

uint64_t QueryResult::total_rows_pruned() const {
  uint64_t n = 0;
  for (const auto& s : node_stats) n += s.rows_pruned;
  return n;
}

uint64_t QueryResult::total_bytes_skipped() const {
  uint64_t n = 0;
  for (const auto& s : node_stats) n += s.bytes_skipped;
  return n;
}

uint64_t QueryResult::total_io_retries() const {
  uint64_t n = 0;
  for (const auto& s : node_stats) n += s.io_retries;
  return n;
}

uint64_t QueryResult::total_afcs_interp() const {
  uint64_t n = 0;
  for (const auto& s : node_stats) n += s.afcs_interp;
  return n;
}

uint64_t QueryResult::total_afcs_vector() const {
  uint64_t n = 0;
  for (const auto& s : node_stats) n += s.afcs_vector;
  return n;
}

uint64_t QueryResult::total_groups_emitted() const {
  uint64_t n = 0;
  for (const auto& s : node_stats) n += s.groups_emitted;
  return n;
}

uint64_t QueryResult::total_agg_bytes_shipped() const {
  uint64_t n = 0;
  for (const auto& s : node_stats) n += s.agg_bytes_shipped;
  return n;
}

expr::Table QueryResult::merged() const {
  expr::Table out = partitions.empty() ? expr::Table() : partitions[0];
  for (std::size_t i = 1; i < partitions.size(); ++i)
    out.append_table(partitions[i]);
  return out;
}

std::string QueryResult::first_error() const {
  for (const auto& s : node_stats)
    if (!s.error.empty()) return s.error;
  return "";
}

ErrorKind QueryResult::first_error_kind() const {
  for (const auto& s : node_stats)
    if (!s.error.empty()) return s.error_kind;
  return ErrorKind::kNone;
}

std::vector<int> QueryResult::failed_nodes() const {
  std::vector<int> out;
  for (const auto& s : node_stats)
    if (!s.error.empty()) out.push_back(s.node_id);
  return out;
}

}  // namespace adv::storm
