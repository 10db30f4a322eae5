#include "storm/cluster.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <thread>

#include "agg/agg.h"
#include "common/env.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "faultz/faultz.h"
#include "storm/node_runner.h"

namespace adv::storm {

namespace {

// Per-node worker: index -> parallel extract/filter -> partition -> ship.
// When `pool` is non-null the AFC list is split into contiguous ranges
// (balanced by row count, ~4 per pool thread) and scanned concurrently by
// the shared node loop (storm/node_runner.h); each range worker owns its
// Extractor and RangeSink.  For pushdown queries `agg_out` (required then)
// receives the node's serialized partial-aggregate state; no row batches
// are shipped.
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
    const NodeRunner runner(plan, q, node, preplanned, filter, opts, cancel,
                            stats);
    const std::size_t nafcs = runner.num_afcs();
    const std::vector<uint64_t>& base = runner.row_base();

    // The pool is shared by every node worker, so size this node's range
    // fan-out for its *share* of the pool: every node splitting into
    // pool->size() * 4 ranges of its own would multiply the per-range
    // setup cost (extractor scratch, read batch buffers, per-consumer
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
    const uint64_t min_rows = std::max<uint64_t>(1, opts.min_rows_per_worker);
    ntasks = std::min<std::size_t>(
        ntasks, std::max<uint64_t>(1, base[nafcs] / min_rows));
    if (!pool || pool->size() <= 1 || ntasks <= 1) ntasks = 1;

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
    const ShipFn ship = [&mover](RowBatch& b) {
      return mover.send(std::move(b));
    };
    std::vector<WorkerStats> wstats(ntasks);
    std::vector<RangeSink> sinks;
    sinks.reserve(ntasks);
    for (std::size_t k = 0; k < ntasks; ++k)
      sinks.push_back(runner.make_sink(node, partsvc, wstats[k], ship));
    auto scan_range = [&](std::size_t k) {
      try {
        runner.scan(cuts[k], cuts[k + 1], sinks[k], wstats[k]);
      } catch (const std::exception& e) {
        wstats[k].error = e.what();
        wstats[k].error_kind = classify_error(e);
      }
    };
    if (ntasks == 1) {
      scan_range(0);
    } else {
      // The pool-level token check makes queued ranges of a cancelled
      // query return before constructing any per-range extractor (the
      // ranges themselves poll per AFC and per batch once running).
      pool->parallel_for(ntasks, scan_range, cancel);
    }
    for (const WorkerStats& ws : wstats) add_worker_stats(stats, ws);

    // Two-phase merge, phase one: fold every range worker's aggregate
    // state into one per-node state and serialize it — the only bytes
    // that cross the node boundary.  Merging is exact, so the worker
    // order is irrelevant to the final result.
    if (runner.pushdown() && stats.error.empty()) {
      faultz::maybe_throw_io(faultz::Site::kAggMerge,
                             "partial-aggregate merge failed");
      for (const RangeSink& s : sinks)
        if (s.agg->table()) count_strategy(stats, s.agg->table()->strategy());
      for (std::size_t k = 1; k < sinks.size(); ++k)
        sinks[k].agg->merge_into(*sinks[0].agg);
      std::string enc = ship_agg_state(*sinks[0].agg, stats);
      if (agg_out) *agg_out = std::move(enc);
    }
  } catch (const std::exception& e) {
    stats.error = e.what();
    stats.error_kind = classify_error(e);
  }
  stats.busy_seconds = busy.elapsed_seconds();
}

// Materializing execution is streaming execution plus a parallel tail.
// During the scan the client thread only takes each batch.  Once the
// channel closes it allocates every consumer's columns at their exact final
// size; the extraction pool then resizes them (std::vector's zero fill,
// about 3x faster spread over the pool than on one thread) and transposes
// the batches into them at per-batch offsets, freeing each batch once
// copied.  Offsets follow each consumer's arrival order, so pushdown final
// rows keep their order bit for bit.  The client thread allocates because
// with malloc trimming off (perfbench) a column allocated from a pool
// thread's arena keeps that arena's high-water mark resident
// (docs/PIPELINE.md §1, stage 4).
QueryResult execute_into_tables(
    StormCluster& cluster, const expr::BoundQuery& q,
    const PartitionSpec& partition, const afc::ChunkFilter* filter,
    const std::vector<afc::PlanResult>* node_plans, CancelToken* cancel) {
  std::vector<RowBatch> batches;
  QueryResult result = cluster.execute_streaming(
      q,
      [&](RowBatch& batch) {
        if (!batch.data.empty()) batches.push_back(std::move(batch));
      },
      partition, filter, node_plans, cancel);

  std::vector<expr::Table::Column> schema = q.result_columns();
  const std::size_t ncols = schema.size();
  const auto nconsumers =
      static_cast<std::size_t>(std::max(1, partition.num_consumers));
  std::vector<std::size_t> offset(batches.size());
  std::vector<std::size_t> rows(nconsumers, 0);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto c = static_cast<std::size_t>(batches[i].consumer);
    offset[i] = rows[c];
    rows[c] += batches[i].num_rows();
  }
  // cols[c * ncols + k] is consumer c's column k.
  std::vector<std::vector<double>> cols(nconsumers * ncols);
  for (std::size_t i = 0; i < cols.size(); ++i)
    cols[i].reserve(rows[i / ncols]);

  ThreadPool* pool = cluster.extraction_pool();
  auto each = [pool](std::size_t n,
                     const std::function<void(std::size_t)>& fn,
                     const CancelToken* token) {
    if (pool) return pool->parallel_for(n, fn, token);
    for (std::size_t i = 0; i < n; ++i) {
      if (token) token->check();
      fn(i);
    }
  };
  auto size_column = [&](std::size_t i) { cols[i].resize(rows[i / ncols]); };
  auto copy_batch = [&](std::size_t i) {
    RowBatch& b = batches[i];
    const std::size_t first = static_cast<std::size_t>(b.consumer) * ncols;
    std::vector<double*> dst(ncols);
    for (std::size_t k = 0; k < ncols; ++k)
      dst[k] = cols[first + k].data() + offset[i];
    expr::transpose_rows(b.data.data(), b.num_rows(), ncols, dst.data());
    std::vector<double>().swap(b.data);
  };
  // Only copying polls the token: a query cancelled before any row
  // arrived keeps reporting its cancellation as node errors.
  each(cols.size(), size_column, nullptr);
  each(batches.size(), copy_batch, cancel);

  result.partitions.reserve(nconsumers);
  for (std::size_t c = 0; c < nconsumers; ++c) {
    auto first = std::make_move_iterator(cols.begin() + c * ncols);
    result.partitions.emplace_back(
        schema, std::vector<std::vector<double>>(first, first + ncols),
        rows[c]);
  }
  return result;
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
  return execute_into_tables(*this, q, partition, filter, nullptr, cancel);
}

std::vector<afc::PlanResult> StormCluster::plan_nodes(
    const expr::BoundQuery& q, const afc::ChunkFilter* filter) {
  std::vector<afc::PlanResult> plans;
  const int nodes = num_nodes();
  plans.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n)
    plans.push_back(plan_node(*plan_, q, n, filter, nullptr));
  return plans;
}

QueryResult StormCluster::execute_planned(
    const expr::BoundQuery& q, const std::vector<afc::PlanResult>& node_plans,
    const PartitionSpec& partition, CancelToken* cancel) {
  if (node_plans.size() != static_cast<std::size_t>(num_nodes()))
    throw QueryError("execute_planned: expected one plan per node");
  return execute_into_tables(*this, q, partition, nullptr, &node_plans,
                             cancel);
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
  auto node_body = [&](int n, DataMoverService& node_mover) {
    run_node(n, *plan_, q, filter, partsvc, node_mover, opts_, pool,
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
  auto guarded_sink = [&](RowBatch& batch) {
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
    for (int n = 0; n < nodes; ++n)
      workers.emplace_back([&, n] { node_body(n, mover); });
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
      node_body(n, seq_mover);
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
    emit_final_rows(acc, partsvc, opts_.batch_rows, guarded_sink);
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
