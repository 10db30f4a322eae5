#include "storm/node_runner.h"

#include <chrono>
#include <thread>

#include "common/error.h"

namespace adv::storm {

afc::PlanResult plan_node(const codegen::DataServicePlan& plan,
                          const expr::BoundQuery& q, int node,
                          const afc::ChunkFilter* filter,
                          const CancelToken* cancel) {
  afc::PlannerOptions popts;
  popts.filter = filter;
  popts.only_node = node;
  popts.cancel = cancel;
  return plan.index_fn(q, popts);
}

void add_worker_stats(NodeStats& stats, const WorkerStats& ws) {
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
}

void count_strategy(NodeStats& stats, agg::Strategy s) {
  switch (s) {
    case agg::Strategy::kDense: ++stats.agg_dense; break;
    case agg::Strategy::kHash: ++stats.agg_hash; break;
    case agg::Strategy::kRadix: ++stats.agg_radix; break;
  }
}

std::string ship_agg_state(agg::PushdownSink& sink, NodeStats& stats) {
  std::string enc;
  sink.encode(enc);
  stats.groups_emitted += sink.table() ? sink.table()->ngroups()
                                       : sink.topk()->nrows();
  stats.agg_bytes_shipped += enc.size();
  stats.bytes_sent += enc.size();
  return enc;
}

// ---------------------------------------------------------------------------

NodeRunner::NodeRunner(const codegen::DataServicePlan& plan,
                       const expr::BoundQuery& q, int node,
                       const afc::PlanResult* preplanned,
                       const afc::ChunkFilter* filter,
                       const ClusterOptions& opts, const CancelToken* cancel,
                       NodeStats& stats)
    : q_(q),
      planned_(preplanned ? afc::PlanResult{}
                          : plan_node(plan, q, node, filter, cancel)),
      pr_(preplanned ? *preplanned : planned_),
      opts_(opts),
      cancel_(cancel),
      pushdown_(q.is_pushdown()),
      base_(pr_.afcs.size() + 1, 0) {
  const afc::PlanResult& pr = pr_;
  stats.afcs = pr.afcs.size();
  stats.afcs_pruned = pr.stats.afcs_filtered_by_index;
  stats.rows_pruned = pr.stats.rows_pruned;
  stats.bytes_skipped = pr.stats.bytes_skipped;

  bindings_.reserve(pr.groups.size());
  for (const auto& g : pr.groups)
    bindings_.push_back(codegen::bind_group(g, q, plan.schema()));

  // Ordering contract: rows are numbered by scan position.  AFC i's rows
  // start at the prefix sum of earlier AFCs' row counts — a numbering
  // that is a function of the plan alone, so kRoundRobin/kBlockCyclic
  // destinations are identical no matter how the list is split across
  // workers (or whether a predicate drops rows in between).
  for (std::size_t i = 0; i < pr.afcs.size(); ++i)
    base_[i + 1] = base_[i] + pr.afcs[i].num_rows;

  xopts_.cancel = cancel;
  xopts_.kernel_mode = opts.kernel_mode;

  // The aggregation strategy is chosen once from the plan's cardinality
  // hints, so every sink of this node agrees.
  if (pushdown_ && q.has_aggregates())
    agg_choice_ = agg::choose_strategy(
        q, pr, dynamic_cast<const afc::ChunkBoundsSource*>(filter));
}

RangeSink NodeRunner::make_sink(int node,
                                const PartitionGenerationService& partsvc,
                                WorkerStats& ws, ShipFn ship) const {
  RangeSink s;
  if (pushdown_)
    s.agg = make_agg_sink();
  else
    s.part.emplace(node, q_.select_slots().size(), partsvc, opts_.batch_rows,
                   ws, cancel_, std::move(ship));
  return s;
}

std::unique_ptr<agg::PushdownSink> NodeRunner::make_agg_sink() const {
  return std::make_unique<agg::PushdownSink>(q_, agg_choice_);
}

void NodeRunner::scan(std::size_t lo, std::size_t hi, RangeSink& sink,
                      WorkerStats& ws, const AfcHook* hook) const {
  codegen::Extractor extractor(xopts_);
  for (std::size_t i = lo; i < hi; ++i) {
    if (cancel_) cancel_->check();
    if (hook && hook->before) hook->before(i);
    const afc::Afc& a = pr_.afcs[i];
    const auto g = static_cast<std::size_t>(a.group);
    // Bounded retry for transient read faults, valid only while no row of
    // this AFC left the sink: begin_afc marks the sink and rollback_afc
    // restores it, so a retried extraction re-emits the same rows at the
    // same scan positions.  Once a batch shipped, retrying would duplicate
    // rows — the error propagates instead.
    for (std::size_t attempt = 0;; ++attempt) {
      sink.begin_afc(base_[i]);
      try {
        ws.extract += extractor.extract(pr_.groups[g], a, bindings_[g], q_,
                                        sink.rows());
        break;
      } catch (const IoError&) {
        if (attempt >= opts_.io_retry_limit || !sink.rollback_afc()) throw;
        ++ws.io_retries;
        std::this_thread::sleep_for(std::chrono::microseconds(
            opts_.io_retry_backoff_us << attempt));
      }
    }
    if (hook && hook->after) hook->after(i);
  }
  sink.finish();
}

// ---------------------------------------------------------------------------

void emit_final_rows(const agg::MergeAcc& acc,
                     const PartitionGenerationService& partsvc,
                     std::size_t batch_rows,
                     const std::function<void(RowBatch&)>& emit) {
  const std::vector<double> rows = acc.finalize_rows();
  const auto ncols = static_cast<std::size_t>(acc.spec().ncols);
  std::vector<RowBatch> out(static_cast<std::size_t>(partsvc.num_consumers()));
  for (std::size_t c = 0; c < out.size(); ++c)
    out[c] = RowBatch{0, static_cast<int>(c), ncols, {}};
  const std::size_t nrows = ncols ? rows.size() / ncols : 0;
  for (std::size_t i = 0; i < nrows; ++i) {
    const double* row = rows.data() + i * ncols;
    RowBatch& b = out[static_cast<std::size_t>(partsvc.destination(row, i))];
    b.data.insert(b.data.end(), row, row + ncols);
    if (b.num_rows() >= batch_rows) {
      emit(b);
      b.data.clear();
    }
  }
  for (RowBatch& b : out)
    if (!b.data.empty()) emit(b);
}

}  // namespace adv::storm
