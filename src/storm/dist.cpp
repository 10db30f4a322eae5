#include "storm/dist.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "agg/agg.h"
#include "common/stopwatch.h"
#include "sql/ast.h"
#include "storm/wire.h"

namespace adv::storm {

using namespace wire;

namespace {

using Clock = std::chrono::steady_clock;

bool retryable(ErrorKind k) {
  // kIo covers dead/vanished/silent daemons and transient transport
  // faults; kInternal covers daemon-side invariant trips (including a
  // replica whose plan diverged — a *different* replica may still match).
  // Everything else is deterministic: the same request will fail the same
  // way on every replica, so retrying only burns the failover budget.
  return k == ErrorKind::kIo || k == ErrorKind::kInternal;
}

[[noreturn]] void rethrow_kind(ErrorKind k, const std::string& msg) {
  switch (k) {
    case ErrorKind::kParse: throw QueryError(msg);  // position info is gone
    case ErrorKind::kValidation: throw ValidationError(msg);
    case ErrorKind::kQuery: throw QueryError(msg);
    case ErrorKind::kIo: throw IoError(msg);
    case ErrorKind::kCancelled: throw CancelledError(msg);
    case ErrorKind::kInternal: throw InternalError(msg);
    default: throw Error(msg);
  }
}

}  // namespace

struct DistCoordinator::ShardOutcome {
  // Rows committed at kProgress checkpoints, raw row-major doubles per
  // consumer; turned into expr::Tables only at the final node-order merge.
  std::vector<std::vector<double>> committed;
  // Pushdown queries ship partial-aggregate deltas (kAggBatch) instead of
  // rows; deltas follow the same stage-then-commit protocol, keyed to the
  // kProgress that follows each one.  Merged (exactly, in node order) only
  // at the final gather.
  std::vector<std::string> agg_committed;
  std::vector<std::string> agg_staged;
  std::size_t ncols = 0;
  // Output column names from kNodeHello's optional tail (empty when the
  // daemon predates it); lets the coordinator resolve SELECT * ORDER BY.
  std::vector<std::string> col_names;
  NodeStats stats;
  bool have_stats = false;
  bool failed = false;
  Casualty casualty;
  uint64_t committed_afcs = 0;
  uint64_t failovers = 0;
  uint64_t straggler_reissues = 0;
  uint64_t commits = 0;
};

DistCoordinator::DistCoordinator(std::vector<ShardConfig> shards,
                                 DistOptions opts)
    : shards_(std::move(shards)), opts_(std::move(opts)) {
  if (shards_.empty())
    throw ValidationError("dist coordinator: no shards configured");
  if (opts_.partition.num_consumers < 1)
    throw ValidationError("dist coordinator: num_consumers must be >= 1");
  for (const auto& s : shards_) {
    if (s.replicas.empty())
      throw ValidationError("dist coordinator: node " +
                            std::to_string(s.node_id) +
                            " has no replica endpoints");
    for (const auto& o : shards_)
      if (&o != &s && o.node_id == s.node_id)
        throw ValidationError("dist coordinator: node " +
                              std::to_string(s.node_id) +
                              " appears in the shard map twice");
  }
  ignore_sigpipe();
}

void DistCoordinator::run_shard(const std::string& sql,
                                const ShardConfig& shard,
                                ShardOutcome& out) const {
  const int nconsumers = opts_.partition.num_consumers;
  out.committed.assign(static_cast<std::size_t>(nconsumers), {});
  const std::size_t max_attempts =
      opts_.max_attempts_per_shard
          ? opts_.max_attempts_per_shard
          : std::max<std::size_t>(2, shard.replicas.size());

  uint64_t committed = 0;        // AFC prefix durable across attempts
  uint64_t fingerprint = 0;      // plan identity the resume is bound to
  bool have_fingerprint = false;
  std::string last_error = "no endpoint could be reached";
  ErrorKind last_kind = ErrorKind::kIo;
  // Uncommitted staging: rows received since the last kProgress.  Thrown
  // away whenever an attempt dies — the replica re-ships them.
  std::vector<std::vector<double>> staged(
      static_cast<std::size_t>(nconsumers));
  std::size_t attempts_used = 0;

  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    attempts_used = attempt + 1;
    const ShardEndpoint& ep =
        shard.replicas[attempt % shard.replicas.size()];
    if (attempt > 0) {
      out.failovers++;
      if (opts_.on_failover)
        opts_.on_failover(shard.node_id, attempt, last_error);
    }
    for (auto& s : staged) s.clear();
    out.agg_staged.clear();
    bool straggler = false;
    bool fatal = false;
    try {
      Socket sock(
          connect_with_timeout(ep.host, ep.port,
                               opts_.connect_timeout_seconds));
      set_nodelay(sock.fd);

      Payload req;
      req.put<uint32_t>(static_cast<uint32_t>(shard.node_id));
      req.put<uint64_t>(committed);
      req.put<uint16_t>(static_cast<uint16_t>(nconsumers));
      req.put<uint8_t>(static_cast<uint8_t>(opts_.partition.policy));
      req.put<int32_t>(opts_.partition.select_index);
      req.put<double>(opts_.partition.range_lo);
      req.put<double>(opts_.partition.range_hi);
      req.put<uint64_t>(opts_.partition.block_size);
      req.put_string(sql);
      req.put<double>(opts_.deadline_seconds);
      req.put<double>(opts_.heartbeat_interval_seconds);
      req.put<uint32_t>(opts_.checkpoint_afcs);
      req.put<uint32_t>(opts_.agg_checkpoint_afcs);  // optional tail
      send_frame(sock.fd, kNodeQuery, req);

      auto [htype, hp] =
          recv_frame_timeout(sock.fd, opts_.liveness_timeout_seconds);
      if (htype == kError) {
        auto [msg, kind] = parse_error(hp);
        last_error = msg;
        last_kind = kind;
        if (!retryable(kind)) break;
        continue;
      }
      if (htype != kNodeHello)
        throw IoError("protocol error: expected kNodeHello, got frame type " +
                      std::to_string(htype));
      const uint32_t hello_node = hp.get<uint32_t>();
      hp.get<uint64_t>();  // total AFCs (informational)
      const uint64_t fp = hp.get<uint64_t>();
      const std::size_t ncols = hp.get<uint16_t>();
      std::vector<std::string> hello_names;
      if (hp.remaining() >= sizeof(uint16_t)) {
        const uint16_t nnames = hp.get<uint16_t>();
        hello_names.reserve(nnames);
        for (uint16_t c = 0; c < nnames; ++c)
          hello_names.push_back(hp.get_string());
      }
      if (hello_node != static_cast<uint32_t>(shard.node_id)) {
        last_error = "endpoint " + ep.host + ":" + std::to_string(ep.port) +
                     " serves node " + std::to_string(hello_node) +
                     ", not node " + std::to_string(shard.node_id);
        last_kind = ErrorKind::kQuery;
        break;
      }
      if (!have_fingerprint || committed == 0) {
        // First contact — or a full re-run, where nothing ties us to the
        // previous plan.  Adopt this replica's identity.
        fingerprint = fp;
        have_fingerprint = true;
        out.ncols = ncols;
        if (hello_names.size() == ncols) out.col_names = hello_names;
      } else if (fp != fingerprint) {
        // Resuming at committed > 0 against a plan that is not the one
        // the committed prefix came from would silently duplicate or drop
        // rows; refuse, and let another replica (which may match) consume
        // the next attempt.
        last_error =
            "replica at " + ep.host + ":" + std::to_string(ep.port) +
            " built a different plan (fingerprint mismatch); cannot resume "
            "at AFC " +
            std::to_string(committed) +
            " — replicas of one shard must serve identical data and prune "
            "with identical zone maps";
        last_kind = ErrorKind::kInternal;
        continue;
      }

      // Gather loop.  Liveness: every frame — rows, progress, heartbeat —
      // resets the timeout clock inside recv_frame_timeout; straggler
      // detection additionally requires the *progress counters* to move.
      Clock::time_point last_advance = Clock::now();
      uint64_t hb_afcs = 0, hb_rows = 0;
      bool hb_seen = false;
      for (;;) {
        auto [type, p] =
            recv_frame_timeout(sock.fd, opts_.liveness_timeout_seconds);
        if (type == kRowBatch) {
          const std::size_t consumer = p.get<uint16_t>();
          const std::size_t nrows = p.get<uint32_t>();
          const std::size_t nc = p.get<uint16_t>();
          if (consumer >= staged.size() || nc != out.ncols)
            throw IoError("malformed row batch from node " +
                          std::to_string(shard.node_id));
          const unsigned char* raw = p.raw(nrows * nc * sizeof(double));
          auto& dst = staged[consumer];
          const std::size_t at = dst.size();
          dst.resize(at + nrows * nc);
          std::memcpy(dst.data() + at, raw, nrows * nc * sizeof(double));
        } else if (type == kAggBatch) {
          const std::size_t n =
              static_cast<std::size_t>(p.get<uint64_t>());
          const unsigned char* raw = p.raw(n);
          out.agg_staged.emplace_back(reinterpret_cast<const char*>(raw), n);
        } else if (type == kProgress) {
          const uint64_t done = p.get<uint64_t>();
          for (std::size_t c = 0; c < staged.size(); ++c) {
            auto& dst = out.committed[c];
            dst.insert(dst.end(), staged[c].begin(), staged[c].end());
            staged[c].clear();
          }
          for (auto& d : out.agg_staged)
            out.agg_committed.push_back(std::move(d));
          out.agg_staged.clear();
          committed = done;
          out.committed_afcs = done;
          out.commits++;
          last_advance = Clock::now();
          if (opts_.on_commit) opts_.on_commit(shard.node_id, done);
        } else if (type == kHeartbeat) {
          const uint64_t a = p.get<uint64_t>();
          const uint64_t r = p.get<uint64_t>();
          if (!hb_seen || a != hb_afcs || r != hb_rows) {
            hb_seen = true;
            hb_afcs = a;
            hb_rows = r;
            last_advance = Clock::now();
          } else if (opts_.straggler_timeout_seconds > 0 &&
                     std::chrono::duration<double>(Clock::now() -
                                                   last_advance)
                             .count() > opts_.straggler_timeout_seconds) {
            straggler = true;
            throw IoError(
                "straggler: node " + std::to_string(shard.node_id) +
                " is alive but has made no progress for " +
                std::to_string(opts_.straggler_timeout_seconds) + "s");
          }
        } else if (type == kNodeStats) {
          NodeStats& ns = out.stats;
          ns.node_id = p.get<int32_t>();
          ns.busy_seconds = p.get<double>();
          ns.transfer_seconds = p.get<double>();
          ns.afcs = p.get<uint64_t>();
          ns.bytes_read = p.get<uint64_t>();
          ns.rows_scanned = p.get<uint64_t>();
          ns.rows_matched = p.get<uint64_t>();
          ns.bytes_sent = p.get<uint64_t>();
          ns.afcs_pruned = p.get<uint64_t>();
          ns.rows_pruned = p.get<uint64_t>();
          ns.bytes_skipped = p.get<uint64_t>();
          ns.io_retries = p.get<uint64_t>();
          ns.afcs_interp = p.get<uint64_t>();
          ns.afcs_vector = p.get<uint64_t>();
          p.get<uint64_t>();  // retired tier counter; slot kept for old peers
          // Aggregation tail, absent from pre-pushdown daemons.
          if (p.remaining() >= 5 * sizeof(uint64_t)) {
            ns.groups_emitted = p.get<uint64_t>();
            ns.agg_bytes_shipped = p.get<uint64_t>();
            ns.agg_dense = p.get<uint64_t>();
            ns.agg_hash = p.get<uint64_t>();
            ns.agg_radix = p.get<uint64_t>();
          }
          out.have_stats = true;
        } else if (type == kEnd) {
          // Defensive: the daemon checkpoints its final AFC before kEnd,
          // so staging should be empty — but a complete stream is a
          // commit point by definition.
          for (std::size_t c = 0; c < staged.size(); ++c) {
            auto& dst = out.committed[c];
            dst.insert(dst.end(), staged[c].begin(), staged[c].end());
            staged[c].clear();
          }
          for (auto& d : out.agg_staged)
            out.agg_committed.push_back(std::move(d));
          out.agg_staged.clear();
          return;
        } else if (type == kError) {
          // The daemon's own verdict on the query.  Retryable kinds
          // consume another endpoint attempt; deterministic ones end the
          // shard now with the daemon's classification intact.
          auto [msg, kind] = parse_error(p);
          last_error = msg;
          last_kind = kind;
          fatal = !retryable(kind);
          break;
        } else {
          // Unknown frame from a newer daemon: skip (forward compat).
        }
      }
      if (fatal) break;
      continue;
    } catch (const IoError& e) {
      // Dead process (recv EOF / EPIPE), liveness timeout, connect
      // failure, straggler cut, malformed frame: all retryable transport
      // failures.  Re-issue on the next endpoint from the committed
      // prefix.
      last_error = e.what();
      last_kind = ErrorKind::kIo;
      if (straggler) out.straggler_reissues++;
      continue;
    }
  }

  out.failed = true;
  out.casualty.node_id = shard.node_id;
  out.casualty.kind = last_kind;
  out.casualty.error = last_error;
  out.casualty.attempts = attempts_used;
  out.casualty.committed_afcs = committed;
}

DistResult DistCoordinator::run(const std::string& sql) const {
  Stopwatch sw;
  // Parse once up front: a malformed query fails here, typed, instead of
  // as N identical daemon errors — and the parse decides whether the
  // gather merges rows (kRowBatch) or aggregate state (kAggBatch).
  const sql::SelectQuery sq = sql::parse_select(sql);
  const bool pushdown =
      sq.has_aggregates() || !sq.order_by.empty() || sq.limit >= 0;
  std::vector<ShardOutcome> outs(shards_.size());
  std::vector<std::thread> gather;
  gather.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    gather.emplace_back(
        [this, &sql, i, &outs] { run_shard(sql, shards_[i], outs[i]); });
  for (auto& t : gather) t.join();

  DistResult r;
  std::size_t ncols = opts_.result_columns.size();
  for (const auto& o : outs) {
    r.failovers += o.failovers;
    r.straggler_reissues += o.straggler_reissues;
    r.commits += o.commits;
    if (!o.failed && ncols == 0) ncols = o.ncols;
  }
  std::vector<expr::Table::Column> cols = opts_.result_columns;
  if (cols.empty()) {
    // Prefer the daemon-announced names (kNodeHello tail): SELECT *
    // top-k needs real attribute names to resolve its ORDER BY keys.
    for (const auto& o : outs)
      if (!o.failed && o.col_names.size() == ncols) {
        for (const auto& n : o.col_names)
          cols.push_back({n, DataType::kFloat64});
        break;
      }
  }
  if (cols.empty())
    for (std::size_t c = 0; c < ncols; ++c)
      cols.push_back({"c" + std::to_string(c), DataType::kFloat64});

  // Merge in shard-map (node) order, so the gathered tables are a
  // deterministic function of the per-node row streams — independent of
  // gather-thread timing and of which replica ultimately served a shard.
  if (pushdown) {
    // What arrived was partial-aggregate state.  Merging is exact and
    // grouping-independent (docs/AGGREGATION.md), so node order here is a
    // convention, not a correctness requirement; casualties simply drop
    // out (partial results = aggregates over the surviving shards).  The
    // final rows are partitioned by output row index, matching the
    // in-process cluster bit for bit.
    std::vector<std::string> names;
    names.reserve(cols.size());
    for (const auto& c : cols) names.push_back(c.name);
    agg::MergeAcc acc(agg::finalize_spec(sq, names));
    for (auto& o : outs) {
      if (o.failed) {
        r.casualties.push_back(o.casualty);
        continue;
      }
      for (const auto& d : o.agg_committed) acc.merge_encoded(d);
      if (o.have_stats) r.node_stats.push_back(o.stats);
    }
    const std::size_t fncols = static_cast<std::size_t>(acc.spec().ncols);
    if (cols.size() != fncols) {
      cols.clear();
      for (std::size_t c = 0; c < fncols; ++c)
        cols.push_back({"c" + std::to_string(c), DataType::kFloat64});
    }
    if ((opts_.partition.policy == PartitionSpec::Policy::kHashAttr ||
         opts_.partition.policy == PartitionSpec::Policy::kRangeAttr) &&
        (opts_.partition.select_index < 0 ||
         static_cast<std::size_t>(opts_.partition.select_index) >= fncols))
      throw ValidationError(
          "partition select_index out of range for the query's " +
          std::to_string(fncols) + " output columns");
    r.partitions.assign(
        static_cast<std::size_t>(opts_.partition.num_consumers),
        expr::Table(cols));
    const std::vector<double> rows = acc.finalize_rows();
    const PartitionGenerationService partsvc(opts_.partition);
    const std::size_t nrows = fncols ? rows.size() / fncols : 0;
    for (std::size_t i = 0; i < nrows; ++i) {
      const double* row = rows.data() + i * fncols;
      const int dest = partsvc.destination(row, i);
      r.partitions[static_cast<std::size_t>(dest)].append_rows(row, 1);
    }
  } else {
    r.partitions.assign(
        static_cast<std::size_t>(opts_.partition.num_consumers),
        expr::Table(cols));
    for (auto& o : outs) {
      if (o.failed) {
        r.casualties.push_back(o.casualty);
        continue;
      }
      for (std::size_t c = 0; c < o.committed.size(); ++c)
        if (!o.committed[c].empty())
          r.partitions[c].append_rows(o.committed[c].data(),
                                      o.committed[c].size() / o.ncols);
      if (o.have_stats) r.node_stats.push_back(o.stats);
    }
  }
  r.wall_seconds = sw.elapsed_seconds();

  if (!r.casualties.empty() && !opts_.allow_partial_results) {
    const Casualty& c = r.casualties.front();
    rethrow_kind(c.kind, "node " + std::to_string(c.node_id) + " failed (" +
                             std::to_string(c.attempts) + " attempts): " +
                             c.error);
  }
  return r;
}

uint64_t DistResult::total_rows() const {
  uint64_t n = 0;
  for (const auto& p : partitions) n += p.num_rows();
  return n;
}

expr::Table DistResult::merged() const {
  expr::Table out = partitions.empty() ? expr::Table() : partitions[0];
  for (std::size_t i = 1; i < partitions.size(); ++i)
    out.append_table(partitions[i]);
  return out;
}

std::string DistResult::first_error() const {
  return casualties.empty() ? "" : casualties.front().error;
}

ErrorKind DistResult::first_error_kind() const {
  return casualties.empty() ? ErrorKind::kNone : casualties.front().kind;
}

std::vector<int> DistResult::failed_nodes() const {
  std::vector<int> out;
  for (const auto& c : casualties) out.push_back(c.node_id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace adv::storm
