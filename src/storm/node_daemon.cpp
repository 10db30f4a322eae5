#include "storm/node_daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "agg/agg.h"
#include "common/env.h"
#include "common/error.h"
#include "common/stopwatch.h"
#include "faultz/faultz.h"
#include "storm/wire.h"

namespace adv::storm {

using namespace wire;

namespace {

// Structural fingerprint of a node-local plan: every field that determines
// the rows and their scan-position numbering.  Two daemons produce the
// same fingerprint iff a resume at any AFC index lands on identical rows,
// so the coordinator checks it before re-issuing a partially-shipped
// query to a replica (differing zone-map sidecars are the typical cause
// of divergence).
uint64_t plan_fingerprint(const afc::PlanResult& pr) {
  uint64_t h = 1469598103934665603ull;
  auto mix_u64 = [&h](uint64_t v) { h = fnv1a64(&v, sizeof v, h); };
  for (const auto& g : pr.groups)
    for (const auto& f : g.files) h = fnv1a64(f.data(), f.size(), h);
  mix_u64(pr.afcs.size());
  for (const auto& a : pr.afcs) {
    mix_u64(static_cast<uint64_t>(a.group));
    mix_u64(a.num_rows);
    mix_u64(static_cast<uint64_t>(a.row_first));
    for (uint64_t off : a.offsets) mix_u64(off);
  }
  return h;
}

// Partitions matched rows into per-consumer pending batches and ships full
// batches as kRowBatch frames.  Mirrors the in-process PartitionSink —
// same scan-position numbering, same begin/rollback retry contract — with
// the data-mover channel replaced by the socket (sends serialized with the
// heartbeat thread via `send_mu`).
class WireSink final : public codegen::RowSink {
 public:
  WireSink(int fd, std::mutex& send_mu, std::size_t ncols, int nconsumers,
           const PartitionGenerationService& partsvc, std::size_t batch_rows,
           std::atomic<uint64_t>& rows_shipped, const CancelToken* cancel)
      : fd_(fd),
        send_mu_(send_mu),
        ncols_(ncols),
        partsvc_(partsvc),
        batch_rows_(batch_rows),
        rows_shipped_(rows_shipped),
        cancel_(cancel),
        pending_(static_cast<std::size_t>(nconsumers)),
        mark_(static_cast<std::size_t>(nconsumers)) {
    for (auto& b : pending_) b.reserve(batch_rows_ * ncols_);
  }

  uint64_t bytes_sent() const { return bytes_sent_; }

  void begin_afc(uint64_t base_seq) {
    base_seq_ = base_seq;
    for (std::size_t c = 0; c < pending_.size(); ++c)
      mark_[c] = pending_[c].size();
    flushed_since_mark_ = false;
  }

  // Same no-duplicate-rows contract as the in-process sink: false once any
  // batch left for the socket since the mark — those rows are beyond
  // recall, so the caller must fail (and the coordinator's commit protocol
  // takes over recovery).
  bool rollback_afc() {
    if (flushed_since_mark_) return false;
    for (std::size_t c = 0; c < pending_.size(); ++c)
      pending_[c].resize(mark_[c]);
    return true;
  }

  void on_row(const double* vals, uint64_t scan_index) override {
    int dest = partsvc_.destination(vals, base_seq_ + scan_index);
    auto& b = pending_[static_cast<std::size_t>(dest)];
    b.insert(b.end(), vals, vals + ncols_);
    if (b.size() >= batch_rows_ * ncols_) flush(dest);
  }

  void on_rows(const double* rows, std::size_t ncols, std::size_t nrows,
               const uint64_t* scan_index) override {
    if (pending_.size() == 1 &&
        partsvc_.spec().policy == PartitionSpec::Policy::kSingle) {
      auto& b = pending_[0];
      b.insert(b.end(), rows, rows + nrows * ncols);
      if (b.size() >= batch_rows_ * ncols_) flush(0);
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
  void flush(int c) {
    auto& b = pending_[static_cast<std::size_t>(c)];
    if (b.empty()) return;
    flushed_since_mark_ = true;
    if (cancel_) cancel_->check();
    Payload batch;
    batch.put<uint16_t>(static_cast<uint16_t>(c));
    batch.put<uint32_t>(static_cast<uint32_t>(b.size() / ncols_));
    batch.put<uint16_t>(static_cast<uint16_t>(ncols_));
    batch.put_bytes(b.data(), b.size() * sizeof(double));
    {
      std::lock_guard<std::mutex> lk(send_mu_);
      send_frame(fd_, kRowBatch, batch);
    }
    bytes_sent_ += b.size() * sizeof(double);
    rows_shipped_.fetch_add(b.size() / ncols_, std::memory_order_relaxed);
    b.clear();
  }

  int fd_;
  std::mutex& send_mu_;
  std::size_t ncols_;
  const PartitionGenerationService& partsvc_;
  std::size_t batch_rows_;
  std::atomic<uint64_t>& rows_shipped_;
  const CancelToken* cancel_;
  std::vector<std::vector<double>> pending_;
  std::vector<std::size_t> mark_;
  bool flushed_since_mark_ = false;
  uint64_t base_seq_ = 0;
  uint64_t bytes_sent_ = 0;
};

void put_node_stats(Payload& p, const NodeStats& ns) {
  p.put<int32_t>(ns.node_id);
  p.put<double>(ns.busy_seconds);
  p.put<double>(ns.transfer_seconds);
  p.put<uint64_t>(ns.afcs);
  p.put<uint64_t>(ns.bytes_read);
  p.put<uint64_t>(ns.rows_scanned);
  p.put<uint64_t>(ns.rows_matched);
  p.put<uint64_t>(ns.bytes_sent);
  p.put<uint64_t>(ns.afcs_pruned);
  p.put<uint64_t>(ns.rows_pruned);
  p.put<uint64_t>(ns.bytes_skipped);
  p.put<uint64_t>(ns.io_retries);
  p.put<uint64_t>(ns.afcs_interp);
  p.put<uint64_t>(ns.afcs_vector);
  p.put<uint64_t>(0);  // retired tier counter; slot kept so older peers parse
  // Aggregation tail (optional for older coordinators).
  p.put<uint64_t>(ns.groups_emitted);
  p.put<uint64_t>(ns.agg_bytes_shipped);
  p.put<uint64_t>(ns.agg_dense);
  p.put<uint64_t>(ns.agg_hash);
  p.put<uint64_t>(ns.agg_radix);
}

}  // namespace

NodeDaemon::NodeDaemon(std::shared_ptr<codegen::DataServicePlan> plan,
                       NodeDaemonOptions opts)
    : plan_(std::move(plan)), opts_(opts) {
  if (opts_.node_id < 0 || opts_.node_id >= plan_->model().num_nodes())
    throw ValidationError("node daemon: node_id " +
                          std::to_string(opts_.node_id) +
                          " outside the dataset's " +
                          std::to_string(plan_->model().num_nodes()) +
                          " nodes");
  ignore_sigpipe();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw IoError("cannot create node daemon socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(listen_fd_);
    throw IoError(std::string("cannot bind node daemon: ") +
                  std::strerror(errno));
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw IoError("cannot listen on node daemon socket");
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

NodeDaemon::~NodeDaemon() { shutdown(); }

void NodeDaemon::shutdown() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Cancel in-flight queries and unblock their sockets; each serving
  // thread unwinds within one extraction batch, answers with a typed
  // kError if it still can, and exits.
  std::vector<Connection*> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (auto& c : connections_) {
      c->token.cancel();
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
      conns.push_back(c.get());
    }
  }
  for (Connection* c : conns)
    if (c->thread.joinable()) c->thread.join();
  std::lock_guard<std::mutex> lk(conn_mu_);
  connections_.clear();
}

void NodeDaemon::accept_loop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_ || (errno != EINTR && errno != ECONNABORTED)) return;
      continue;
    }
    if (stopping_) {
      ::close(fd);
      return;
    }
    set_nodelay(fd);
    std::lock_guard<std::mutex> lk(conn_mu_);
    reap_finished_locked();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* cp = conn.get();
    connections_.push_back(std::move(conn));
    cp->thread = std::thread([this, cp] { serve_connection(cp); });
  }
}

void NodeDaemon::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void NodeDaemon::serve_connection(Connection* conn) {
  serve_scatter(conn);
  std::lock_guard<std::mutex> lk(conn_mu_);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true);
}

void NodeDaemon::serve_scatter(Connection* conn) {
  const int fd = conn->fd;
  CancelToken& token = conn->token;
  std::mutex send_mu;  // serializes row batches, progress, and heartbeats
  try {
    auto [type, payload] = recv_frame(fd);
    if (type != kNodeQuery) {
      // Forward-compat contract: an old-style client (or anything else)
      // gets a typed error, never a hang.  kQuery marks it non-retryable —
      // reconnecting with the same frame cannot succeed.
      send_error(fd,
                 "this endpoint serves per-node scatter queries "
                 "(kNodeQuery); connect a DistCoordinator, not a "
                 "QueryClient (see docs/DISTRIBUTION.md)",
                 ErrorKind::kQuery);
      return;
    }

    // ---- Parse the scatter request. -----------------------------------
    const int32_t want_node = static_cast<int32_t>(payload.get<uint32_t>());
    const uint64_t start_afc = payload.get<uint64_t>();
    PartitionSpec part;
    part.num_consumers = payload.get<uint16_t>();
    part.policy = static_cast<PartitionSpec::Policy>(payload.get<uint8_t>());
    part.select_index = payload.get<int32_t>();
    part.range_lo = payload.get<double>();
    part.range_hi = payload.get<double>();
    part.block_size = payload.get<uint64_t>();
    const std::string sql = payload.get_string();
    const double deadline_seconds = payload.get<double>();
    double hb_interval = payload.get<double>();
    uint32_t checkpoint_afcs = payload.get<uint32_t>();
    // Optional tail: pushdown checkpoint cadence (0 / absent = one final
    // checkpoint — aggregate state is tiny, so per-AFC deltas are waste).
    const uint32_t agg_checkpoint_afcs =
        payload.remaining() >= sizeof(uint32_t) ? payload.get<uint32_t>() : 0;
    if (want_node != opts_.node_id) {
      send_error(fd,
                 "daemon serves node " + std::to_string(opts_.node_id) +
                     ", not node " + std::to_string(want_node) +
                     " (misconfigured shard map)",
                 ErrorKind::kQuery);
      return;
    }
    if (hb_interval <= 0) hb_interval = opts_.heartbeat_interval_seconds;
    hb_interval = std::max(hb_interval, 0.005);
    if (checkpoint_afcs == 0) checkpoint_afcs = opts_.checkpoint_afcs;
    if (checkpoint_afcs == 0) checkpoint_afcs = 1;
    token.set_deadline_after(deadline_seconds);

    // Control reader: a kCancel frame or a disconnect fires the token for
    // the rest of the query's life (same pattern as QueryServer).
    std::thread reader([fd, &token] {
      try {
        for (;;) {
          auto [t, p] = recv_frame(fd);
          if (t == kCancel) {
            token.cancel();
            return;
          }
        }
      } catch (const Error&) {
        token.cancel();
      }
    });
    bool reader_joined = false;
    auto join_reader = [&]() noexcept {
      if (reader_joined) return;
      reader_joined = true;
      ::shutdown(fd, SHUT_RD);
      reader.join();
    };

    // Heartbeat thread state; started only once the plan is announced.
    std::atomic<uint64_t> afcs_started{0};
    std::atomic<uint64_t> rows_shipped{0};
    std::mutex hb_mu;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread heartbeat;
    auto stop_heartbeat = [&]() noexcept {
      {
        std::lock_guard<std::mutex> lk(hb_mu);
        hb_stop = true;
      }
      hb_cv.notify_all();
      if (heartbeat.joinable()) heartbeat.join();
    };

    NodeStats stats;
    stats.node_id = opts_.node_id;
    Stopwatch busy;
    try {
      // A daemon worker dying at query start: the node-death campaign
      // generalized across the process boundary.  The catch below answers
      // with a typed kError — the daemon process itself survives.
      faultz::maybe_throw_io(faultz::Site::kNodeRun,
                             "storm node worker died");

      // ---- Node-local planning (zone-map pruning included). -----------
      expr::BoundQuery q = plan_->bind(sql);
      afc::PlannerOptions popts;
      popts.filter = opts_.filter;
      popts.only_node = opts_.node_id;
      popts.cancel = &token;
      afc::PlanResult pr = plan_->index_fn(q, popts);
      const std::size_t nafcs = pr.afcs.size();
      stats.afcs = nafcs;
      stats.afcs_pruned = pr.stats.afcs_filtered_by_index;
      stats.rows_pruned = pr.stats.rows_pruned;
      stats.bytes_skipped = pr.stats.bytes_skipped;

      if (start_afc > nafcs)
        throw QueryError("resume point " + std::to_string(start_afc) +
                         " beyond the plan's " + std::to_string(nafcs) +
                         " AFCs (replica plans diverged?)");
      if (part.num_consumers < 1)
        throw QueryError("PartitionSpec.num_consumers must be >= 1");

      // Pushdown queries announce the *final output* width: the coordinator
      // merges aggregate state, not rows, and its gathered tables have the
      // result schema (docs/AGGREGATION.md).
      const bool pushdown = q.is_pushdown();
      const std::size_t ncols =
          pushdown ? q.result_columns().size() : q.select_slots().size();
      Payload hello;
      hello.put<uint32_t>(static_cast<uint32_t>(opts_.node_id));
      hello.put<uint64_t>(nafcs);
      hello.put<uint64_t>(plan_fingerprint(pr));
      hello.put<uint16_t>(static_cast<uint16_t>(ncols));
      // Optional tail: the output column names, so a schema-less
      // coordinator can name its gathered tables and resolve ORDER BY
      // for SELECT * top-k queries (older coordinators ignore it).
      const std::vector<expr::Table::Column> rcols = q.result_columns();
      if (rcols.size() == ncols) {
        hello.put<uint16_t>(static_cast<uint16_t>(ncols));
        for (const auto& c : rcols) hello.put_string(c.name);
      }
      {
        std::lock_guard<std::mutex> lk(send_mu);
        send_frame(fd, kNodeHello, hello);
      }

      heartbeat = std::thread([&] {
        uint64_t beat = 0;
        std::unique_lock<std::mutex> lk(hb_mu);
        while (!hb_stop) {
          hb_cv.wait_for(lk, std::chrono::duration<double>(hb_interval),
                         [&] { return hb_stop; });
          if (hb_stop) return;
          Payload hb;
          hb.put<uint64_t>(afcs_started.load(std::memory_order_relaxed));
          hb.put<uint64_t>(rows_shipped.load(std::memory_order_relaxed));
          hb.put<uint64_t>(++beat);
          try {
            std::lock_guard<std::mutex> slk(send_mu);
            send_frame(fd, kHeartbeat, hb);
          } catch (const Error&) {
            return;  // peer gone; the scan path will notice on its next send
          }
        }
      });

      // ---- Extraction: deterministic plan order, checkpointed. --------
      std::vector<codegen::GroupBinding> bindings;
      bindings.reserve(pr.groups.size());
      for (const auto& g : pr.groups)
        bindings.push_back(codegen::bind_group(g, q, plan_->schema()));

      std::vector<uint64_t> base(nafcs + 1, 0);
      for (std::size_t i = 0; i < nafcs; ++i)
        base[i + 1] = base[i] + pr.afcs[i].num_rows;

      codegen::ExtractorOptions xopts;
      xopts.io_mode = opts_.cluster.io_mode;
      xopts.cancel = &token;
      xopts.kernel_mode = opts_.cluster.kernel_mode;
      codegen::Extractor extractor(xopts);
      PartitionGenerationService partsvc(part);
      WireSink sink(fd, send_mu, ncols, part.num_consumers, partsvc,
                    opts_.cluster.batch_rows, rows_shipped, &token);
      std::optional<agg::StrategyChoice> agg_choice;
      std::unique_ptr<agg::PushdownSink> psink;
      if (pushdown) {
        agg_choice = agg::choose_strategy(
            q, pr, dynamic_cast<const afc::ChunkBoundsSource*>(opts_.filter));
        psink = std::make_unique<agg::PushdownSink>(q, *agg_choice);
      }
      // Pushdown checkpoint cadence: aggregate state is O(groups), so the
      // default is a single delta at the end; a coordinator that wants
      // finer failover granularity requests it via the kNodeQuery tail.
      const uint64_t ckpt_window =
          pushdown ? (agg_checkpoint_afcs > 0
                          ? agg_checkpoint_afcs
                          : (nafcs > 0 ? static_cast<uint64_t>(nafcs) : 1))
                   : checkpoint_afcs;
      uint64_t agg_bytes = 0, agg_groups = 0;
      agg::Strategy agg_strat = agg::Strategy::kDense;
      bool agg_strat_seen = false;

      codegen::ExtractStats xstats;
      auto checkpoint = [&](std::size_t done_afcs) {
        Payload prog;
        prog.put<uint64_t>(done_afcs);
        if (psink) {
          // The dist tier's partial-aggregate hand-off; kAggMerge makes a
          // daemon dying right here reproducible (the chaos harness
          // asserts the failover replica never double-counts the window).
          faultz::maybe_throw_io(faultz::Site::kAggMerge,
                                 "partial-aggregate merge failed");
          psink->finish();
          if (const agg::AggTable* t = psink->table()) {
            agg_groups += t->ngroups();
            if (!agg_strat_seen || t->strategy() > agg_strat)
              agg_strat = t->strategy();
            agg_strat_seen = true;
          } else {
            agg_groups += psink->topk()->nrows();
          }
          std::string delta;
          psink->encode(delta);
          // Fresh sink: the next window's state is a pure delta, so the
          // coordinator's commit-or-discard staging is exact.
          psink = std::make_unique<agg::PushdownSink>(q, *agg_choice);
          agg_bytes += delta.size();
          Payload ab;
          ab.put<uint64_t>(delta.size());
          ab.put_bytes(delta.data(), delta.size());
          std::lock_guard<std::mutex> lk(send_mu);
          send_frame(fd, kAggBatch, ab);
          send_frame(fd, kProgress, prog);
          return;
        }
        sink.flush_all();
        std::lock_guard<std::mutex> lk(send_mu);
        send_frame(fd, kProgress, prog);
      };

      for (std::size_t i = start_afc; i < nafcs; ++i) {
        token.check();
        afcs_started.store(i + 1, std::memory_order_relaxed);
        if (opts_.stall_after_afcs > 0 &&
            i - start_afc == opts_.stall_after_afcs) {
          // Chaos-harness straggler: alive (heartbeats continue, counters
          // frozen) but making no progress.
          auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(opts_.stall_seconds));
          while (std::chrono::steady_clock::now() < until) {
            token.check();
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }
        const afc::Afc& a = pr.afcs[i];
        // Same bounded transient-read retry as the in-process node runner,
        // valid only while no row of this AFC left for the socket.
        for (std::size_t attempt = 0;; ++attempt) {
          if (psink)
            psink->begin_afc();
          else
            sink.begin_afc(base[i]);
          try {
            xstats += extractor.extract(
                pr.groups[static_cast<std::size_t>(a.group)], a,
                bindings[static_cast<std::size_t>(a.group)], q,
                psink ? static_cast<codegen::RowSink&>(*psink) : sink);
            break;
          } catch (const IoError&) {
            if (attempt >= opts_.cluster.io_retry_limit ||
                !(psink ? psink->rollback_afc() : sink.rollback_afc()))
              throw;
            ++stats.io_retries;
            std::this_thread::sleep_for(std::chrono::microseconds(
                opts_.cluster.io_retry_backoff_us << attempt));
          }
        }
        if ((i + 1 - start_afc) % ckpt_window == 0 || i + 1 == nafcs)
          checkpoint(i + 1);
      }
      if (start_afc == nafcs) checkpoint(nafcs);  // nothing left to ship

      stats.bytes_read = xstats.bytes_read;
      stats.rows_scanned = xstats.rows_scanned;
      stats.rows_matched = xstats.rows_matched;
      stats.afcs_interp = xstats.afcs_interp;
      stats.afcs_vector = xstats.afcs_vector;
      stats.bytes_sent = pushdown ? agg_bytes : sink.bytes_sent();
      stats.groups_emitted = agg_groups;
      stats.agg_bytes_shipped = agg_bytes;
      if (pushdown && agg_strat_seen) {
        if (agg_strat == agg::Strategy::kDense)
          ++stats.agg_dense;
        else if (agg_strat == agg::Strategy::kHash)
          ++stats.agg_hash;
        else
          ++stats.agg_radix;
      }
      stats.busy_seconds = busy.elapsed_seconds();

      stop_heartbeat();
      join_reader();
      Payload sp;
      put_node_stats(sp, stats);
      send_frame(fd, kNodeStats, sp);
      // Count before the kEnd flush: once the coordinator sees kEnd the
      // query must already be observable as served (tests rely on it).
      queries_served_.fetch_add(1);
      send_frame(fd, kEnd, Payload());
    } catch (const std::exception& e) {
      stop_heartbeat();
      join_reader();
      send_error(fd, e.what(), classify_error(e));
    }
  } catch (const Error&) {
    // Connection-level failure before/outside a query: nothing to answer.
  }
}

}  // namespace adv::storm
