#include "storm/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "afc/planner.h"
#include "common/error.h"
#include "faultz/faultz.h"
#include "sql/ast.h"
#include "storm/wire.h"

namespace adv::storm {

// The frame codec (Payload, send_frame/recv_frame, MsgType, Socket) is
// shared with the node daemon and the distribution coordinator — see
// storm/wire.h.
using namespace wire;

namespace {

// Why a running query ended, judged from its token: an explicit cancel
// (client kCancel, disconnect, server drain) wins over an expired
// deadline; anything else is a plain failure.
sched::Outcome classify_failure(const CancelToken& token) {
  if (token.cancel_requested()) return sched::Outcome::kCancelled;
  if (token.deadline_exceeded()) return sched::Outcome::kDeadlineExceeded;
  return sched::Outcome::kFailed;
}

// Fixed-size kStats v2 tail: query_id + queue_wait + run_seconds + 7
// outcome counters + 4 gauges, 8 bytes each.  The v2.1 retry-after hint
// rides after it as its own optional tail so a v2 peer parses unchanged.
constexpr std::size_t kSchedTailBytes = 14 * 8;

}  // namespace

// ---------------------------------------------------------------------------
// Server

QueryServer::QueryServer(std::shared_ptr<codegen::DataServicePlan> plan,
                         ClusterOptions opts, int port,
                         const afc::ChunkFilter* filter,
                         sched::SchedulerOptions sched_opts,
                         serve::ServeOptions serve_opts)
    : plan_(std::move(plan)),
      filter_(filter),
      cluster_(plan_, opts),
      scheduler_(sched_opts),
      serve_opts_(std::move(serve_opts)) {
  if (serve_opts_.enable_result_cache) {
    result_cache_ =
        std::make_unique<serve::ResultCache>(serve_opts_.result_cache);
  }
  if (serve_opts_.plan_cache_capacity > 0) {
    plan_cache_ = std::make_unique<PlanCache>(serve_opts_.plan_cache_capacity);
  }
  ignore_sigpipe();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw IoError("cannot create server socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(listen_fd_);
    throw IoError(std::string("cannot bind query server: ") +
                  std::strerror(errno));
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw IoError("cannot listen on query server socket");
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

QueryServer::~QueryServer() { shutdown(); }

void QueryServer::shutdown() {
  if (stopping_.exchange(true)) return;
  // 1. Stop accepting.  shutdown() — not close() — unblocks accept()
  // without racing a concurrent accept against kernel fd reuse; the fd is
  // closed only once the acceptor joined.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // 2. Drain the scheduler: future submissions are rejected, queued
  // queries are cancelled (their connections send kError and wind down),
  // and running queries finish streaming their results.
  scheduler_.drain();
  // 3. Unblock idle connections (parked in recv waiting for a query
  // frame) and join every connection thread.  Collect node pointers under
  // the lock but join outside it — serving threads take conn_mu_ to close
  // their fd on the way out.
  std::vector<Connection*> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (auto& c : connections_) {
      // Busy connections already had their fate settled by the drain
      // (queued ones expelled, running ones completed); they deliver
      // their final frames and exit on their own — forcing their sockets
      // here would chop that delivery mid-frame.
      if (c->fd >= 0 && !c->busy.load()) ::shutdown(c->fd, SHUT_RDWR);
      conns.push_back(c.get());
    }
  }
  for (Connection* c : conns)
    if (c->thread.joinable()) c->thread.join();
  std::lock_guard<std::mutex> lk(conn_mu_);
  connections_.clear();
}

void QueryServer::accept_loop() {
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

void QueryServer::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryServer::serve_connection(Connection* conn) {
  serve_query(conn);
  // Close under conn_mu_: shutdown() shuts live fds down under the same
  // lock, so it can never touch a closed (possibly reused) descriptor.
  std::lock_guard<std::mutex> lk(conn_mu_);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true);
}

void QueryServer::serve_query(Connection* conn) {
  const int fd = conn->fd;
  try {
    auto [type, payload] = recv_frame(fd);
    conn->busy.store(true);
    if (type != kQuery) {
      // Covers v1 garbage and the v2.1 distribution frames alike: a
      // DistCoordinator that scatters kNodeQuery at a plain query server
      // gets an immediate typed error (kQuery = non-retryable, so it does
      // not burn its failover budget reconnecting here) instead of a hang.
      send_error(fd, "expected a query frame (node scatter frames belong to adv_node daemons, not the query service)", ErrorKind::kQuery);
      return;
    }
    PartitionSpec part;
    part.num_consumers = payload.get<uint16_t>();
    part.policy = static_cast<PartitionSpec::Policy>(payload.get<uint8_t>());
    part.select_index = payload.get<int32_t>();
    part.range_lo = payload.get<double>();
    part.range_hi = payload.get<double>();
    std::string sql = payload.get_string();
    // v2 tail: deadline + priority (absent from v1 clients).
    double deadline_seconds = 0;
    uint8_t priority = 1;
    if (payload.remaining() >= sizeof(double) + 1) {
      deadline_seconds = payload.get<double>();
      priority = payload.get<uint8_t>();
    }
    // v2.2 tail: the fair-share tenant id (absent = default tenant).
    // Parsed defensively: trailing bytes that do not decode as a sane
    // length-prefixed string are some newer peer's unknown fields, not a
    // tenant id, and must be ignored rather than fail the query.
    std::string tenant;
    if (payload.remaining() >= sizeof(uint32_t)) {
      uint32_t len = payload.get<uint32_t>();
      if (len <= payload.remaining() && len <= 256) {
        tenant.assign(reinterpret_cast<const char*>(payload.raw(len)), len);
      }
    }

    // Admission.
    sched::QueryScheduler::Admission adm =
        scheduler_.submit(priority, deadline_seconds, tenant);
    if (!adm.ctx) {
      Payload rej;
      rej.put<double>(adm.retry_after_seconds);
      rej.put_string(adm.reject_reason);
      // v2.2 tail: the typed kind, so a quota'd tenant is told apart from
      // a genuinely full server.
      rej.put<uint8_t>(static_cast<uint8_t>(adm.reject_kind));
      send_frame(fd, kRejected, rej);
      return;
    }
    std::shared_ptr<sched::QueryContext> ctx = adm.ctx;
    if (adm.queued) {
      Payload qd;
      qd.put<uint64_t>(ctx->id);
      qd.put<uint32_t>(static_cast<uint32_t>(adm.queue_position));
      qd.put<uint32_t>(static_cast<uint32_t>(adm.queue_depth));
      send_frame(fd, kQueued, qd);
    }

    // Control reader: for the rest of the query's life, a kCancel frame or
    // a disconnect fires the token (which the planner, the extraction
    // workers, and the row-shipping path all poll).
    std::thread reader([fd, ctx] {
      try {
        for (;;) {
          auto [t, p] = recv_frame(fd);
          if (t == kCancel) {
            ctx->token.cancel();
            return;
          }
          // Ignore anything else the client sends mid-query.
        }
      } catch (const Error&) {
        // EOF or socket error: the client is gone.
        ctx->token.cancel();
      }
    });
    bool reader_joined = false;
    // Joined only after the query's outcome is recorded, so a disconnect
    // observed by the reader can never misclassify a finished query.
    auto join_reader = [&]() noexcept {
      if (reader_joined) return;
      reader_joined = true;
      ::shutdown(fd, SHUT_RD);  // unblocks the reader's recv
      reader.join();
    };

    if (!scheduler_.wait_admitted(ctx)) {
      // Left the queue without running: client cancel, expired deadline,
      // or server drain.  The scheduler already recorded the outcome.
      join_reader();
      Payload err;
      err.put_string(ctx->token.cancel_requested() ? "query cancelled"
                                                   : "query deadline exceeded");
      send_frame(fd, kError, err);
      return;
    }

    bool finished = false;
    auto finish = [&](sched::Outcome o) {
      if (finished) return;
      finished = true;
      scheduler_.finish(ctx, o);
    };
    // Result-cache single-flight state; lives outside the try so an
    // aborted leader releases its flight (followers then execute
    // themselves instead of waiting forever).
    serve::ResultCache::FlightPtr flight;
    auto abort_flight = [&]() noexcept {
      if (flight != nullptr) {
        result_cache_->publish(flight, nullptr);
        flight = nullptr;
      }
    };
    try {
      Payload admitted;
      admitted.put<uint64_t>(ctx->id);
      admitted.put<double>(ctx->queue_wait_seconds);
      send_frame(fd, kAdmitted, admitted);

      // A query-service worker dying right after admission must release the
      // run slot (finish in the catch below) and answer with kError, never
      // leave the client or the scheduler hanging.
      faultz::maybe_throw_io(faultz::Site::kServeQuery,
                             "query-service worker died");

      // Canonical SQL: the parser's printer normalizes formatting, so the
      // cache keys below treat "select *" and "SELECT  *" as one query
      // (the same normalization VirtualTable's plan key uses).  A parse
      // error lands in the catch below exactly as a failed bind would.
      const std::string canon_sql = sql::parse_select(sql).to_string();

      // Plan entry: the bound query, the per-node index runs and the
      // query's footprint, once per canonical SQL.  The schema frame goes
      // out from it before execution so the client can stream row batches
      // straight into typed tables.
      std::shared_ptr<const CachedPlan> planned =
          plan_cache_ != nullptr ? plan_cache_->find(canon_sql) : nullptr;
      if (planned == nullptr) {
        auto fresh =
            std::make_shared<CachedPlan>(cluster_.query_service().submit(sql));
        fresh->node_plans = cluster_.plan_nodes(fresh->query, filter_);
        fresh->footprint =
            afc::plan_footprint(plan_->model(), fresh->node_plans);
        if (plan_cache_ != nullptr) plan_cache_->insert(canon_sql, fresh);
        planned = std::move(fresh);
      }
      // The version covers only the files this query can read, plus the
      // sidecar: a rewrite elsewhere in the dataset keeps its entries.
      auto version_hex_now = [&] {
        return serve::DataVersion::compute(plan_->model(), planned->footprint,
                                           serve_opts_.version_sidecar_dir)
            .hex();
      };
      std::string version_hex;
      if (result_cache_ != nullptr) version_hex = version_hex_now();

      // Result cache: hit, follower (identical query already executing),
      // or leader (must execute and publish).
      std::string result_key;
      serve::ResultEntryPtr cached;
      if (result_cache_ != nullptr) {
        char pk[96];
        std::snprintf(pk, sizeof pk, "%u|%u|%d|%a|%a",
                      static_cast<unsigned>(part.num_consumers),
                      static_cast<unsigned>(part.policy), part.select_index,
                      part.range_lo, part.range_hi);
        result_key = canon_sql + "|" + pk + "|" + version_hex;
        serve::ResultCache::Lookup lk =
            result_cache_->lookup(result_key, &ctx->token);
        if (lk.entry != nullptr) {
          cached = std::move(lk.entry);
        } else if (lk.leader) {
          flight = std::move(lk.flight);  // null after a poisoned hit
        } else {
          cached = result_cache_->wait(lk.flight, &ctx->token);
        }
      }

      if (cached != nullptr) {
        // Serve straight from the cache: schema, batched rows, then the
        // original execution's node stats replayed under fresh sched and
        // serving tails.  No extraction runs.
        Payload schema;
        schema.put<uint16_t>(static_cast<uint16_t>(cached->columns.size()));
        for (const auto& c : cached->columns) {
          schema.put<uint8_t>(static_cast<uint8_t>(c.type));
          schema.put<uint16_t>(static_cast<uint16_t>(c.name.size()));
          schema.put_bytes(c.name.data(), c.name.size());
        }
        send_frame(fd, kSchema, schema);
        constexpr std::size_t kReplayRows = 4096;
        std::vector<double> rowbuf;
        for (std::size_t p = 0; p < cached->partitions.size(); ++p) {
          const expr::Table& t = cached->partitions[p];
          const std::size_t ncols = t.num_cols();
          for (std::size_t r0 = 0; r0 < t.num_rows(); r0 += kReplayRows) {
            const std::size_t n = std::min(kReplayRows, t.num_rows() - r0);
            rowbuf.resize(n * ncols);
            for (std::size_t c = 0; c < ncols; ++c) {
              const std::vector<double>& col = t.column(c);
              for (std::size_t r = 0; r < n; ++r)
                rowbuf[r * ncols + c] = col[r0 + r];
            }
            Payload batch;
            batch.put<uint16_t>(static_cast<uint16_t>(p));
            batch.put<uint32_t>(static_cast<uint32_t>(n));
            batch.put<uint16_t>(static_cast<uint16_t>(ncols));
            batch.put_bytes(rowbuf.data(), rowbuf.size() * sizeof(double));
            send_frame(fd, kRowBatch, batch);
          }
        }
        finish(sched::Outcome::kCompleted);
        join_reader();
        queries_served_.fetch_add(1);
        Payload stats;
        stats.put_bytes(cached->replay_blob.data(),
                        cached->replay_blob.size());
        append_stats_tails(stats, ctx->id, ctx->queue_wait_seconds,
                           ctx->run_seconds, /*served_from_cache=*/true);
        send_frame(fd, kStats, stats);
        send_frame(fd, kEnd, Payload());
        return;
      }

      const expr::BoundQuery& q = planned->query;
      {
        Payload schema;
        std::vector<expr::Table::Column> cols = q.result_columns();
        schema.put<uint16_t>(static_cast<uint16_t>(cols.size()));
        for (const auto& c : cols) {
          schema.put<uint8_t>(static_cast<uint8_t>(c.type));
          schema.put<uint16_t>(static_cast<uint16_t>(c.name.size()));
          schema.put_bytes(c.name.data(), c.name.size());
        }
        send_frame(fd, kSchema, schema);
      }

      // Leaders tee every outgoing batch into per-consumer tables so the
      // result can be published to the cache (and to waiting followers).
      const bool record = flight != nullptr;
      std::vector<expr::Table> teed;
      if (record) {
        teed.assign(std::max<std::size_t>(1, part.num_consumers),
                    expr::Table(q.result_columns()));
      }

      // Stream: the data mover's network leg.  Batches go out as nodes
      // produce them; a send failure (client gone) makes execute_streaming
      // cancel the query and rethrow after its workers joined.
      QueryResult r = cluster_.execute_streaming(
          q,
          [&](const RowBatch& b) {
            if (b.num_rows() == 0) return;
            if (record && static_cast<std::size_t>(b.consumer) < teed.size())
              teed[b.consumer].append_rows(b.data.data(), b.num_rows());
            Payload batch;
            batch.put<uint16_t>(static_cast<uint16_t>(b.consumer));
            batch.put<uint32_t>(static_cast<uint32_t>(b.num_rows()));
            batch.put<uint16_t>(static_cast<uint16_t>(b.num_cols));
            batch.put_bytes(b.data.data(), b.data.size() * sizeof(double));
            send_frame(fd, kRowBatch, batch);
          },
          part, filter_, &planned->node_plans, &ctx->token);

      std::string node_error = r.first_error();
      if (!node_error.empty()) {
        abort_flight();
        finish(classify_failure(ctx->token));
        join_reader();
        Payload err;
        err.put_string(node_error);
        send_frame(fd, kError, err);
        return;
      }

      // Serialize the node-stats section once: it goes out in this kStats
      // frame and (verbatim) in every future cache hit's.
      Payload nodestats;
      nodestats.put<uint32_t>(static_cast<uint32_t>(r.node_stats.size()));
      for (const auto& ns : r.node_stats) {
        nodestats.put<int32_t>(ns.node_id);
        nodestats.put<uint64_t>(ns.afcs);
        nodestats.put<uint64_t>(ns.bytes_read);
        nodestats.put<uint64_t>(ns.rows_matched);
        nodestats.put<double>(ns.busy_seconds);
      }

      if (record) {
        // Publish only what provably matches the keyed version: a rewrite
        // landing mid-execution may have produced torn rows, so recheck
        // the same footprint before the entry becomes visible.  On
        // mismatch followers fall back to executing themselves.
        if (version_hex_now() == version_hex) {
          auto entry = std::make_shared<serve::ResultEntry>();
          entry->columns = q.result_columns();
          entry->partitions = std::move(teed);
          entry->replay_blob = nodestats.data();
          result_cache_->publish(flight, std::move(entry));
          flight = nullptr;
        } else {
          abort_flight();
        }
      }

      // Record the outcome (and the query's run time) before joining the
      // reader and before shipping stats that include it.
      finish(sched::Outcome::kCompleted);
      join_reader();
      queries_served_.fetch_add(1);

      Payload stats;
      stats.put_bytes(nodestats.data().data(), nodestats.data().size());
      append_stats_tails(stats, ctx->id, ctx->queue_wait_seconds,
                         ctx->run_seconds, /*served_from_cache=*/false);
      send_frame(fd, kStats, stats);
      send_frame(fd, kEnd, Payload());
    } catch (const Error& e) {
      abort_flight();
      finish(classify_failure(ctx->token));
      join_reader();
      Payload err;
      err.put_string(e.what());
      try {
        send_frame(fd, kError, err);
      } catch (const Error&) {
        // The connection is already gone.
      }
    }
  } catch (const Error&) {
    // Connection-level failure outside a query's lifecycle: nothing more
    // we can do; the client sees a closed socket.
  }
}

void QueryServer::append_stats_tails(wire::Payload& stats, uint64_t query_id,
                                     double queue_wait_seconds,
                                     double run_seconds,
                                     bool served_from_cache) const {
  sched::SchedulerMetrics m = scheduler_.metrics();
  // v2 sched tail.
  stats.put<uint64_t>(query_id);
  stats.put<double>(queue_wait_seconds);
  stats.put<double>(run_seconds);
  stats.put<uint64_t>(m.submitted);
  stats.put<uint64_t>(m.admitted);
  stats.put<uint64_t>(m.rejected);
  stats.put<uint64_t>(m.completed);
  stats.put<uint64_t>(m.failed);
  stats.put<uint64_t>(m.cancelled);
  stats.put<uint64_t>(m.deadline_exceeded);
  stats.put<uint64_t>(m.queue_depth);
  stats.put<uint64_t>(m.running);
  stats.put<uint64_t>(m.peak_running);
  stats.put<uint64_t>(m.peak_queue_depth);
  // v2.1 tail: the EWMA pacing hint, so well-behaved clients slow down
  // before the queue fills instead of discovering kRejected.
  stats.put<double>(scheduler_.retry_after_hint());
  // v2.2 serving tail: cache effectiveness, latency distributions, and the
  // per-tenant ledger.
  stats.put<uint8_t>(served_from_cache ? 1 : 0);
  serve::ResultCache::Stats rc = result_cache_stats();
  stats.put<uint64_t>(rc.lookups);
  stats.put<uint64_t>(rc.hits);
  stats.put<uint64_t>(rc.misses);
  stats.put<uint64_t>(rc.coalesced);
  stats.put<uint64_t>(rc.inserts);
  stats.put<uint64_t>(rc.evictions);
  stats.put<uint64_t>(rc.too_large);
  stats.put<uint64_t>(rc.poisoned);
  stats.put<uint64_t>(rc.entries);
  stats.put<uint64_t>(rc.bytes);
  PlanCache::Stats pc = plan_cache_stats();
  stats.put<uint64_t>(pc.hits);
  stats.put<uint64_t>(pc.misses);
  stats.put<uint64_t>(pc.entries);
  stats.put<uint64_t>(pc.capacity);
  auto put_hist = [&stats](const sched::LatencyHistogram& h) {
    stats.put<uint64_t>(h.count);
    stats.put<double>(h.sum_seconds);
    stats.put<uint16_t>(static_cast<uint16_t>(h.buckets.size()));
    for (uint64_t b : h.buckets) stats.put<uint64_t>(b);
  };
  put_hist(m.queue_wait);
  put_hist(m.run_time);
  stats.put<uint16_t>(static_cast<uint16_t>(m.tenants.size()));
  for (const auto& [id, t] : m.tenants) {
    stats.put_string(id);
    stats.put<double>(t.weight);
    stats.put<uint64_t>(t.submitted);
    stats.put<uint64_t>(t.admitted);
    stats.put<uint64_t>(t.rejected);
    stats.put<uint64_t>(t.completed);
    stats.put<uint64_t>(t.queued);
    stats.put<uint64_t>(t.running);
  }
}

// ---------------------------------------------------------------------------
// Client

std::string SchedInfo::pretty() const {
  if (!serving_valid) return "";
  char line[256];
  std::string out;
  std::snprintf(line, sizeof line,
                "result cache: %llu/%llu hits (%.0f%%), %llu coalesced, "
                "%zu entries / %.1f KiB, %llu evictions, %llu too-large\n",
                static_cast<unsigned long long>(result_cache.hits),
                static_cast<unsigned long long>(result_cache.lookups),
                result_cache.lookups
                    ? 100.0 * static_cast<double>(result_cache.hits) /
                          static_cast<double>(result_cache.lookups)
                    : 0.0,
                static_cast<unsigned long long>(result_cache.coalesced),
                result_cache.entries, result_cache.bytes / 1024.0,
                static_cast<unsigned long long>(result_cache.evictions),
                static_cast<unsigned long long>(result_cache.too_large));
  out += line;
  std::snprintf(line, sizeof line,
                "plan cache: %llu/%llu hits, %zu/%zu entries\n",
                static_cast<unsigned long long>(plan_cache.hits),
                static_cast<unsigned long long>(plan_cache.hits +
                                                plan_cache.misses),
                plan_cache.entries, plan_cache.capacity);
  out += line;
  std::snprintf(line, sizeof line,
                "queue wait p50/p99/p999: %.1f/%.1f/%.1f ms   "
                "run p50/p99/p999: %.1f/%.1f/%.1f ms\n",
                queue_wait_hist.quantile_seconds(0.50) * 1e3,
                queue_wait_hist.quantile_seconds(0.99) * 1e3,
                queue_wait_hist.quantile_seconds(0.999) * 1e3,
                run_time_hist.quantile_seconds(0.50) * 1e3,
                run_time_hist.quantile_seconds(0.99) * 1e3,
                run_time_hist.quantile_seconds(0.999) * 1e3);
  out += line;
  uint64_t total_completed = 0;
  for (const auto& [id, t] : tenants) total_completed += t.completed;
  for (const auto& [id, t] : tenants) {
    std::snprintf(
        line, sizeof line,
        "tenant %-12s w=%-4.3g completed %llu (%.0f%%)  running %llu  "
        "queued %llu  rejected %llu\n",
        id.empty() ? "(default)" : id.c_str(), t.weight,
        static_cast<unsigned long long>(t.completed),
        total_completed ? 100.0 * static_cast<double>(t.completed) /
                              static_cast<double>(total_completed)
                        : 0.0,
        static_cast<unsigned long long>(t.running),
        static_cast<unsigned long long>(t.queued),
        static_cast<unsigned long long>(t.rejected));
    out += line;
  }
  return out;
}

RemoteResult QueryClient::execute(const std::string& sql,
                                  const PartitionSpec& partition,
                                  const QueryOptions& opts) const {
  Socket sock(connect_with_timeout(host_, port_, connect_timeout_seconds_));

  Payload q;
  q.put<uint16_t>(static_cast<uint16_t>(partition.num_consumers));
  q.put<uint8_t>(static_cast<uint8_t>(partition.policy));
  q.put<int32_t>(partition.select_index);
  q.put<double>(partition.range_lo);
  q.put<double>(partition.range_hi);
  q.put_string(sql);
  // v2 tail (a v1 server's positional parse simply ignores it).
  q.put<double>(opts.deadline_seconds);
  q.put<uint8_t>(opts.priority);
  // v2.2 tail: the fair-share tenant id.
  q.put_string(opts.tenant);
  send_frame(sock.fd, kQuery, q);

  RemoteResult result;
  std::vector<expr::Table::Column> cols;
  std::vector<double> rowbuf;
  bool cancel_sent = false;
  for (;;) {
    auto [type, payload] =
        recv_frame_cancellable(sock.fd, opts.cancel, cancel_sent);
    switch (type) {
      case kQueued: {
        uint64_t id = payload.get<uint64_t>();
        uint32_t position = payload.get<uint32_t>();
        uint32_t depth = payload.get<uint32_t>();
        if (opts.on_queued) opts.on_queued(id, position, depth);
        break;
      }
      case kAdmitted: {
        uint64_t id = payload.get<uint64_t>();
        double wait = payload.get<double>();
        if (opts.on_admitted) opts.on_admitted(id, wait);
        break;
      }
      case kRejected: {
        double retry_after = payload.get<double>();
        std::string msg = payload.get_string();
        // v2.2: typed reject kind (absent from older servers).
        auto kind = sched::RejectKind::kQueueFull;
        if (payload.remaining() >= 1)
          kind = static_cast<sched::RejectKind>(payload.get<uint8_t>());
        if (kind == sched::RejectKind::kTenantQuota)
          throw TenantQuotaError("server: " + msg, retry_after);
        throw QueueFullError("server: " + msg, retry_after, kind);
      }
      case kSchema: {
        uint16_t n = payload.get<uint16_t>();
        cols.clear();
        for (uint16_t i = 0; i < n; ++i) {
          expr::Table::Column c;
          c.type = static_cast<DataType>(payload.get<uint8_t>());
          uint16_t len = payload.get<uint16_t>();
          c.name.assign(
              reinterpret_cast<const char*>(payload.raw(len)), len);
          cols.push_back(std::move(c));
        }
        result.partitions.assign(
            static_cast<std::size_t>(partition.num_consumers),
            expr::Table(cols));
        break;
      }
      case kRowBatch: {
        uint16_t consumer = payload.get<uint16_t>();
        uint32_t nrows = payload.get<uint32_t>();
        uint16_t ncols = payload.get<uint16_t>();
        if (consumer >= result.partitions.size())
          throw IoError("row batch for unknown consumer");
        // The rows are read at the schema's width, so a frame of another
        // width must fail typed rather than be read past its end.
        if (ncols != cols.size())
          throw IoError("row batch has " + std::to_string(ncols) +
                        " columns, schema has " +
                        std::to_string(cols.size()));
        const std::size_t nvals = static_cast<std::size_t>(nrows) * ncols;
        const unsigned char* vals = payload.raw(nvals * sizeof(double));
        rowbuf.resize(nvals);
        std::memcpy(rowbuf.data(), vals, nvals * sizeof(double));
        result.partitions[consumer].append_rows(rowbuf.data(), nrows);
        break;
      }
      case kStats: {
        uint32_t n = payload.get<uint32_t>();
        for (uint32_t i = 0; i < n; ++i) {
          NodeStats ns;
          ns.node_id = payload.get<int32_t>();
          ns.afcs = payload.get<uint64_t>();
          ns.bytes_read = payload.get<uint64_t>();
          ns.rows_matched = payload.get<uint64_t>();
          ns.busy_seconds = payload.get<double>();
          result.node_stats.push_back(ns);
        }
        if (payload.remaining() >= kSchedTailBytes) {
          SchedInfo& s = result.sched;
          s.valid = true;
          s.query_id = payload.get<uint64_t>();
          s.queue_wait_seconds = payload.get<double>();
          s.run_seconds = payload.get<double>();
          s.submitted = payload.get<uint64_t>();
          s.admitted = payload.get<uint64_t>();
          s.rejected = payload.get<uint64_t>();
          s.completed = payload.get<uint64_t>();
          s.failed = payload.get<uint64_t>();
          s.cancelled = payload.get<uint64_t>();
          s.deadline_exceeded = payload.get<uint64_t>();
          s.queue_depth = payload.get<uint64_t>();
          s.running = payload.get<uint64_t>();
          s.peak_running = payload.get<uint64_t>();
          s.peak_queue_depth = payload.get<uint64_t>();
          // v2.1: optional pacing hint (absent from v2 servers).
          if (payload.remaining() >= sizeof(double))
            s.retry_after_hint_seconds = payload.get<double>();
          // v2.2: serving tail (cache stats, histograms, tenant ledger).
          if (payload.remaining() >= 1) {
            s.serving_valid = true;
            s.served_from_cache = payload.get<uint8_t>() != 0;
            s.result_cache.lookups = payload.get<uint64_t>();
            s.result_cache.hits = payload.get<uint64_t>();
            s.result_cache.misses = payload.get<uint64_t>();
            s.result_cache.coalesced = payload.get<uint64_t>();
            s.result_cache.inserts = payload.get<uint64_t>();
            s.result_cache.evictions = payload.get<uint64_t>();
            s.result_cache.too_large = payload.get<uint64_t>();
            s.result_cache.poisoned = payload.get<uint64_t>();
            s.result_cache.entries =
                static_cast<std::size_t>(payload.get<uint64_t>());
            s.result_cache.bytes =
                static_cast<std::size_t>(payload.get<uint64_t>());
            s.plan_cache.hits = payload.get<uint64_t>();
            s.plan_cache.misses = payload.get<uint64_t>();
            s.plan_cache.entries =
                static_cast<std::size_t>(payload.get<uint64_t>());
            s.plan_cache.capacity =
                static_cast<std::size_t>(payload.get<uint64_t>());
            auto get_hist = [&payload](sched::LatencyHistogram& h) {
              h.count = payload.get<uint64_t>();
              h.sum_seconds = payload.get<double>();
              uint16_t nb = payload.get<uint16_t>();
              for (uint16_t i = 0; i < nb; ++i) {
                uint64_t v = payload.get<uint64_t>();
                if (i < h.buckets.size()) h.buckets[i] = v;
              }
            };
            get_hist(s.queue_wait_hist);
            get_hist(s.run_time_hist);
            uint16_t nt = payload.get<uint16_t>();
            for (uint16_t i = 0; i < nt; ++i) {
              std::string id = payload.get_string();
              SchedInfo::TenantCounters tc;
              tc.weight = payload.get<double>();
              tc.submitted = payload.get<uint64_t>();
              tc.admitted = payload.get<uint64_t>();
              tc.rejected = payload.get<uint64_t>();
              tc.completed = payload.get<uint64_t>();
              tc.queued = payload.get<uint64_t>();
              tc.running = payload.get<uint64_t>();
              s.tenants.emplace(std::move(id), tc);
            }
          }
        }
        break;
      }
      case kEnd:
        return result;
      case kError: {
        std::string msg = payload.get_string();
        if (opts.cancel && opts.cancel->cancelled())
          throw CancelledError("server: " + msg);
        throw QueryError("server: " + msg);
      }
      default:
        throw IoError("unexpected frame type from server");
    }
  }
}

}  // namespace adv::storm
