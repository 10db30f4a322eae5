#include "storm/net.h"

#include <sys/socket.h>

#include <cstdio>

#include "afc/planner.h"
#include "common/error.h"
#include "faultz/faultz.h"
#include "sql/ast.h"
#include "storm/wire.h"

namespace adv::storm {

// The frame codecs, the listener and the control reader are shared with
// the node daemon and the distribution coordinator — see storm/wire.h.
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
  listener_ = std::make_unique<Listener>(
      port, "query server",
      [this](Listener::Connection& conn) { serve_query(conn); });
}

QueryServer::~QueryServer() { shutdown(); }

void QueryServer::shutdown() {
  // 1. Stop accepting.
  if (!listener_->stop_accepting()) return;
  // 2. Drain the scheduler: future submissions are rejected, queued
  // queries are cancelled (their connections send kError and wind down),
  // and running queries finish streaming their results.
  scheduler_.drain();
  // 3. Unblock idle connections (parked in recv waiting for a query
  // frame) and join every connection thread.  Busy connections already
  // had their fate settled by the drain (queued ones expelled, running
  // ones completed); they deliver their final frames and exit on their
  // own — forcing their sockets here would chop that delivery mid-frame.
  listener_->close_connections([](Listener::Connection& c) {
    if (c.fd >= 0 && !c.busy.load()) ::shutdown(c.fd, SHUT_RDWR);
  });
}

void QueryServer::serve_query(Listener::Connection& conn) {
  const int fd = conn.fd;
  try {
    auto [type, payload] = recv_frame(fd);
    conn.busy.store(true);
    if (type != kQuery) {
      // Covers v1 garbage and the v2.1 distribution frames alike: a
      // DistCoordinator that scatters kNodeQuery at a plain query server
      // gets an immediate typed error (kQuery = non-retryable, so it does
      // not burn its failover budget reconnecting here) instead of a hang.
      send_error(fd, "expected a query frame (node scatter frames belong to adv_node daemons, not the query service)", ErrorKind::kQuery);
      return;
    }
    PartitionSpec part = get_partition(payload);
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
    // tenant id, and must be ignored rather than fail the query.  The
    // v2.3 block_size follows it, so it is read only when the tenant
    // parsed.
    std::string tenant;
    if (payload.remaining() >= sizeof(uint32_t)) {
      uint32_t len = payload.get<uint32_t>();
      if (len <= payload.remaining() && len <= 256) {
        tenant.assign(reinterpret_cast<const char*>(payload.raw(len)), len);
        if (payload.remaining() >= sizeof(uint64_t))
          part.block_size = payload.get<uint64_t>();
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
    // workers, and the row-shipping path all poll).  Joined only after the
    // query's outcome is recorded, so a disconnect observed by the reader
    // can never misclassify a finished query.
    ControlReader reader(fd, ctx->token);

    if (!scheduler_.wait_admitted(ctx)) {
      // Left the queue without running: client cancel, expired deadline,
      // or server drain.  The scheduler already recorded the outcome.
      reader.join();
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
        char pk[128];
        std::snprintf(pk, sizeof pk, "%u|%u|%d|%a|%a|%llu",
                      static_cast<unsigned>(part.num_consumers),
                      static_cast<unsigned>(part.policy), part.select_index,
                      part.range_lo, part.range_hi,
                      static_cast<unsigned long long>(part.block_size));
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

      // The node-stats section of kStats: a miss serializes its own
      // execution's once (it also becomes the entry's replay blob), a hit
      // replays the original execution's under fresh sched and serving
      // tails.
      Payload nodestats;
      const bool from_cache = cached != nullptr;
      if (from_cache) {
        // Serve straight from the cache: the schema and row-batch frames
        // the leader sent, byte for byte.  No extraction runs.
        write_all(fd, cached->frames.data(), cached->frames.size());
      } else {
        const expr::BoundQuery& q = planned->query;
        // Every schema and row-batch frame is appended to `sent` and
        // written from there.  A leader keeps them all for the cache entry
        // (and its waiting followers); anyone else keeps only the frame in
        // flight.
        const bool record = flight != nullptr;
        std::vector<unsigned char> sent;
        std::size_t unsent = 0;
        auto flush = [&] {
          write_all(fd, sent.data() + unsent, sent.size() - unsent);
          if (record)
            unsent = sent.size();
          else
            sent.clear();
        };
        // The schema goes out before execution so the client can stream
        // row batches straight into typed tables.
        Payload schema;
        put_schema(schema, q.result_columns());
        append_frame(sent, kSchema, schema);
        flush();

        // Stream: the data mover's network leg.  Batches go out as nodes
        // produce them; a send failure (client gone) makes
        // execute_streaming cancel the query and rethrow after its workers
        // joined.
        QueryResult r = cluster_.execute_streaming(
            q,
            [&](const RowBatch& b) {
              if (b.num_rows() == 0) return;
              append_row_batch(sent, b);
              flush();
            },
            part, filter_, &planned->node_plans, &ctx->token);

        // A failed node fails the query, through the catch below.
        if (std::string e = r.first_error(); !e.empty()) throw QueryError(e);

        nodestats.put<uint32_t>(static_cast<uint32_t>(r.node_stats.size()));
        for (const auto& ns : r.node_stats) {
          nodestats.put<int32_t>(ns.node_id);
          nodestats.put<uint64_t>(ns.afcs);
          nodestats.put<uint64_t>(ns.bytes_read);
          nodestats.put<uint64_t>(ns.rows_matched);
          nodestats.put<double>(ns.busy_seconds);
        }

        if (record) {
          // Publish only what provably matches the keyed version: a
          // rewrite landing mid-execution may have produced torn rows, so
          // recheck the same footprint before the entry becomes visible.
          // On mismatch followers fall back to executing themselves.
          if (version_hex_now() == version_hex) {
            auto entry = std::make_shared<serve::ResultEntry>();
            entry->frames = std::move(sent);
            entry->replay_blob = nodestats.data();
            result_cache_->publish(flight, std::move(entry));
            flight = nullptr;
          } else {
            abort_flight();
          }
        }
      }

      // Record the outcome (and the query's run time) before joining the
      // reader and before shipping stats that include it.
      finish(sched::Outcome::kCompleted);
      reader.join();
      queries_served_.fetch_add(1);

      Payload stats(from_cache ? cached->replay_blob : nodestats.data());
      append_stats_tails(stats, ctx->id, ctx->queue_wait_seconds,
                         ctx->run_seconds, from_cache);
      send_frame(fd, kStats, stats);
      send_frame(fd, kEnd, Payload());
    } catch (const Error& e) {
      abort_flight();
      finish(classify_failure(ctx->token));
      reader.join();
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
  auto put_u64s = [&stats](std::initializer_list<uint64_t> vs) {
    for (uint64_t v : vs) stats.put<uint64_t>(v);
  };
  // v2 sched tail.
  stats.put<uint64_t>(query_id);
  stats.put<double>(queue_wait_seconds);
  stats.put<double>(run_seconds);
  put_u64s({m.submitted, m.admitted, m.rejected, m.completed, m.failed,
            m.cancelled, m.deadline_exceeded, m.queue_depth, m.running,
            m.peak_running, m.peak_queue_depth});
  // v2.1 tail: the EWMA pacing hint, so well-behaved clients slow down
  // before the queue fills instead of discovering kRejected.
  stats.put<double>(scheduler_.retry_after_hint());
  // v2.2 serving tail: cache effectiveness, latency distributions, and the
  // per-tenant ledger.
  stats.put<uint8_t>(served_from_cache ? 1 : 0);
  serve::ResultCache::Stats rc = result_cache_stats();
  put_u64s({rc.lookups, rc.hits, rc.misses, rc.coalesced, rc.inserts,
            rc.evictions, rc.too_large, rc.poisoned, rc.entries, rc.bytes});
  PlanCache::Stats pc = plan_cache_stats();
  put_u64s({pc.hits, pc.misses, pc.entries, pc.capacity});
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
    put_u64s({t.submitted, t.admitted, t.rejected, t.completed, t.queued,
              t.running});
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
  put_partition(q, partition);
  q.put_string(sql);
  // v2 tail (a v1 server's positional parse simply ignores it).
  q.put<double>(opts.deadline_seconds);
  q.put<uint8_t>(opts.priority);
  // v2.2 tail: the fair-share tenant id.
  q.put_string(opts.tenant);
  // v2.3 tail: the kBlockCyclic block size.
  q.put<uint64_t>(partition.block_size);
  send_frame(sock.fd, kQuery, q);

  RemoteResult result;
  std::vector<expr::Table::Column> cols;
  std::vector<double> rowbuf;
  bool cancel_sent = false;
  for (;;) {
    auto [type, payload] =
        recv_frame_watched(sock.fd, 0, opts.cancel, &cancel_sent);
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
        cols = get_schema(payload);
        result.partitions.assign(
            static_cast<std::size_t>(partition.num_consumers),
            expr::Table(cols));
        break;
      }
      case kRowBatch: {
        const RowBatchView v =
            get_row_batch(payload, result.partitions.size(), cols.size());
        rowbuf.clear();
        v.append_to(rowbuf);
        result.partitions[v.consumer].append_rows(rowbuf.data(), v.nrows);
        break;
      }
      case kStats: {
        auto get_u64s = [&payload](std::initializer_list<uint64_t*> fs) {
          for (uint64_t* f : fs) *f = payload.get<uint64_t>();
        };
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
          get_u64s({&s.submitted, &s.admitted, &s.rejected, &s.completed,
                    &s.failed, &s.cancelled, &s.deadline_exceeded,
                    &s.queue_depth, &s.running, &s.peak_running,
                    &s.peak_queue_depth});
          // v2.1: optional pacing hint (absent from v2 servers).
          if (payload.remaining() >= sizeof(double))
            s.retry_after_hint_seconds = payload.get<double>();
          // v2.2: serving tail (cache stats, histograms, tenant ledger).
          if (payload.remaining() >= 1) {
            s.serving_valid = true;
            s.served_from_cache = payload.get<uint8_t>() != 0;
            serve::ResultCache::Stats& rc = s.result_cache;
            get_u64s({&rc.lookups, &rc.hits, &rc.misses, &rc.coalesced,
                      &rc.inserts, &rc.evictions, &rc.too_large,
                      &rc.poisoned});
            rc.entries = static_cast<std::size_t>(payload.get<uint64_t>());
            rc.bytes = static_cast<std::size_t>(payload.get<uint64_t>());
            PlanCache::Stats& pc = s.plan_cache;
            get_u64s({&pc.hits, &pc.misses});
            pc.entries = static_cast<std::size_t>(payload.get<uint64_t>());
            pc.capacity = static_cast<std::size_t>(payload.get<uint64_t>());
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
              get_u64s({&tc.submitted, &tc.admitted, &tc.rejected,
                        &tc.completed, &tc.queued, &tc.running});
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
