// Networked query service: the client-facing half of the STORM middleware.
//
// The paper's clients submit SQL to the query service over the network and
// the data mover streams selected rows back to the client's processors.
// QueryServer serves one dataset over TCP (loopback or LAN); QueryClient
// connects, submits a query, and receives partitioned row batches.
//
// Every connection passes through the sched::QueryScheduler admission
// controller before touching the shared StormCluster: at most
// `max_concurrent_queries` execute at once, up to `max_queue_depth` more
// wait in a priority/FIFO queue, and anything beyond that is rejected
// with a retry-after hint.  Results stream back batch-by-batch as nodes
// produce them, and a per-connection control reader lets the client
// cancel a running (or queued) query mid-stream — see docs/SERVING.md.
//
// Wire protocol v2 (little-endian):
//   frame  := u32 payload_length, u8 type, payload
//   types:
//     0x01 kQuery     payload = u16 num_consumers, u8 policy,
//                               i32 select_index, f64 range_lo, f64 range_hi,
//                               u32 sql_length, sql bytes,
//                               [v2 tail: f64 deadline_seconds, u8 priority]
//                               [v2.2 tail: u32 tenant_length, tenant bytes —
//                                the fair-share account; absent = the
//                                default tenant]
//                               [v2.3 tail: u64 block_size — kBlockCyclic's
//                                block; read only when the tenant tail
//                                parsed, absent = 64]
//     0x02 kSchema    payload = u16 ncols, then per column:
//                               u8 type, u16 name_length, name bytes
//     0x03 kRowBatch  payload = u16 consumer, u32 nrows, u16 ncols,
//                               nrows*ncols f64 values
//     0x04 kStats     payload = u32 nnodes, per node: i32 node, u64 afcs,
//                               u64 bytes_read, u64 rows_matched,
//                               f64 busy_seconds
//                               [v2 tail: u64 query_id, f64 queue_wait_s,
//                                f64 run_s, u64 submitted, u64 admitted,
//                                u64 rejected, u64 completed, u64 failed,
//                                u64 cancelled, u64 deadline_exceeded,
//                                u64 queue_depth, u64 running,
//                                u64 peak_running, u64 peak_queue_depth]
//                               [v2.1 tail: f64 retry_after_hint_seconds —
//                                the scheduler's EWMA-derived pacing hint,
//                                so clients back off before being rejected]
//                               [v2.2 tail: u8 served_from_cache,
//                                10 x u64 result-cache counters (lookups,
//                                hits, misses, coalesced, inserts,
//                                evictions, too_large, poisoned, entries,
//                                bytes), 4 x u64 plan-cache counters (hits,
//                                misses, entries, capacity), two latency
//                                histograms (queue wait, run time; each =
//                                u64 count, f64 sum_seconds, u16 nbuckets,
//                                nbuckets x u64), u16 ntenants, per tenant:
//                                u32 id_length, id bytes, f64 weight,
//                                u64 submitted, admitted, rejected,
//                                completed, queued, running]
//     0x05 kEnd       payload = empty
//     0x06 kError     payload = u32 length, message bytes
//     0x07 kCancel    client -> server: abandon the in-flight query
//     0x08 kQueued    payload = u64 query_id, u32 position, u32 depth
//     0x09 kAdmitted  payload = u64 query_id, f64 queue_wait_seconds
//     0x0A kRejected  payload = f64 retry_after_seconds,
//                               u32 length, message bytes
//                               [v2.2 tail: u8 reject_kind
//                                (sched::RejectKind) — tells a quota'd
//                                tenant apart from a genuinely full server]
//
// v1 interop: the kQuery tails and the kStats tails are optional — an older
// peer simply never sends or reads them (payload parsing is positional,
// trailing bytes are ignored).  The partition fields, kSchema and kRowBatch
// are coded by storm/wire.h's put_/get_ pairs, which the node daemon and
// the coordinator share.  The distribution frames (0x10+, node daemons and
// the scatter/gather coordinator) are documented in storm/wire.h and
// docs/DISTRIBUTION.md.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "sched/scheduler.h"
#include "serve/data_version.h"
#include "serve/plan_cache.h"
#include "serve/result_cache.h"
#include "storm/cluster.h"
#include "storm/wire.h"

namespace adv::storm {

// Serves one dataset on a TCP port.  Each connection is handled on its own
// thread; queries on different connections pass through one shared
// admission scheduler and execute on one shared StormCluster.
class QueryServer {
 public:
  // Binds to 127.0.0.1:`port` (0 = ephemeral).  Throws IoError on failure.
  QueryServer(std::shared_ptr<codegen::DataServicePlan> plan,
              ClusterOptions opts = {}, int port = 0,
              const afc::ChunkFilter* filter = nullptr,
              sched::SchedulerOptions sched_opts = {},
              serve::ServeOptions serve_opts = serve::ServeOptions{});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // The bound port.
  int port() const { return listener_->port(); }
  uint64_t queries_served() const { return queries_served_.load(); }
  sched::SchedulerMetrics scheduler_metrics() const {
    return scheduler_.metrics();
  }
  // Zero-value stats when the respective cache is disabled.
  serve::ResultCache::Stats result_cache_stats() const {
    return result_cache_ ? result_cache_->stats()
                         : serve::ResultCache::Stats{};
  }
  PlanCache::Stats plan_cache_stats() const {
    return plan_cache_ ? plan_cache_->stats() : PlanCache::Stats{};
  }
  // The dataset's current version as the server computes it (tests use it
  // to prove that an in-place rewrite changes the cache key).
  serve::DataVersion data_version() const {
    return serve::DataVersion::compute(*plan_, serve_opts_.version_sidecar_dir);
  }

  // Deterministic graceful drain (also done by the destructor):
  //   1. stop accepting (listen socket shut down, acceptor joined),
  //   2. drain the scheduler — queued queries are cancelled, running ones
  //      finish and stream their results,
  //   3. shut down every remaining connection socket (unblocks idle
  //      connections parked in recv) and join all connection threads.
  void shutdown();

 private:
  void serve_query(wire::Listener::Connection& conn);
  // Appends the kStats v2 sched tail + v2.1 hint + v2.2 serving tail.
  void append_stats_tails(wire::Payload& stats, uint64_t query_id,
                          double queue_wait_seconds, double run_seconds,
                          bool served_from_cache) const;

  std::shared_ptr<codegen::DataServicePlan> plan_;
  const afc::ChunkFilter* filter_;
  StormCluster cluster_;
  sched::QueryScheduler scheduler_;
  const serve::ServeOptions serve_opts_;
  std::unique_ptr<serve::ResultCache> result_cache_;  // null = disabled
  std::unique_ptr<PlanCache> plan_cache_;             // null = disabled
  std::atomic<uint64_t> queries_served_{0};
  // Last: started once everything it serves with exists.
  std::unique_ptr<wire::Listener> listener_;
};

// Scheduler-side view of one served query plus a snapshot of the server's
// aggregate scheduler metrics, parsed from the kStats v2 tail.  `valid` is
// false when the server spoke protocol v1.
struct SchedInfo {
  bool valid = false;
  uint64_t query_id = 0;
  double queue_wait_seconds = 0;
  double run_seconds = 0;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t queue_depth = 0;
  uint64_t running = 0;
  uint64_t peak_running = 0;
  uint64_t peak_queue_depth = 0;
  // The scheduler's current EWMA retry-after estimate (seconds a new
  // submission would be told to wait if rejected right now).  Callers use
  // it to pace their next query instead of hot-looping into kRejected;
  // 0 when the server has free capacity or predates the v2.1 tail.
  double retry_after_hint_seconds = 0;

  // --- v2.2 serving tail (serving_valid = false on older servers) ---
  bool serving_valid = false;
  // This query's rows came out of the server's result cache (no
  // extraction ran).
  bool served_from_cache = false;
  serve::ResultCache::Stats result_cache;
  PlanCache::Stats plan_cache;
  // Server-wide scheduler latency distributions (all queries, all
  // tenants), for p50/p99/p999 readouts on the client side.
  sched::LatencyHistogram queue_wait_hist;
  sched::LatencyHistogram run_time_hist;
  // Per-tenant counters, keyed by tenant id ("" = default tenant).
  struct TenantCounters {
    double weight = 1.0;
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t queued = 0;
    uint64_t running = 0;
  };
  std::map<std::string, TenantCounters> tenants;

  // One-screen operator summary of the serving tail (cache hit rates,
  // latency quantiles, per-tenant shares); "" when serving_valid is false.
  std::string pretty() const;
};

// Result of a remote query.
struct RemoteResult {
  std::vector<expr::Table> partitions;
  std::vector<NodeStats> node_stats;
  SchedInfo sched;

  uint64_t total_rows() const {
    uint64_t n = 0;
    for (const auto& p : partitions) n += p.num_rows();
    return n;
  }
  // Concatenation of all partitions (same shape as QueryResult::merged()).
  expr::Table merged() const& { return expr::Table::concat(partitions); }
  expr::Table merged() && {
    return expr::Table::concat(std::move(partitions));
  }
};

// The server's admission queue was full (or it is draining).  Carries the
// server's retry-after hint and, from v2.2 servers, the typed reject kind.
class QueueFullError : public QueryError {
 public:
  QueueFullError(const std::string& msg, double retry_after,
                 sched::RejectKind kind = sched::RejectKind::kQueueFull)
      : QueryError(msg), retry_after_seconds(retry_after), kind(kind) {}

  double retry_after_seconds = 0;
  sched::RejectKind kind = sched::RejectKind::kQueueFull;
};

// The submission tripped a per-tenant quota (max_running / max_queued),
// not global capacity: retrying elsewhere won't help, pacing will.
class TenantQuotaError : public QueueFullError {
 public:
  TenantQuotaError(const std::string& msg, double retry_after)
      : QueueFullError(msg, retry_after, sched::RejectKind::kTenantQuota) {}
};

// Per-query client-side options.
struct QueryOptions {
  // Server-enforced deadline; <= 0 uses the server's default (if any).
  double deadline_seconds = 0;
  // 0 = low, 1 = normal, 2 = high (clamped server-side).
  uint8_t priority = 1;
  // Fair-share tenant id; "" = the default tenant.  A v1/v2 server ignores
  // it (the field rides in the kQuery v2.2 tail).
  std::string tenant;
  // Client-side cancellation: when this token fires while the query is in
  // flight, the client sends one kCancel frame and keeps reading until the
  // server terminates the stream; execute() then throws CancelledError.
  CancelToken* cancel = nullptr;
  // Progress hooks, invoked on the calling thread as the server reports
  // queue state (may never fire when the query is admitted immediately).
  std::function<void(uint64_t query_id, std::size_t position,
                     std::size_t depth)>
      on_queued;
  std::function<void(uint64_t query_id, double queue_wait_seconds)>
      on_admitted;
};

// Blocking client.  One query per call; the connection is opened and closed
// per query (the paper's clients are batch analysis programs).
class QueryClient {
 public:
  // `connect_timeout_seconds` bounds the TCP connect (a dead or
  // blackholed server fails with IoError instead of hanging in the
  // kernel's SYN retries); <= 0 keeps the OS default blocking connect.
  QueryClient(std::string host, int port, double connect_timeout_seconds = 0)
      : host_(std::move(host)),
        port_(port),
        connect_timeout_seconds_(connect_timeout_seconds) {}

  // Throws QueryError with the server's message on query failure,
  // QueueFullError when admission rejected it, CancelledError when
  // `opts.cancel` fired, IoError on connection problems.
  RemoteResult execute(const std::string& sql,
                       const PartitionSpec& partition = {},
                       const QueryOptions& opts = {}) const;

 private:
  std::string host_;
  int port_;
  double connect_timeout_seconds_ = 0;
};

}  // namespace adv::storm
