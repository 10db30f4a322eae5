#include "storm/node_daemon.h"

#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <optional>
#include <thread>

#include "agg/agg.h"
#include "common/error.h"
#include "common/stopwatch.h"
#include "faultz/faultz.h"
#include "storm/node_runner.h"
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
  listener_ = std::make_unique<Listener>(
      opts_.port, "node daemon",
      [this](Listener::Connection& conn) { serve_scatter(conn); });
}

NodeDaemon::~NodeDaemon() { shutdown(); }

void NodeDaemon::shutdown() {
  if (!listener_->stop_accepting()) return;
  // Cancel in-flight queries and unblock their sockets; each serving
  // thread unwinds within one extraction batch, answers with a typed
  // kError if it still can, and exits.
  listener_->close_connections([](Listener::Connection& c) {
    c.token.cancel();
    if (c.fd >= 0) ::shutdown(c.fd, SHUT_RD);
  });
}

void NodeDaemon::serve_scatter(Listener::Connection& conn) {
  const int fd = conn.fd;
  CancelToken& token = conn.token;
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
    PartitionSpec part = get_partition(payload);
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
    // the rest of the query's life.
    ControlReader reader(fd, token);

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
      const NodeRunner runner(*plan_, q, opts_.node_id, nullptr, opts_.filter,
                              opts_.cluster, &token, stats);
      const std::size_t nafcs = runner.num_afcs();

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
      hello.put<uint64_t>(plan_fingerprint(runner.plan()));
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

      // ---- Extraction: the shared node loop, one range, checkpointed. --
      PartitionGenerationService partsvc(part);
      WorkerStats ws;
      std::vector<unsigned char> frame;  // one range worker: one sender
      RangeSink sink = runner.make_sink(opts_.node_id, partsvc, ws,
                                        [&](RowBatch& b) {
        frame.clear();
        append_row_batch(frame, b);
        {
          std::lock_guard<std::mutex> lk(send_mu);
          write_all(fd, frame.data(), frame.size());
        }
        rows_shipped.fetch_add(b.num_rows(), std::memory_order_relaxed);
        return 0.0;
      });
      // Pushdown checkpoint cadence: aggregate state is O(groups), so the
      // default is a single delta at the end; a coordinator that wants
      // finer failover granularity requests it via the kNodeQuery tail.
      const uint64_t ckpt_window =
          pushdown ? (agg_checkpoint_afcs > 0
                          ? agg_checkpoint_afcs
                          : (nafcs > 0 ? static_cast<uint64_t>(nafcs) : 1))
                   : checkpoint_afcs;
      std::optional<agg::Strategy> agg_strat;  // the widest window's

      // Commit point: every row of AFCs [0, done_afcs) leaves before
      // kProgress(done_afcs); a pushdown window leaves as one kAggBatch
      // delta.
      auto checkpoint = [&](std::size_t done_afcs) {
        Payload ab, prog;
        prog.put<uint64_t>(done_afcs);
        if (pushdown) {
          // The dist tier's partial-aggregate hand-off; kAggMerge makes a
          // daemon dying right here reproducible (the chaos harness
          // asserts the failover replica never double-counts the window).
          faultz::maybe_throw_io(faultz::Site::kAggMerge,
                                 "partial-aggregate merge failed");
          sink.finish();
          if (const agg::AggTable* t = sink.agg->table())
            agg_strat = std::max(agg_strat.value_or(t->strategy()),
                                 t->strategy());
          const std::string delta = ship_agg_state(*sink.agg, stats);
          // Fresh sink: the next window's state is a pure delta, so the
          // coordinator's commit-or-discard staging is exact.
          sink.agg = runner.make_agg_sink();
          ab.put<uint64_t>(delta.size());
          ab.put_bytes(delta.data(), delta.size());
        } else {
          sink.finish();
        }
        std::lock_guard<std::mutex> lk(send_mu);
        if (pushdown) send_frame(fd, kAggBatch, ab);
        send_frame(fd, kProgress, prog);
      };

      NodeRunner::AfcHook hook;
      hook.before = [&](std::size_t i) {
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
      };
      hook.after = [&](std::size_t i) {
        if ((i + 1 - start_afc) % ckpt_window == 0 || i + 1 == nafcs)
          checkpoint(i + 1);
      };
      runner.scan(start_afc, nafcs, sink, ws, &hook);
      if (start_afc == nafcs) checkpoint(nafcs);  // nothing left to ship

      add_worker_stats(stats, ws);
      if (agg_strat) count_strategy(stats, *agg_strat);
      stats.busy_seconds = busy.elapsed_seconds();

      stop_heartbeat();
      reader.join();
      Payload sp;
      put_node_stats(sp, stats);
      send_frame(fd, kNodeStats, sp);
      // Count before the kEnd flush: once the coordinator sees kEnd the
      // query must already be observable as served (tests rely on it).
      queries_served_.fetch_add(1);
      send_frame(fd, kEnd, Payload());
    } catch (const std::exception& e) {
      stop_heartbeat();
      reader.join();
      send_error(fd, e.what(), classify_error(e));
    }
  } catch (const Error&) {
    // Connection-level failure before/outside a query: nothing to answer.
  }
}

}  // namespace adv::storm
