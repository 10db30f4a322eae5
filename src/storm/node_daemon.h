// NodeDaemon — one storage node's shard served as an independent process.
//
// The paper's STORM ran its query/data-source/partition/mover services on
// a real Linux cluster; NodeDaemon is the data-source half promoted to a
// standalone server.  It owns one node's share of a dataset (the AFC
// planner restricted to `node_id`), and serves scatter queries from a
// DistCoordinator over the wire protocol's distribution frames (see
// storm/wire.h): local planning with zone-map pruning, local extraction
// through the kernel loop (vector, or the interp reference), partition
// generation, and row shipping all run inside the daemon, so a `kill -9`
// of one daemon takes down exactly one shard.
//
// Failover contract (the part the chaos harness leans on):
//   * The daemon scans its AFC list in deterministic plan order and sends
//     kProgress(k) only after every row of AFCs [0, k) has been flushed
//     to the socket.  The coordinator commits received rows at each
//     kProgress and discards anything newer on failure, so re-issuing the
//     query to a replica with start_afc = k can never duplicate or drop
//     a row — provided the replica's plan is identical, which kNodeHello's
//     plan fingerprint lets the coordinator verify before resuming.
//   * A dedicated heartbeat thread beats every heartbeat_interval even
//     mid-extraction, carrying monotonic progress counters; a daemon that
//     is alive but stuck keeps beating with frozen counters, which is how
//     the coordinator tells a straggler from a corpse.
//
// The class is usable in-process (the dq differential harness runs one
// per node on threads); tools/adv_node.cpp wraps it as the real daemon
// binary.  Fault injection arms per-process via ADV_FAULT_SEED/
// ADV_FAULT_SPEC, so a campaign armed in one daemon kills exactly that
// daemon's work — the basis of the multi-process chaos campaigns.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <thread>

#include "storm/cluster.h"

namespace adv::storm {

struct NodeDaemonOptions {
  int node_id = 0;
  int port = 0;  // 0 = ephemeral; see NodeDaemon::port()
  // io_mode / kernel_mode / io_retry budget / batch_rows apply to the
  // daemon's local extraction exactly as they do in-process.
  ClusterOptions cluster;
  // Node-local chunk index (zone map) consulted during planning.  Replicas
  // of one shard must prune identically or their plan fingerprints will
  // differ and resume-after-failover will be refused.
  const afc::ChunkFilter* filter = nullptr;
  // Defaults applied when a kNodeQuery leaves the knobs zero.
  double heartbeat_interval_seconds = 0.05;
  uint32_t checkpoint_afcs = 1;
  // Test-only stall injection for the chaos harness's straggler scenario:
  // after `stall_after_afcs` AFCs of a query, extraction sleeps for
  // `stall_seconds` (polling the cancel token) while heartbeats continue —
  // a live process making no progress.  0 disables.
  uint64_t stall_after_afcs = 0;
  double stall_seconds = 0;
};

// Serves one node's shard on a TCP port until shutdown().  Each connection
// carries one scatter query on its own thread; concurrent queries admit
// freely (admission control lives at the coordinator/query-service layer,
// not per shard).
class NodeDaemon {
 public:
  // Binds to 127.0.0.1:port (0 = ephemeral).  Throws IoError on failure.
  NodeDaemon(std::shared_ptr<codegen::DataServicePlan> plan,
             NodeDaemonOptions opts);
  ~NodeDaemon();

  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  int port() const { return port_; }
  int node_id() const { return opts_.node_id; }
  uint64_t queries_served() const { return queries_served_.load(); }

  // Deterministic drain: stop accepting, cancel in-flight queries, join
  // every connection thread.  Idempotent; also run by the destructor.
  void shutdown();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    // Fired by shutdown() so an in-flight extraction unwinds within one
    // batch instead of racing the socket teardown.
    CancelToken token;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection* conn);
  void serve_scatter(Connection* conn);
  void reap_finished_locked();

  std::shared_ptr<codegen::DataServicePlan> plan_;
  NodeDaemonOptions opts_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> queries_served_{0};
  std::thread acceptor_;
  std::mutex conn_mu_;
  std::list<std::unique_ptr<Connection>> connections_;
};

}  // namespace adv::storm
