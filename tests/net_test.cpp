// Tests for the networked query service: loopback round trips, partitioned
// delivery, error propagation, concurrent clients, protocol-v2 scheduling
// (queued/admitted progress, cancellation, deadlines, rejection), and
// deterministic shutdown.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "storm/dist.h"
#include "storm/net.h"
#include "storm/node_daemon.h"
#include "storm/wire.h"
#include "zonemap/zonemap.h"

namespace adv::storm {
namespace {

struct NetFixture {
  TempDir tmp{"net"};
  dataset::IparsConfig cfg;
  dataset::GeneratedIpars gen;
  std::shared_ptr<codegen::DataServicePlan> plan;
  QueryServer server;

  static dataset::IparsConfig make_cfg() {
    dataset::IparsConfig c;
    c.nodes = 2;
    c.rels = 2;
    c.timesteps = 8;
    c.grid_per_node = 16;
    c.pad_vars = 0;
    return c;
  }

  NetFixture()
      : cfg(make_cfg()),
        gen(dataset::generate_ipars(cfg, dataset::IparsLayout::kV,
                                    tmp.str())),
        plan(std::make_shared<codegen::DataServicePlan>(
            meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
            gen.root)),
        server(plan) {}
};

TEST(QueryServerTest, LoopbackRoundTrip) {
  NetFixture f;
  ASSERT_GT(f.server.port(), 0);
  QueryClient client("127.0.0.1", f.server.port());
  const char* sql =
      "SELECT * FROM IparsData WHERE TIME <= 4 AND SOIL > 0.25";
  RemoteResult r = client.execute(sql);
  ASSERT_EQ(r.partitions.size(), 1u);
  // Schema travelled with the result.
  EXPECT_EQ(r.partitions[0].columns().size(), 10u);
  EXPECT_EQ(r.partitions[0].columns()[1].name, "TIME");
  EXPECT_EQ(r.partitions[0].columns()[1].type, DataType::kInt32);
  // Rows equal the local engine's.
  expr::BoundQuery q = f.plan->bind(sql);
  expr::Table want = dataset::ipars_oracle(f.cfg, q);
  EXPECT_TRUE(r.merged().same_rows(want));
  // Node stats arrived for both virtual nodes.
  ASSERT_EQ(r.node_stats.size(), 2u);
  EXPECT_GT(r.node_stats[0].rows_matched, 0u);
  EXPECT_EQ(f.server.queries_served(), 1u);
}

TEST(QueryServerTest, PartitionedDelivery) {
  NetFixture f;
  QueryClient client("127.0.0.1", f.server.port());
  PartitionSpec part;
  part.policy = PartitionSpec::Policy::kRoundRobin;
  part.num_consumers = 3;
  RemoteResult r = client.execute("SELECT * FROM IparsData", part);
  ASSERT_EQ(r.partitions.size(), 3u);
  EXPECT_EQ(r.total_rows(), f.cfg.total_rows());
  for (const auto& p : r.partitions) EXPECT_GT(p.num_rows(), 0u);
}

TEST(QueryServerTest, LargeResultStreamsInManyBatches) {
  // More rows than one 2048-row frame.
  NetFixture f;
  QueryClient client("127.0.0.1", f.server.port());
  RemoteResult r = client.execute("SELECT * FROM IparsData");
  EXPECT_EQ(r.total_rows(), f.cfg.total_rows());  // 8192 rows > one frame
}

TEST(QueryServerTest, ErrorsPropagateToClient) {
  NetFixture f;
  QueryClient client("127.0.0.1", f.server.port());
  try {
    client.execute("SELECT NOPE FROM IparsData");
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_NE(std::string(e.what()).find("NOPE"), std::string::npos);
  }
  EXPECT_THROW(client.execute("not sql at all"), QueryError);
  EXPECT_THROW(client.execute("SELECT * FROM WrongTable"), QueryError);
  // The server survives bad queries and still answers good ones.
  EXPECT_EQ(client.execute("SELECT REL FROM IparsData WHERE TIME = 1")
                .total_rows(),
            f.cfg.total_rows() / f.cfg.timesteps);
}

TEST(QueryServerTest, ConcurrentClients) {
  NetFixture f;
  std::vector<std::thread> clients;
  std::vector<uint64_t> rows(4, 0);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&f, &rows, i] {
      QueryClient client("127.0.0.1", f.server.port());
      RemoteResult r = client.execute(
          "SELECT * FROM IparsData WHERE REL = " + std::to_string(i % 2));
      rows[static_cast<std::size_t>(i)] = r.total_rows();
    });
  }
  for (auto& t : clients) t.join();
  uint64_t per_rel = f.cfg.total_rows() / 2;
  for (uint64_t n : rows) EXPECT_EQ(n, per_rel);
  EXPECT_EQ(f.server.queries_served(), 4u);
}

TEST(QueryServerTest, ConnectionToDeadServerFails) {
  int dead_port;
  {
    NetFixture f;
    dead_port = f.server.port();
  }  // server shut down
  QueryClient client("127.0.0.1", dead_port);
  EXPECT_THROW(client.execute("SELECT * FROM IparsData"), IoError);
}

TEST(QueryServerTest, TransferModelAppliesToRemoteQueries) {
  NetFixture f;
  ClusterOptions slow;
  slow.transfer.bandwidth_bytes_per_sec = 100e6 / 8;
  QueryServer slow_server(f.plan, slow);
  QueryClient client("127.0.0.1", slow_server.port());
  RemoteResult r = client.execute("SELECT * FROM IparsData WHERE TIME <= 2");
  EXPECT_GT(r.total_rows(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol v2: admission scheduling, cancellation, deadlines, shutdown.

using namespace std::chrono_literals;

// Per-row hold for keeping a server-side query running long enough to
// observe/cancel it.  UdfFn is a plain function pointer, hence the
// file-scope knob.
std::atomic<int> g_hold_us{0};

double slow_pass(const double*, std::size_t) {
  int us = g_hold_us.load(std::memory_order_relaxed);
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  return 1.0;
}

void register_slow_pass() {
  static bool once = [] {
    FilteringService::register_filter("SLOWPASS", 1, slow_pass);
    return true;
  }();
  (void)once;
}

TEST(QueryServerV2Test, SchedInfoTravelsWithStats) {
  NetFixture f;
  QueryClient client("127.0.0.1", f.server.port());
  RemoteResult r = client.execute("SELECT REL FROM IparsData WHERE TIME = 1");
  ASSERT_TRUE(r.sched.valid);
  EXPECT_GT(r.sched.query_id, 0u);
  EXPECT_GE(r.sched.run_seconds, 0.0);
  EXPECT_EQ(r.sched.completed, 1u);
  EXPECT_EQ(r.sched.submitted, 1u);
  EXPECT_GE(r.sched.peak_running, 1u);
  sched::SchedulerMetrics m = f.server.scheduler_metrics();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.running, 0u);
}

TEST(QueryServerV2Test, ClientCancelStopsRunningQuery) {
  NetFixture f;
  register_slow_pass();
  g_hold_us.store(4000);
  // 512 rows * 4 ms of hold: ~2 s of UDF sleep (>= 1 s wall across the two
  // node threads) if never cancelled — finishing well under that floor IS
  // the assertion that cancel interrupted the running query.
  sched::SchedulerOptions sopts;
  QueryServer server(f.plan, {}, 0, nullptr, sopts);
  QueryClient client("127.0.0.1", server.port());

  CancelToken token;
  QueryOptions qopts;
  qopts.cancel = &token;
  std::atomic<bool> admitted{false};
  qopts.on_admitted = [&](uint64_t, double) { admitted.store(true); };
  std::thread canceller([&] {
    std::this_thread::sleep_for(50ms);
    token.cancel();
  });
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      client.execute("SELECT * FROM IparsData WHERE SLOWPASS(SOIL) > 0", {},
                     qopts),
      CancelledError);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  canceller.join();
  g_hold_us.store(0);
  EXPECT_LT(elapsed, 0.7);  // far below the >= 1 s uncancelled floor
  sched::SchedulerMetrics m = server.scheduler_metrics();
  EXPECT_EQ(m.cancelled, 1u);
  EXPECT_EQ(m.running, 0u);
  // The cancelled query released its slot: the server still answers.
  EXPECT_GT(client.execute("SELECT REL FROM IparsData WHERE TIME = 1")
                .total_rows(),
            0u);
}

TEST(QueryServerV2Test, DeadlineStopsRunningQuery) {
  NetFixture f;
  register_slow_pass();
  // 512 rows * 4 ms of hold (>= 1 s wall) against a 100 ms deadline.
  g_hold_us.store(4000);
  QueryServer server(f.plan);
  QueryClient client("127.0.0.1", server.port());
  QueryOptions qopts;
  qopts.deadline_seconds = 0.1;
  auto t0 = std::chrono::steady_clock::now();
  try {
    client.execute("SELECT * FROM IparsData WHERE SLOWPASS(SOIL) > 0", {},
                   qopts);
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  g_hold_us.store(0);
  EXPECT_LT(elapsed, 0.7);  // stopped well before the uncancelled floor
  EXPECT_EQ(server.scheduler_metrics().deadline_exceeded, 1u);
}

TEST(QueryServerV2Test, DisconnectCancelsInFlightQuery) {
  NetFixture f;
  register_slow_pass();
  g_hold_us.store(4000);
  sched::SchedulerOptions sopts;
  sopts.max_concurrent_queries = 1;
  QueryServer server(f.plan, {}, 0, nullptr, sopts);
  {
    // A client that vanishes mid-query: run it in a thread and cancel via
    // our own token shortly after admission — the interesting part is the
    // server side, which must classify and free the slot either way.
    CancelToken token;
    QueryOptions qopts;
    qopts.cancel = &token;
    std::thread t([&] {
      QueryClient client("127.0.0.1", server.port());
      try {
        client.execute("SELECT * FROM IparsData WHERE SLOWPASS(SOIL) > 0",
                       {}, qopts);
      } catch (const Error&) {
      }
    });
    for (int spin = 0; spin < 500 && server.scheduler_metrics().running == 0;
         ++spin)
      std::this_thread::sleep_for(1ms);
    token.cancel();
    t.join();
  }
  g_hold_us.store(0);
  // Slot freed; next query runs.
  QueryClient client("127.0.0.1", server.port());
  EXPECT_GT(client.execute("SELECT REL FROM IparsData WHERE TIME = 1")
                .total_rows(),
            0u);
  sched::SchedulerMetrics m = server.scheduler_metrics();
  EXPECT_EQ(m.cancelled, 1u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(QueryServerV2Test, QueuedThenAdmittedHooksFire) {
  NetFixture f;
  register_slow_pass();
  // Holder: ~128 rows * 4 ms keeps the single slot busy for a few hundred
  // milliseconds — plenty for the probe query to connect and queue behind it.
  g_hold_us.store(4000);
  sched::SchedulerOptions sopts;
  sopts.max_concurrent_queries = 1;
  QueryServer server(f.plan, {}, 0, nullptr, sopts);

  std::thread holder([&] {
    QueryClient client("127.0.0.1", server.port());
    client.execute(
        "SELECT * FROM IparsData WHERE TIME <= 2 AND SLOWPASS(SOIL) > 0");
  });
  for (int spin = 0; spin < 500 && server.scheduler_metrics().running == 0;
       ++spin)
    std::this_thread::sleep_for(1ms);

  std::atomic<bool> queued{false}, admitted_after_queued{false};
  QueryOptions qopts;
  qopts.on_queued = [&](uint64_t id, std::size_t position, std::size_t) {
    EXPECT_GT(id, 0u);
    EXPECT_EQ(position, 0u);
    queued.store(true);
  };
  qopts.on_admitted = [&](uint64_t, double wait) {
    EXPECT_GE(wait, 0.0);
    admitted_after_queued.store(queued.load());
  };
  QueryClient client("127.0.0.1", server.port());
  RemoteResult r =
      client.execute("SELECT REL FROM IparsData WHERE TIME = 1", {}, qopts);
  holder.join();
  g_hold_us.store(0);
  EXPECT_TRUE(queued.load());
  EXPECT_TRUE(admitted_after_queued.load());
  EXPECT_GT(r.sched.queue_wait_seconds, 0.0);
  EXPECT_GT(r.total_rows(), 0u);
}

TEST(QueryServerV2Test, ShutdownIsDeterministicWithIdleConnection) {
  NetFixture* f = new NetFixture;
  // An idle connection: a raw TCP connect that never sends a query frame.
  // Shutdown must still return promptly (it shuts the socket down to
  // unpark the serving thread blocked in recv).
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(f->server.port()));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  std::this_thread::sleep_for(20ms);  // let the server accept it

  auto t0 = std::chrono::steady_clock::now();
  f->server.shutdown();
  f->server.shutdown();  // idempotent
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  EXPECT_LT(secs, 5.0);
  ::close(fd);
  delete f;  // destructor after explicit shutdown is a no-op
}

TEST(QueryServerV2Test, ShutdownDrainCancelsQueuedQuery) {
  NetFixture f;
  register_slow_pass();
  // Holder runs for a few hundred milliseconds so shutdown() overlaps it.
  g_hold_us.store(4000);
  sched::SchedulerOptions sopts;
  sopts.max_concurrent_queries = 1;
  auto server = std::make_unique<QueryServer>(f.plan, ClusterOptions{}, 0,
                                              nullptr, sopts);

  std::atomic<uint64_t> held_rows{0};
  std::thread holder([&] {
    QueryClient client("127.0.0.1", server->port());
    held_rows.store(
        client
            .execute(
                "SELECT * FROM IparsData WHERE TIME <= 2 AND SLOWPASS(SOIL) > 0")
            .total_rows());
  });
  for (int spin = 0; spin < 500 && server->scheduler_metrics().running == 0;
       ++spin)
    std::this_thread::sleep_for(1ms);

  std::atomic<bool> queued_cancelled{false};
  std::thread queued([&] {
    QueryClient client("127.0.0.1", server->port());
    try {
      client.execute("SELECT REL FROM IparsData WHERE TIME = 1");
    } catch (const Error& e) {
      if (std::string(e.what()).find("cancelled") != std::string::npos)
        queued_cancelled.store(true);
    }
  });
  for (int spin = 0;
       spin < 500 && server->scheduler_metrics().queue_depth == 0; ++spin)
    std::this_thread::sleep_for(1ms);

  server->shutdown();
  holder.join();
  queued.join();
  g_hold_us.store(0);
  // Drain let the running query finish and stream its rows...
  EXPECT_GT(held_rows.load(), 0u);
  // ...and expelled the queued one with a cancel outcome.
  EXPECT_TRUE(queued_cancelled.load());
  server.reset();
}

TEST(QueryServerV2Test, V2TailIgnoredForDefaultOptions) {
  // A default-constructed QueryOptions round-trips exactly like v1: no
  // deadline, normal priority, results identical.
  NetFixture f;
  QueryClient client("127.0.0.1", f.server.port());
  const char* sql = "SELECT * FROM IparsData WHERE TIME <= 4 AND SOIL > 0.25";
  RemoteResult v1_style = client.execute(sql);
  RemoteResult v2_style = client.execute(sql, {}, QueryOptions{});
  EXPECT_TRUE(v1_style.merged().same_rows(v2_style.merged()));
  EXPECT_EQ(f.server.queries_served(), 2u);
}

// ---------------------------------------------------------------------------
// v1/v2 interop edge cases, spoken frame-by-frame over raw sockets.  Frame
// layout: 4-byte little-endian payload length, 1-byte type, payload.

int raw_connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

template <typename T>
void raw_pod(std::vector<unsigned char>& buf, T v) {
  std::size_t at = buf.size();
  buf.resize(at + sizeof v);
  std::memcpy(buf.data() + at, &v, sizeof v);
}

void raw_string(std::vector<unsigned char>& buf, const std::string& s) {
  raw_pod<uint32_t>(buf, static_cast<uint32_t>(s.size()));
  buf.insert(buf.end(), s.begin(), s.end());
}

void raw_write(int fd, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  std::size_t off = 0;
  while (off < n) {
    ssize_t w = ::send(fd, c + off, n - off, MSG_NOSIGNAL);
    ASSERT_GT(w, 0);
    off += static_cast<std::size_t>(w);
  }
}

void raw_send_frame(int fd, uint8_t type,
                    const std::vector<unsigned char>& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  unsigned char header[5];
  std::memcpy(header, &len, 4);
  header[4] = type;
  raw_write(fd, header, 5);
  if (len) raw_write(fd, payload.data(), len);
}

bool raw_recv_frame(int fd, uint8_t& type, std::vector<unsigned char>& out) {
  unsigned char header[5];
  std::size_t off = 0;
  while (off < 5) {
    ssize_t r = ::recv(fd, header + off, 5 - off, 0);
    if (r <= 0) return false;
    off += static_cast<std::size_t>(r);
  }
  uint32_t len;
  std::memcpy(&len, header, 4);
  type = header[4];
  out.resize(len);
  off = 0;
  while (off < len) {
    ssize_t r = ::recv(fd, out.data() + off, len - off, 0);
    if (r <= 0) return false;
    off += static_cast<std::size_t>(r);
  }
  return true;
}

// Writes a frame header announcing `len` payload bytes, then `sent` zero
// bytes of payload, and hangs up; returns the receiving end.
int truncated_frame_peer(uint32_t len, std::size_t sent) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return -1;
  unsigned char header[5];
  std::memcpy(header, &len, 4);
  header[4] = 0x03;  // kRowBatch
  raw_write(sv[0], header, 5);
  const std::vector<unsigned char> payload(sent);
  if (sent) raw_write(sv[0], payload.data(), sent);
  ::close(sv[0]);
  return sv[1];
}

TEST(WireFrameTest, PeerClosingInsideNearLimitFrameFailsTyped) {
  // The announced length is within the 64 MiB limit; the receiver grows
  // its buffer with the bytes that arrive and fails typed at the hang-up.
  int fd = truncated_frame_peer((64u << 20) - 1, 64);
  ASSERT_GE(fd, 0);
  EXPECT_THROW(wire::recv_frame(fd), IoError);
  ::close(fd);
}

TEST(WireFrameTest, LengthOverLimitFailsTyped) {
  int fd = truncated_frame_peer((64u << 20) + 1, 0);
  ASSERT_GE(fd, 0);
  EXPECT_THROW(wire::recv_frame(fd), IoError);
  ::close(fd);
}

// The v1 part of a kQuery payload: default single-consumer partition spec
// plus the SQL text, and nothing after it.
std::vector<unsigned char> v1_query_payload(const std::string& sql) {
  std::vector<unsigned char> q;
  raw_pod<uint16_t>(q, 1);   // num_consumers
  raw_pod<uint8_t>(q, 0);    // Policy::kSingle
  raw_pod<int32_t>(q, -1);   // select_index
  raw_pod<double>(q, 0.0);   // range_lo
  raw_pod<double>(q, 1.0);   // range_hi
  raw_string(q, sql);
  return q;
}

// Drives one hand-rolled query and tallies the reply stream.
struct RawReply {
  bool schema = false, stats = false, end = false;
  uint8_t unexpected = 0;  // first frame type we did not recognize
  std::string error;       // kError payload, if any
  uint64_t rows = 0;
};

RawReply raw_roundtrip(int port, const std::vector<unsigned char>& query) {
  int fd = raw_connect(port);
  raw_send_frame(fd, 0x01, query);  // kQuery
  RawReply rep;
  uint8_t type = 0;
  std::vector<unsigned char> payload;
  while (raw_recv_frame(fd, type, payload)) {
    if (type == 0x02) {  // kSchema
      rep.schema = true;
    } else if (type == 0x03) {  // kRowBatch: u16 consumer, u32 nrows, ...
      if (payload.size() < 6) {
        rep.error = "short row batch frame";
        break;
      }
      uint32_t nrows;
      std::memcpy(&nrows, payload.data() + 2, 4);
      rep.rows += nrows;
    } else if (type == 0x04) {  // kStats
      rep.stats = true;
    } else if (type == 0x05) {  // kEnd
      rep.end = true;
      break;
    } else if (type == 0x06) {  // kError
      uint32_t n;
      std::memcpy(&n, payload.data(), 4);
      rep.error.assign(reinterpret_cast<const char*>(payload.data() + 4), n);
      break;
    } else if (type != 0x08 && type != 0x09) {  // not kQueued/kAdmitted
      rep.unexpected = type;
      break;
    }
  }
  ::close(fd);
  return rep;
}

TEST(ProtocolInteropTest, V1ClientWithoutTailIsServed) {
  // A v1 client stops after the SQL string — no deadline/priority tail.
  // The v2 server must apply defaults and serve the query normally.
  NetFixture f;
  RawReply rep = raw_roundtrip(
      f.server.port(),
      v1_query_payload("SELECT REL FROM IparsData WHERE TIME = 1"));
  EXPECT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_EQ(rep.unexpected, 0);
  EXPECT_TRUE(rep.schema);
  EXPECT_TRUE(rep.stats);
  EXPECT_TRUE(rep.end);
  EXPECT_EQ(rep.rows, f.cfg.total_rows() / f.cfg.timesteps);
  EXPECT_EQ(f.server.scheduler_metrics().completed, 1u);
}

TEST(ProtocolInteropTest, UnknownTrailingQueryBytesAreIgnored) {
  // A hypothetical v3 client appends fields this server has never heard
  // of.  Positional parsing reads what it knows (v2 tail) and must ignore
  // the rest instead of failing the query.
  NetFixture f;
  std::vector<unsigned char> q =
      v1_query_payload("SELECT REL FROM IparsData WHERE TIME = 1");
  raw_pod<double>(q, 30.0);  // v2: deadline_seconds
  raw_pod<uint8_t>(q, 1);    // v2: priority
  for (int i = 0; i < 32; ++i) raw_pod<uint8_t>(q, 0xAB);  // "v3 fields"
  RawReply rep = raw_roundtrip(f.server.port(), q);
  EXPECT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_TRUE(rep.end);
  EXPECT_EQ(rep.rows, f.cfg.total_rows() / f.cfg.timesteps);
}

TEST(ProtocolInteropTest, V1ServerWithoutSchedTailYieldsInvalidSchedInfo) {
  // A fake v1 server: schema, one row batch, kStats WITHOUT the v2 sched
  // tail, end.  The real client must surface SchedInfo{valid = false}
  // rather than misparse or reject the stream.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  int port = ntohs(addr.sin_port);

  std::thread srv([lfd] {
    int c = ::accept(lfd, nullptr, nullptr);
    if (c < 0) return;
    uint8_t type = 0;
    std::vector<unsigned char> payload;
    if (!raw_recv_frame(c, type, payload) || type != 0x01) {
      ::close(c);
      return;
    }
    std::vector<unsigned char> schema;  // 1 column: X, float64
    raw_pod<uint16_t>(schema, 1);
    raw_pod<uint8_t>(schema, static_cast<uint8_t>(DataType::kFloat64));
    raw_pod<uint16_t>(schema, 1);
    schema.push_back('X');
    raw_send_frame(c, 0x02, schema);
    std::vector<unsigned char> batch;  // consumer 0, 1 row x 1 col: 42.0
    raw_pod<uint16_t>(batch, 0);
    raw_pod<uint32_t>(batch, 1);
    raw_pod<uint16_t>(batch, 1);
    raw_pod<double>(batch, 42.0);
    raw_send_frame(c, 0x03, batch);
    std::vector<unsigned char> stats;  // 1 node stat, NO sched tail
    raw_pod<uint32_t>(stats, 1);
    raw_pod<int32_t>(stats, 0);      // node_id
    raw_pod<uint64_t>(stats, 1);     // afcs
    raw_pod<uint64_t>(stats, 8);     // bytes_read
    raw_pod<uint64_t>(stats, 1);     // rows_matched
    raw_pod<double>(stats, 0.0);     // busy_seconds
    raw_send_frame(c, 0x04, stats);
    raw_send_frame(c, 0x05, {});     // kEnd
    ::close(c);
  });

  QueryClient client("127.0.0.1", port);
  RemoteResult r = client.execute("SELECT X FROM T");
  srv.join();
  ::close(lfd);

  EXPECT_FALSE(r.sched.valid);
  ASSERT_EQ(r.total_rows(), 1u);
  EXPECT_EQ(r.partitions[0].at(0, 0), 42.0);
  ASSERT_EQ(r.node_stats.size(), 1u);
  EXPECT_EQ(r.node_stats[0].rows_matched, 1u);
}

TEST(ProtocolInteropTest, RowBatchNarrowerThanSchemaFailsTyped) {
  // A fake server announces 2 columns, then sends a 1-column row batch.
  // The client reads rows at the schema's width, so it must reject the
  // frame typed instead of reading past the batch's values.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  int port = ntohs(addr.sin_port);

  std::thread srv([lfd] {
    int c = ::accept(lfd, nullptr, nullptr);
    if (c < 0) return;
    uint8_t type = 0;
    std::vector<unsigned char> payload;
    if (!raw_recv_frame(c, type, payload) || type != 0x01) {
      ::close(c);
      return;
    }
    // Schema, batch and end in one send, so the client's hang-up cannot
    // race the server's writes.
    std::vector<unsigned char> out;
    auto frame = [&out](uint8_t t, const std::vector<unsigned char>& p) {
      raw_pod<uint32_t>(out, static_cast<uint32_t>(p.size()));
      raw_pod<uint8_t>(out, t);
      out.insert(out.end(), p.begin(), p.end());
    };
    std::vector<unsigned char> schema;  // 2 columns: X, Y, float64
    raw_pod<uint16_t>(schema, 2);
    for (char name : {'X', 'Y'}) {
      raw_pod<uint8_t>(schema, static_cast<uint8_t>(DataType::kFloat64));
      raw_pod<uint16_t>(schema, 1);
      schema.push_back(static_cast<unsigned char>(name));
    }
    frame(0x02, schema);
    std::vector<unsigned char> batch;  // consumer 0, 3 rows x 1 col
    raw_pod<uint16_t>(batch, 0);
    raw_pod<uint32_t>(batch, 3);
    raw_pod<uint16_t>(batch, 1);
    for (double v : {1.0, 2.0, 3.0}) raw_pod<double>(batch, v);
    frame(0x03, batch);
    frame(0x05, {});  // kEnd
    raw_write(c, out.data(), out.size());
    // Hold the connection until the client hangs up.
    unsigned char byte;
    while (::recv(c, &byte, 1, 0) > 0) {
    }
    ::close(c);
  });

  QueryClient client("127.0.0.1", port);
  try {
    client.execute("SELECT X, Y FROM T");
    ADD_FAILURE() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("1 columns, schema has 2"),
              std::string::npos)
        << e.what();
  }
  srv.join();
  ::close(lfd);
}

TEST(ProtocolInteropTest, CancelRacingCompletionIsCleanEitherWay) {
  // Fire the cancel token at staggered offsets around a short query's
  // completion.  Whatever the interleaving, the outcome must be one of:
  // the full correct result, or CancelledError — never a hang, a partial
  // row set, or a poisoned connection/server.
  NetFixture f;
  const char* sql = "SELECT REL FROM IparsData WHERE TIME = 1";
  const uint64_t want = f.cfg.total_rows() / f.cfg.timesteps;
  for (int i = 0; i < 8; ++i) {
    QueryClient client("127.0.0.1", f.server.port());
    CancelToken token;
    std::thread firer([&token, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * i));
      token.cancel();
    });
    QueryOptions qopts;
    qopts.cancel = &token;
    try {
      RemoteResult r = client.execute(sql, {}, qopts);
      EXPECT_EQ(r.total_rows(), want) << "iteration " << i;
    } catch (const CancelledError&) {
      // Equally valid: the cancel won the race.
    }
    firer.join();
  }
  // The server took every outcome in stride and still answers.
  QueryClient client("127.0.0.1", f.server.port());
  EXPECT_EQ(client.execute(sql).total_rows(), want);
  sched::SchedulerMetrics m = f.server.scheduler_metrics();
  EXPECT_EQ(m.running, 0u);
  EXPECT_EQ(m.completed + m.cancelled, m.admitted);
}

// Forward-compat across the v2.1 distribution frames: a peer speaking the
// scatter dialect at a peer that does not (and vice versa) must get an
// immediate typed error, never a hang.

TEST(ProtocolInteropTest, DistributionFramesAtQueryServerDegradeTyped) {
  NetFixture f;
  // kNodeQuery (0x10) and a bare kHeartbeat (0x13) — frame types this
  // server has no handler for.  Expected on both: one kError whose
  // trailing kind byte says kQuery (deterministic, don't-retry), then EOF.
  for (uint8_t type : {uint8_t{0x10}, uint8_t{0x13}}) {
    int fd = raw_connect(f.server.port());
    std::vector<unsigned char> payload;
    if (type == 0x10) {  // a well-formed scatter request, wrong endpoint
      raw_pod<uint32_t>(payload, 0);   // node_id
      raw_pod<uint64_t>(payload, 0);   // start_afc
      raw_pod<uint16_t>(payload, 1);   // num_consumers
      raw_pod<uint8_t>(payload, 0);    // policy
      raw_pod<int32_t>(payload, -1);
      raw_pod<double>(payload, 0.0);
      raw_pod<double>(payload, 1.0);
      raw_pod<uint64_t>(payload, 0);   // block_size
      raw_string(payload, "SELECT * FROM IparsData");
      raw_pod<double>(payload, 0.0);   // deadline
      raw_pod<double>(payload, 0.0);   // heartbeat interval
      raw_pod<uint32_t>(payload, 1);   // checkpoint_afcs
    }
    raw_send_frame(fd, type, payload);
    uint8_t rtype = 0;
    std::vector<unsigned char> reply;
    ASSERT_TRUE(raw_recv_frame(fd, rtype, reply)) << "hung on type "
                                                  << int(type);
    EXPECT_EQ(rtype, 0x06);  // kError
    uint32_t n;
    ASSERT_GE(reply.size(), 4u);
    std::memcpy(&n, reply.data(), 4);
    std::string msg(reinterpret_cast<const char*>(reply.data() + 4), n);
    EXPECT_NE(msg.find("query frame"), std::string::npos) << msg;
    // v2.1 kError tail: the ErrorKind byte, kQuery = non-retryable.
    ASSERT_EQ(reply.size(), 4u + n + 1);
    EXPECT_EQ(reply[4 + n], static_cast<uint8_t>(ErrorKind::kQuery));
    ::close(fd);
  }
  // The server survived both and still serves real clients.
  QueryClient client("127.0.0.1", f.server.port());
  EXPECT_GT(client.execute("SELECT * FROM IparsData").total_rows(), 0u);
}

TEST(ProtocolInteropTest, QueryClientAgainstNodeDaemonFailsTyped) {
  // The reverse direction: an old-style client's kQuery at a node daemon.
  // The daemon must answer a typed QueryError pointing at the right
  // endpoint, and survive to serve scatter traffic afterwards.
  NetFixture f;
  NodeDaemonOptions nopts;
  nopts.node_id = 0;
  NodeDaemon daemon(f.plan, nopts);
  QueryClient client("127.0.0.1", daemon.port());
  try {
    client.execute("SELECT * FROM IparsData");
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_NE(std::string(e.what()).find("DistCoordinator"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(daemon.queries_served(), 0u);
}

TEST(ProtocolInteropTest, ConnectTimeoutRefusesFastAndServesNormally) {
  NetFixture f;
  // A bounded connect against a dead port fails typed and fast (refused,
  // not a timeout wait)...
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t alen = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  int dead_port = ntohs(addr.sin_port);
  ::close(lfd);  // bound then closed: nothing listens here
  QueryClient dead("127.0.0.1", dead_port, /*connect_timeout_seconds=*/1.0);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(dead.execute("SELECT * FROM IparsData"), IoError);
  double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 5.0);
  // ...and the same bounded-connect client works against a live server.
  QueryClient live("127.0.0.1", f.server.port(),
                   /*connect_timeout_seconds=*/5.0);
  EXPECT_GT(live.execute("SELECT * FROM IparsData").total_rows(), 0u);
}

TEST(ProtocolInteropTest, RetryAfterHintTravelsInStatsTail) {
  // v2.1 kStats tail: an idle server's hint is zero but present (the
  // sched block itself is valid), so polite clients can pace off it
  // without version sniffing.
  NetFixture f;
  QueryClient client("127.0.0.1", f.server.port());
  RemoteResult r = client.execute("SELECT REL FROM IparsData WHERE TIME = 1");
  EXPECT_TRUE(r.sched.valid);
  EXPECT_EQ(r.sched.retry_after_hint_seconds, 0.0);
}

// Shards whose datasets disagree on the schema announce different output
// widths in kNodeHello.  The gather appends every shard's rows at one
// agreed width, so the odd shard must fail typed — never be read at the
// wrong width.
TEST(DistGatherTest, ShardWithOtherWidthFailsTyped) {
  TempDir tmp{"net-width"};
  std::vector<std::shared_ptr<codegen::DataServicePlan>> plans;
  for (int pad : {6, 0}) {
    dataset::IparsConfig c = NetFixture::make_cfg();
    c.pad_vars = pad;
    dataset::GeneratedIpars gen = dataset::generate_ipars(
        c, dataset::IparsLayout::kV, tmp.str() + "/pad" + std::to_string(pad));
    plans.push_back(std::make_shared<codegen::DataServicePlan>(
        meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
        gen.root));
  }
  NodeDaemonOptions n0, n1;
  n0.node_id = 0;
  n1.node_id = 1;
  NodeDaemon d0(plans[0], n0), d1(plans[1], n1);
  const std::vector<ShardConfig> shards = {
      {0, {{"127.0.0.1", d0.port()}}}, {1, {{"127.0.0.1", d1.port()}}}};
  const char* sql = "SELECT * FROM IparsData";

  try {
    DistCoordinator(shards, DistOptions{}).run(sql);
    FAIL() << "expected ValidationError";
  } catch (const ValidationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("node 1 announced 10 output columns"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("node 0 announced 16"), std::string::npos) << msg;
  }

  DistOptions partial;
  partial.allow_partial_results = true;
  DistResult r = DistCoordinator(shards, partial).run(sql);
  ASSERT_EQ(r.casualties.size(), 1u);
  EXPECT_EQ(r.casualties[0].node_id, 1);
  EXPECT_EQ(r.casualties[0].kind, ErrorKind::kValidation);
  EXPECT_EQ(r.failed_nodes(), std::vector<int>{1});
  // Node 0's rows survive, at node 0's width.
  ASSERT_EQ(r.merged().columns().size(), 16u);
  QueryResult local = StormCluster(plans[0]).execute(sql);
  EXPECT_GT(r.total_rows(), 0u);
  EXPECT_EQ(r.total_rows(), local.node_stats[0].rows_matched);
}

// In-process nodes and node daemons run one node loop, so one plan must
// produce the same per-node counters through both backends.
TEST(NodeStatsParityTest, InProcessAndDaemonCountersAgree) {
  NetFixture f;
  const zonemap::ZoneMap zm = zonemap::ZoneMap::build(*f.plan);
  ClusterOptions copts;
  copts.threads_per_node = 1;
  StormCluster cluster(f.plan, copts);
  std::vector<std::unique_ptr<NodeDaemon>> daemons;
  std::vector<ShardConfig> shards;
  for (int n = 0; n < f.cfg.nodes; ++n) {
    NodeDaemonOptions nopts;
    nopts.node_id = n;
    nopts.cluster = copts;
    nopts.filter = &zm;
    daemons.push_back(std::make_unique<NodeDaemon>(f.plan, nopts));
    shards.push_back({n, {{"127.0.0.1", daemons.back()->port()}}});
  }
  DistCoordinator coord(shards, DistOptions{});

  for (const char* sql :
       {"SELECT * FROM IparsData WHERE SOIL > 0.1",
        "SELECT REL, COUNT(*), SUM(SOIL) FROM IparsData GROUP BY REL"}) {
    SCOPED_TRACE(sql);
    QueryResult local = cluster.execute(sql, {}, &zm);
    ASSERT_EQ(local.first_error(), "");
    DistResult dist = coord.run(sql);
    ASSERT_EQ(local.node_stats.size(), dist.node_stats.size());
    EXPECT_TRUE(local.merged().same_rows(dist.merged()));
    for (std::size_t n = 0; n < local.node_stats.size(); ++n) {
      const NodeStats& a = local.node_stats[n];
      const NodeStats& b = dist.node_stats[n];
      SCOPED_TRACE("node " + std::to_string(n));
      EXPECT_EQ(a.node_id, b.node_id);
      EXPECT_GT(a.afcs, 0u);
      EXPECT_EQ(a.afcs, b.afcs);
      EXPECT_EQ(a.rows_scanned, b.rows_scanned);
      EXPECT_EQ(a.rows_matched, b.rows_matched);
      EXPECT_EQ(a.bytes_read, b.bytes_read);
      EXPECT_EQ(a.bytes_sent, b.bytes_sent);
      EXPECT_EQ(a.afcs_pruned, b.afcs_pruned);
      EXPECT_EQ(a.rows_pruned, b.rows_pruned);
      EXPECT_EQ(a.bytes_skipped, b.bytes_skipped);
      EXPECT_EQ(a.groups_emitted, b.groups_emitted);
      EXPECT_EQ(a.agg_bytes_shipped, b.agg_bytes_shipped);
      EXPECT_EQ(a.agg_dense, b.agg_dense);
      EXPECT_EQ(a.agg_hash, b.agg_hash);
      EXPECT_EQ(a.agg_radix, b.agg_radix);
    }
  }
}

}  // namespace
}  // namespace adv::storm
