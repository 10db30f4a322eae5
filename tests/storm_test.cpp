// Tests for the STORM middleware simulation: cluster execution matches the
// single-process engine and the oracle, partitioning policies distribute
// correctly, node failures are contained, and the transfer model accounts
// simulated network time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <thread>

#include "common/cancel.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "dataset/titan.h"
#include "zonemap/zonemap.h"
#include "storm/cluster.h"

namespace adv::storm {
namespace {

dataset::IparsConfig cfg4() {
  dataset::IparsConfig cfg;
  cfg.nodes = 4;
  cfg.rels = 2;
  cfg.timesteps = 10;
  cfg.grid_per_node = 25;
  cfg.pad_vars = 0;
  return cfg;
}

struct Fixture {
  TempDir tmp{"storm"};
  dataset::GeneratedIpars gen;
  std::shared_ptr<codegen::DataServicePlan> plan;

  explicit Fixture(dataset::IparsLayout layout = dataset::IparsLayout::kL0)
      : gen(dataset::generate_ipars(cfg4(), layout, tmp.str())),
        plan(std::make_shared<codegen::DataServicePlan>(
            meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
            gen.root)) {}
};

TEST(StormClusterTest, MatchesOracleAcrossNodes) {
  Fixture f;
  StormCluster cluster(f.plan);
  EXPECT_EQ(cluster.num_nodes(), 4);
  const char* sql =
      "SELECT * FROM IparsData WHERE TIME >= 3 AND TIME <= 7 AND SOIL > 0.4";
  QueryResult r = cluster.execute(sql);
  EXPECT_EQ(r.first_error(), "");
  expr::BoundQuery q = f.plan->bind(sql);
  expr::Table want = dataset::ipars_oracle(cfg4(), q);
  EXPECT_TRUE(r.merged().same_rows(want));
  EXPECT_EQ(r.total_rows(), want.num_rows());
  EXPECT_GT(r.makespan_seconds, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(StormClusterTest, EveryNodeContributes) {
  Fixture f;
  StormCluster cluster(f.plan);
  QueryResult r = cluster.execute("SELECT * FROM IparsData");
  for (const auto& ns : r.node_stats) {
    EXPECT_GT(ns.rows_matched, 0u) << "node " << ns.node_id;
    EXPECT_GT(ns.bytes_read, 0u);
    EXPECT_GT(ns.afcs, 0u);
  }
  // The grid is partitioned evenly: nodes match equal row counts.
  uint64_t per_node = r.node_stats[0].rows_matched;
  for (const auto& ns : r.node_stats) EXPECT_EQ(ns.rows_matched, per_node);
}

TEST(StormClusterTest, SequentialModeAgrees) {
  Fixture f;
  ClusterOptions seq;
  seq.parallel_nodes = false;
  StormCluster par_cluster(f.plan);
  StormCluster seq_cluster(f.plan, seq);
  const char* sql = "SELECT REL, TIME, SGAS FROM IparsData WHERE SGAS < 0.3";
  expr::Table a = par_cluster.execute(sql).merged();
  expr::Table b = seq_cluster.execute(sql).merged();
  EXPECT_TRUE(a.same_rows(b));
  EXPECT_GT(a.num_rows(), 0u);
}

TEST(StormClusterTest, RoundRobinPartitioningBalances) {
  Fixture f;
  StormCluster cluster(f.plan);
  PartitionSpec spec;
  spec.policy = PartitionSpec::Policy::kRoundRobin;
  spec.num_consumers = 3;
  QueryResult r = cluster.execute("SELECT * FROM IparsData", spec);
  ASSERT_EQ(r.partitions.size(), 3u);
  uint64_t total = r.total_rows();
  EXPECT_EQ(total, cfg4().total_rows());
  for (const auto& p : r.partitions) {
    EXPECT_GT(p.num_rows(), total / 3 - total / 10);
    EXPECT_LT(p.num_rows(), total / 3 + total / 10);
  }
}

TEST(StormClusterTest, HashPartitioningIsDisjointAndComplete) {
  Fixture f;
  StormCluster cluster(f.plan);
  PartitionSpec spec;
  spec.policy = PartitionSpec::Policy::kHashAttr;
  spec.num_consumers = 4;
  spec.select_index = 1;  // TIME within SELECT *
  QueryResult r = cluster.execute("SELECT * FROM IparsData", spec);
  EXPECT_EQ(r.total_rows(), cfg4().total_rows());
  // Same TIME value always lands in the same partition.
  for (const auto& p : r.partitions) {
    std::set<double> times(p.column(1).begin(), p.column(1).end());
    for (std::size_t other = 0; other < r.partitions.size(); ++other) {
      const auto& op = r.partitions[other];
      if (&op == &p) continue;
      for (double t : op.column(1)) EXPECT_EQ(times.count(t), 0u);
    }
  }
}

TEST(StormClusterTest, RangePartitioningOrdersByValue) {
  Fixture f;
  StormCluster cluster(f.plan);
  PartitionSpec spec;
  spec.policy = PartitionSpec::Policy::kRangeAttr;
  spec.num_consumers = 2;
  spec.select_index = 0;  // SOIL
  spec.range_lo = 0.0;
  spec.range_hi = 1.0;
  QueryResult r = cluster.execute("SELECT SOIL FROM IparsData WHERE REL = 0",
                                  spec);
  for (double v : r.partitions[0].column(0)) EXPECT_LT(v, 0.5);
  for (double v : r.partitions[1].column(0)) EXPECT_GE(v, 0.5);
  EXPECT_GT(r.partitions[0].num_rows(), 0u);
  EXPECT_GT(r.partitions[1].num_rows(), 0u);
}

TEST(StormClusterTest, BadPartitionSpecRejected) {
  Fixture f;
  StormCluster cluster(f.plan);
  PartitionSpec spec;
  spec.num_consumers = 0;
  EXPECT_THROW(cluster.execute("SELECT * FROM IparsData", spec), QueryError);
  spec.num_consumers = 2;
  spec.policy = PartitionSpec::Policy::kHashAttr;
  spec.select_index = 99;
  EXPECT_THROW(cluster.execute("SELECT * FROM IparsData", spec), QueryError);
}

TEST(StormClusterTest, TransferModelAccountsTime) {
  Fixture f;
  ClusterOptions fast, slow;
  slow.transfer.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s Fast-Ethernet-ish
  slow.transfer.latency_sec = 0.001;
  StormCluster c_fast(f.plan, fast);
  StormCluster c_slow(f.plan, slow);
  QueryResult rf = c_fast.execute("SELECT * FROM IparsData");
  QueryResult rs = c_slow.execute("SELECT * FROM IparsData");
  double fast_transfer = 0, slow_transfer = 0;
  for (const auto& ns : rf.node_stats) fast_transfer += ns.transfer_seconds;
  for (const auto& ns : rs.node_stats) slow_transfer += ns.transfer_seconds;
  EXPECT_EQ(fast_transfer, 0.0);
  EXPECT_GT(slow_transfer, 0.0);
  // Simulated time ~ bytes / bandwidth.
  uint64_t bytes = 0;
  for (const auto& ns : rs.node_stats) bytes += ns.bytes_sent;
  EXPECT_NEAR(slow_transfer, static_cast<double>(bytes) / 1e6, 1.0);
  // Results identical either way.
  EXPECT_TRUE(rf.merged().same_rows(rs.merged()));
}

TEST(StormClusterTest, NodeFailureIsContained) {
  Fixture f;
  // Destroy one node's data after planning structures are built.
  std::string victim;
  for (const auto& cf : f.plan->model().files()) {
    if (cf.node_id == 2) {
      victim = cf.full_path;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::remove(victim);

  StormCluster cluster(f.plan);
  QueryResult r = cluster.execute("SELECT * FROM IparsData");
  EXPECT_NE(r.first_error(), "");
  EXPECT_NE(r.node_stats[2].error, "");
  // The other three nodes still delivered their partitions.
  for (int n : {0, 1, 3})
    EXPECT_GT(r.node_stats[static_cast<std::size_t>(n)].rows_matched, 0u);
}

TEST(StormClusterTest, WorksWithSpatialIndexFilter) {
  dataset::TitanConfig tcfg;
  tcfg.nodes = 2;
  tcfg.cells_x = 4;
  tcfg.cells_y = 4;
  tcfg.cells_z = 2;
  tcfg.points_per_chunk = 32;
  TempDir tmp("storm-titan");
  auto gen = dataset::generate_titan(tcfg, tmp.str());
  auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);
  zonemap::ZoneMap idx = zonemap::ZoneMap::build(
      *plan, nullptr, {.attrs = zonemap::ZoneMap::dataindex_attrs(*plan)});

  StormCluster cluster(plan);
  const char* sql =
      "SELECT * FROM TitanData WHERE X <= 10000 AND Y <= 10000 AND Z <= 250";
  QueryResult with = cluster.execute(sql, {}, &idx);
  QueryResult without = cluster.execute(sql);
  EXPECT_TRUE(with.merged().same_rows(without.merged()));
  EXPECT_LT(with.total_bytes_read(), without.total_bytes_read());
}

TEST(StormClusterTest, UdfRegistrationThroughFilteringService) {
  Fixture f;
  FilteringService::register_filter(
      "STORM_TEST_HALF", 1,
      [](const double* a, std::size_t) { return a[0] / 2; });
  StormCluster cluster(f.plan);
  QueryResult r = cluster.execute(
      "SELECT SOIL FROM IparsData WHERE STORM_TEST_HALF(SOIL) > 0.45");
  for (double v : r.partitions[0].column(0)) EXPECT_GT(v, 0.9);
  EXPECT_GT(r.total_rows(), 0u);
}

TEST(StormClusterTest, BlockCyclicPartitioning) {
  Fixture f;
  StormCluster cluster(f.plan);
  PartitionSpec spec;
  spec.policy = PartitionSpec::Policy::kBlockCyclic;
  spec.num_consumers = 2;
  spec.block_size = 16;
  QueryResult r = cluster.execute("SELECT * FROM IparsData", spec);
  EXPECT_EQ(r.total_rows(), cfg4().total_rows());
  // Balanced within one block either way.
  uint64_t a = r.partitions[0].num_rows(), b = r.partitions[1].num_rows();
  EXPECT_LE(a > b ? a - b : b - a, 16u * cfg4().nodes);
}

TEST(StormClusterTest, ConcurrentQueriesOnOneCluster) {
  Fixture f;
  StormCluster cluster(f.plan);
  std::vector<std::thread> threads;
  std::vector<uint64_t> rows(4, 0);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&cluster, &rows, i] {
      QueryResult r = cluster.execute(
          "SELECT * FROM IparsData WHERE REL = " + std::to_string(i % 2));
      rows[static_cast<std::size_t>(i)] = r.total_rows();
    });
  }
  for (auto& t : threads) t.join();
  for (uint64_t n : rows) EXPECT_EQ(n, cfg4().total_rows() / 2);
}

TEST(StormClusterTest, StreamingDeliversSameRows) {
  Fixture f;
  StormCluster cluster(f.plan);
  const char* sql = "SELECT * FROM IparsData WHERE SOIL > 0.6";
  expr::BoundQuery q = f.plan->bind(sql);

  expr::Table streamed(q.result_columns());
  uint64_t batches = 0;
  QueryResult r = cluster.execute_streaming(
      q,
      [&](const RowBatch& b) {
        ++batches;
        EXPECT_EQ(b.num_cols, q.select_slots().size());
        for (std::size_t i = 0; i < b.num_rows(); ++i)
          streamed.append_row(b.data.data() + i * b.num_cols);
      },
      {}, nullptr);
  EXPECT_TRUE(r.partitions.empty());  // stats only
  EXPECT_GT(batches, 0u);
  EXPECT_GT(r.makespan_seconds, 0.0);
  EXPECT_TRUE(streamed.same_rows(cluster.execute(sql).merged()));
}

// Tables compared bit for bit, after sorting both when `sort` is set.
bool same_bits(expr::Table a, expr::Table b, bool sort) {
  if (a.num_cols() != b.num_cols() || a.num_rows() != b.num_rows())
    return false;
  if (sort) {
    a.sort_rows();
    b.sort_rows();
  }
  for (std::size_t c = 0; c < a.num_cols() && a.num_rows() > 0; ++c)
    if (std::memcmp(a.column(c).data(), b.column(c).data(),
                    a.num_rows() * sizeof(double)) != 0)
      return false;
  return true;
}

std::atomic<int> g_udf_calls{0};
CancelToken* g_udf_cancel = nullptr;

// The materializing tail (many 64-row batches transposed by the pool into
// per-consumer columns) against batches the test collects itself.
TEST(StormClusterTest, ParallelAssemblyMatchesStreamedBatches) {
  Fixture f;
  ClusterOptions opts;
  opts.batch_rows = 64;
  opts.threads_per_node = 4;
  const char* sql = "SELECT * FROM IparsData WHERE SOIL > 0.2";
  const expr::BoundQuery q = f.plan->bind(sql);
  using Policy = PartitionSpec::Policy;
  for (Policy policy : {Policy::kSingle, Policy::kRoundRobin,
                        Policy::kHashAttr, Policy::kRangeAttr,
                        Policy::kBlockCyclic}) {
    for (bool parallel_nodes : {true, false}) {
      SCOPED_TRACE(static_cast<int>(policy) * 10 + parallel_nodes);
      opts.parallel_nodes = parallel_nodes;
      StormCluster cluster(f.plan, opts);
      PartitionSpec spec;
      spec.policy = policy;
      spec.num_consumers = 3;
      spec.select_index = 3;
      spec.range_hi = 1.0;
      spec.block_size = 16;
      std::vector<expr::Table> want(3, expr::Table(q.result_columns()));
      std::size_t batches = 0;
      QueryResult streamed = cluster.execute_streaming(
          q,
          [&](const RowBatch& b) {
            ++batches;
            want[static_cast<std::size_t>(b.consumer)].append_rows(
                b.data.data(), b.num_rows());
          },
          spec);
      ASSERT_EQ(streamed.first_error(), "");
      EXPECT_GT(batches, 10u);
      QueryResult got = cluster.execute(q, spec);
      ASSERT_EQ(got.first_error(), "");
      ASSERT_EQ(got.partitions.size(), 3u);
      for (std::size_t c = 0; c < 3; ++c)
        EXPECT_TRUE(same_bits(got.partitions[c], want[c], true))
            << "consumer " << c;
    }
  }

  // Pushdown final rows arrive in order, so the tail keeps that order:
  // the same bits, unsorted, as streamed and at 1 and 4 threads.
  const expr::BoundQuery grouped = f.plan->bind(
      "SELECT TIME, SOIL, COUNT(*), SUM(SGAS), AVG(SGAS) FROM IparsData "
      "GROUP BY TIME, SOIL");
  PartitionSpec rr;
  rr.policy = Policy::kRoundRobin;
  rr.num_consumers = 3;
  opts.parallel_nodes = true;
  ClusterOptions one = opts;
  one.threads_per_node = 1;
  StormCluster cluster4(f.plan, opts);
  std::vector<expr::Table> streamed(3, expr::Table(grouped.result_columns()));
  cluster4.execute_streaming(
      grouped,
      [&](const RowBatch& b) {
        streamed[static_cast<std::size_t>(b.consumer)].append_rows(
            b.data.data(), b.num_rows());
      },
      rr);
  QueryResult at4 = cluster4.execute(grouped, rr);
  QueryResult at1 = StormCluster(f.plan, one).execute(grouped, rr);
  ASSERT_EQ(at4.first_error(), "");
  ASSERT_EQ(at1.first_error(), "");
  EXPECT_GT(at4.total_rows(), 64u * 3);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(same_bits(at4.partitions[c], streamed[c], false))
        << "consumer " << c;
    EXPECT_TRUE(same_bits(at4.partitions[c], at1.partitions[c], false))
        << "consumer " << c;
  }

  // Cancelled halfway through the scan, after many batches shipped: the
  // tail polls the token and the query fails typed instead of hanging.
  FilteringService::register_filter(
      "STORM_TEST_CANCEL_HALFWAY", 1, [](const double* a, std::size_t) {
        if (g_udf_calls.fetch_add(1) ==
            static_cast<int>(cfg4().total_rows() / 2))
          g_udf_cancel->cancel();
        return a[0];
      });
  CancelToken token;
  g_udf_calls = 0;
  g_udf_cancel = &token;
  EXPECT_THROW(
      cluster4.execute(
          "SELECT * FROM IparsData WHERE STORM_TEST_CANCEL_HALFWAY(SOIL) >= 0",
          {}, nullptr, &token),
      CancelledError);
  g_udf_cancel = nullptr;
}

// ---------------------------------------------------------------------------
// Channel

TEST(ChannelTest, FifoAndCloseSemantics) {
  Channel<int> ch(4);
  EXPECT_TRUE(ch.push(1));
  EXPECT_TRUE(ch.push(2));
  EXPECT_EQ(ch.pop().value(), 1);
  EXPECT_EQ(ch.pop().value(), 2);
  ch.push(3);
  ch.close();
  EXPECT_FALSE(ch.push(4));          // rejected after close
  EXPECT_EQ(ch.pop().value(), 3);    // drained after close
  EXPECT_FALSE(ch.pop().has_value());
  EXPECT_FALSE(ch.pop().has_value());
}

TEST(ChannelTest, BlockingProducersAndConsumer) {
  Channel<int> ch(2);  // small capacity to force producer blocking
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < 100; ++i) ch.push(p * 1000 + i);
    });
  }
  std::thread closer([&] {
    for (auto& t : producers) t.join();
    ch.close();
  });
  int count = 0;
  long long sum = 0;
  while (auto v = ch.pop()) {
    ++count;
    sum += *v;
  }
  closer.join();
  EXPECT_EQ(count, 300);
  long long want = 0;
  for (int p = 0; p < 3; ++p)
    for (int i = 0; i < 100; ++i) want += p * 1000 + i;
  EXPECT_EQ(sum, want);
}

}  // namespace
}  // namespace adv::storm
