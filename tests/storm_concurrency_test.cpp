// Stress tests for the intra-node parallel extraction pipeline: the
// multi-producer channel under contention, and the ordering contract —
// per-consumer partitions must be identical whether a node scans its AFC
// list with 1 thread or many, over every partition policy and io mode.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/io.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "faultz/faultz.h"
#include "storm/cluster.h"

namespace adv::storm {
namespace {

// ---------------------------------------------------------------------------
// Channel stress

TEST(ChannelStressTest, ManyProducersTinyCapacity) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;
  Channel<int> ch(2);  // tiny capacity: producers block constantly
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(ch.push(p * kPerProducer + i));
    });
  }
  std::thread closer([&] {
    for (auto& t : producers) t.join();
    ch.close();
  });
  // Single consumer: every pushed value arrives exactly once.
  std::vector<char> seen(kProducers * kPerProducer, 0);
  int count = 0;
  while (auto v = ch.pop()) {
    ++count;
    ASSERT_GE(*v, 0);
    ASSERT_LT(*v, kProducers * kPerProducer);
    ASSERT_EQ(seen[static_cast<std::size_t>(*v)], 0) << "duplicate " << *v;
    seen[static_cast<std::size_t>(*v)] = 1;
  }
  closer.join();
  EXPECT_EQ(count, kProducers * kPerProducer);
}

TEST(ChannelStressTest, CloseUnblocksPendingProducers) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.push(0));  // fill it
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      if (!ch.push(1)) rejected.fetch_add(1);  // blocks until close
    });
  }
  ch.close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), 4);  // all four were dropped, none deadlocked
  EXPECT_EQ(ch.pop().value(), 0);
  EXPECT_FALSE(ch.pop().has_value());
}

// ---------------------------------------------------------------------------
// Parallel/sequential partition equivalence

dataset::IparsConfig cfg4() {
  dataset::IparsConfig cfg;
  cfg.nodes = 4;
  cfg.rels = 2;
  cfg.timesteps = 12;
  cfg.grid_per_node = 25;
  cfg.pad_vars = 0;
  return cfg;
}

struct Fixture {
  TempDir tmp{"storm-conc"};
  dataset::GeneratedIpars gen;
  std::shared_ptr<codegen::DataServicePlan> plan;

  Fixture()
      : gen(dataset::generate_ipars(cfg4(), dataset::IparsLayout::kL0,
                                    tmp.str())),
        plan(std::make_shared<codegen::DataServicePlan>(
            meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
            gen.root)) {}
};

PartitionSpec spec_for(PartitionSpec::Policy policy) {
  PartitionSpec spec;
  spec.policy = policy;
  spec.num_consumers = 3;
  spec.select_index = 1;  // TIME within SELECT *
  spec.range_lo = 0;
  spec.range_hi = cfg4().timesteps;
  spec.block_size = 16;
  return spec;
}

// Every partition policy must hand each row to the same consumer no
// matter how many extraction workers scan the node and which io path
// reads the bytes (the scan-position ordering contract).  The sequential
// leg refuses every mapping, so it reads through FileHandle's pread
// fallback while the parallel leg decodes out of the mappings.
TEST(ParallelPipelineTest, PartitionsMatchSequentialForEveryPolicy) {
  Fixture f;
  // Filtered query: matched-row counts differ per AFC, which would expose
  // any matched-count-based (non-invariant) sequence numbering.
  const char* sql = "SELECT * FROM IparsData WHERE SOIL > 0.3";
  for (auto policy :
       {PartitionSpec::Policy::kSingle, PartitionSpec::Policy::kRoundRobin,
        PartitionSpec::Policy::kHashAttr, PartitionSpec::Policy::kRangeAttr,
        PartitionSpec::Policy::kBlockCyclic}) {
    ClusterOptions seq;
    seq.threads_per_node = 1;
    ClusterOptions par;
    par.threads_per_node = 4;
    StormCluster seq_cluster(f.plan, seq);
    StormCluster par_cluster(f.plan, par);
    QueryResult rs;
    {
      FileCache::instance().clear();
      faultz::ScopedFaultPlan scope(1, "mmap.fail=1");
      rs = seq_cluster.execute(sql, spec_for(policy));
    }
    FileCache::instance().clear();
    QueryResult rp = par_cluster.execute(sql, spec_for(policy));
    ASSERT_EQ(rs.first_error(), "");
    ASSERT_EQ(rp.first_error(), "");
    ASSERT_EQ(rs.partitions.size(), rp.partitions.size());
    EXPECT_GT(rp.total_rows(), 0u);
    for (std::size_t c = 0; c < rs.partitions.size(); ++c) {
      EXPECT_TRUE(rs.partitions[c].same_rows(rp.partitions[c]))
          << "policy " << static_cast<int>(policy) << " consumer " << c;
    }
  }
}

TEST(ParallelPipelineTest, SequentialNodeModeAgreesWithParallelWorkers) {
  Fixture f;
  const char* sql = "SELECT REL, TIME, SGAS FROM IparsData WHERE SGAS < 0.6";
  ClusterOptions opts;
  opts.parallel_nodes = false;  // nodes serial, workers parallel
  opts.threads_per_node = 3;
  StormCluster cluster(f.plan, opts);
  StormCluster plain(f.plan);
  expr::Table a = cluster.execute(sql).merged();
  expr::Table b = plain.execute(sql).merged();
  EXPECT_GT(a.num_rows(), 0u);
  EXPECT_TRUE(a.same_rows(b));
}

TEST(ParallelPipelineTest, StatsSurviveWorkerMerge) {
  Fixture f;
  ClusterOptions par;
  par.threads_per_node = 4;
  StormCluster cluster(f.plan, par);
  QueryResult r = cluster.execute("SELECT * FROM IparsData");
  EXPECT_EQ(r.total_rows(), cfg4().total_rows());
  uint64_t scanned = 0, matched = 0;
  for (const auto& ns : r.node_stats) {
    EXPECT_GT(ns.bytes_read, 0u);
    scanned += ns.rows_scanned;
    matched += ns.rows_matched;
  }
  EXPECT_EQ(scanned, cfg4().total_rows());
  EXPECT_EQ(matched, cfg4().total_rows());
}

TEST(ParallelPipelineTest, ConcurrentQueriesShareExtractionPool) {
  Fixture f;
  ClusterOptions par;
  par.threads_per_node = 4;
  StormCluster cluster(f.plan, par);
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

// ---------------------------------------------------------------------------
// Shared file cache

TEST(FileCacheTest, SharesOneHandlePerPath) {
  TempDir tmp("filecache");
  std::string path = tmp.str() + "/data.bin";
  write_text_file(path, std::string(4096, 'x'));
  FileCache cache(8);
  auto a = cache.open(path);
  auto b = cache.open(path);
  EXPECT_EQ(a.get(), b.get());
  ASSERT_NE(a->mapped_data(), nullptr);
  EXPECT_EQ(a->mapped_size(), 4096u);
  EXPECT_EQ(a->mapped_data()[0], 'x');
  EXPECT_THROW(a->mapped_range(1, 4096), IoError);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // Cleared handles stay usable while held.
  EXPECT_EQ(a->mapped_data()[4095], 'x');
}

}  // namespace
}  // namespace adv::storm
