// Tests for the serving layer (docs/SERVING.md §6): DataVersion change
// detection for in-place rewrites and zone-map sidecar rebuilds, the
// byte-budgeted LRU and single-flight behaviour of ResultCache in
// isolation, and the end-to-end serving path through QueryServer — cached
// hits bit-equal to uncached runs, version-keyed invalidation after
// rewrites of the files a query reads (including mid-query) and of the
// sidecar, entries that outlive rewrites of files the query never reads,
// plan entries reused across rewrites, kServeCache fault campaigns, typed
// tenant-quota rejections on the wire, and the kStats v2.2 serving tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "afc/planner.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "faultz/faultz.h"
#include "serve/data_version.h"
#include "serve/result_cache.h"
#include "storm/net.h"
#include "zonemap/zonemap.h"

namespace adv::serve {
namespace {

using namespace std::chrono_literals;

// Rewrites one byte in the middle of `path` in place: same length, same
// inode, typically the same wall-clock second — only mtime_ns (and the
// content) change, which is exactly what DataVersion must catch.
void flip_byte_in_place(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  long size = std::ftell(f);
  ASSERT_GT(size, 0);
  long off = size / 2;
  ASSERT_EQ(std::fseek(f, off, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, off, SEEK_SET), 0);
  ASSERT_NE(std::fputc((c ^ 0x2a) & 0xff, f), EOF);
  ASSERT_EQ(std::fclose(f), 0);
}

// Overwrites every 4-byte word of `path` with `v` in place: same length,
// same inode, and a content change no tolerance can miss.
void fill_in_place(const std::string& path, float v) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  ASSERT_GT(size, 0);
  ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
  std::vector<float> words(static_cast<std::size_t>(size) / sizeof(float), v);
  ASSERT_EQ(std::fwrite(words.data(), sizeof(float), words.size(), f),
            words.size());
  ASSERT_EQ(std::fclose(f), 0);
}

struct ServeFixture {
  TempDir tmp{"serve"};
  dataset::IparsConfig cfg;
  dataset::GeneratedIpars gen;
  std::shared_ptr<codegen::DataServicePlan> plan;

  static dataset::IparsConfig make_cfg() {
    dataset::IparsConfig c;
    c.nodes = 2;
    c.rels = 2;
    c.timesteps = 8;
    c.grid_per_node = 16;
    c.pad_vars = 0;
    return c;
  }

  ServeFixture()
      : cfg(make_cfg()),
        gen(dataset::generate_ipars(cfg, dataset::IparsLayout::kV,
                                    tmp.str())),
        plan(std::make_shared<codegen::DataServicePlan>(
            meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
            gen.root)) {}

  const std::string& any_data_file() const {
    const auto& files = plan->model().files();
    EXPECT_FALSE(files.empty());
    return files.front().full_path;
  }
};

// ---------------------------------------------------------------------------
// DataVersion

TEST(DataVersionTest, InPlaceSameSizeRewriteChangesVersion) {
  ServeFixture f;
  DataVersion before = DataVersion::compute(*f.plan);
  EXPECT_GT(before.files_seen, 0u);
  EXPECT_EQ(before.hex().size(), 16u);

  // Recomputing without touching anything is stable.
  EXPECT_EQ(DataVersion::compute(*f.plan).hex(), before.hex());

  flip_byte_in_place(f.any_data_file());
  DataVersion after = DataVersion::compute(*f.plan);
  // Same file count, same sizes, same second — the version still moves,
  // because FileId carries nanosecond mtimes.
  EXPECT_EQ(after.files_seen, before.files_seen);
  EXPECT_NE(after.hex(), before.hex());
}

TEST(DataVersionTest, SidecarRebuildChangesVersion) {
  ServeFixture f;
  const std::string dir = f.tmp.str() + "/zm";

  DataVersion absent = DataVersion::compute(*f.plan, dir);
  DataVersion plain = DataVersion::compute(*f.plan);
  // The sidecar-aware version folds in the (absent) sidecar; the plain one
  // ignores it.
  EXPECT_NE(absent.hex(), plain.hex());

  zonemap::ZoneMap zm = zonemap::ZoneMap::build(*f.plan);
  zm.save(dir, *f.plan);
  DataVersion built = DataVersion::compute(*f.plan, dir);
  EXPECT_NE(built.hex(), absent.hex());
  EXPECT_GT(built.files_seen, absent.files_seen);

  // Rebuilding in place (same sizes possible, new mtimes) moves it again…
  std::this_thread::sleep_for(10ms);
  zm.save(dir, *f.plan);
  DataVersion rebuilt = DataVersion::compute(*f.plan, dir);
  EXPECT_NE(rebuilt.hex(), built.hex());
  // …and deleting the sidecar brings back the absent version.
  std::filesystem::remove(zonemap::ZoneMap::sidecar_path(dir, "IparsData"));
  EXPECT_EQ(DataVersion::compute(*f.plan, dir).hex(), absent.hex());
  // …while the sidecar-blind version never noticed any of this.
  EXPECT_EQ(DataVersion::compute(*f.plan).hex(), plain.hex());
}

// ---------------------------------------------------------------------------
// ResultCache in isolation

ResultEntryPtr make_entry(std::size_t blob_bytes) {
  auto e = std::make_shared<ResultEntry>();
  e->replay_blob.assign(blob_bytes, 0x5a);
  return e;
}

TEST(ResultCacheTest, LruEvictsByByteBudget) {
  ResultCache::Options opts;
  opts.capacity_bytes = 3 * make_entry(1000)->charged_bytes() + 64;
  opts.max_entry_bytes = opts.capacity_bytes;
  ResultCache cache(opts);

  cache.insert("k1", make_entry(1000));
  cache.insert("k2", make_entry(1000));
  cache.insert("k3", make_entry(1000));
  ASSERT_EQ(cache.stats().entries, 3u);
  ASSERT_EQ(cache.stats().evictions, 0u);

  // Touch k1 so k2 becomes the least recently used…
  EXPECT_NE(cache.lookup("k1").entry, nullptr);
  // …then push past the budget: exactly one eviction, and it takes k2.
  cache.insert("k4", make_entry(1000));
  ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.entries, 3u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_LE(st.bytes, opts.capacity_bytes);

  EXPECT_NE(cache.lookup("k1").entry, nullptr);
  EXPECT_NE(cache.lookup("k3").entry, nullptr);
  EXPECT_NE(cache.lookup("k4").entry, nullptr);
  ResultCache::Lookup gone = cache.lookup("k2");
  EXPECT_EQ(gone.entry, nullptr);
  EXPECT_TRUE(gone.leader);
  cache.publish(gone.flight, nullptr);  // close out the miss's flight
}

TEST(ResultCacheTest, OversizeEntriesAreNeverStored) {
  ResultCache::Options opts;
  opts.capacity_bytes = 1 << 20;
  opts.max_entry_bytes = 512;
  ResultCache cache(opts);
  cache.insert("big", make_entry(4096));
  ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.too_large, 1u);
}

TEST(ResultCacheTest, SingleFlightCoalescesConcurrentMisses) {
  ResultCache cache;
  ResultCache::Lookup leader = cache.lookup("q");
  ASSERT_EQ(leader.entry, nullptr);
  ASSERT_TRUE(leader.leader);
  ASSERT_NE(leader.flight, nullptr);

  constexpr int kFollowers = 4;
  std::vector<std::thread> threads;
  std::vector<ResultEntryPtr> got(kFollowers);
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back([&, i] {
      ResultCache::Lookup fl = cache.lookup("q");
      EXPECT_FALSE(fl.leader);
      ASSERT_NE(fl.flight, nullptr);
      got[i] = cache.wait(fl.flight);
    });
  }
  std::this_thread::sleep_for(20ms);
  ResultEntryPtr entry = make_entry(64);
  cache.publish(leader.flight, entry);
  for (auto& t : threads) t.join();

  for (const auto& e : got) EXPECT_EQ(e, entry);
  ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.coalesced, kFollowers);
  EXPECT_EQ(st.misses, 1u);  // one leader execution for five lookups
  EXPECT_EQ(st.inserts, 1u);
  // The published entry is now served straight from the cache.
  EXPECT_EQ(cache.lookup("q").entry, entry);
}

TEST(ResultCacheTest, FailedLeaderWakesFollowersWithNull) {
  ResultCache cache;
  ResultCache::Lookup leader = cache.lookup("q");
  ASSERT_TRUE(leader.leader);
  ResultCache::Lookup follower = cache.lookup("q");
  ASSERT_FALSE(follower.leader);

  std::thread t([&] { cache.publish(leader.flight, nullptr); });
  ResultEntryPtr e = cache.wait(follower.flight);
  t.join();
  EXPECT_EQ(e, nullptr);  // follower falls back to executing itself
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key is retryable: the next miss elects a fresh leader.
  ResultCache::Lookup retry = cache.lookup("q");
  EXPECT_TRUE(retry.leader);
  cache.publish(retry.flight, nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end through QueryServer

constexpr const char* kSql =
    "SELECT REL, TIME, SOIL FROM IparsData WHERE TIME <= 4 AND SOIL > 0.25";

storm::QueryServer make_caching_server(const ServeFixture& f,
                                       sched::SchedulerOptions sopts = {}) {
  ServeOptions vs;
  vs.enable_result_cache = true;
  return storm::QueryServer(f.plan, storm::ClusterOptions{}, 0, nullptr,
                            std::move(sopts), vs);
}

// kSql's footprint as the server computes it: indices into model.files()
// of every file its node plans can read.
std::vector<uint32_t> footprint_of_ksql(const ServeFixture& f) {
  storm::StormCluster cluster(f.plan);
  expr::BoundQuery q = cluster.query_service().submit(kSql);
  return afc::plan_footprint(f.plan->model(), cluster.plan_nodes(q, nullptr));
}

// A data file kSql reads (its SOIL file on node 0).
std::string file_in_footprint(const ServeFixture& f) {
  std::vector<uint32_t> fp = footprint_of_ksql(f);
  EXPECT_FALSE(fp.empty());
  return f.plan->model().files().at(fp.front()).full_path;
}

// A data file kSql never reads.
std::string file_outside_footprint(const ServeFixture& f) {
  std::vector<uint32_t> fp = footprint_of_ksql(f);
  const auto& files = f.plan->model().files();
  for (uint32_t i = 0; i < files.size(); ++i)
    if (!std::binary_search(fp.begin(), fp.end(), i)) return files[i].full_path;
  ADD_FAILURE() << "kSql reads every file of the dataset";
  return std::string();
}

// Rows node 0 matched: after its SOIL file is filled with a value above
// kSql's 0.25 threshold, every row of its TIME <= 4 window.
uint64_t node0_rows_matched(const storm::RemoteResult& r) {
  for (const auto& ns : r.node_stats)
    if (ns.node_id == 0) return ns.rows_matched;
  ADD_FAILURE() << "no stats for node 0";
  return 0;
}

uint64_t node0_window_rows(const ServeFixture& f) {
  return 4u * static_cast<uint64_t>(f.cfg.rels * f.cfg.grid_per_node);
}

TEST(ServeE2ETest, CachedHitMatchesUncachedRun) {
  ServeFixture f;
  storm::QueryServer server = make_caching_server(f);
  storm::QueryClient client("127.0.0.1", server.port());

  storm::RemoteResult cold = client.execute(kSql);
  ASSERT_TRUE(cold.sched.serving_valid);
  EXPECT_FALSE(cold.sched.served_from_cache);

  storm::RemoteResult hot = client.execute(kSql);
  ASSERT_TRUE(hot.sched.serving_valid);
  EXPECT_TRUE(hot.sched.served_from_cache);

  // The cached frame is the same result, down to the node stats blob.
  EXPECT_TRUE(hot.merged().same_rows(cold.merged()));
  ASSERT_EQ(hot.node_stats.size(), cold.node_stats.size());
  EXPECT_EQ(hot.node_stats[0].rows_matched, cold.node_stats[0].rows_matched);

  ResultCache::Stats st = server.result_cache_stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(server.queries_served(), 2u);

  // A different partition spec is a different key: no stale cross-serve.
  storm::PartitionSpec part;
  part.policy = storm::PartitionSpec::Policy::kRoundRobin;
  part.num_consumers = 3;
  storm::RemoteResult split = client.execute(kSql, part);
  EXPECT_FALSE(split.sched.served_from_cache);
  ASSERT_EQ(split.partitions.size(), 3u);
  EXPECT_TRUE(split.merged().same_rows(cold.merged()));
}

// Every partition spec field reaches the served execution and the cache
// key: each policy's cold result matches the in-process cluster partition
// by partition, and its hit replays exactly those columns.  kBlockCyclic
// runs twice on one server with different block sizes, so a key without
// block_size would serve the first block size's rows for the second.
TEST(ServeE2ETest, EveryPartitionSpecMatchesInProcessColdAndHot) {
  ServeFixture f;
  storm::QueryServer server = make_caching_server(f);
  storm::QueryClient client("127.0.0.1", server.port());
  storm::StormCluster cluster(f.plan);
  using Policy = storm::PartitionSpec::Policy;

  auto spec = [](Policy policy, int consumers, int select_index = -1) {
    storm::PartitionSpec p;
    p.policy = policy;
    p.num_consumers = consumers;
    p.select_index = select_index;
    return p;
  };
  std::vector<storm::PartitionSpec> specs = {
      spec(Policy::kSingle, 1), spec(Policy::kRoundRobin, 3),
      spec(Policy::kHashAttr, 3, 0), spec(Policy::kRangeAttr, 3, 2)};
  specs.back().range_lo = 0.25;
  for (uint64_t block : {16u, 32u}) {
    specs.push_back(spec(Policy::kBlockCyclic, 2));
    specs.back().block_size = block;
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    const storm::PartitionSpec& part = specs[i];
    storm::QueryResult want = cluster.execute(kSql, part);
    storm::RemoteResult cold = client.execute(kSql, part);
    storm::RemoteResult hot = client.execute(kSql, part);
    EXPECT_FALSE(cold.sched.served_from_cache);
    EXPECT_TRUE(hot.sched.served_from_cache);
    ASSERT_EQ(want.partitions.size(), cold.partitions.size());
    ASSERT_EQ(hot.partitions.size(), cold.partitions.size());
    for (std::size_t c = 0; c < cold.partitions.size(); ++c) {
      EXPECT_TRUE(cold.partitions[c].same_rows(want.partitions[c]))
          << "consumer " << c;
      const expr::Table& h = hot.partitions[c];
      const expr::Table& k = cold.partitions[c];
      ASSERT_EQ(h.num_cols(), k.num_cols());
      for (std::size_t col = 0; col < k.num_cols(); ++col) {
        EXPECT_EQ(h.columns()[col].name, k.columns()[col].name);
        EXPECT_EQ(h.column(col), k.column(col)) << "consumer " << c;
      }
    }
  }
}

TEST(ServeE2ETest, InPlaceRewriteInvalidatesCachedEntry) {
  ServeFixture f;
  storm::QueryServer cached = make_caching_server(f);
  // Anchor server with the cache off: always executes for real.
  storm::QueryServer anchor(f.plan);
  storm::QueryClient cclient("127.0.0.1", cached.port());
  storm::QueryClient aclient("127.0.0.1", anchor.port());

  storm::RemoteResult before = cclient.execute(kSql);
  ASSERT_TRUE(cclient.execute(kSql).sched.served_from_cache);
  std::string v_before = cached.data_version().hex();

  flip_byte_in_place(file_in_footprint(f));
  EXPECT_NE(cached.data_version().hex(), v_before);

  // The rewrite changed the version component of every key: the next
  // query misses and re-executes against the new bytes…
  storm::RemoteResult after = cclient.execute(kSql);
  EXPECT_FALSE(after.sched.served_from_cache);
  // …and matches an uncached server reading the same rewritten files.
  storm::RemoteResult want = aclient.execute(kSql);
  EXPECT_TRUE(after.merged().same_rows(want.merged()));
  (void)before;
}

TEST(ServeE2ETest, MidQueryRewriteNeverServesStale) {
  // Best-effort race: rewrite the data mid-query so the server's
  // post-execution version recheck fires.  Whatever the interleaving, the
  // invariant is deterministic — a query issued after the rewrite must
  // match a cache-less server, never a pre-rewrite cached frame.
  ServeFixture f;
  storm::QueryServer cached = make_caching_server(f);
  storm::QueryServer anchor(f.plan);
  storm::QueryClient cclient("127.0.0.1", cached.port());
  storm::QueryClient aclient("127.0.0.1", anchor.port());
  const std::string soil_file = file_in_footprint(f);

  for (int round = 0; round < 4; ++round) {
    std::thread rewriter([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
      flip_byte_in_place(soil_file);
    });
    try {
      (void)cclient.execute(kSql);
    } catch (const QueryError&) {
      // A scan overlapping the rewrite may legitimately fail; the next
      // query must still be correct.
    }
    rewriter.join();

    storm::RemoteResult got = cclient.execute(kSql);
    storm::RemoteResult want = aclient.execute(kSql);
    ASSERT_TRUE(got.merged().same_rows(want.merged())) << "round " << round;
  }
}

TEST(ServeE2ETest, RewriteOutsideFootprintKeepsCachedEntry) {
  ServeFixture f;
  storm::QueryServer cached = make_caching_server(f);
  storm::QueryServer anchor(f.plan);
  storm::QueryClient cclient("127.0.0.1", cached.port());
  storm::QueryClient aclient("127.0.0.1", anchor.port());

  (void)cclient.execute(kSql);
  ASSERT_TRUE(cclient.execute(kSql).sched.served_from_cache);
  const std::string v_before = cached.data_version().hex();

  // kSql never reads this file: the dataset's version moves, the query's
  // does not, so the entry is still found…
  fill_in_place(file_outside_footprint(f), 0.5f);
  EXPECT_NE(cached.data_version().hex(), v_before);
  storm::RemoteResult after = cclient.execute(kSql);
  EXPECT_TRUE(after.sched.served_from_cache);
  // …and is still the right answer.
  storm::RemoteResult want = aclient.execute(kSql);
  EXPECT_TRUE(after.merged().same_rows(want.merged()));
}

TEST(ServeE2ETest, RewriteInsideFootprintMissesAndReadsNewBytes) {
  ServeFixture f;
  storm::QueryServer cached = make_caching_server(f);
  storm::QueryServer anchor(f.plan);
  storm::QueryClient cclient("127.0.0.1", cached.port());
  storm::QueryClient aclient("127.0.0.1", anchor.port());

  (void)cclient.execute(kSql);
  ASSERT_TRUE(cclient.execute(kSql).sched.served_from_cache);

  // Every SOIL value of node 0 becomes 0.9 (> 0.25, so every row of that
  // node's TIME window now matches).
  fill_in_place(file_in_footprint(f), 0.9f);
  storm::RemoteResult after = cclient.execute(kSql);
  EXPECT_FALSE(after.sched.served_from_cache);
  storm::RemoteResult want = aclient.execute(kSql);
  EXPECT_TRUE(after.merged().same_rows(want.merged()));
  EXPECT_EQ(node0_rows_matched(after), node0_window_rows(f));
  // The fresh result was published: the next query hits it.
  storm::RemoteResult again = cclient.execute(kSql);
  EXPECT_TRUE(again.sched.served_from_cache);
  EXPECT_TRUE(again.merged().same_rows(want.merged()));
}

TEST(ServeE2ETest, SidecarRebuildMissesEveryCachedQuery) {
  ServeFixture f;
  const std::string dir = f.tmp.str() + "/zm";
  zonemap::ZoneMap zm = zonemap::ZoneMap::build(*f.plan);
  zm.save(dir, *f.plan);
  ServeOptions vs;
  vs.enable_result_cache = true;
  vs.version_sidecar_dir = dir;
  storm::QueryServer server(f.plan, storm::ClusterOptions{}, 0, &zm,
                            sched::SchedulerOptions{}, vs);
  storm::QueryClient client("127.0.0.1", server.port());

  const std::vector<std::string> queries = {
      kSql, "SELECT REL, X, Y FROM IparsData WHERE REL = 1",
      "SELECT TIME, SGAS FROM IparsData WHERE TIME >= 6"};
  std::vector<storm::RemoteResult> cold;
  for (const std::string& sql : queries) {
    cold.push_back(client.execute(sql));
    ASSERT_TRUE(client.execute(sql).sched.served_from_cache) << sql;
  }

  // Pruning decisions depend on the sidecar, so every footprint version
  // folds it in: a rebuild (new mtime, same data) retires every entry.
  std::this_thread::sleep_for(10ms);
  zm.save(dir, *f.plan);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    storm::RemoteResult r = client.execute(queries[i]);
    EXPECT_FALSE(r.sched.served_from_cache) << queries[i];
    EXPECT_TRUE(r.merged().same_rows(cold[i].merged())) << queries[i];
  }
}

TEST(ServeE2ETest, PlanEntryReusedAcrossRewriteMatchesUncached) {
  ServeFixture f;
  // Result cache off, plan cache on (the default): every query executes,
  // repeats replay the cached node plans.
  storm::QueryServer planned(f.plan);
  ServeOptions no_plans;
  no_plans.plan_cache_capacity = 0;
  storm::QueryServer anchor(f.plan, storm::ClusterOptions{}, 0, nullptr,
                            sched::SchedulerOptions{}, no_plans);
  storm::QueryClient pclient("127.0.0.1", planned.port());
  storm::QueryClient aclient("127.0.0.1", anchor.port());

  (void)pclient.execute(kSql);
  fill_in_place(file_in_footprint(f), 0.9f);
  storm::RemoteResult got = pclient.execute(kSql);
  PlanCache::Stats pc = planned.plan_cache_stats();
  EXPECT_EQ(pc.hits, 1u);
  EXPECT_EQ(pc.misses, 1u);
  EXPECT_EQ(anchor.plan_cache_stats().capacity, 0u);

  storm::RemoteResult want = aclient.execute(kSql);
  EXPECT_TRUE(got.merged().same_rows(want.merged()));
  EXPECT_EQ(node0_rows_matched(got), node0_window_rows(f));
}

TEST(ServeE2ETest, ServeCacheFaultCampaignStaysCorrect) {
  // serve.cache at p=1.0 drops every insert and poisons every would-be
  // hit: the cache contributes nothing, and every query must still come
  // back right.
  ServeFixture f;
  storm::QueryServer server = make_caching_server(f);
  storm::QueryClient client("127.0.0.1", server.port());

  storm::RemoteResult clean = client.execute(kSql);
  {
    faultz::ScopedFaultPlan fp(7, "serve.cache=1.0");
    for (int i = 0; i < 3; ++i) {
      storm::RemoteResult r = client.execute(kSql);
      EXPECT_TRUE(r.merged().same_rows(clean.merged())) << "query " << i;
    }
  }
  ResultCache::Stats st = server.result_cache_stats();
  EXPECT_GT(st.poisoned, 0u);
  // With the plan gone the very next pair behaves normally again.
  (void)client.execute(kSql);
  storm::RemoteResult hot = client.execute(kSql);
  EXPECT_TRUE(hot.sched.served_from_cache);
  EXPECT_TRUE(hot.merged().same_rows(clean.merged()));
}

TEST(ServeE2ETest, TenantQuotaSurfacesAsTypedError) {
  ServeFixture f;
  sched::SchedulerOptions sopts;
  sopts.max_concurrent_queries = 1;
  sopts.max_queue_depth = 16;
  sched::TenantOptions quota;
  quota.max_queued = 1;
  sopts.tenants["metered"] = quota;
  storm::QueryServer server = make_caching_server(f, sopts);

  std::atomic<int> quota_rejects{0};
  std::atomic<int> completed{0};
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      storm::QueryClient c("127.0.0.1", server.port());
      storm::QueryOptions qopts;
      qopts.tenant = "metered";
      // Unique SQL per attempt so the result cache can't collapse the
      // burst into one execution.
      for (int attempt = 0; attempt < 25 && quota_rejects.load() == 0;
           ++attempt) {
        std::string sql = "SELECT REL, TIME, SOIL FROM IparsData WHERE TIME = " +
                          std::to_string(attempt % 8);
        try {
          (void)c.execute(sql, storm::PartitionSpec{}, qopts);
          completed.fetch_add(1);
        } catch (const storm::TenantQuotaError& e) {
          EXPECT_EQ(e.kind, sched::RejectKind::kTenantQuota);
          EXPECT_GT(e.retry_after_seconds, 0.0);
          quota_rejects.fetch_add(1);
        } catch (const storm::QueueFullError&) {
          // Global backlog rejection is possible too; keep hammering.
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  // With one run slot, a one-deep tenant queue, and eight concurrent
  // clients, some submission had to trip the quota.
  EXPECT_GT(quota_rejects.load(), 0);
  EXPECT_GT(completed.load(), 0);
  sched::SchedulerMetrics m = server.scheduler_metrics();
  EXPECT_GT(m.tenants.at("metered").rejected, 0u);
}

TEST(ServeE2ETest, StatsTailCarriesServingCountersEndToEnd) {
  ServeFixture f;
  storm::QueryServer server = make_caching_server(f);
  storm::QueryClient client("127.0.0.1", server.port());
  storm::QueryOptions qopts;
  qopts.tenant = "acme";

  (void)client.execute(kSql, storm::PartitionSpec{}, qopts);
  storm::RemoteResult r = client.execute(kSql, storm::PartitionSpec{}, qopts);

  ASSERT_TRUE(r.sched.valid);
  ASSERT_TRUE(r.sched.serving_valid);
  EXPECT_TRUE(r.sched.served_from_cache);
  EXPECT_GE(r.sched.result_cache.lookups, 2u);
  EXPECT_GE(r.sched.result_cache.hits, 1u);
  EXPECT_GE(r.sched.plan_cache.misses + r.sched.plan_cache.hits, 1u);
  EXPECT_GE(r.sched.run_time_hist.count, 1u);
  EXPECT_GE(r.sched.queue_wait_hist.count, 0u);

  ASSERT_TRUE(r.sched.tenants.count("acme"));
  const auto& t = r.sched.tenants.at("acme");
  EXPECT_GE(t.submitted, 2u);
  EXPECT_GE(t.completed, 1u);
  EXPECT_DOUBLE_EQ(t.weight, 1.0);

  std::string pretty = r.sched.pretty();
  EXPECT_FALSE(pretty.empty());
  EXPECT_NE(pretty.find("acme"), std::string::npos);

  // A v1-style result (no tails parsed) prints nothing instead of junk.
  storm::SchedInfo blank;
  EXPECT_TRUE(blank.pretty().empty());
}

}  // namespace
}  // namespace adv::serve
