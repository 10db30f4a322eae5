// Fault campaigns over the differential corpus, plus targeted recovery
// tests for each degradation mechanism: per-AFC retry, partial results,
// zone-map corruption fallback, and clean scheduler-side failure.
//
// The invariant under every campaign: correct rows, or a clean typed
// adv::Error, within the deadline.  Never wrong rows, never a hang, never
// an untyped exception.  Replay any failure with the embedded
// `adv_fuzz --seed N --fault-spec ...` command.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "api/virtual_table.h"
#include "common/tempdir.h"
#include "dq/dq_gen.h"
#include "dq/dq_run.h"
#include "faultz/faultz.h"
#include "storm/net.h"
#include "zonemap/zonemap.h"

namespace adv::dq {
namespace {

// ---------------------------------------------------------------------------
// Campaigns over the shared corpus.

class CampaignTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CampaignTest, IoFaults) {
  DqOptions opts;
  opts.fault_spec = campaign_spec("io");
  opts.fault_seed = GetParam();
  DqReport rep = run_seed(GetParam(), opts);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_EQ(rep.cases, rep.passed + rep.clean_errors) << rep.summary();
  EXPECT_GT(rep.fault_fires, 0u) << rep.summary();
}

TEST_P(CampaignTest, NodeDeath) {
  DqOptions opts;
  opts.fault_spec = campaign_spec("node");
  opts.fault_seed = GetParam() ^ 0xabc;
  DqReport rep = run_seed(GetParam(), opts);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_EQ(rep.cases, rep.passed + rep.clean_errors) << rep.summary();
}

TEST_P(CampaignTest, NetworkFaults) {
  DqOptions opts;
  opts.with_server = true;
  opts.queries_per_seed = 3;
  opts.fault_spec = campaign_spec("net");
  opts.fault_seed = GetParam() ^ 0xde7;
  DqReport rep = run_seed(GetParam(), opts);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_EQ(rep.cases, rep.passed + rep.clean_errors) << rep.summary();
}

// Partial-aggregate merges fail with probability 0.2 at the agg.merge
// site — in the in-process cluster's per-node merge and in the dist
// daemons' checkpoint path, where the coordinator's failover must re-issue
// the shard and still produce exactly the right aggregates (a retry that
// double-counted committed partial state would fail the differential).
TEST_P(CampaignTest, AggregateMergeFaults) {
  DqOptions opts;
  opts.with_dist = true;
  opts.queries_per_seed = 3;
  opts.fault_spec = campaign_spec("agg");
  opts.fault_seed = GetParam() ^ 0xa66;
  DqReport rep = run_seed(GetParam(), opts);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_EQ(rep.cases, rep.passed + rep.clean_errors) << rep.summary();
}

TEST_P(CampaignTest, SchedulerWorkerFaults) {
  DqOptions opts;
  opts.with_server = true;
  opts.queries_per_seed = 3;
  opts.fault_spec = campaign_spec("sched");
  opts.fault_seed = GetParam() ^ 0x5c4ed;
  DqReport rep = run_seed(GetParam(), opts);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_EQ(rep.cases, rep.passed + rep.clean_errors) << rep.summary();
}

// The "serve" campaign poisons the server's result cache (lookup hits
// evicted, inserts dropped).  The dq harness runs every served query twice,
// so round two would normally replay from the cache; under poisoning it
// must fall through to a fresh execution and still match the engine
// bit-for-bit — a stale or corrupt cached frame would fail the differential.
TEST_P(CampaignTest, ResultCacheFaults) {
  DqOptions opts;
  opts.with_server = true;
  opts.queries_per_seed = 3;
  opts.fault_spec = campaign_spec("serve");
  opts.fault_seed = GetParam() ^ 0x5e47e;
  DqReport rep = run_seed(GetParam(), opts);
  for (const std::string& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_EQ(rep.cases, rep.passed + rep.clean_errors) << rep.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampaignTest,
                         ::testing::Range<uint64_t>(1, 5));

// ---------------------------------------------------------------------------
// FaultPlan semantics.

TEST(FaultPlanTest, DeterministicPerSeedSiteAndHit) {
  auto& plan = faultz::FaultPlan::instance();
  auto pattern = [&](uint64_t seed) {
    faultz::ScopedFaultPlan scope(seed, "pread.eio=0.3");
    std::vector<bool> fires;
    for (int i = 0; i < 300; ++i)
      fires.push_back(plan.should_fire(faultz::Site::kPreadEio));
    return fires;
  };
  std::vector<bool> a = pattern(99), b = pattern(99), c = pattern(100);
  EXPECT_EQ(a, b);  // same {seed, site, hit index} -> same decisions
  EXPECT_NE(a, c);  // a different seed reshuffles them
  // ~30% of 300 decisions fire; both extremes would mean the hash is broken.
  std::size_t fires = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 40u);
  EXPECT_LT(fires, 160u);
}

TEST(FaultPlanTest, MaxFiresCapsInjection) {
  auto& plan = faultz::FaultPlan::instance();
  faultz::ScopedFaultPlan scope(7, "node.run=1:2");
  int fired = 0;
  for (int i = 0; i < 50; ++i)
    if (plan.should_fire(faultz::Site::kNodeRun)) ++fired;
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(plan.stats(faultz::Site::kNodeRun).hits, 50u);
  EXPECT_EQ(plan.stats(faultz::Site::kNodeRun).fires, 2u);
}

TEST(FaultPlanTest, MalformedSpecsThrow) {
  auto& plan = faultz::FaultPlan::instance();
  EXPECT_THROW(plan.arm(1, "pread.eio"), ValidationError);
  EXPECT_THROW(plan.arm(1, "no.such.site=0.5"), ValidationError);
  EXPECT_THROW(plan.arm(1, "pread.eio=2.0"), ValidationError);
  EXPECT_THROW(plan.arm(1, "pread.eio=x"), ValidationError);
  plan.disarm();
  EXPECT_FALSE(plan.armed());
}

TEST(FaultPlanTest, DisarmedHooksPassThrough) {
  faultz::FaultPlan::instance().disarm();
  EXPECT_FALSE(faultz::enabled());
  EXPECT_TRUE(faultz::inj_mmap_allowed());
  // maybe_throw_io must be a no-op when disarmed.
  faultz::maybe_throw_io(faultz::Site::kNodeRun, "should not throw");
}

// ---------------------------------------------------------------------------
// Targeted degradation mechanics.

// A dataset with >1 node whose selective payload query actually prunes
// chunks via the zone map, found deterministically by scanning seeds.
struct PrunableSetup {
  uint64_t seed = 0;
  DqDataset d;
  std::string sql;
};

PrunableSetup find_prunable(bool need_multinode) {
  for (uint64_t seed = 1; seed < 64; ++seed) {
    DqDataset d = make_dataset(seed);
    if (need_multinode && d.nodes < 2) continue;
    return {seed, d, "SELECT * FROM DqData WHERE P1 < 0.02"};
  }
  ADD_FAILURE() << "no suitable generated dataset in seeds 1..63";
  return {};
}

TEST(FaultRecoveryTest, RetryHealsTransientReadFaults) {
  PrunableSetup s = find_prunable(false);
  TempDir tmp("dqretry");
  std::string text = s.d.descriptor();
  meta::Descriptor desc = meta::parse_descriptor(text);
  codegen::DataServicePlan refplan(desc, "DqData", tmp.str());
  write_files(s.d, refplan.model());
  expr::Table want = refplan.execute(refplan.bind(s.sql));

  VirtualTable::Options vopts;
  vopts.plan_cache_capacity = 0;
  VirtualTable vt = VirtualTable::open(text, "DqData", tmp.str(), vopts);

  // Every mapping is refused, so every read hits the pread hooks.  The
  // first two preads of the query fail with EIO; the per-AFC retry must
  // absorb both and still return exactly the right rows.
  storm::QueryResult r;
  {
    faultz::ScopedFaultPlan scope(11, "mmap.fail=1,pread.eio=1:2");
    FileCache::instance().clear();  // reads must traverse the hooked path
    r = vt.query_detailed(s.sql);
  }
  FileCache::instance().clear();
  EXPECT_TRUE(rows_equal_exact(r.merged(), want));
  EXPECT_GE(r.total_io_retries(), 1u);
  EXPECT_TRUE(r.first_error().empty());
}

TEST(FaultRecoveryTest, ExhaustedRetryBudgetFailsTyped) {
  PrunableSetup s = find_prunable(false);
  TempDir tmp("dqexhaust");
  std::string text = s.d.descriptor();
  VirtualTable::Options vopts;
  vopts.plan_cache_capacity = 0;
  vopts.cluster.io_retry_limit = 1;
  VirtualTable vt = VirtualTable::open(text, "DqData", tmp.str(), vopts);
  {
    meta::Descriptor desc = meta::parse_descriptor(text);
    codegen::DataServicePlan refplan(desc, "DqData", tmp.str());
    write_files(s.d, refplan.model());
  }
  // Every mapping is refused and every pread fails: the budget runs out
  // and the query must surface a typed IoError (the injected EIO arrives
  // via errno, so the message is the production pread failure), not hang
  // or return rows.
  std::string what;
  {
    faultz::ScopedFaultPlan scope(12, "mmap.fail=1,pread.eio=1");
    FileCache::instance().clear();
    try {
      vt.query(s.sql);
    } catch (const IoError& e) {
      what = e.what();
    }
  }
  FileCache::instance().clear();
  ASSERT_FALSE(what.empty()) << "expected IoError";
  EXPECT_NE(what.find("pread"), std::string::npos) << what;
}

TEST(FaultRecoveryTest, PartialResultsSurviveNodeDeath) {
  PrunableSetup s = find_prunable(true);
  TempDir tmp("dqpartial");
  std::string text = s.d.descriptor();
  meta::Descriptor desc = meta::parse_descriptor(text);
  codegen::DataServicePlan refplan(desc, "DqData", tmp.str());
  write_files(s.d, refplan.model());
  const std::string sql = "SELECT * FROM DqData";
  expr::Table want = refplan.execute(refplan.bind(sql));

  VirtualTable::Options vopts;
  vopts.partial_results = true;
  VirtualTable vt = VirtualTable::open(text, "DqData", tmp.str(), vopts);

  // Exactly one node dies (probability 1, capped at one fire).
  faultz::ScopedFaultPlan scope(13, "node.run=1:1");
  storm::QueryResult r = vt.query_detailed(sql);
  ASSERT_EQ(r.failed_nodes().size(), 1u);
  EXPECT_EQ(r.first_error_kind(), ErrorKind::kIo);
  expr::Table got = r.merged();
  // Survivors answer: a strict, correct subset of the full result.
  EXPECT_TRUE(rows_subset(got, want));
  EXPECT_LT(got.num_rows(), want.num_rows());
  EXPECT_GT(got.num_rows(), 0u);
}

TEST(FaultRecoveryTest, WithoutPartialResultsNodeDeathThrowsTyped) {
  PrunableSetup s = find_prunable(true);
  TempDir tmp("dqnopartial");
  std::string text = s.d.descriptor();
  {
    meta::Descriptor desc = meta::parse_descriptor(text);
    codegen::DataServicePlan refplan(desc, "DqData", tmp.str());
    write_files(s.d, refplan.model());
  }
  VirtualTable vt = VirtualTable::open(text, "DqData", tmp.str(), {});
  faultz::ScopedFaultPlan scope(14, "node.run=1:1");
  EXPECT_THROW(vt.query("SELECT * FROM DqData"), IoError);
}

// ---------------------------------------------------------------------------
// Zone-map sidecar corruption: must fall back to a full scan with zero
// pruning and identical rows — never wrong answers from corrupt bounds.

class ZonemapCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s_ = find_prunable(false);
    text_ = s_.d.descriptor();
    meta::Descriptor desc = meta::parse_descriptor(text_);
    codegen::DataServicePlan refplan(desc, "DqData", tmp_.str());
    write_files(s_.d, refplan.model());
    want_ = refplan.execute(refplan.bind(s_.sql));
    zm_dir_ = tmp_.str() + "/zm";

    // Healthy baseline: sidecars exist and the query prunes.
    VirtualTable::Options vopts;
    vopts.build_zonemap = true;
    vopts.zonemap_dir = zm_dir_;
    VirtualTable vt = VirtualTable::open(text_, "DqData", tmp_.str(), vopts);
    ASSERT_TRUE(vt.has_zonemap());
    storm::QueryResult r = vt.query_detailed(s_.sql);
    baseline_pruned_ = r.total_afcs_pruned();
    ASSERT_GT(baseline_pruned_, 0u) << "baseline query must prune chunks";
    ASSERT_TRUE(rows_equal_exact(r.merged(), want_));
  }

  // Reopens against the (possibly corrupted) sidecars and asserts the
  // conservative contract: no zone map, zero pruning, identical rows.
  void expect_full_scan_fallback() {
    VirtualTable::Options vopts;
    vopts.zonemap_dir = zm_dir_;  // load only, never rebuild
    VirtualTable vt = VirtualTable::open(text_, "DqData", tmp_.str(), vopts);
    EXPECT_FALSE(vt.has_zonemap());
    storm::QueryResult r = vt.query_detailed(s_.sql);
    EXPECT_EQ(r.total_afcs_pruned(), 0u);
    EXPECT_EQ(r.total_rows_pruned(), 0u);
    EXPECT_TRUE(rows_equal_exact(r.merged(), want_));
  }

  std::string sidecar() const {
    return zonemap::ZoneMap::sidecar_path(zm_dir_, "DqData");
  }

  // Byte offsets of the sidecar's file table and bounds array
  // (docs/INDEXING.md §2), from the header counts.
  std::pair<uint64_t, uint64_t> tables_at() {
    std::string bytes = read_text_file(sidecar());
    uint64_t nattrs = 0, nfiles = 0;
    std::memcpy(&nattrs, bytes.data() + 8, 8);
    std::memcpy(&nfiles, bytes.data() + 16, 8);
    const uint64_t files_at = 8 + 5 * 8 + nattrs * 16;
    return {files_at, files_at + nfiles * 32};
  }

  void flip_byte(uint64_t pos) {
    std::fstream f(sidecar(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(pos));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(pos));
    f.put(static_cast<char>(c ^ 0x40));
  }

  PrunableSetup s_;
  std::string text_;
  TempDir tmp_{"dqzm"};
  std::string zm_dir_;
  expr::Table want_;
  uint64_t baseline_pruned_ = 0;
};

TEST_F(ZonemapCorruptionTest, TruncatedFileFallsBack) {
  std::filesystem::resize_file(sidecar(), file_size(sidecar()) / 2);
  expect_full_scan_fallback();
}

TEST_F(ZonemapCorruptionTest, FlippedBoundsByteFallsBack) {
  // Without the checksum this would silently change a min/max bound, not
  // fail a parse.
  flip_byte(tables_at().second + 3);
  expect_full_scan_fallback();
}

TEST_F(ZonemapCorruptionTest, FlippedFileTableByteFallsBack) {
  flip_byte(tables_at().first + 1);  // the first file's recorded size
  expect_full_scan_fallback();
}

TEST_F(ZonemapCorruptionTest, ClippedEndMarkerFallsBack) {
  std::filesystem::resize_file(sidecar(), file_size(sidecar()) - 3);
  expect_full_scan_fallback();
}

TEST_F(ZonemapCorruptionTest, InjectedLoadFaultFallsBack) {
  faultz::ScopedFaultPlan scope(15, "zonemap.load=1");
  expect_full_scan_fallback();
}

// ---------------------------------------------------------------------------
// Scheduler-side worker death over the wire: clean kError, slot released,
// next query unaffected.

TEST(SchedFaultTest, ServeWorkerDeathFailsCleanlyAndRecovers) {
  PrunableSetup s = find_prunable(false);
  TempDir tmp("dqsched");
  std::string text = s.d.descriptor();
  meta::Descriptor desc = meta::parse_descriptor(text);
  auto plan =
      std::make_shared<codegen::DataServicePlan>(desc, "DqData", tmp.str());
  write_files(s.d, plan->model());
  expr::Table want = plan->execute(plan->bind(s.sql));

  storm::QueryServer server(plan);
  storm::QueryClient client("127.0.0.1", server.port());

  faultz::ScopedFaultPlan scope(16, "serve.query=1:1");
  try {
    client.execute(s.sql);
    FAIL() << "expected the injected worker death to surface";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server.scheduler_metrics().failed, 1u);
  EXPECT_EQ(server.scheduler_metrics().running, 0u);  // slot released

  // The injection budget is spent; the very next query must succeed.
  storm::RemoteResult rr = client.execute(s.sql);
  EXPECT_TRUE(rows_equal_exact(rr.merged(), want));
  EXPECT_EQ(server.scheduler_metrics().completed, 1u);
}

}  // namespace
}  // namespace adv::dq
