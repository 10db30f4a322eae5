// End-to-end correctness of the generated data services: for every IPARS
// layout and a battery of queries, descriptor -> DataServicePlan ->
// index/extract must produce exactly the rows the brute-force oracle
// produces.  Plus Titan, file verification, and failure injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "codegen/plan.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "dataset/titan.h"
#include "faultz/faultz.h"

namespace adv::codegen {
namespace {

dataset::IparsConfig small_cfg() {
  dataset::IparsConfig cfg;
  cfg.nodes = 2;
  cfg.rels = 3;
  cfg.timesteps = 12;
  cfg.grid_per_node = 20;
  cfg.pad_vars = 2;
  return cfg;
}

// The query battery: exercises full scans, indexed subsetting, value
// filters, UDF filters, IN lists, projections, and empty results.
const char* kIparsQueries[] = {
    "SELECT * FROM IparsData",
    "SELECT * FROM IparsData WHERE TIME > 3 AND TIME < 8",
    "SELECT * FROM IparsData WHERE TIME > 3 AND TIME < 8 AND SOIL > 0.7",
    "SELECT * FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) < 10.0",
    "SELECT * FROM IparsData WHERE REL IN (0, 2) AND TIME <= 2",
    "SELECT REL, TIME, SOIL FROM IparsData WHERE SOIL > 0.9",
    "SELECT X, Y, Z FROM IparsData WHERE REL = 1 AND TIME = 5",
    "SELECT * FROM IparsData WHERE TIME = 100",  // out of range -> empty
    "SELECT TIME, SGAS FROM IparsData WHERE REL = 0 AND SGAS < 0.25 AND "
    "TIME IN (2, 4, 6)",
    "SELECT * FROM IparsData WHERE X >= 2 AND X <= 5 AND Y < 3",
};

struct LayoutCase {
  dataset::IparsLayout layout;
  const char* query;
};

class IparsEndToEnd : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(IparsEndToEnd, MatchesOracle) {
  const LayoutCase& lc = GetParam();
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("e2e");
  dataset::GeneratedIpars gen =
      dataset::generate_ipars(cfg, lc.layout, tmp.str());

  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  EXPECT_TRUE(plan.verify_files().empty());

  expr::BoundQuery q = plan.bind(lc.query);
  ExtractStats stats;
  expr::Table got = plan.execute(q, {}, &stats);
  expr::Table want = dataset::ipars_oracle(cfg, q);

  EXPECT_EQ(got.num_rows(), want.num_rows()) << lc.query;
  EXPECT_TRUE(got.same_rows(want)) << "layout "
                                   << dataset::to_string(lc.layout) << ": "
                                   << lc.query;
  EXPECT_EQ(stats.rows_matched, got.num_rows());
  EXPECT_GE(stats.rows_scanned, stats.rows_matched);
}

constexpr std::size_t kNumQueries =
    sizeof(kIparsQueries) / sizeof(kIparsQueries[0]);

// ctest lists each case under the raw bytes of its LayoutCase: the padding
// after `layout` as the vector's construction leaves it, then the query
// pointer.  Pointing into .rodata, that pointer moved with ASLR, so the
// listed names changed from one test discovery to the next.  The cases
// therefore point at copies of the texts at fixed offsets of a 64 KiB-aligned
// block: the pointer's two low bytes, and with them each name up to its 100th
// character, are the same in every run (the upper bytes still vary).  The
// offsets are the ones these cases have been listed with.  A PrintTo for
// LayoutCase would be cleaner but renames all 70 cases (ROADMAP item 11).
std::vector<LayoutCase> all_cases() {
  std::vector<LayoutCase> cases;
  for (auto l : dataset::all_ipars_layouts())
    for (const char* q : kIparsQueries) cases.push_back({l, q});

  constexpr std::size_t kBlock = std::size_t{1} << 16;
  constexpr std::size_t kOffsets[kNumQueries] = {
      0x7C57, 0x7968, 0x79A0, 0x79E8, 0x7A28,
      0x7A68, 0x7AA0, 0x7AE0, 0x7B10, 0x7B68};
  // Lives as long as the test parameters do: never freed.
  static char* const block =
      static_cast<char*>(std::aligned_alloc(kBlock, kBlock));
  if (block == nullptr) std::abort();
  const char* copies[kNumQueries];
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    std::size_t end = kOffsets[i] + std::strlen(kIparsQueries[i]) + 1;
    for (std::size_t j = 0; j < kNumQueries; ++j)
      if (j != i && kOffsets[j] >= kOffsets[i] && kOffsets[j] < end) {
        std::fprintf(stderr, "codegen_test: query %zu overlaps query %zu\n",
                     i, j);
        std::abort();
      }
    copies[i] = std::strcpy(block + kOffsets[i], kIparsQueries[i]);
  }
  for (std::size_t c = 0; c < cases.size(); ++c)
    cases[c].query = copies[c % kNumQueries];
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IparsEndToEnd, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return std::string("L") + dataset::to_string(info.param.layout) + "_Q" +
             std::to_string(info.index % kNumQueries);
    });

// ---------------------------------------------------------------------------
// Cross-layout agreement: every layout of the same logical data returns the
// same rows for the same query.

TEST(CrossLayout, AllLayoutsAgree) {
  dataset::IparsConfig cfg = small_cfg();
  const char* query =
      "SELECT * FROM IparsData WHERE TIME >= 2 AND TIME <= 9 AND SGAS < 0.5";
  TempDir tmp("xlay");
  expr::Table reference;
  bool first = true;
  for (auto layout : dataset::all_ipars_layouts()) {
    std::string sub = tmp.subdir(dataset::to_string(layout));
    auto gen = dataset::generate_ipars(cfg, layout, sub);
    DataServicePlan plan = DataServicePlan::from_text(
        gen.descriptor_text, gen.dataset_name, gen.root);
    expr::Table t = plan.execute(query);
    if (first) {
      reference = t;
      first = false;
      EXPECT_GT(t.num_rows(), 0u);
    } else {
      EXPECT_TRUE(t.same_rows(reference))
          << "layout " << dataset::to_string(layout);
    }
  }
}

// ---------------------------------------------------------------------------
// Titan

TEST(TitanEndToEnd, QueriesMatchOracle) {
  dataset::TitanConfig cfg;
  cfg.nodes = 2;
  cfg.cells_x = 4;
  cfg.cells_y = 4;
  cfg.cells_z = 2;
  cfg.points_per_chunk = 64;
  TempDir tmp("titan");
  auto gen = dataset::generate_titan(cfg, tmp.str());
  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  EXPECT_TRUE(plan.verify_files().empty());

  for (const char* query : {
           "SELECT * FROM TitanData",
           "SELECT * FROM TitanData WHERE X >= 0 AND X <= 10000 AND Y >= 0 "
           "AND Y <= 10000 AND Z >= 0 AND Z <= 100",
           "SELECT * FROM TitanData WHERE DISTANCE(X, Y, Z) < 9000",
           "SELECT * FROM TitanData WHERE S1 < 0.01",
           "SELECT X, Y, S1 FROM TitanData WHERE S1 < 0.5",
       }) {
    expr::BoundQuery q = plan.bind(query);
    expr::Table got = plan.execute(q);
    expr::Table want = dataset::titan_oracle(cfg, q);
    EXPECT_TRUE(got.same_rows(want)) << query;
  }
}

// ---------------------------------------------------------------------------
// API errors and failure injection

TEST(PlanApi, WrongTableNameRejected) {
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("api");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kI, tmp.str());
  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  EXPECT_THROW(plan.execute("SELECT * FROM SomethingElse"), QueryError);
  // Both the dataset name and the schema name are accepted.
  EXPECT_NO_THROW(plan.bind("SELECT * FROM IparsData WHERE TIME = 1"));
  EXPECT_NO_THROW(plan.bind("SELECT * FROM IPARS WHERE TIME = 1"));
}

TEST(PlanApi, VerifyFilesDetectsTruncationAndLoss) {
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("verify");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kV, tmp.str());
  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  ASSERT_TRUE(plan.verify_files().empty());

  // Truncate one file.
  std::string victim = plan.model().files()[1].full_path;
  std::filesystem::resize_file(victim, 10);
  auto problems = plan.verify_files();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("size mismatch"), std::string::npos);

  // Remove it entirely.
  std::filesystem::remove(victim);
  problems = plan.verify_files();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("missing file"), std::string::npos);
}

TEST(PlanApi, TruncatedFileFailsExtractionLoudly) {
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("trunc");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kI, tmp.str());
  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  std::string victim = plan.model().files()[0].full_path;
  std::filesystem::resize_file(victim, 16);
  EXPECT_THROW(plan.execute("SELECT * FROM IparsData"), IoError);
}

TEST(PlanApi, MissingRootDirectory) {
  dataset::IparsConfig cfg = small_cfg();
  std::string text =
      dataset::ipars_descriptor_text(cfg, dataset::IparsLayout::kI);
  DataServicePlan plan =
      DataServicePlan::from_text(text, "IparsData", "/nonexistent/root");
  EXPECT_FALSE(plan.verify_files().empty());
  EXPECT_THROW(plan.execute("SELECT * FROM IparsData"), IoError);
}

// ---------------------------------------------------------------------------
// Extractor internals

TEST(ExtractorTest, TinyBatchSizeStreamsCorrectly) {
  // Force multi-batch streaming with a pathologically small batch buffer.
  // batch_bytes bounds only the pread fallback, so refuse every mapping.
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("batch");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kII, tmp.str());
  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  expr::BoundQuery q = plan.bind("SELECT * FROM IparsData WHERE TIME <= 3");

  afc::PlanResult pr = plan.index_fn(q);
  expr::Table out(q.result_columns());
  std::vector<GroupBinding> bindings;
  for (const auto& g : pr.groups)
    bindings.push_back(bind_group(g, q, plan.schema()));
  {
    FileCache::instance().clear();
    faultz::ScopedFaultPlan scope(1, "mmap.fail=1");
    // 8-byte batches: one row per pread.
    Extractor tiny(ExtractorOptions{.batch_bytes = 8});
    for (const auto& a : pr.afcs)
      tiny.extract(pr.groups[a.group], a, bindings[a.group], q, out);
  }
  FileCache::instance().clear();

  expr::Table want = dataset::ipars_oracle(cfg, q);
  EXPECT_TRUE(out.same_rows(want));
}

TEST(ExtractorTest, ClearCacheInvalidatesRewrittenFiles) {
  // The process-wide FileCache pins open handles (and mmaps), so replacing
  // a data file on disk is invisible to a live extractor until
  // clear_cache() drops both the extractor's pinned handles and the shared
  // cache.  Replace-via-rename swaps the inode, which makes the staleness
  // deterministic: the old handle keeps serving the old bytes.
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("inval");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kL0, tmp.str());
  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  expr::BoundQuery q = plan.bind("SELECT * FROM IparsData");
  afc::PlanResult pr = plan.index_fn(q);
  std::vector<GroupBinding> bindings;
  for (const auto& g : pr.groups)
    bindings.push_back(bind_group(g, q, plan.schema()));

  Extractor ex;
  auto run = [&] {
    expr::Table out(q.result_columns());
    for (const auto& a : pr.afcs)
      ex.extract(pr.groups[a.group], a, bindings[a.group], q, out);
    return out;
  };
  expr::Table before = run();

  // Rewrite one data file in place (same size, zeroed payload) through a
  // temp file + rename so the old inode survives inside cached handles.
  const std::string victim = plan.model().files().front().full_path;
  std::string blank(std::filesystem::file_size(victim), '\0');
  write_text_file(victim + ".tmp", blank);
  std::filesystem::rename(victim + ".tmp", victim);

  expr::Table stale = run();
  EXPECT_TRUE(stale.same_rows(before));  // cached handle: old bytes

  ex.clear_cache();
  EXPECT_EQ(FileCache::instance().size(), 0u);
  expr::Table fresh = run();
  EXPECT_EQ(fresh.num_rows(), before.num_rows());
  EXPECT_FALSE(fresh.same_rows(before));  // zeroed file now visible
}

TEST(ExtractorTest, StatsCountBytes) {
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("stats");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kI, tmp.str());
  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  expr::BoundQuery q = plan.bind("SELECT * FROM IparsData");
  afc::PlanResult pr = plan.index_fn(q);
  ExtractStats stats;
  plan.execute(q, {}, &stats);
  EXPECT_EQ(stats.bytes_read, pr.bytes_to_read());
  EXPECT_EQ(stats.rows_scanned, cfg.total_rows());
}

}  // namespace
}  // namespace adv::codegen
