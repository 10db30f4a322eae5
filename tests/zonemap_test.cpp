// Tests for the zone-map chunk index: builds over IPARS, Titan, TitanST and
// COLMAJOR layouts, Titan's DATAINDEX-only spatial index (MinMaxIndexTest),
// the single-file sidecar (round trip, staleness, seeded mutations, a
// leftover ADVZM2 triplet), pruning against the oracles and against a
// brute-force filter, the planner's filter short-circuit, and the
// VirtualTable plan cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "advirt.h"
#include "afc/reference.h"
#include "common/rng.h"
#include "common/tempdir.h"
#include "common/thread_pool.h"
#include "dataset/ipars.h"
#include "dataset/titan.h"
#include "dataset/titan_st.h"
#include "dq/dq_gen.h"
#include "dq/dq_run.h"

namespace adv {
namespace {

using zonemap::ZoneMap;

dataset::IparsConfig small_cfg() {
  dataset::IparsConfig cfg;
  cfg.nodes = 2;
  cfg.rels = 2;
  cfg.timesteps = 40;
  cfg.grid_per_node = 25;
  cfg.pad_vars = 2;
  return cfg;
}

dataset::TitanConfig titan_cfg() {
  dataset::TitanConfig cfg;
  cfg.nodes = 2;
  cfg.cells_x = 4;
  cfg.cells_y = 4;
  cfg.cells_z = 2;
  cfg.points_per_chunk = 32;
  return cfg;
}

struct TitanFixture {
  TempDir tmp{"zmtitan"};
  dataset::GeneratedTitan gen;
  codegen::DataServicePlan plan;
  // The paper's spatial index: bounds over DATAINDEX { X Y Z } only.
  ZoneMap spatial;

  TitanFixture()
      : gen(dataset::generate_titan(titan_cfg(), tmp.str())),
        plan(codegen::DataServicePlan::from_text(gen.descriptor_text,
                                                 gen.dataset_name,
                                                 gen.root)),
        spatial(ZoneMap::build(
            plan, nullptr, {.attrs = ZoneMap::dataindex_attrs(plan)})) {}
};

// Chunk for chunk, `a` and `b` hold the same bounds.
void expect_same_entries(const ZoneMap& a, const ZoneMap& b) {
  ASSERT_EQ(a.attrs(), b.attrs());
  ASSERT_EQ(a.num_chunks(), b.num_chunks());
  const std::size_t width = 2 * a.attrs().size();
  a.for_each_chunk([&](const std::string& file, uint64_t offset,
                       const double* bounds) {
    const double* other = b.find(file, offset);
    ASSERT_NE(other, nullptr) << file << " @" << offset;
    EXPECT_TRUE(std::equal(bounds, bounds + width, other))
        << file << " @" << offset;
  });
}

// SOIL declines with time in the generated data, so a high-saturation
// predicate matches only early time steps — the shape chunk-level min/max
// metadata prunes well.
constexpr const char* kSelective =
    "SELECT * FROM IparsData WHERE SOIL >= 0.9";

TEST(ZoneMapTest, BuildCoversAllStoredAttributes) {
  TempDir tmp("zmb");
  auto gen = dataset::generate_ipars(small_cfg(), dataset::IparsLayout::kL0,
                                     tmp.str());
  codegen::DataServicePlan plan =
      codegen::DataServicePlan::from_text(gen.descriptor_text, "IparsData",
                                          gen.root);
  // REL and TIME are implicit (encoded in file names); the other ten
  // schema attributes are stored and must all be covered.
  std::vector<int> attrs = ZoneMap::stored_attrs(plan);
  EXPECT_EQ(attrs.size(), 10u);
  for (int a : attrs) {
    const std::string& n = plan.schema().at(static_cast<std::size_t>(a)).name;
    EXPECT_NE(n, "REL");
    EXPECT_NE(n, "TIME");
  }

  ThreadPool pool(4);
  ZoneMap zm = ZoneMap::build(plan, &pool);
  EXPECT_GT(zm.num_chunks(), 0u);
  EXPECT_EQ(zm.num_files(), plan.model().files().size());
  // All chunks of one AFC share a bounds row.
  EXPECT_LT(zm.num_rows(), zm.num_chunks());
  // Parallel and sequential builds agree chunk for chunk.
  expect_same_entries(zm, ZoneMap::build(plan, nullptr));
}

TEST(ZoneMapTest, SidecarRoundTrip) {
  TempDir tmp("zmr");
  auto gen = dataset::generate_ipars(small_cfg(), dataset::IparsLayout::kL0,
                                     tmp.str());
  codegen::DataServicePlan plan =
      codegen::DataServicePlan::from_text(gen.descriptor_text, "IparsData",
                                          gen.root);
  ZoneMap built = ZoneMap::build(plan);
  std::string dir = tmp.str() + "/.zm";
  built.save(dir, plan);

  auto loaded = ZoneMap::load(dir, plan);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_stale_files(), 0u);
  EXPECT_EQ(loaded->num_rows(), built.num_rows());
  expect_same_entries(*loaded, built);
  // Missing sidecar -> nullopt, not an exception.
  EXPECT_FALSE(ZoneMap::load(tmp.str() + "/nowhere", plan));
}

TEST(ZoneMapTest, PruningMatchesOracleAndReducesBytes) {
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("zmp");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kL0,
                                     tmp.str());

  VirtualTable::Options plain;
  VirtualTable unindexed =
      VirtualTable::open(gen.descriptor_text, "IparsData", gen.root, plain);

  VirtualTable::Options zopt;
  zopt.build_zonemap = true;
  zopt.zonemap_dir = tmp.str() + "/.zm";
  VirtualTable indexed =
      VirtualTable::open(gen.descriptor_text, "IparsData", gen.root, zopt);
  ASSERT_TRUE(indexed.has_zonemap());

  storm::QueryResult cold = unindexed.query_detailed(kSelective);
  storm::QueryResult pruned = indexed.query_detailed(kSelective);

  // Identical rows, against each other and against the oracle.
  expr::BoundQuery q = indexed.plan().bind(kSelective);
  expr::Table expect = dataset::ipars_oracle(cfg, q);
  ASSERT_GT(expect.num_rows(), 0u);
  EXPECT_TRUE(cold.merged().same_rows(expect));
  EXPECT_TRUE(pruned.merged().same_rows(expect));

  // The zone map must drop whole AFCs and at least halve extraction I/O on
  // this selective query.
  EXPECT_EQ(cold.total_afcs_pruned(), 0u);
  EXPECT_GT(pruned.total_afcs_pruned(), 0u);
  EXPECT_GT(pruned.total_rows_pruned(), 0u);
  EXPECT_GT(pruned.total_bytes_skipped(), 0u);
  EXPECT_LE(pruned.total_bytes_read() * 2, cold.total_bytes_read());
  // What was skipped plus what was read covers the unindexed scan.
  EXPECT_EQ(pruned.total_bytes_read() + pruned.total_bytes_skipped(),
            cold.total_bytes_read());

  // The low end: a chunk shared by many AFCs (L0's COORDS file) carries
  // the hull of all of them, so it never prunes a matching time step.
  const char* low = "SELECT * FROM IparsData WHERE SOIL <= 0.1";
  expr::Table low_rows = dataset::ipars_oracle(cfg, indexed.plan().bind(low));
  ASSERT_GT(low_rows.num_rows(), 0u);
  EXPECT_TRUE(indexed.query(low).same_rows(low_rows));

  // A full scan (no interval predicate on an indexed attribute) prunes
  // nothing and still answers correctly.
  const char* all = "SELECT * FROM IparsData";
  storm::QueryResult full = indexed.query_detailed(all);
  EXPECT_EQ(full.total_afcs_pruned(), 0u);
  EXPECT_EQ(full.merged().num_rows(), cfg.total_rows());
}

// The paper's spatial index: Titan's zone map over DATAINDEX { X Y Z }.

TEST(MinMaxIndexTest, BuildCoversEveryChunk) {
  TitanFixture t;
  EXPECT_EQ(t.spatial.attrs().size(), 3u);
  EXPECT_EQ(t.spatial.num_chunks(),
            static_cast<std::size_t>(titan_cfg().num_chunks()));
  // Every chunk has a non-empty box.
  int checked = 0;
  t.spatial.for_each_chunk([&](const std::string&, uint64_t,
                               const double* b) {
    for (std::size_t a = 0; a < 3; ++a) EXPECT_LE(b[2 * a], b[2 * a + 1]);
    ++checked;
  });
  EXPECT_EQ(checked, titan_cfg().num_chunks());
}

TEST(MinMaxIndexTest, SaveLoadRoundTrip) {
  TitanFixture t;
  t.spatial.save(t.tmp.str(), t.plan);
  auto back = ZoneMap::load(t.tmp.str(), t.plan);
  ASSERT_TRUE(back.has_value());
  expect_same_entries(*back, t.spatial);
  // A data file copied over the sidecar is not an index.
  std::filesystem::copy_file(t.gen.root + "/node0/titan/CHUNKS",
                             ZoneMap::sidecar_path(t.tmp.str(), "TitanData"),
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_FALSE(ZoneMap::load(t.tmp.str(), t.plan));
}

TEST(MinMaxIndexTest, UnindexedChunksPass) {
  TitanFixture t;
  // Unindexed files and offsets pass every query; indexed chunks outside
  // the query box do not.
  expr::QueryIntervals qi(t.plan.schema().size());
  qi.interval(0) = expr::Interval::closed(-2, -1);  // X below every chunk
  EXPECT_TRUE(t.spatial.constrains(qi));
  EXPECT_EQ(t.spatial.resolve("nofile"), afc::ChunkFilter::kNoFile);
  const uint32_t f =
      t.spatial.resolve(t.plan.model().files().front().full_path);
  ASSERT_NE(f, afc::ChunkFilter::kNoFile);
  EXPECT_FALSE(t.spatial.may_match(f, 0, qi));
  EXPECT_TRUE(t.spatial.may_match(f, 1, qi));  // no chunk starts at byte 1
  qi.interval(0) = expr::Interval::all();
  EXPECT_FALSE(t.spatial.constrains(qi));
}

TEST(MinMaxIndexTest, PruningPreservesResultsAndSkipsChunks) {
  TitanFixture t;
  expr::BoundQuery box = t.plan.bind(
      "SELECT * FROM TitanData WHERE X >= 0 AND X <= 9000 AND Y >= 0 AND "
      "Y <= 9000 AND Z >= 0 AND Z <= 200");
  afc::PlannerOptions with, without;
  with.filter = &t.spatial;
  afc::PlanResult pruned = t.plan.index_fn(box, with);
  EXPECT_LT(pruned.afcs.size(), t.plan.index_fn(box, without).afcs.size());
  EXPECT_GT(pruned.stats.afcs_filtered_by_index, 0u);
  expr::Table rows = t.plan.execute(box, with);
  EXPECT_GT(rows.num_rows(), 0u);
  EXPECT_TRUE(rows.same_rows(t.plan.execute(box, without)));
  EXPECT_TRUE(rows.same_rows(dataset::titan_oracle(titan_cfg(), box)));
}

TEST(ZoneMapTest, BuildsOverTitanStAndColmajorLayouts) {
  // The zone map must build over the spatio-temporal chunk grid and the
  // column-major array family, prune on the autocorrelated sensors, and
  // stay exact — for both record families.
  dataset::TitanStConfig cfg;
  cfg.nodes = 2;
  cfg.lat_chunks = 2;
  cfg.lon_chunks = 4;
  cfg.timesteps = 6;
  cfg.cells_per_chunk = 32;
  const char* selective = "SELECT * FROM TitanST WHERE S1 >= 0.9";
  for (bool colmajor : {false, true}) {
    cfg.colmajor = colmajor;
    TempDir tmp("zmt");
    auto gen = dataset::generate_titan_st(cfg, tmp.str());

    VirtualTable::Options plain;
    VirtualTable unindexed =
        VirtualTable::open(gen.descriptor_text, "TitanST", gen.root, plain);
    VirtualTable::Options zopt;
    zopt.build_zonemap = true;
    zopt.zonemap_dir = tmp.str() + "/.zm";
    VirtualTable indexed =
        VirtualTable::open(gen.descriptor_text, "TitanST", gen.root, zopt);
    ASSERT_TRUE(indexed.has_zonemap());

    storm::QueryResult cold = unindexed.query_detailed(selective);
    storm::QueryResult pruned = indexed.query_detailed(selective);
    expr::BoundQuery q = indexed.plan().bind(selective);
    expr::Table expect = dataset::titan_st_oracle(cfg, q);
    ASSERT_GT(expect.num_rows(), 0u) << "colmajor=" << colmajor;
    EXPECT_TRUE(cold.merged().same_rows(expect)) << "colmajor=" << colmajor;
    EXPECT_TRUE(pruned.merged().same_rows(expect)) << "colmajor=" << colmajor;
    EXPECT_GT(pruned.total_afcs_pruned(), 0u) << "colmajor=" << colmajor;
    EXPECT_GT(pruned.total_bytes_skipped(), 0u) << "colmajor=" << colmajor;
    EXPECT_LT(pruned.total_bytes_read(), cold.total_bytes_read());

    // Spatio-temporal pruning needs no sidecar: the implicit TIME/LAT/LON
    // dimensions resolve to chunk intervals at plan time.
    const char* spatial =
        "SELECT * FROM TitanST WHERE TIME = 2 AND LAT <= 2 AND LON IN (1, 3)";
    expr::BoundQuery sq = unindexed.plan().bind(spatial);
    storm::QueryResult sr = unindexed.query_detailed(spatial);
    expr::Table sexpect = dataset::titan_st_oracle(cfg, sq);
    EXPECT_EQ(sexpect.num_rows(),
              static_cast<uint64_t>(2 * 2 * cfg.cells_per_chunk));
    EXPECT_TRUE(sr.merged().same_rows(sexpect)) << "colmajor=" << colmajor;
    EXPECT_LT(sr.total_bytes_read(), cold.total_bytes_read() / 4)
        << "colmajor=" << colmajor;
  }
}

TEST(ZoneMapTest, StaleFileFallsBackToFullScan) {
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("zms");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kL0,
                                     tmp.str());
  codegen::DataServicePlan plan =
      codegen::DataServicePlan::from_text(gen.descriptor_text, "IparsData",
                                          gen.root);
  std::string dir = tmp.str() + "/.zm";
  ZoneMap::build(plan).save(dir, plan);

  // Bump one data file's mtime: same bytes, but the fingerprint no longer
  // matches, so its entries must be dropped on load.
  const std::string& victim = plan.model().files().front().full_path;
  std::filesystem::last_write_time(
      victim, std::filesystem::last_write_time(victim) +
                  std::chrono::seconds(7));

  auto reloaded = ZoneMap::load(dir, plan);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->num_stale_files(), 1u);
  EXPECT_EQ(reloaded->resolve(victim), afc::ChunkFilter::kNoFile);
  reloaded->for_each_chunk([&](const std::string& file, uint64_t,
                               const double*) { EXPECT_NE(file, victim); });

  // Queries through the partially-stale map still match the oracle: the
  // victim's chunks are merely unindexed (may_match = true).
  VirtualTable::Options zopt;
  zopt.zonemap_dir = dir;
  VirtualTable vt =
      VirtualTable::open(gen.descriptor_text, "IparsData", gen.root, zopt);
  ASSERT_TRUE(vt.has_zonemap());
  EXPECT_EQ(vt.zone_map()->num_stale_files(), 1u);
  expr::BoundQuery q = vt.plan().bind(kSelective);
  EXPECT_TRUE(vt.query(kSelective).same_rows(dataset::ipars_oracle(cfg, q)));
}

TEST(ZoneMapTest, RebuildRefreshesStaleSidecar) {
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("zmrb");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kL0,
                                     tmp.str());
  codegen::DataServicePlan plan =
      codegen::DataServicePlan::from_text(gen.descriptor_text, "IparsData",
                                          gen.root);
  std::string dir = tmp.str() + "/.zm";
  ZoneMap::build(plan).save(dir, plan);
  const std::string& victim = plan.model().files().front().full_path;
  std::filesystem::last_write_time(
      victim, std::filesystem::last_write_time(victim) +
                  std::chrono::seconds(7));

  // open(build_zonemap=true, zonemap_dir=...) sees the stale load and
  // rebuilds a fully fresh sidecar in place.
  VirtualTable::Options zopt;
  zopt.build_zonemap = true;
  zopt.zonemap_dir = dir;
  {
    auto stale = ZoneMap::load(dir, plan);
    ASSERT_TRUE(stale && stale->num_stale_files() == 1u);
  }
  VirtualTable vt =
      VirtualTable::open(gen.descriptor_text, "IparsData", gen.root, zopt);
  ASSERT_TRUE(vt.has_zonemap());
  EXPECT_EQ(vt.zone_map()->num_stale_files(), 0u);
  auto fresh = ZoneMap::load(dir, plan);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->num_stale_files(), 0u);
}

// Test-only reference filter: a linear scan over every zone-map entry per
// chunk, no sorted lookup and no short-circuit.
class BruteForceFilter : public afc::ChunkFilter {
 public:
  BruteForceFilter(const ZoneMap& zm, const afc::DatasetModel& model)
      : attrs_(zm.attrs()) {
    for (const auto& f : model.files()) paths_.push_back(f.full_path);
    zm.for_each_chunk([&](const std::string& file, uint64_t offset,
                          const double* b) {
      entries_.push_back(
          {file, offset, std::vector<double>(b, b + 2 * attrs_.size())});
    });
  }

  bool constrains(const expr::QueryIntervals&) const override { return true; }
  uint32_t resolve(const std::string& file_path) const override {
    for (std::size_t i = 0; i < paths_.size(); ++i)
      if (paths_[i] == file_path) return static_cast<uint32_t>(i);
    return kNoFile;
  }
  bool may_match(uint32_t file, uint64_t offset,
                 const expr::QueryIntervals& qi) const override {
    for (const Entry& e : entries_) {
      if (e.file != paths_[file] || e.offset != offset) continue;
      for (std::size_t i = 0; i < attrs_.size(); ++i)
        if (!qi.chunk_may_match(static_cast<std::size_t>(attrs_[i]),
                                e.bounds[2 * i], e.bounds[2 * i + 1]))
          return false;
    }
    return true;
  }

 private:
  struct Entry {
    std::string file;
    uint64_t offset;
    std::vector<double> bounds;
  };
  std::vector<int> attrs_;
  std::vector<std::string> paths_;
  std::vector<Entry> entries_;
};

// Both planners prune exactly alike with the zone map and the brute-force
// filter: same AFCs, same PlanStats.
void expect_plans_match_brute_force(const codegen::DataServicePlan& plan,
                                    const ZoneMap& zm,
                                    const std::vector<std::string>& sqls) {
  BruteForceFilter brute(zm, plan.model());
  for (const std::string& sql : sqls) {
    expr::BoundQuery q = plan.bind(sql);
    afc::PlannerOptions fast, slow;
    fast.filter = &zm;
    slow.filter = &brute;
    EXPECT_EQ(plan.index_fn(q, fast), plan.index_fn(q, slow)) << sql;
    EXPECT_EQ(afc::reference::plan_reference(plan.model(), q, &zm),
              afc::reference::plan_reference(plan.model(), q, &brute))
        << sql;
  }
}

TEST(ZoneMapTest, PlanMatchesBruteForceFilter) {
  // dq-generated layouts, with the harness's own random queries.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    dq::DqDataset d = dq::make_dataset(seed);
    TempDir tmp("zmdq");
    codegen::DataServicePlan plan(meta::parse_descriptor(d.descriptor()),
                                  d.name, tmp.str());
    dq::write_files(d, plan.model());
    std::vector<std::string> sqls = dq::seed_queries(d, 24);
    sqls.push_back("SELECT * FROM " + d.name);
    SCOPED_TRACE("dq seed " + std::to_string(seed));
    expect_plans_match_brute_force(plan, ZoneMap::build(plan), sqls);
  }

  TitanFixture t;
  const std::vector<std::string> titan = {
      "SELECT * FROM TitanData",
      "SELECT * FROM TitanData WHERE X <= 15000 AND Y >= 20000 AND Z < 400",
      "SELECT S1 FROM TitanData WHERE Z >= 600",
      "SELECT * FROM TitanData WHERE S1 < 0.2 OR S2 > 0.9",
  };
  expect_plans_match_brute_force(t.plan, t.spatial, titan);
  expect_plans_match_brute_force(t.plan, ZoneMap::build(t.plan), titan);

  dataset::TitanStConfig cfg;
  cfg.nodes = 2;
  cfg.lat_chunks = 2;
  cfg.lon_chunks = 4;
  cfg.timesteps = 6;
  cfg.cells_per_chunk = 32;
  for (bool colmajor : {false, true}) {
    cfg.colmajor = colmajor;
    TempDir tmp("zmst");
    auto gen = dataset::generate_titan_st(cfg, tmp.str());
    codegen::DataServicePlan plan = codegen::DataServicePlan::from_text(
        gen.descriptor_text, gen.dataset_name, gen.root);
    SCOPED_TRACE(colmajor ? "COLMAJOR" : "TitanST");
    expect_plans_match_brute_force(
        plan, ZoneMap::build(plan),
        {"SELECT * FROM TitanST WHERE S1 >= 0.9",
         "SELECT * FROM TitanST WHERE TIME = 2 AND LAT <= 2 AND S2 < 0.3",
         "SELECT * FROM TitanST WHERE LON IN (1, 3)"});
  }
}

// Counts the planners' calls into a wrapped filter.
class CountingFilter : public afc::ChunkFilter {
 public:
  explicit CountingFilter(const afc::ChunkFilter& inner) : inner_(inner) {}

  bool constrains(const expr::QueryIntervals& qi) const override {
    return inner_.constrains(qi);
  }
  uint32_t resolve(const std::string& file_path) const override {
    ++resolves;
    return inner_.resolve(file_path);
  }
  bool may_match(uint32_t file, uint64_t offset,
                 const expr::QueryIntervals& qi) const override {
    ++lookups;
    return inner_.may_match(file, offset, qi);
  }

  mutable uint64_t resolves = 0;
  mutable uint64_t lookups = 0;

 private:
  const afc::ChunkFilter& inner_;
};

TEST(ZoneMapTest, FilterSkippedUnlessQueryBoundsCoveredAttribute) {
  TempDir tmp("zmcount");
  auto gen = dataset::generate_ipars(small_cfg(), dataset::IparsLayout::kL0,
                                     tmp.str());
  codegen::DataServicePlan plan = codegen::DataServicePlan::from_text(
      gen.descriptor_text, "IparsData", gen.root);
  ZoneMap zm = ZoneMap::build(plan);  // stored attributes: not REL/TIME
  CountingFilter counting(zm);
  afc::PlannerOptions opts;
  opts.filter = &counting;

  // TIME is implicit, so the zone map covers nothing this query bounds:
  // neither planner consults the filter at all.
  expr::BoundQuery window =
      plan.bind("SELECT * FROM IparsData WHERE TIME BETWEEN 3 AND 9");
  EXPECT_EQ(plan.index_fn(window, opts), plan.index_fn(window));
  afc::reference::plan_reference(plan.model(), window, &counting);
  EXPECT_EQ(counting.resolves + counting.lookups, 0u);

  // SOIL is covered: files resolve once per group, chunks look up by id.
  expr::BoundQuery q = plan.bind(kSelective);
  afc::PlanResult pr = plan.index_fn(q, opts);
  uint64_t group_files = 0;
  for (const auto& g : pr.groups) group_files += g.files.size();
  EXPECT_GT(pr.stats.afcs_filtered_by_index, 0u);
  EXPECT_EQ(counting.resolves, group_files);
  EXPECT_GT(counting.lookups, counting.resolves);

  counting.resolves = counting.lookups = 0;
  afc::reference::plan_reference(plan.model(), q, &counting);
  EXPECT_EQ(counting.resolves, group_files);
  EXPECT_GT(counting.lookups, counting.resolves);
}

// The sidecar checksum (docs/INDEXING.md §2): FNV-1a over 8-byte words,
// the tail zero-padded.  Lets the mutation test reseal rewritten fields.
uint64_t sidecar_checksum(const std::string& bytes, std::size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, std::min<std::size_t>(8, n - i));
    h = (h ^ w) * 1099511628211ULL;
  }
  return h;
}

uint64_t word_at(const std::string& bytes, std::size_t pos) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof v);
  return v;
}

TEST(ZoneMapTest, SidecarMutationsLoadAsAbsent) {
  TitanFixture t;
  const std::string dir = t.tmp.str() + "/zm";
  ZoneMap::build(t.plan).save(dir, t.plan);
  const std::string path = ZoneMap::sidecar_path(dir, "TitanData");
  const std::string good = read_text_file(path);
  ASSERT_TRUE(ZoneMap::load(dir, t.plan).has_value());

  // Every length field: the header counts, each attribute's name length,
  // each file's chunk count and path length.
  const uint64_t nattrs = word_at(good, 8), nfiles = word_at(good, 16);
  std::vector<std::size_t> lengths;
  for (std::size_t w = 0; w < 5; ++w) lengths.push_back(8 + 8 * w);
  for (uint64_t a = 0; a < nattrs; ++a) lengths.push_back(48 + 16 * a + 8);
  const std::size_t files_at = 48 + 16 * nattrs;
  for (uint64_t f = 0; f < nfiles; ++f) {
    lengths.push_back(files_at + 32 * f + 16);
    lengths.push_back(files_at + 32 * f + 24);
  }

  SplitMix64 rng(0x5a7e);
  int mutants = 0;
  auto expect_absent = [&](const std::string& bytes, const char* kind) {
    write_text_file(path, bytes);
    EXPECT_FALSE(ZoneMap::load(dir, t.plan).has_value())
        << kind << " mutant " << mutants;
    ++mutants;
  };
  for (int i = 0; i < 600; ++i) {
    std::string m = good;
    m[rng.next_below(m.size())] ^= static_cast<char>(1 + rng.next_below(255));
    expect_absent(m, "flip");
  }
  for (int i = 0; i < 200; ++i)
    expect_absent(good.substr(0, rng.next_below(good.size())), "truncate");
  // Rewritten lengths, resealed with a valid checksum: only the decoder's
  // structural checks stand between the count and an allocation.
  const std::size_t body = good.size() - 16;
  for (int i = 0; i < 300; ++i) {
    std::string m = good;
    const std::size_t at = lengths[rng.next_below(lengths.size())];
    const uint64_t old = word_at(m, at);
    uint64_t v = rng.next_below(3) == 0 ? rng.next()
                 : rng.next_below(2)    ? old + 1 + rng.next_below(64)
                                        : old - 1 - rng.next_below(old + 1);
    if (v == old) ++v;
    std::memcpy(m.data() + at, &v, sizeof v);
    const uint64_t sum = sidecar_checksum(m, body);
    std::memcpy(m.data() + body, &sum, sizeof sum);
    expect_absent(m, "length");
  }
  EXPECT_GE(mutants, 1000);

  write_text_file(path, good);
  EXPECT_TRUE(ZoneMap::load(dir, t.plan).has_value());
}

TEST(ZoneMapTest, LeftoverTripletLoadsAsAbsentAndRebuilds) {
  TempDir tmp("zmold");
  auto gen = dataset::generate_ipars(small_cfg(), dataset::IparsLayout::kL0,
                                     tmp.str());
  codegen::DataServicePlan plan = codegen::DataServicePlan::from_text(
      gen.descriptor_text, "IparsData", gen.root);
  // An ADVZM2 sidecar: heap + B+tree + text manifest, no single file.
  const std::string dir = tmp.str() + "/.zm";
  std::filesystem::create_directories(dir);
  write_text_file(dir + "/IparsData.zm.heap", std::string(8192, '\0'));
  write_text_file(dir + "/IparsData.zm.idx", std::string(4096, '\0'));
  write_text_file(dir + "/IparsData.zm.meta",
                  "ADVZM2\nsum 1 2\ndataset IparsData\nchunks 0\nend\n");
  EXPECT_FALSE(ZoneMap::load(dir, plan).has_value());

  VirtualTable::Options zopt;
  zopt.build_zonemap = true;
  zopt.zonemap_dir = dir;
  VirtualTable vt =
      VirtualTable::open(gen.descriptor_text, "IparsData", gen.root, zopt);
  ASSERT_TRUE(vt.has_zonemap());
  auto rebuilt = ZoneMap::load(dir, plan);
  ASSERT_TRUE(rebuilt.has_value());
  expect_same_entries(*rebuilt, *vt.zone_map());
}

TEST(PlanCacheTest, HitReplaysIdenticalPlans) {
  dataset::IparsConfig cfg = small_cfg();
  TempDir tmp("pc");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kL0,
                                     tmp.str());
  VirtualTable::Options opt;
  opt.build_zonemap = true;
  opt.plan_cache_capacity = 4;
  VirtualTable vt =
      VirtualTable::open(gen.descriptor_text, "IparsData", gen.root, opt);
  ASSERT_NE(vt.plan_cache(), nullptr);

  expr::Table first = vt.query(kSelective);
  auto s1 = vt.plan_cache_stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.entries, 1u);

  // Second run (different formatting, same canonical shape) hits and
  // returns the same rows.
  expr::Table second =
      vt.query("select  *  from IparsData where SOIL >= 0.9");
  auto s2 = vt.plan_cache_stats();
  EXPECT_GE(s2.hits, 1u);
  EXPECT_EQ(s2.misses, 1u);
  EXPECT_TRUE(second.same_rows(first));

  // The cached per-node plans are structurally identical to a cold
  // re-plan under the same chunk filter.
  auto entry = vt.plan_cache()->find(vt.plan_key(kSelective));
  ASSERT_NE(entry, nullptr);
  expr::BoundQuery q = vt.plan().bind(kSelective);
  std::vector<afc::PlanResult> cold =
      vt.cluster().plan_nodes(q, vt.chunk_filter());
  ASSERT_EQ(entry->node_plans.size(), cold.size());
  for (std::size_t n = 0; n < cold.size(); ++n)
    EXPECT_EQ(entry->node_plans[n], cold[n]);
}

TEST(PlanCacheTest, LruEvictsAndRecounts) {
  PlanCache cache(2);
  meta::Schema schema;
  schema.name = "S";
  meta::Attribute attr;
  attr.name = "A";
  attr.type = DataType::kFloat64;
  schema.attrs.push_back(attr);
  auto mk = [&] {
    sql::SelectQuery q;
    q.table = "S";
    return std::make_shared<CachedPlan>(
        expr::BoundQuery(std::move(q), schema));
  };
  EXPECT_EQ(cache.find("a"), nullptr);  // miss
  cache.insert("a", mk());
  cache.insert("b", mk());
  EXPECT_NE(cache.find("a"), nullptr);  // a is now most recent
  cache.insert("c", mk());              // evicts b
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
}

TEST(PlanCacheTest, OneShotKeysDoNotEvictRepeatedPlans) {
  PlanCache cache(4);  // protected segment: 3 entries
  meta::Schema schema;
  schema.name = "S";
  auto mk = [&] {
    sql::SelectQuery q;
    q.table = "S";
    return std::make_shared<CachedPlan>(
        expr::BoundQuery(std::move(q), schema));
  };
  for (const char* k : {"hot1", "hot2"}) {
    cache.insert(k, mk());
    ASSERT_NE(cache.find(k), nullptr);  // second use: protected
  }
  // A stream of queries seen once cycles through probation only.
  for (int i = 0; i < 20; ++i) cache.insert("once" + std::to_string(i), mk());
  EXPECT_NE(cache.find("hot1"), nullptr);
  EXPECT_NE(cache.find("hot2"), nullptr);
  EXPECT_EQ(cache.find("once17"), nullptr);
  EXPECT_EQ(cache.stats().entries, 4u);

  // Promotions beyond the protected segment demote its least recently
  // used entry, which a later one-shot stream then evicts.
  for (const char* k : {"hot3", "hot4"}) {
    cache.insert(k, mk());
    ASSERT_NE(cache.find(k), nullptr);
  }
  for (int i = 0; i < 4; ++i) cache.insert("later" + std::to_string(i), mk());
  EXPECT_EQ(cache.find("hot1"), nullptr);
  EXPECT_NE(cache.find("hot2"), nullptr);
  EXPECT_NE(cache.find("hot3"), nullptr);
  EXPECT_NE(cache.find("hot4"), nullptr);
}

}  // namespace
}  // namespace adv
