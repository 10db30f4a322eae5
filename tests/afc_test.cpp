// Tests for the dataset model (concrete file enumeration, implicit
// attributes) and the AFC planner, exercising the paper's running example
// (§4): IPARS with a COORDS file per node and one SOIL/SGAS file per
// (realization, node).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "afc/dataset_model.h"
#include "afc/planner.h"
#include "common/error.h"
#include "dataset/ipars.h"
#include "dataset/titan.h"

namespace adv::afc {
namespace {

// The paper's Figure 4 descriptor: 4 nodes, 4 realizations, 500 time steps,
// 100 grid points per node, SOIL+SGAS stored together.
const char* kPaperDescriptor = R"(
[IPARS]
REL = short int
TIME = int
X = float
Y = float
Z = float
SOIL = float
SGAS = float

[IparsData]
DatasetDescription = IPARS
DIR[0] = osu0/ipars
DIR[1] = osu1/ipars
DIR[2] = osu2/ipars
DIR[3] = osu3/ipars

DATASET "IparsData" {
  DATATYPE { IPARS }
  DATAINDEX { REL TIME }
  DATASET "ipars1" {
    DATASPACE {
      LOOP GRID ($DIRID*100+1):(($DIRID+1)*100):1 { X Y Z }
    }
    DATA { "DIR[$DIRID]/COORDS" DIRID = 0:3:1 }
  }
  DATASET "ipars2" {
    DATASPACE {
      LOOP TIME 1:500:1 {
        LOOP GRID ($DIRID*100+1):(($DIRID+1)*100):1 { SOIL SGAS }
      }
    }
    DATA { "DIR[$DIRID]/DATA$REL" REL = 0:3:1 DIRID = 0:3:1 }
  }
}
)";

DatasetModel paper_model() {
  return DatasetModel(meta::parse_descriptor(kPaperDescriptor), "IparsData",
                      "/data");
}

expr::BoundQuery bind(const DatasetModel& m, const std::string& sql) {
  return expr::BoundQuery(sql::parse_select(sql), m.schema());
}

// ---------------------------------------------------------------------------
// DatasetModel

TEST(DatasetModelTest, EnumeratesConcreteFiles) {
  DatasetModel m = paper_model();
  ASSERT_EQ(m.leaves().size(), 2u);
  EXPECT_EQ(m.leaves()[0].name, "ipars1");
  // 4 COORDS files + 16 DATA files.
  EXPECT_EQ(m.files_of_leaf(0).size(), 4u);
  EXPECT_EQ(m.files_of_leaf(1).size(), 16u);
  EXPECT_EQ(m.num_nodes(), 4);

  const ConcreteFile& coords0 = m.files()[m.files_of_leaf(0)[0]];
  EXPECT_EQ(coords0.path, "osu0/ipars/COORDS");
  EXPECT_EQ(coords0.full_path, "/data/osu0/ipars/COORDS");
  EXPECT_EQ(coords0.node_id, 0);
  ASSERT_EQ(coords0.regions.size(), 1u);
  EXPECT_EQ(coords0.regions[0].record_range.lo, 1);

  // DATA files carry REL as an implicit point and TIME as an implicit span.
  const ConcreteFile& d = m.files()[m.files_of_leaf(1)[0]];
  EXPECT_EQ(d.env.get("REL"), 0);
  ASSERT_EQ(d.implicit_points.size(), 1u);
  EXPECT_EQ(d.implicit_points[0].first, 0);  // REL attr index
  ASSERT_EQ(d.implicit_spans.size(), 1u);
  EXPECT_EQ(d.implicit_spans[0].attr, 1);  // TIME
  EXPECT_DOUBLE_EQ(d.implicit_spans[0].lo, 1);
  EXPECT_DOUBLE_EQ(d.implicit_spans[0].hi, 500);
}

TEST(DatasetModelTest, FileNamesSubstituteBindings) {
  DatasetModel m = paper_model();
  std::set<std::string> names;
  for (int fid : m.files_of_leaf(1))
    names.insert(m.files()[fid].path);
  EXPECT_TRUE(names.count("osu2/ipars/DATA3"));
  EXPECT_EQ(names.size(), 16u);
}

TEST(DatasetModelTest, ExpectedFileBytes) {
  DatasetModel m = paper_model();
  const ConcreteFile& coords = m.files()[m.files_of_leaf(0)[0]];
  EXPECT_EQ(m.expected_file_bytes(coords), 100u * 12u);
  const ConcreteFile& data = m.files()[m.files_of_leaf(1)[0]];
  EXPECT_EQ(m.expected_file_bytes(data), 500u * 100u * 8u);
}

TEST(DatasetModelTest, UnknownDatasetThrows) {
  EXPECT_THROW(DatasetModel(meta::parse_descriptor(kPaperDescriptor),
                            "Nonexistent", "/data"),
               QueryError);
}

// ---------------------------------------------------------------------------
// Planner: the paper's example query (REL in {0,1}, TIME 1..100).

TEST(PlannerTest, PaperExampleGroupsAndAfcs) {
  DatasetModel m = paper_model();
  expr::BoundQuery q = bind(m,
      "SELECT * FROM IparsData WHERE REL IN (0, 1) AND TIME >= 1 AND TIME "
      "<= 100");
  PlanResult pr = plan_afcs(m, q);

  // Find_File_Groups: 4 COORDS files and 8 DATA files survive file pruning
  // (REL in {0,1} excludes DATA2/DATA3 in every directory).
  EXPECT_EQ(pr.stats.files_matched, 4u + 8u);
  // 4 x 8 = 32 combinations considered; the 8 same-directory pairs align
  // (the paper's set T).
  EXPECT_EQ(pr.stats.groups_considered, 32u);
  EXPECT_EQ(pr.stats.groups_formed, 8u);
  // Process_File_Groups: 100 of the 500 time steps survive per group.
  EXPECT_EQ(pr.afcs.size(), 8u * 100u);

  // Every AFC joins one COORDS chunk and one DATA chunk.
  const GroupPlan& g = pr.groups[0];
  ASSERT_EQ(g.chunks.size(), 2u);
  EXPECT_EQ(g.row_ident, "GRID");
  EXPECT_EQ(g.row_attr, -1);
  ASSERT_EQ(g.loops.size(), 1u);
  EXPECT_EQ(g.loops[0].ident, "TIME");
  EXPECT_EQ(g.loops[0].attr, 1);

  const Afc& a = pr.afcs[0];
  EXPECT_EQ(a.num_rows, 100u);
  ASSERT_EQ(a.offsets.size(), 2u);
  // First TIME step: COORDS chunk at 0, DATA chunk at 0.
  EXPECT_EQ(a.offsets[0], 0u);
  EXPECT_EQ(a.offsets[1], 0u);
  // Second AFC of the group: DATA advances one TIME stride, COORDS reused.
  const Afc& a2 = pr.afcs[1];
  EXPECT_EQ(a2.loop_values[0], 2);
  uint64_t coords_off = 0, data_off = 0;
  for (std::size_t c = 0; c < g.chunks.size(); ++c) {
    if (g.chunks[c].bytes_per_row == 12) coords_off = a2.offsets[c];
    else data_off = a2.offsets[c];
  }
  EXPECT_EQ(coords_off, 0u);
  EXPECT_EQ(data_off, 100u * 8u);

  EXPECT_EQ(pr.candidate_rows(), 800u * 100u);
  EXPECT_EQ(pr.bytes_to_read(), 800u * 100u * 20u);
}

TEST(PlannerTest, CrossDirectoryGroupsPruned) {
  DatasetModel m = paper_model();
  expr::BoundQuery q = bind(m, "SELECT * FROM IparsData WHERE REL = 0");
  PlanResult pr = plan_afcs(m, q);
  // 4 COORDS x 4 DATA0 = 16 considered, only same-dir pairs align.
  EXPECT_EQ(pr.stats.groups_considered, 16u);
  EXPECT_EQ(pr.stats.groups_formed, 4u);
  EXPECT_EQ(pr.afcs.size(), 4u * 500u);
}

TEST(PlannerTest, ProjectionSkipsUnneededLeaves) {
  DatasetModel m = paper_model();
  // SOIL only: the COORDS leaf does not participate at all.
  expr::BoundQuery q =
      bind(m, "SELECT TIME, SOIL FROM IparsData WHERE REL = 0 AND TIME = 7");
  PlanResult pr = plan_afcs(m, q);
  EXPECT_EQ(pr.stats.groups_formed, 4u);
  ASSERT_EQ(pr.afcs.size(), 4u);
  const GroupPlan& g = pr.groups[0];
  ASSERT_EQ(g.chunks.size(), 1u);
  EXPECT_EQ(g.chunks[0].bytes_per_row, 8u);
  // TIME = 7 -> chunk offset 6 * 800.
  EXPECT_EQ(pr.afcs[0].offsets[0], 6u * 800u);
  EXPECT_EQ(pr.afcs[0].loop_values[0], 7);
}

TEST(PlannerTest, ImplicitOnlyAttributesResolve) {
  DatasetModel m = paper_model();
  // REL and TIME are never stored explicitly in this layout.
  expr::BoundQuery q =
      bind(m, "SELECT REL, TIME, SGAS FROM IparsData WHERE TIME <= 2");
  PlanResult pr = plan_afcs(m, q);
  EXPECT_EQ(pr.afcs.size(), 16u * 2u);
  const GroupPlan& g = pr.groups[0];
  ASSERT_EQ(g.const_implicits.size(), 1u);
  EXPECT_EQ(g.const_implicits[0].first, 0);  // REL
}

TEST(PlannerTest, EmptyTimeWindowPrunesAllFiles) {
  DatasetModel m = paper_model();
  expr::BoundQuery q = bind(m, "SELECT * FROM IparsData WHERE TIME > 900");
  PlanResult pr = plan_afcs(m, q);
  EXPECT_EQ(pr.afcs.size(), 0u);
  EXPECT_EQ(pr.stats.groups_formed, 0u);
}

TEST(PlannerTest, ContradictoryQueryShortCircuits) {
  DatasetModel m = paper_model();
  expr::BoundQuery q =
      bind(m, "SELECT * FROM IparsData WHERE TIME > 10 AND TIME < 5");
  PlanResult pr = plan_afcs(m, q);
  EXPECT_EQ(pr.afcs.size(), 0u);
  EXPECT_EQ(pr.stats.files_total, 0u);  // no enumeration at all
}

TEST(PlannerTest, InSetWithHolesSkipsLoopValues) {
  DatasetModel m = paper_model();
  expr::BoundQuery q =
      bind(m, "SELECT * FROM IparsData WHERE REL = 0 AND TIME IN (5, 9)");
  PlanResult pr = plan_afcs(m, q);
  ASSERT_EQ(pr.afcs.size(), 4u * 2u);
  std::set<int64_t> times;
  for (const auto& a : pr.afcs) times.insert(a.loop_values[0]);
  EXPECT_EQ(times, (std::set<int64_t>{5, 9}));
}

TEST(PlannerTest, OnlyNodeRestrictsPlanning) {
  DatasetModel m = paper_model();
  expr::BoundQuery q = bind(m, "SELECT * FROM IparsData WHERE TIME = 1");
  PlannerOptions opts;
  opts.only_node = 2;
  PlanResult pr = plan_afcs(m, q, opts);
  EXPECT_EQ(pr.stats.groups_formed, 4u);  // 4 rels on node 2
  for (const auto& g : pr.groups) EXPECT_EQ(g.node_id, 2);
}

// A chunk filter that rules every chunk out.
class RejectAllFilter : public ChunkFilter {
 public:
  bool constrains(const expr::QueryIntervals&) const override { return true; }
  uint32_t resolve(const std::string&) const override { return 0; }
  bool may_match(uint32_t, uint64_t,
                 const expr::QueryIntervals&) const override {
    return false;
  }
};

TEST(PlannerTest, FootprintIsEveryFileTheNodePlansCanRead) {
  DatasetModel m = paper_model();
  // L0 style: X lives in each node's COORDS, REL only in the DATA$REL
  // file names, so REL IN (1) reads COORDS and DATA1 on every node.
  expr::BoundQuery q =
      bind(m, "SELECT X, SOIL FROM IparsData WHERE REL IN (1)");
  std::vector<PlanResult> plans;
  for (int n = 0; n < m.num_nodes(); ++n) {
    PlannerOptions opts;
    opts.only_node = n;
    plans.push_back(plan_afcs(m, q, opts));
  }
  std::vector<uint32_t> fp = plan_footprint(m, plans);
  std::set<std::string> paths;
  for (uint32_t i : fp) paths.insert(m.files().at(i).path);
  std::set<std::string> want;
  for (int n = 0; n < 4; ++n) {
    want.insert("osu" + std::to_string(n) + "/ipars/COORDS");
    want.insert("osu" + std::to_string(n) + "/ipars/DATA1");
  }
  EXPECT_EQ(paths, want);
  EXPECT_TRUE(std::is_sorted(fp.begin(), fp.end()));

  // Groups form before the chunk filter runs: a filter that prunes every
  // AFC leaves the footprint as it was.
  RejectAllFilter reject;
  PlannerOptions filtered;
  filtered.filter = &reject;
  std::vector<PlanResult> pruned = {plan_afcs(m, q, filtered)};
  EXPECT_TRUE(pruned[0].afcs.empty());
  EXPECT_EQ(plan_footprint(m, pruned), fp);
}

TEST(PlannerTest, PruningOffStillCorrectJustMoreWork) {
  DatasetModel m = paper_model();
  expr::BoundQuery q =
      bind(m, "SELECT * FROM IparsData WHERE REL = 0 AND TIME = 3");
  PlannerOptions noprune;
  noprune.prune_files = false;
  noprune.prune_loops = false;
  PlanResult a = plan_afcs(m, q);
  PlanResult b = plan_afcs(m, q, noprune);
  // Without pruning, every file and every time step is considered...
  EXPECT_GT(b.stats.groups_considered, a.stats.groups_considered);
  EXPECT_GT(b.afcs.size(), a.afcs.size());
  // ...and the pruned plan reads strictly less.
  EXPECT_LT(a.bytes_to_read(), b.bytes_to_read());
}

TEST(PlannerTest, RowVaryingImplicitAttr) {
  // Transposed layout: TIME is the record loop, so TIME varies per row.
  const char* desc = R"(
[S]
TIME = int
V = float
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATASPACE { LOOP GRID 1:10:1 { LOOP TIME 1:50:1 { V } } }
  DATA { "DIR[0]/F" DIRID = 0:0:1 }
}
)";
  DatasetModel m(meta::parse_descriptor(desc), "DS", "/data");
  expr::BoundQuery q = bind(m, "SELECT TIME, V FROM DS WHERE TIME BETWEEN "
                               "20 AND 29");
  PlanResult pr = plan_afcs(m, q);
  ASSERT_EQ(pr.groups.size(), 1u);
  EXPECT_EQ(pr.groups[0].row_attr, 0);
  ASSERT_EQ(pr.afcs.size(), 10u);  // one per GRID value
  // Row window clipped to TIME 20..29: 10 rows starting at offset 19*4.
  EXPECT_EQ(pr.afcs[0].num_rows, 10u);
  EXPECT_EQ(pr.afcs[0].row_first, 20);
  EXPECT_EQ(pr.afcs[0].offsets[0], 19u * 4u);
}

TEST(PlannerTest, UnavailableAttributeThrows) {
  // Z removed from every file: still in schema, never stored, not a loop.
  const char* desc = R"(
[S]
TIME = int
V = float
Z = float
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATASPACE { LOOP TIME 1:5:1 { LOOP G 1:10:1 { V } } }
  DATA { "DIR[0]/F" DIRID = 0:0:1 }
}
)";
  DatasetModel m(meta::parse_descriptor(desc), "DS", "/data");
  expr::BoundQuery q = bind(m, "SELECT Z FROM DS");
  EXPECT_THROW(plan_afcs(m, q), QueryError);
}

TEST(PlannerTest, UnalignableRecordLoopsFormNoGroups) {
  // One leaf is grid-major, the other time-major: no alignment possible.
  const char* desc = R"(
[S]
TIME = int
A = float
B = float
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATASET "a" {
    DATASPACE { LOOP TIME 1:5:1 { LOOP G 1:10:1 { A } } }
    DATA { "DIR[0]/FA" DIRID = 0:0:1 }
  }
  DATASET "b" {
    DATASPACE { LOOP G 1:10:1 { LOOP TIME 1:5:1 { B } } }
    DATA { "DIR[0]/FB" DIRID = 0:0:1 }
  }
}
)";
  DatasetModel m(meta::parse_descriptor(desc), "DS", "/data");
  expr::BoundQuery q = bind(m, "SELECT A, B FROM DS");
  PlanResult pr = plan_afcs(m, q);
  EXPECT_EQ(pr.stats.groups_considered, 1u);
  EXPECT_EQ(pr.stats.groups_formed, 0u);
  EXPECT_TRUE(pr.afcs.empty());
}

// ---------------------------------------------------------------------------
// Generated descriptors all compile into models.

class LayoutModelTest
    : public ::testing::TestWithParam<dataset::IparsLayout> {};

TEST_P(LayoutModelTest, DescriptorParsesAndEnumerates) {
  dataset::IparsConfig cfg;
  cfg.nodes = 2;
  cfg.rels = 2;
  cfg.timesteps = 10;
  cfg.grid_per_node = 16;
  cfg.pad_vars = 1;
  std::string text = dataset::ipars_descriptor_text(cfg, GetParam());
  DatasetModel m(meta::parse_descriptor(text), "IparsData", "/data");
  EXPECT_GE(m.files().size(), 1u);
  EXPECT_EQ(m.num_nodes(), 2);
  EXPECT_EQ(m.schema().size(), static_cast<std::size_t>(cfg.num_attrs()));

  // A SELECT * plan must form at least one group per node.
  expr::BoundQuery q = bind(m, "SELECT * FROM IparsData");
  PlanResult pr = plan_afcs(m, q);
  EXPECT_GE(pr.stats.groups_formed, 2u);
  EXPECT_GT(pr.afcs.size(), 0u);
  // Candidate rows must cover the whole table exactly once.
  EXPECT_EQ(pr.candidate_rows(), cfg.total_rows());
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, LayoutModelTest,
    ::testing::ValuesIn(dataset::all_ipars_layouts()),
    [](const ::testing::TestParamInfo<dataset::IparsLayout>& info) {
      return std::string("Layout") + dataset::to_string(info.param);
    });

TEST(TitanModelTest, DescriptorParsesAndPlans) {
  dataset::TitanConfig cfg;
  cfg.nodes = 2;
  cfg.cells_x = 4;
  cfg.cells_y = 2;
  cfg.cells_z = 2;
  cfg.points_per_chunk = 8;
  DatasetModel m(meta::parse_descriptor(dataset::titan_descriptor_text(cfg)),
                 "TitanData", "/data");
  EXPECT_EQ(m.files().size(), 2u);
  expr::BoundQuery q = bind(m, "SELECT * FROM TitanData");
  PlanResult pr = plan_afcs(m, q);
  // One AFC per chunk.
  EXPECT_EQ(pr.afcs.size(), static_cast<std::size_t>(cfg.num_chunks()));
  EXPECT_EQ(pr.candidate_rows(), cfg.total_rows());
}

}  // namespace
}  // namespace adv::afc
