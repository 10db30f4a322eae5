// Differential test: the optimized planner (afc::plan_afcs, with its
// incremental cartesian pruning and interval jumps) must produce exactly
// the same aligned file chunk sets as the literal Figure 5 reference
// implementation, for every layout and a battery of queries.  Plan-only —
// no data files are needed to compare planners, except to build the zone
// map the chunk-index case filters with.
#include <gtest/gtest.h>

#include "afc/planner.h"
#include "afc/reference.h"
#include "dataset/ipars.h"
#include "codegen/plan.h"
#include "common/tempdir.h"
#include "dataset/titan.h"
#include "zonemap/zonemap.h"

namespace adv::afc {
namespace {

void expect_same_plans(const DatasetModel& model, const std::string& sql,
                       const ChunkFilter* filter = nullptr) {
  expr::BoundQuery q(sql::parse_select(sql), model.schema());
  PlannerOptions opts;
  opts.filter = filter;
  std::vector<reference::FlatAfc> fast =
      reference::flatten(plan_afcs(model, q, opts));
  std::vector<reference::FlatAfc> ref =
      reference::plan_reference(model, q, filter);
  ASSERT_EQ(fast.size(), ref.size()) << sql;
  EXPECT_EQ(fast, ref) << sql;
}

class ReferenceDiffTest
    : public ::testing::TestWithParam<dataset::IparsLayout> {};

TEST_P(ReferenceDiffTest, OptimizedPlannerMatchesFigure5) {
  dataset::IparsConfig cfg;
  cfg.nodes = 2;
  cfg.rels = 3;
  cfg.timesteps = 9;
  cfg.grid_per_node = 12;
  cfg.pad_vars = 2;
  std::string text = dataset::ipars_descriptor_text(cfg, GetParam());
  DatasetModel model(meta::parse_descriptor(text), "IparsData", "/data");

  for (const char* sql : {
           "SELECT * FROM IparsData",
           "SELECT * FROM IparsData WHERE TIME >= 3 AND TIME <= 7",
           "SELECT * FROM IparsData WHERE REL IN (0, 2)",
           "SELECT * FROM IparsData WHERE REL = 1 AND TIME IN (2, 5, 8)",
           "SELECT SOIL FROM IparsData WHERE TIME > 4",
           "SELECT TIME, SGAS FROM IparsData WHERE SGAS < 0.5",
           "SELECT X, Y FROM IparsData WHERE REL = 0 AND TIME = 1",
           "SELECT * FROM IparsData WHERE TIME > 100",  // empty
           "SELECT * FROM IparsData WHERE SOIL > 0.2 AND SOIL < 0.3",
       }) {
    expect_same_plans(model, sql);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, ReferenceDiffTest,
    ::testing::ValuesIn(dataset::all_ipars_layouts()),
    [](const ::testing::TestParamInfo<dataset::IparsLayout>& info) {
      return std::string("Layout") + dataset::to_string(info.param);
    });

TEST(ReferenceDiffTest, TransposedRecordLoop) {
  const char* desc = R"(
[S]
TIME = int
V = float
W = float
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATASET "a" {
    DATASPACE { LOOP GRID 1:6:1 { LOOP TIME 1:20:1 { V } } }
    DATA { "DIR[0]/A" DIRID = 0:0:1 }
  }
  DATASET "b" {
    DATASPACE { LOOP GRID 1:6:1 { LOOP TIME 1:20:1 { W } } }
    DATA { "DIR[0]/B" DIRID = 0:0:1 }
  }
}
)";
  DatasetModel model(meta::parse_descriptor(desc), "DS", "/data");
  for (const char* sql : {
           "SELECT * FROM DS",
           "SELECT * FROM DS WHERE TIME BETWEEN 5 AND 9",
           "SELECT V FROM DS WHERE TIME = 13",
           "SELECT TIME, W FROM DS WHERE W > 0.5 AND TIME <= 4",
       }) {
    expect_same_plans(model, sql);
  }
}

TEST(ReferenceDiffTest, TitanWithChunkIndexFilter) {
  dataset::TitanConfig cfg;
  cfg.nodes = 2;
  cfg.cells_x = 4;
  cfg.cells_y = 2;
  cfg.cells_z = 2;
  cfg.points_per_chunk = 8;
  TempDir tmp("reftitan");
  auto gen = dataset::generate_titan(cfg, tmp.str());
  codegen::DataServicePlan plan = codegen::DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  const DatasetModel& model = plan.model();
  // The spatial chunk index over X, Y, Z.
  zonemap::ZoneMap idx =
      zonemap::ZoneMap::build(plan, nullptr, {.attrs = {0, 1, 2}});
  ASSERT_EQ(idx.num_chunks(), static_cast<std::size_t>(cfg.num_chunks()));

  for (const char* sql : {
           "SELECT * FROM TitanData",
           "SELECT * FROM TitanData WHERE X <= 9999 AND Y <= 9999",
           "SELECT S1 FROM TitanData WHERE Z >= 600",
       }) {
    expect_same_plans(model, sql, &idx);
    expect_same_plans(model, sql, nullptr);
  }
}

}  // namespace
}  // namespace adv::afc
