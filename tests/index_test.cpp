// Tests for the packed R-tree and RTreeFilter's equivalence with filtering
// by the zone map directly.  The zone map itself is covered by
// zonemap_test.cpp.
#include <gtest/gtest.h>

#include "codegen/plan.h"
#include "common/rng.h"
#include "common/tempdir.h"
#include "dataset/titan.h"
#include "index/rtree.h"
#include "index/spatial_filter.h"
#include "zonemap/zonemap.h"

namespace adv::index {
namespace {

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
  TempDir tmp{"idx"};
  dataset::GeneratedTitan gen;
  codegen::DataServicePlan plan;

  TitanFixture()
      : gen(dataset::generate_titan(titan_cfg(), tmp.str())),
        plan(codegen::DataServicePlan::from_text(gen.descriptor_text,
                                                 gen.dataset_name,
                                                 gen.root)) {}
};

// ---------------------------------------------------------------------------
// R-tree

TEST(RTreeTest, EmptyTree) {
  RTree t = RTree::build({}, 2);
  std::vector<uint64_t> out;
  t.query(Box({0, 0}, {1, 1}), out);
  EXPECT_TRUE(out.empty());
}

TEST(RTreeTest, QueryMatchesBruteForce) {
  SplitMix64 rng(99);
  std::vector<RTree::Entry> entries;
  for (uint64_t i = 0; i < 500; ++i) {
    double x = rng.next_unit() * 100, y = rng.next_unit() * 100;
    double w = rng.next_unit() * 5, h = rng.next_unit() * 5;
    entries.push_back({Box({x, y}, {x + w, y + h}), i});
  }
  RTree t = RTree::build(entries, 2);
  EXPECT_EQ(t.size(), 500u);
  EXPECT_GE(t.height(), 2);

  for (int trial = 0; trial < 20; ++trial) {
    double qx = rng.next_unit() * 100, qy = rng.next_unit() * 100;
    Box q({qx, qy}, {qx + 10, qy + 10});
    std::vector<uint64_t> got;
    t.query(q, got);
    std::vector<uint64_t> want;
    for (const auto& e : entries)
      if (e.box.intersects(q)) want.push_back(e.payload);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(RTreeTest, SelectiveQueryVisitsFewNodes) {
  std::vector<RTree::Entry> entries;
  // 1024 unit boxes on a 32x32 grid.
  for (uint64_t i = 0; i < 1024; ++i) {
    double x = static_cast<double>(i % 32) * 10;
    double y = static_cast<double>(i / 32) * 10;
    entries.push_back({Box({x, y}, {x + 1, y + 1}), i});
  }
  RTree t = RTree::build(entries, 2);
  std::vector<uint64_t> out;
  t.query(Box({0, 0}, {5, 5}), out);
  EXPECT_EQ(out.size(), 1u);
  // A point-ish query should visit far fewer nodes than the tree holds.
  EXPECT_LT(t.last_nodes_visited(), 30u);
}

TEST(RTreeFilterTest, EquivalentToMinMaxFilter) {
  TitanFixture f;
  zonemap::ZoneMap idx = zonemap::ZoneMap::build(
      f.plan, nullptr, {.attrs = zonemap::ZoneMap::dataindex_attrs(f.plan)});
  RTreeFilter rtf(idx);
  expr::BoundQuery q = f.plan.bind(
      "SELECT * FROM TitanData WHERE X <= 15000 AND Y >= 20000 AND Z < 400");

  afc::PlannerOptions mm_opts, rt_opts;
  mm_opts.filter = &idx;
  rt_opts.filter = &rtf;
  afc::PlanResult mm = f.plan.index_fn(q, mm_opts);
  afc::PlanResult rt = f.plan.index_fn(q, rt_opts);
  EXPECT_GT(mm.stats.afcs_filtered_by_index, 0u);
  EXPECT_EQ(mm, rt);  // same AFCs and the same counters

  expr::Table a = f.plan.execute(q, mm_opts);
  expr::Table b = f.plan.execute(q, rt_opts);
  EXPECT_TRUE(a.same_rows(b));
}

}  // namespace
}  // namespace adv::index
