// Tests for extensions beyond the paper's minimum: the emitted code's
// embedded chunk index.
#include <dlfcn.h>
#include <gtest/gtest.h>

#include <cmath>

#include "codegen/emit.h"
#include "codegen/plan.h"
#include "common/string_util.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "dataset/titan.h"
#include "zonemap/zonemap.h"

namespace adv::codegen {
namespace {

// ---------------------------------------------------------------------------
// Emitted code with an embedded chunk index.

struct Collector {
  std::vector<std::vector<double>> rows;
  int ncols = 0;
  long long calls = 0;
};

extern "C" void ext_collect(void* ctx, const double* row) {
  auto* c = static_cast<Collector*>(ctx);
  c->rows.emplace_back(row, row + c->ncols);
}

using ScanFn = long long (*)(const char*, const double*, const double*,
                             void (*)(void*, const double*), void*);
using GroupScanFn = long long (*)(int, const char*, const double*,
                                  const double*,
                                  void (*)(void*, const double*), void*);

void* compile(const std::string& src, const TempDir& tmp,
              const std::string& tag) {
  std::string cpp = tmp.file(tag + ".cpp");
  std::string so = tmp.file("lib" + tag + ".so");
  write_text_file(cpp, src);
  std::string cmd =
      "g++ -std=c++17 -O1 -shared -fPIC -o " + so + " " + cpp + " 2>&1";
  int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0);
  void* h = ::dlopen(so.c_str(), RTLD_NOW);
  EXPECT_NE(h, nullptr) << ::dlerror();
  return h;
}

TEST(EmitBoundsTest, EmbeddedIndexPrunesAndStaysCorrect) {
  dataset::TitanConfig cfg;
  cfg.nodes = 2;
  cfg.cells_x = 4;
  cfg.cells_y = 4;
  cfg.cells_z = 2;
  cfg.points_per_chunk = 32;
  TempDir tmp("emitb");
  auto gen = dataset::generate_titan(cfg, tmp.str());
  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  zonemap::ZoneMap idx = zonemap::ZoneMap::build(
      plan, nullptr, {.attrs = zonemap::ZoneMap::dataindex_attrs(plan)});

  std::string with_idx = emit_cpp(plan.model(), &idx);
  std::string without_idx = emit_cpp(plan.model());
  EXPECT_NE(with_idx.find("kChunkBounds"), std::string::npos);
  EXPECT_EQ(without_idx.find("kChunkBounds"), std::string::npos);

  void* h1 = compile(with_idx, tmp, "withidx");
  void* h2 = compile(without_idx, tmp, "noidx");
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2, nullptr);
  auto scan1 = reinterpret_cast<ScanFn>(::dlsym(h1, "advgen_scan"));
  auto scan2 = reinterpret_cast<ScanFn>(::dlsym(h2, "advgen_scan"));
  ASSERT_NE(scan1, nullptr);
  ASSERT_NE(scan2, nullptr);

  // Selective box: only a corner of the extent.
  std::vector<double> lo(8, -HUGE_VAL), hi(8, HUGE_VAL);
  lo[0] = 0;
  hi[0] = cfg.extent_x / 4 - 1;
  lo[1] = 0;
  hi[1] = cfg.extent_y / 4 - 1;

  Collector c1, c2;
  c1.ncols = c2.ncols = 8;
  long long n1 = scan1(gen.root.c_str(), lo.data(), hi.data(), ext_collect,
                       &c1);
  long long n2 = scan2(gen.root.c_str(), lo.data(), hi.data(), ext_collect,
                       &c2);
  ASSERT_GE(n1, 0);
  ASSERT_GE(n2, 0);
  EXPECT_EQ(n1, n2);  // identical rows with and without the index
  EXPECT_GT(n1, 0);
  // And both match the interpreted engine.
  expr::Table want = plan.execute(format(
      "SELECT * FROM TitanData WHERE X >= 0 AND X <= %f AND Y >= 0 AND Y "
      "<= %f",
      hi[0], hi[1]));
  EXPECT_EQ(static_cast<std::size_t>(n1), want.num_rows());

  // Per-group entry points expose node placement.
  auto num_groups =
      reinterpret_cast<int (*)()>(::dlsym(h1, "advgen_num_groups"));
  auto group_node =
      reinterpret_cast<int (*)(int)>(::dlsym(h1, "advgen_group_node"));
  auto scan_group =
      reinterpret_cast<GroupScanFn>(::dlsym(h1, "advgen_scan_group"));
  ASSERT_NE(num_groups, nullptr);
  ASSERT_NE(group_node, nullptr);
  ASSERT_NE(scan_group, nullptr);
  EXPECT_EQ(num_groups(), 2);  // one group per node file
  EXPECT_EQ(group_node(0), 0);
  EXPECT_EQ(group_node(1), 1);
  EXPECT_EQ(group_node(99), -1);
  // Scanning groups individually sums to the full scan.
  Collector cg;
  cg.ncols = 8;
  long long total = 0;
  for (int g = 0; g < num_groups(); ++g) {
    long long r = scan_group(g, gen.root.c_str(), lo.data(), hi.data(),
                             ext_collect, &cg);
    ASSERT_GE(r, 0);
    total += r;
  }
  EXPECT_EQ(total, n1);
  EXPECT_EQ(scan_group(99, gen.root.c_str(), lo.data(), hi.data(),
                       ext_collect, &cg),
            -1);

  ::dlclose(h1);
  ::dlclose(h2);
}

TEST(EmitBoundsTest, IparsEmbeddedTimeBounds) {
  // IPARS: DATAINDEX is REL/TIME (implicit attributes); the embedded table
  // should still be consistent — each chunk's TIME bound equals its step.
  dataset::IparsConfig cfg;
  cfg.nodes = 1;
  cfg.rels = 1;
  cfg.timesteps = 4;
  cfg.grid_per_node = 6;
  cfg.pad_vars = 0;
  TempDir tmp("emitb2");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kI, tmp.str());
  DataServicePlan plan = DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  zonemap::ZoneMap idx = zonemap::ZoneMap::build(
      plan, nullptr, {.attrs = zonemap::ZoneMap::dataindex_attrs(plan)});
  std::string src = emit_cpp(plan.model(), &idx);
  void* h = compile(src, tmp, "ipars_bounds");
  ASSERT_NE(h, nullptr);
  auto scan = reinterpret_cast<ScanFn>(::dlsym(h, "advgen_scan"));
  std::vector<double> lo(static_cast<std::size_t>(cfg.num_attrs()),
                         -HUGE_VAL);
  std::vector<double> hi(static_cast<std::size_t>(cfg.num_attrs()),
                         HUGE_VAL);
  lo[1] = 2;
  hi[1] = 3;  // TIME in [2,3]
  Collector c;
  c.ncols = cfg.num_attrs();
  long long n = scan(gen.root.c_str(), lo.data(), hi.data(), ext_collect, &c);
  EXPECT_EQ(n, 2 * 6);  // two time steps x six grid points
  ::dlclose(h);
}

}  // namespace
}  // namespace adv::codegen
