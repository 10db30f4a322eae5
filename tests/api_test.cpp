// Tests for the VirtualTable facade and for descriptor corners not covered
// elsewhere: multiple file patterns per leaf, file-local DATATYPE
// attributes (skipped bytes), and open-time verification.
#include <gtest/gtest.h>

#include <filesystem>

#include "advirt.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "dataset/layout_writer.h"
#include "dataset/titan.h"

namespace adv {
namespace {

TEST(VirtualTableTest, OpenQueryRoundTrip) {
  dataset::IparsConfig cfg;
  cfg.nodes = 2;
  cfg.rels = 2;
  cfg.timesteps = 6;
  cfg.grid_per_node = 10;
  cfg.pad_vars = 0;
  TempDir tmp("vt");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kV, tmp.str());

  VirtualTable::Options opt;
  opt.verify = true;
  VirtualTable vt =
      VirtualTable::open(gen.descriptor_text, "IparsData", gen.root, opt);
  EXPECT_EQ(vt.num_nodes(), 2);
  EXPECT_EQ(vt.schema().size(), 10u);
  EXPECT_EQ(vt.total_candidate_rows(), cfg.total_rows());
  EXPECT_FALSE(vt.has_zonemap());

  const char* sql = "SELECT * FROM IparsData WHERE TIME <= 3 AND SOIL > 0.5";
  expr::Table got = vt.query(sql);
  expr::BoundQuery q = vt.plan().bind(sql);
  EXPECT_TRUE(got.same_rows(dataset::ipars_oracle(cfg, q)));

  // Detailed results carry node stats; a bad query throws.
  auto r = vt.query_detailed("SELECT REL FROM IparsData WHERE TIME = 1");
  EXPECT_EQ(r.node_stats.size(), 2u);
  EXPECT_THROW(vt.query("SELECT NOPE FROM IparsData"), QueryError);
}

TEST(VirtualTableTest, OpenWithIndexAndXml) {
  dataset::TitanConfig cfg;
  cfg.nodes = 1;
  cfg.cells_x = 4;
  cfg.cells_y = 4;
  cfg.cells_z = 2;
  cfg.points_per_chunk = 16;
  TempDir tmp("vtx");
  auto gen = dataset::generate_titan(cfg, tmp.str());

  // XML descriptor + zone map built at open and saved under zonemap_dir.
  std::string xml = meta::to_xml(meta::parse_descriptor(gen.descriptor_text));
  VirtualTable::Options opt;
  opt.build_zonemap = true;
  opt.zonemap_dir = tmp.str();
  VirtualTable vt = VirtualTable::open(xml, "TitanData", gen.root, opt);
  ASSERT_TRUE(vt.has_zonemap());
  EXPECT_EQ(vt.zone_map()->num_chunks(),
            static_cast<std::size_t>(cfg.num_chunks()));

  const char* sql =
      "SELECT * FROM TitanData WHERE X <= 9999 AND Y <= 9999";
  expr::Table got = vt.query(sql);
  expr::BoundQuery q = vt.plan().bind(sql);
  EXPECT_TRUE(got.same_rows(dataset::titan_oracle(cfg, q)));

  // The saved sidecar loads through the facade without a rebuild.
  VirtualTable::Options opt2;
  opt2.zonemap_dir = tmp.str();
  VirtualTable vt2 = VirtualTable::open(xml, "TitanData", gen.root, opt2);
  EXPECT_TRUE(vt2.has_zonemap());
  EXPECT_TRUE(vt2.query(sql).same_rows(got));
}

TEST(VirtualTableTest, VerifyFailsLoudly) {
  dataset::IparsConfig cfg;
  cfg.nodes = 1;
  cfg.rels = 1;
  cfg.timesteps = 2;
  cfg.grid_per_node = 4;
  cfg.pad_vars = 0;
  TempDir tmp("vtv");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kI, tmp.str());
  std::filesystem::remove(gen.root + "/node0/ipars/ALL");
  VirtualTable::Options opt;
  opt.verify = true;
  EXPECT_THROW(
      VirtualTable::open(gen.descriptor_text, "IparsData", gen.root, opt),
      IoError);
}

// ---------------------------------------------------------------------------
// Descriptor corners

TEST(DescriptorCorners, MultipleFilePatternsPerLeaf) {
  // A leaf whose files come from two patterns: old-style and new-style
  // names covering disjoint REL ranges.
  const char* desc = R"(
[S]
REL = short int
V = float
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATASPACE { LOOP G 1:4:1 { V } }
  DATA {
    "DIR[0]/old_$REL" REL = 0:1:1 DIRID = 0:0:1
    "DIR[0]/new_$REL" REL = 2:3:1 DIRID = 0:0:1
  }
}
)";
  TempDir tmp("multi");
  meta::Descriptor d = meta::parse_descriptor(desc);
  afc::DatasetModel model(d, "DS", tmp.str());
  EXPECT_EQ(model.files().size(), 4u);

  dataset::ValueFn fn = [](const std::string&, const meta::VarEnv& vars) {
    return static_cast<double>(vars.get("REL") * 10 + vars.get("G"));
  };
  for (const auto& cf : model.files()) {
    std::filesystem::create_directories(
        std::filesystem::path(cf.full_path).parent_path());
    dataset::write_file_from_layout(*model.leaves()[cf.leaf].decl,
                                    model.schema(), cf.env, cf.full_path, fn);
  }
  codegen::DataServicePlan plan(d, "DS", tmp.str());
  expr::Table all = plan.execute("SELECT REL, V FROM DS");
  EXPECT_EQ(all.num_rows(), 16u);  // 4 rels x 4 grid points
  expr::Table r3 = plan.execute("SELECT V FROM DS WHERE REL = 3");
  ASSERT_EQ(r3.num_rows(), 4u);
  expr::Table r3s = r3;
  r3s.sort_rows();
  EXPECT_DOUBLE_EQ(r3s.at(0, 0), 31.0);
  EXPECT_DOUBLE_EQ(r3s.at(3, 0), 34.0);
}

TEST(DescriptorCorners, LocalDatatypeAttributesAreSkipped) {
  // The file interleaves a non-schema CHECKSUM field with the payload; the
  // extractor must skip its bytes and still produce correct rows.
  const char* desc = R"(
[S]
T = int
V = float
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATATYPE { S CHECKSUM = long }
  DATASPACE { LOOP T 1:5:1 { LOOP G 1:3:1 { CHECKSUM V } } }
  DATA { "DIR[0]/f" DIRID = 0:0:1 }
}
)";
  TempDir tmp("local");
  meta::Descriptor d = meta::parse_descriptor(desc);
  afc::DatasetModel model(d, "DS", tmp.str());
  // Record = 8 (CHECKSUM) + 4 (V) bytes.
  EXPECT_EQ(model.expected_file_bytes(model.files()[0]), 5u * 3u * 12u);

  dataset::ValueFn fn = [](const std::string& attr, const meta::VarEnv& v) {
    if (attr == "CHECKSUM") return 9.9e9;  // garbage the query never sees
    return static_cast<double>(v.get("T") * 100 + v.get("G"));
  };
  std::filesystem::create_directories(tmp.str() + "/n0/d");
  dataset::write_file_from_layout(*model.leaves()[0].decl, model.schema(),
                                  model.files()[0].env,
                                  model.files()[0].full_path, fn);
  codegen::DataServicePlan plan(d, "DS", tmp.str());
  expr::Table t = plan.execute("SELECT T, V FROM DS WHERE T = 4");
  ASSERT_EQ(t.num_rows(), 3u);
  expr::Table ts = t;
  ts.sort_rows();
  EXPECT_DOUBLE_EQ(ts.at(0, 1), 401.0);
  EXPECT_DOUBLE_EQ(ts.at(2, 1), 403.0);
}

TEST(DescriptorCorners, ChunkAndFileHeadersAreSkipped) {
  // Realistic instrument format: an 8-byte file header, then per-time-step
  // chunks that each start with a 4-byte marker before the record array.
  const char* desc = R"(
[S]
T = int
V = float
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATATYPE { S FILEMAGIC = long MARKER = int }
  DATASPACE {
    FILEMAGIC
    LOOP T 1:4:1 {
      MARKER
      LOOP G 1:3:1 { V }
    }
  }
  DATA { "DIR[0]/f" DIRID = 0:0:1 }
}
)";
  TempDir tmp("hdr");
  meta::Descriptor d = meta::parse_descriptor(desc);
  afc::DatasetModel model(d, "DS", tmp.str());
  // 8 (file header) + 4 * (4 marker + 3*4 payload).
  EXPECT_EQ(model.expected_file_bytes(model.files()[0]), 8u + 4u * 16u);
  // The region's base skips the file header; the TIME stride includes the
  // marker; the record starts 4 bytes into each chunk.
  const layout::Region& r = model.files()[0].regions[0];
  EXPECT_EQ(r.base_offset, 8u + 4u);
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_EQ(r.path[0].stride, 16u);

  dataset::ValueFn fn = [](const std::string& attr, const meta::VarEnv& v) {
    if (attr == "FILEMAGIC") return 1234.0;
    if (attr == "MARKER") return 42.0;
    return static_cast<double>(v.get("T") * 10 + v.get("G"));
  };
  std::filesystem::create_directories(tmp.str() + "/n0/d");
  dataset::write_file_from_layout(*model.leaves()[0].decl, model.schema(),
                                  model.files()[0].env,
                                  model.files()[0].full_path, fn);
  codegen::DataServicePlan plan(d, "DS", tmp.str());
  EXPECT_TRUE(plan.verify_files().empty());
  expr::Table t = plan.execute("SELECT T, V FROM DS WHERE T >= 2");
  ASSERT_EQ(t.num_rows(), 9u);  // T in {2,3,4} x 3 grid points
  expr::Table ts = t;
  ts.sort_rows();
  EXPECT_DOUBLE_EQ(ts.at(0, 1), 21.0);
  EXPECT_DOUBLE_EQ(ts.at(8, 1), 43.0);
}

TEST(DescriptorCorners, SchemaAttrHeadersStillRejected) {
  const char* mixed = R"(
[S]
T = int
V = float
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATASPACE { LOOP T 1:4:1 { V LOOP G 1:3:1 { V } } }
  DATA { "DIR[0]/f" DIRID = 0:0:1 }
}
)";
  EXPECT_THROW(meta::parse_descriptor(mixed), ValidationError);
  const char* toplevel = R"(
[S]
T = int
V = float
[DS]
DatasetDescription = S
DIR[0] = n0/d
DATASET "DS" {
  DATASPACE { V LOOP T 1:4:1 { LOOP G 1:3:1 { V } } }
  DATA { "DIR[0]/f" DIRID = 0:0:1 }
}
)";
  EXPECT_THROW(meta::parse_descriptor(toplevel), ValidationError);
}

}  // namespace
}  // namespace adv
