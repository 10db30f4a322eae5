// Satellite data processing (paper §2.2): answer a space/time range query
// over the Titan dataset and build a composite image — "each pixel in the
// composite image is computed by selecting the 'best' sensor value that
// maps to the associated grid point".
//
// Demonstrates the spatial indexing service: the same query runs with and
// without the zone-map chunk index, and the run with the index reads only
// the chunks intersecting the query box.  The composite is written as a
// PGM image.
#include <cstdio>
#include <optional>
#include <vector>

#include "advirt.h"
#include "common/stopwatch.h"
#include "common/tempdir.h"
#include "dataset/titan.h"

int main() {
  adv::dataset::TitanConfig cfg;
  cfg.nodes = 2;
  cfg.cells_x = 16;
  cfg.cells_y = 16;
  cfg.cells_z = 4;
  cfg.points_per_chunk = 512;
  adv::TempDir tmp("titan");
  auto gen = adv::dataset::generate_titan(cfg, tmp.str());
  std::printf("Generated %.1f MB of satellite data (%d chunks)\n",
              static_cast<double>(gen.bytes_written) / (1 << 20),
              cfg.num_chunks());

  auto plan = std::make_shared<adv::codegen::DataServicePlan>(
      adv::meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);

  // Build and persist the spatial chunk index (a one-time administrative
  // step), then reload it the way a long-running service would.
  adv::zonemap::ZoneMap::build(
      *plan, nullptr,
      {.attrs = adv::zonemap::ZoneMap::dataindex_attrs(*plan)})
      .save(tmp.str(), *plan);
  std::optional<adv::zonemap::ZoneMap> idx =
      adv::zonemap::ZoneMap::load(tmp.str(), *plan);
  if (!idx) return 1;
  std::printf("Spatial chunk index: %zu chunks indexed on X,Y,Z\n",
              idx->num_chunks());

  // Query: a quarter of the surface, early time window.
  const char* sql =
      "SELECT X, Y, S1 FROM TitanData "
      "WHERE X >= 0 AND X <= 20000 AND Y >= 0 AND Y <= 20000 "
      "AND Z >= 0 AND Z <= 500";

  adv::storm::StormCluster cluster(plan);
  adv::Stopwatch sw;
  adv::storm::QueryResult without = cluster.execute(sql);
  double t_scan = sw.elapsed_seconds();
  sw.reset();
  adv::storm::QueryResult with = cluster.execute(sql, {}, &*idx);
  double t_idx = sw.elapsed_seconds();

  std::printf("\nwithout index: %8.2f ms, %9llu bytes read\n", t_scan * 1e3,
              static_cast<unsigned long long>(without.total_bytes_read()));
  std::printf("with index:    %8.2f ms, %9llu bytes read\n", t_idx * 1e3,
              static_cast<unsigned long long>(with.total_bytes_read()));
  std::printf("rows: %llu (identical either way: %s)\n",
              static_cast<unsigned long long>(with.total_rows()),
              with.merged().same_rows(without.merged()) ? "yes" : "NO");

  // Composite: 128x128 image over the query box, pixel = max S1.
  const int W = 128, H = 128;
  std::vector<double> best(static_cast<std::size_t>(W) * H, 0.0);
  adv::expr::Table t = std::move(with).merged();
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    int px = static_cast<int>(t.at(i, 0) / 20000.0 * (W - 1));
    int py = static_cast<int>(t.at(i, 1) / 20000.0 * (H - 1));
    std::size_t p = static_cast<std::size_t>(py) * W + px;
    best[p] = std::max(best[p], t.at(i, 2));
  }
  std::string pgm_path = tmp.file("composite.pgm");
  {
    FILE* f = std::fopen(pgm_path.c_str(), "w");
    std::fprintf(f, "P2\n%d %d\n255\n", W, H);
    for (int y = 0; y < H; ++y) {
      for (int x = 0; x < W; ++x)
        std::fprintf(f, "%d ",
                     static_cast<int>(best[static_cast<std::size_t>(y) * W +
                                           x] * 255));
      std::fprintf(f, "\n");
    }
    std::fclose(f);
  }
  std::printf("\nComposite image written to %s\n", pgm_path.c_str());
  return 0;
}
