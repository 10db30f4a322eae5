// Ablation: the indexing service's data structure.
//
// The same spatial query runs with (a) no chunk index, (b) the zone map
// over the DATAINDEX attributes (per-chunk bounds lookup), and (c) the
// packed R-tree filter over the same zone map (one tree walk per query).  As chunk count grows the R-tree's advantage
// in filter time shows while admitted bytes stay identical to (b).
#include <memory>

#include "advirt.h"
#include "bench_util.h"
#include "common/tempdir.h"
#include "dataset/titan.h"

using namespace adv;

int main() {
  std::printf("=== Ablation: chunk index — none vs zone map vs R-tree "
              "===\n\n");
  bench::ResultTable table({"chunks", "variant", "plan+filter (ms)",
                            "AFCs admitted", "bytes admitted",
                            "rtree nodes visited"});
  for (int cells : {8, 16, 32}) {
    dataset::TitanConfig cfg;
    cfg.nodes = 1;
    cfg.cells_x = cells;
    cfg.cells_y = cells;
    cfg.cells_z = 4;
    cfg.points_per_chunk = 16;
    TempDir tmp("abidx");
    auto gen = dataset::generate_titan(cfg, tmp.str());
    auto plan = std::make_shared<codegen::DataServicePlan>(
        meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
        gen.root);
    zonemap::ZoneMap zm = zonemap::ZoneMap::build(
        *plan, nullptr, {.attrs = zonemap::ZoneMap::dataindex_attrs(*plan)});
    index::RTreeFilter rt(zm);

    expr::BoundQuery q = plan->bind(
        "SELECT * FROM TitanData WHERE X <= 2500 AND Y <= 2500 AND Z <= "
        "250");

    struct Variant {
      const char* name;
      const afc::ChunkFilter* filter;
    };
    for (const Variant& v : {Variant{"no index", nullptr},
                             Variant{"zone map", &zm},
                             Variant{"R-tree", &rt}}) {
      afc::PlannerOptions opts;
      opts.filter = v.filter;
      afc::PlanResult pr;
      double t = bench::time_best([&] { pr = plan->index_fn(q, opts); });
      table.add_row(
          {std::to_string(cfg.num_chunks()), v.name, bench::ms(t),
           std::to_string(pr.afcs.size()), human_bytes(pr.bytes_to_read()),
           v.filter == &rt ? std::to_string(rt.rtree().last_nodes_visited())
                           : "-"});
    }
  }
  table.print();
  return 0;
}
