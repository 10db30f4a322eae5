// Figure 7: the table of Titan queries.
//
// Reproduces the query table with measured characteristics on the
// generated dataset: result cardinality, selectivity, bytes the index
// function admits, and AFC counts — the workload definition every other
// Titan experiment draws from.
#include <memory>

#include "advirt.h"
#include "bench_util.h"
#include "common/tempdir.h"
#include "dataset/titan.h"

using namespace adv;

int main() {
  dataset::TitanConfig cfg;
  cfg.nodes = 1;
  cfg.cells_x = 16;
  cfg.cells_y = 16;
  cfg.cells_z = 4;
  cfg.points_per_chunk = 256 * bench::scale();
  TempDir tmp("fig07");
  auto gen = dataset::generate_titan(cfg, tmp.str());
  auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);
  zonemap::ZoneMap idx = zonemap::ZoneMap::build(
      *plan, nullptr, {.attrs = zonemap::ZoneMap::dataindex_attrs(*plan)});

  std::printf("=== Figure 7: Titan query workload ===\n");
  std::printf("dataset: %llu rows, %s raw, %d spatial chunks\n\n",
              static_cast<unsigned long long>(cfg.total_rows()),
              human_bytes(gen.bytes_written).c_str(), cfg.num_chunks());

  const char* queries[] = {
      "SELECT * FROM TitanData",
      "SELECT * FROM TitanData WHERE X >= 0 AND X <= 10000 AND Y >= 0 AND "
      "Y <= 10000 AND Z >= 0 AND Z <= 100",
      "SELECT * FROM TitanData WHERE DISTANCE(X, Y, Z) < 12000",
      "SELECT * FROM TitanData WHERE S1 < 0.01",
      "SELECT * FROM TitanData WHERE S1 < 0.5",
  };

  bench::ResultTable table(
      {"no.", "rows", "selectivity", "AFCs admitted", "bytes admitted"});
  int i = 1;
  for (const char* sql : queries) {
    expr::BoundQuery q = plan->bind(sql);
    afc::PlannerOptions opts;
    opts.filter = &idx;
    afc::PlanResult pr = plan->index_fn(q, opts);
    expr::Table t = plan->execute(q, opts);
    table.add_row({std::to_string(i++),
                   std::to_string(t.num_rows()),
                   format("%.2f%%", 100.0 * t.num_rows() / cfg.total_rows()),
                   std::to_string(pr.afcs.size()),
                   human_bytes(pr.bytes_to_read())});
    std::printf("Q%d: %s\n", i - 1, sql);
  }
  std::printf("\n");
  table.print();
  return 0;
}
