// Figure 11: "Execution Time With Varying Query Sizes": (a) IPARS and
// (b) Titan, compiler-generated vs hand-written, four query sizes each.
//
// Expected shape (paper): processing time proportional to the amount of
// data the query retrieves; generated code within ~17% of hand-written for
// IPARS and within ~4% for Titan.
#include <cmath>
#include <memory>

#include "advirt.h"
#include "bench_util.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "dataset/titan.h"
#include "genlib.h"
#include "handwritten/ipars_hand.h"
#include "handwritten/titan_hand.h"

using namespace adv;

namespace {

struct SinkCtx {
  expr::Table* out;
};

extern "C" void fig11_sink(void* p, const double* row) {
  static_cast<SinkCtx*>(p)->out->append_row(row);
}

std::vector<expr::Table::Column> schema_cols(const meta::Schema& s) {
  std::vector<expr::Table::Column> cols;
  for (const auto& a : s.attrs) cols.push_back({a.name, a.type});
  return cols;
}

}  // namespace

static void ipars_part() {
  int s = bench::scale();
  dataset::IparsConfig cfg;
  cfg.nodes = 4;  // paper used 16; scale with ADV_NODES if desired
  cfg.nodes = static_cast<int>(env_int("ADV_NODES", 4));
  cfg.rels = 2;
  cfg.timesteps = 80 * s;
  cfg.grid_per_node = 120;
  cfg.pad_vars = 12;
  TempDir tmp("fig11a");
  auto gen = dataset::generate_ipars(cfg, dataset::IparsLayout::kL0,
                                     tmp.str());
  codegen::DataServicePlan plan = codegen::DataServicePlan::from_text(
      gen.descriptor_text, gen.dataset_name, gen.root);
  bench::GenLib lib =
      bench::compile_generated(plan.model(), tmp.str(), "ipars");
  if (!lib.ok()) {
    std::printf("!! could not compile generated IPARS source\n");
    return;
  }
  auto cols = schema_cols(plan.schema());

  std::printf("--- Figure 11(a): IPARS, %d nodes, %s ---\n", cfg.nodes,
              human_bytes(gen.bytes_written).c_str());
  bench::ResultTable table({"query size", "rows", "hand (ms)",
                            "generated (ms)", "gen/hand"});
  for (int pct : {10, 25, 50, 100}) {
    int t_hi = cfg.timesteps * pct / 100;
    hand::IparsQuery hq;
    hq.time_lo = 1;
    hq.time_hi = t_hi;
    std::vector<double> lo(static_cast<std::size_t>(cfg.num_attrs()),
                           -HUGE_VAL);
    std::vector<double> hi(static_cast<std::size_t>(cfg.num_attrs()),
                           HUGE_VAL);
    lo[1] = 1;
    hi[1] = t_hi;

    uint64_t rows = 0;
    double t_gen = bench::time_best([&] {
      expr::Table out(cols);
      SinkCtx ctx{&out};
      lib.scan(gen.root.c_str(), lo.data(), hi.data(), fig11_sink, &ctx);
      rows = out.num_rows();
    });
    uint64_t hrows = 0;
    double t_hand = bench::time_best(
        [&] { hrows = hand::run_ipars_l0(cfg, gen.root, hq).num_rows(); });
    if (rows != hrows) std::printf("!! row mismatch at %d%%\n", pct);
    table.add_row({format("%d%% of TIME", pct), std::to_string(rows),
                   bench::ms(t_hand), bench::ms(t_gen),
                   format("%.2f", t_gen / t_hand)});
  }
  table.print();
}

static void titan_part() {
  int s = bench::scale();
  dataset::TitanConfig cfg;
  cfg.nodes = 1;  // the paper stored Titan on a single node
  cfg.cells_x = 16;
  cfg.cells_y = 16;
  cfg.cells_z = 4;
  cfg.points_per_chunk = 512 * s;
  TempDir tmp("fig11b");
  auto gen = dataset::generate_titan(cfg, tmp.str());
  auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);
  // The generated code embeds the spatial chunk index (the hand-written
  // baseline hard-codes the equivalent chunk skip).
  zonemap::ZoneMap idx = zonemap::ZoneMap::build(
      *plan, nullptr, {.attrs = zonemap::ZoneMap::dataindex_attrs(*plan)});
  bench::GenLib lib =
      bench::compile_generated(plan->model(), tmp.str(), "titan", &idx);
  if (!lib.ok()) {
    std::printf("!! could not compile generated Titan source\n");
    return;
  }
  auto cols = schema_cols(plan->schema());

  std::printf("\n--- Figure 11(b): Titan, single node, %s ---\n",
              human_bytes(gen.bytes_written).c_str());
  bench::ResultTable table({"query size", "rows", "hand (ms)",
                            "generated (ms)", "gen/hand"});
  for (int pct : {10, 25, 50, 100}) {
    double xmax = cfg.extent_x * pct / 100.0;
    double ymax = cfg.extent_y * pct / 100.0;
    hand::TitanQuery hq;
    hq.x_lo = 0;
    hq.x_hi = xmax;
    hq.y_lo = 0;
    hq.y_hi = ymax;
    std::vector<double> lo(8, -HUGE_VAL), hi(8, HUGE_VAL);
    lo[0] = 0;
    hi[0] = xmax;
    lo[1] = 0;
    hi[1] = ymax;

    uint64_t rows = 0, hrows = 0;
    double t_gen = bench::time_best([&] {
      expr::Table out(cols);
      SinkCtx ctx{&out};
      lib.scan(gen.root.c_str(), lo.data(), hi.data(), fig11_sink, &ctx);
      rows = out.num_rows();
    });
    double t_hand = bench::time_best(
        [&] { hrows = hand::run_titan(cfg, gen.root, hq).num_rows(); });
    if (rows != hrows) std::printf("!! row mismatch at %d%%\n", pct);
    table.add_row({format("%d%% x %d%% box", pct, pct),
                   std::to_string(rows), bench::ms(t_hand),
                   bench::ms(t_gen), format("%.2f", t_gen / t_hand)});
  }
  table.print();
}

int main() {
  std::printf("=== Figure 11: execution time vs query size ===\n");
  ipars_part();
  titan_part();
  std::printf("\n(paper: time proportional to data retrieved; generated "
              "within ~17%% of hand-written for IPARS, ~4%% for Titan)\n");
  return 0;
}
