// Oil-reservoir analysis (paper §2.2): "Find the largest bypassed oil
// regions between time T1 and T2 in realization A."
//
// Bypassed oil = grid cells that still hold substantial oil (high SOIL)
// but move slowly (low SPEED), i.e. producing wells are not draining them.
// The pipeline:
//   1. a STORM query subsets the virtual table by realization, time window,
//      saturation and velocity (the paper's Figure 1 example query shape);
//   2. the client clusters the returned cells into connected regions on the
//      grid lattice and reports the largest per time step.
#include <cstdio>
#include <map>
#include <set>

#include "advirt.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"

namespace {

// Union-find over cell ids.
struct DisjointSet {
  std::map<long, long> parent;
  long find(long x) {
    auto it = parent.find(x);
    if (it == parent.end()) {
      parent[x] = x;
      return x;
    }
    long root = x;
    while (parent[root] != root) root = parent[root];
    while (parent[x] != root) {
      long next = parent[x];
      parent[x] = root;
      x = next;
    }
    return root;
  }
  void unite(long a, long b) { parent[find(a)] = find(b); }
};

long cell_id(double x, double y, double z) {
  return static_cast<long>(z) * 10000 + static_cast<long>(y) * 100 +
         static_cast<long>(x);
}

}  // namespace

int main() {
  // Generate a reservoir study: 2 realizations x 60 time steps on a
  // 4-node cluster (the original L0 layout with per-variable files).
  adv::dataset::IparsConfig cfg;
  cfg.nodes = 4;
  cfg.rels = 2;
  cfg.timesteps = 60;
  cfg.grid_per_node = 128;
  cfg.pad_vars = 0;
  adv::TempDir tmp("bypassed");
  auto gen = adv::dataset::generate_ipars(cfg, adv::dataset::IparsLayout::kL0,
                                          tmp.str());
  std::printf("Generated %llu bytes of reservoir data in %llu files\n",
              static_cast<unsigned long long>(gen.bytes_written),
              static_cast<unsigned long long>(gen.files_written));

  auto plan = std::make_shared<adv::codegen::DataServicePlan>(
      adv::meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);
  adv::storm::StormCluster cluster(plan);

  // The example query of the paper's Figure 1, adapted to this schema.
  const char* sql =
      "SELECT TIME, X, Y, Z, SOIL FROM IparsData "
      "WHERE REL = 1 AND TIME >= 20 AND TIME <= 40 AND SOIL >= 0.8 "
      "AND SPEED(OILVX, OILVY, OILVZ) <= 18.0";
  adv::storm::QueryResult r = cluster.execute(sql);
  std::printf("\n%s\n-> %llu candidate cells from %d nodes "
              "(makespan %.1f ms)\n",
              sql, static_cast<unsigned long long>(r.total_rows()),
              cluster.num_nodes(), r.makespan_seconds * 1e3);

  // Cluster cells into connected regions per time step (6-neighborhood on
  // the integer lattice the coordinates live on).
  adv::expr::Table t = std::move(r).merged();
  std::map<long, DisjointSet> per_time;
  std::map<long, std::set<long>> cells_per_time;
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    long time = static_cast<long>(t.at(i, 0));
    cells_per_time[time].insert(cell_id(t.at(i, 1), t.at(i, 2), t.at(i, 3)));
  }
  std::printf("\n%-6s %-10s %-14s\n", "TIME", "cells", "largest region");
  for (const auto& [time, cells] : cells_per_time) {
    DisjointSet ds;
    for (long c : cells) {
      ds.find(c);
      for (long d : {1L, 100L, 10000L}) {  // +x, +y, +z neighbours
        if (cells.count(c + d)) ds.unite(c, c + d);
        if (cells.count(c - d)) ds.unite(c, c - d);
      }
    }
    std::map<long, int> sizes;
    for (long c : cells) sizes[ds.find(c)]++;
    int largest = 0;
    for (const auto& [root, n] : sizes) largest = std::max(largest, n);
    std::printf("%-6ld %-10zu %-14d\n", time, cells.size(), largest);
  }
  return 0;
}
