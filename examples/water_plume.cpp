// Water-contamination study (one of the paper's motivating applications,
// §2.2): track a contaminant plume across a simulated aquifer.
//
// Unlike the other examples this one defines its dataset entirely from the
// public API: the descriptor is written inline, the binary files are
// produced by the layout-driven writer from that same descriptor, and the
// analysis runs SQL against the result — the full workflow of a scientist
// adopting advirt for their own simulation output.
//
// Physical layout (2 nodes, domain split in X):
//   COORDS           — X, Y of every cell in the node's slab (once)
//   HEAD             — hydraulic head per (hour, cell)
//   TCE / NO3        — one file per contaminant species per (hour, cell)
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "advirt.h"
#include "common/string_util.h"
#include "common/tempdir.h"
#include "dataset/layout_writer.h"

namespace {

constexpr int kNodes = 2;
constexpr int kCellsPerNode = 400;  // 20 x 20 slab per node
constexpr int kHours = 48;

// Simple advecting Gaussian plume: released at (5, 10), drifting +x.
double tce_at(double x, double y, int hour) {
  double cx = 5.0 + 0.5 * hour;  // plume centre drifts east
  double cy = 10.0;
  double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
  return 80.0 * std::exp(-d2 / 18.0);  // ug/L
}

double cell_x(int cell) { return static_cast<double>((cell - 1) % 40); }
double cell_y(int cell) { return static_cast<double>((cell - 1) / 40); }

}  // namespace

int main() {
  adv::TempDir tmp("plume");

  const std::string descriptor = R"(
[AQUIFER]
HOUR = int
X = float
Y = float
HEAD = float
TCE = float
NO3 = float

[PlumeData]
DatasetDescription = AQUIFER
DIR[0] = node0/aquifer
DIR[1] = node1/aquifer

DATASET "PlumeData" {
  DATATYPE { AQUIFER }
  DATAINDEX { HOUR }
  DATASET "coords" {
    DATASPACE { LOOP CELL ($DIRID*400+1):(($DIRID+1)*400):1 { X Y } }
    DATA { "DIR[$DIRID]/COORDS" DIRID = 0:1:1 }
  }
  DATASET "head" {
    DATASPACE {
      LOOP HOUR 1:48:1 { LOOP CELL ($DIRID*400+1):(($DIRID+1)*400):1 { HEAD } }
    }
    DATA { "DIR[$DIRID]/HEAD" DIRID = 0:1:1 }
  }
  DATASET "tce" {
    DATASPACE {
      LOOP HOUR 1:48:1 { LOOP CELL ($DIRID*400+1):(($DIRID+1)*400):1 { TCE } }
    }
    DATA { "DIR[$DIRID]/TCE" DIRID = 0:1:1 }
  }
  DATASET "no3" {
    DATASPACE {
      LOOP HOUR 1:48:1 { LOOP CELL ($DIRID*400+1):(($DIRID+1)*400):1 { NO3 } }
    }
    DATA { "DIR[$DIRID]/NO3" DIRID = 0:1:1 }
  }
}
)";

  // Write the simulation output exactly as the descriptor declares it.
  adv::meta::Descriptor desc = adv::meta::parse_descriptor(descriptor);
  adv::afc::DatasetModel model(desc, "PlumeData", tmp.str());
  adv::dataset::ValueFn physics = [](const std::string& attr,
                                     const adv::meta::VarEnv& vars) {
    int cell = static_cast<int>(vars.get("CELL"));
    int hour = vars.has("HOUR") ? static_cast<int>(vars.get("HOUR")) : 0;
    double x = cell_x(cell), y = cell_y(cell);
    if (attr == "X") return x;
    if (attr == "Y") return y;
    if (attr == "HEAD") return 50.0 - 0.1 * x;  // gentle gradient
    if (attr == "TCE") return tce_at(x, y, hour);
    return 2.0 + 0.05 * y;  // NO3 background
  };
  uint64_t bytes = 0;
  for (const auto& cf : model.files()) {
    std::filesystem::create_directories(
        std::filesystem::path(cf.full_path).parent_path());
    const auto& leaf = model.leaves()[cf.leaf];
    bytes += adv::dataset::write_file_from_layout(*leaf.decl, model.schema(),
                                                  cf.env, cf.full_path,
                                                  physics);
  }
  std::printf("wrote %.1f KB of aquifer simulation output in %zu files\n\n",
              bytes / 1024.0, model.files().size());

  // The analysis: where does the TCE plume exceed the 5 ug/L action level,
  // and how does it drift?  One SQL query per report hour.
  auto plan = std::make_shared<adv::codegen::DataServicePlan>(desc,
                                                              "PlumeData",
                                                              tmp.str());
  adv::storm::StormCluster cluster(plan);
  std::printf("%-6s %-10s %-12s %-10s\n", "hour", "cells>5", "centroid x",
              "max TCE");
  for (int hour : {1, 12, 24, 36, 48}) {
    auto r = cluster.execute(adv::format(
        "SELECT X, Y, TCE FROM PlumeData WHERE HOUR = %d AND TCE > 5.0",
        hour));
    adv::expr::Table t = std::move(r).merged();
    double cx = 0, peak = 0;
    for (std::size_t i = 0; i < t.num_rows(); ++i) {
      cx += t.at(i, 0);
      peak = std::max(peak, t.at(i, 2));
    }
    if (t.num_rows()) cx /= static_cast<double>(t.num_rows());
    std::printf("%-6d %-10zu %-12.1f %-10.1f\n", hour, t.num_rows(), cx,
                peak);
  }
  std::printf("\nThe plume drifts east ~0.5 cells/hour, crossing the node-0/"
              "node-1 boundary mid-study;\nqueries were answered by both "
              "virtual nodes without the analysis knowing the split.\n");
  return 0;
}
