// Titan satellite dataset generator (paper §2.2, §5).
//
// Models AVHRR-style satellite sensor data: each data element has spatial
// coordinates X, Y, a third coordinate Z (the time-like dimension the
// paper's queries range over), and five sensor values S1..S5.  Elements are
// bucketed into spatial chunks — each chunk covers one cell of a cx×cy×cz
// grid over the extent — and chunks are stored consecutively in one file
// per node.  A min/max chunk index over (X, Y, Z) is what the paper's
// spatial indexing service consumes; see zonemap/zonemap.h.
#pragma once

#include <cstdint>
#include <string>

#include "expr/predicate.h"
#include "expr/table.h"
#include "metadata/model.h"

namespace adv::dataset {

struct TitanConfig {
  int nodes = 1;
  // Chunk grid over the extent; chunks are distributed round-robin by x-slab
  // across nodes.  cells_x must be divisible by nodes.
  int cells_x = 8, cells_y = 8, cells_z = 4;
  int points_per_chunk = 512;
  double extent_x = 40000, extent_y = 40000, extent_z = 1000;
  uint64_t seed = 7;

  int num_chunks() const { return cells_x * cells_y * cells_z; }
  uint64_t total_rows() const {
    return static_cast<uint64_t>(num_chunks()) * points_per_chunk;
  }
  uint64_t table_bytes() const { return total_rows() * 8 * 4; }  // 8 float32
};

// Schema: X, Y, Z, S1..S5 — the paper's 8 attributes.
meta::Schema titan_schema();

// Deterministic value of attribute `attr` for element `elem` of `chunk`.
// Coordinates fall inside the chunk's cell; sensors are uniform in [0,1).
double titan_value(const TitanConfig& cfg, int attr, int chunk, int elem);

// Bounding box of one chunk's cell: [lo, hi] for attr in {0:X, 1:Y, 2:Z}.
void titan_chunk_bounds(const TitanConfig& cfg, int chunk, int attr,
                        double* lo, double* hi);

struct GeneratedTitan {
  TitanConfig cfg;
  std::string root;
  std::string dataset_name;     // "TitanData"
  std::string descriptor_text;
  uint64_t bytes_written = 0;
  uint64_t files_written = 0;
};

// Writes the chunked dataset under `root_dir` and returns the descriptor.
GeneratedTitan generate_titan(const TitanConfig& cfg,
                              const std::string& root_dir);

std::string titan_descriptor_text(const TitanConfig& cfg);

// Brute-force ground truth for a query bound against titan_schema().
expr::Table titan_oracle(const TitanConfig& cfg, const expr::BoundQuery& q);

}  // namespace adv::dataset
