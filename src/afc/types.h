// Aligned-file-chunk data structures (paper §4).
//
// An AFC set is {num_rows, {File_1, Offset_1, Num_Bytes_1}, ...}: reading
// num_rows * Num_Bytes_i bytes from each File_i starting at Offset_i and
// zipping the streams row by row reconstructs rows of the virtual table.
// Chunks of one AFC may name the same file at different offsets (layouts
// that store per-variable arrays inside one file).
//
// To keep per-AFC instances small, the static structure (files, strides,
// field maps, implicit attributes) lives in a GroupPlan shared by all AFCs
// of one file group; each AFC carries only its chunk offsets and the values
// of the enumerated loops.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/interval.h"
#include "layout/region.h"

namespace adv::afc {

// Index-service hook used by the planner's "check against index" step.
// Implementations look up per-chunk metadata (e.g. min/max of stored
// attributes) keyed by (data file, chunk byte offset).  Planners consult it
// in three steps so the per-chunk work is one lookup: constrains() once per
// query, resolve() once per file of a group, may_match() per chunk.
class ChunkFilter {
 public:
  // resolve() result for a file the filter holds nothing for: every chunk
  // of that file passes.
  static constexpr uint32_t kNoFile = 0xffffffffu;

  virtual ~ChunkFilter() = default;

  // False when `qi` bounds none of the attributes the filter covers, so no
  // chunk can be pruned and planners skip the filter for the query.
  virtual bool constrains(const expr::QueryIntervals& qi) const = 0;

  // The filter's handle for `file_path`, or kNoFile.
  virtual uint32_t resolve(const std::string& file_path) const = 0;

  // False when the chunk starting at `offset` in the resolved `file`
  // provably contains no rows matching `qi`.  Must be conservative: when in
  // doubt (e.g. the chunk is not indexed), return true.
  virtual bool may_match(uint32_t file, uint64_t offset,
                         const expr::QueryIntervals& qi) const = 0;
};

// Source of per-chunk attribute bounds, keyed like ChunkFilter by
// (file path, byte offset).  The code emitter embeds these bounds into
// generated scan functions so compiled code prunes chunks the same way the
// interpreted index function does.  zonemap::ZoneMap implements this.
class ChunkBoundsSource {
 public:
  virtual ~ChunkBoundsSource() = default;

  // Schema attribute indices the bounds cover, in bounds order.
  virtual const std::vector<int>& bounds_attrs() const = 0;

  // Fills `out` with [min, max] per indexed attribute; false when the
  // chunk is not indexed.
  virtual bool chunk_bounds(const std::string& file_path, uint64_t offset,
                            std::vector<std::pair<double, double>>& out)
      const = 0;
};

// One chunk-producing region of one file within a group.
struct ChunkPlan {
  int file = 0;                 // index into GroupPlan::files
  uint64_t base_offset = 0;     // offset at all-enumerated-loops-at-lo
  uint32_t bytes_per_row = 0;
  // Stride per enumerated loop (parallel to GroupPlan::loops; 0 when the
  // loop does not enclose this region).
  std::vector<uint64_t> loop_strides;
  // Stored fields this chunk contributes (attribute index resolved against
  // the schema; -1 for local non-schema attributes, which are skipped).
  struct StoredField {
    int attr = -1;
    DataType type = DataType::kFloat32;
    uint32_t intra_offset = 0;
    bool operator==(const StoredField&) const = default;
  };
  std::vector<StoredField> fields;

  bool operator==(const ChunkPlan&) const = default;
};

// One enumerated (non-record) loop of a group.
struct EnumLoop {
  std::string ident;
  int attr = -1;  // schema attribute index when the ident names one
  layout::EvalRange range;

  bool operator==(const EnumLoop&) const = default;
};

// Static structure shared by all AFCs of one file group.
struct GroupPlan {
  int node_id = 0;
  std::vector<std::string> files;   // distinct file paths
  std::vector<ChunkPlan> chunks;
  std::vector<EnumLoop> loops;

  // Implicit attributes constant over the whole group (file-name bindings).
  std::vector<std::pair<int, double>> const_implicits;  // (attr, value)

  // Row space: the shared record loop.
  std::string row_ident;
  layout::EvalRange row_range;
  int row_attr = -1;  // schema attribute index when row ident names one

  uint64_t bytes_per_full_row() const {
    uint64_t n = 0;
    for (const auto& c : chunks) n += c.bytes_per_row;
    return n;
  }

  bool operator==(const GroupPlan&) const = default;
};

// One aligned file chunk set.
struct Afc {
  int group = 0;                   // index into PlanResult::groups
  uint64_t num_rows = 0;
  std::vector<uint64_t> offsets;   // per chunk, parallel to GroupPlan::chunks
  std::vector<int64_t> loop_values;  // per enumerated loop
  int64_t row_first = 0;           // record-loop value of the first row

  bool operator==(const Afc&) const = default;
};

// Counters exposed for tests and the ablation benchmarks.
struct PlanStats {
  uint64_t files_total = 0;
  uint64_t files_matched = 0;
  uint64_t groups_considered = 0;
  uint64_t groups_formed = 0;
  uint64_t afcs_considered = 0;
  uint64_t afcs_emitted = 0;
  uint64_t afcs_filtered_by_index = 0;
  // Rows and extraction bytes pruning saved: AFCs dropped by the chunk
  // index (zone-map sidecar) plus loop values the planner clipped via
  // implicit-dimension intervals (docs/LAYOUTS.md §2) — everything the
  // full enumeration of each formed group would have cost beyond what
  // was scheduled.  File groups rejected before enumeration (e.g. an
  // out-of-range file-name binding) are not charged here.
  uint64_t rows_pruned = 0;
  uint64_t bytes_skipped = 0;

  bool operator==(const PlanStats&) const = default;
};

struct PlanResult {
  std::vector<GroupPlan> groups;
  std::vector<Afc> afcs;
  PlanStats stats;

  // Total bytes the extractor will read for these AFCs.
  uint64_t bytes_to_read() const;
  // Total rows before residual filtering.
  uint64_t candidate_rows() const;

  // Structural equality (groups, AFCs, and counters) — lets tests assert a
  // plan-cache hit reproduces the cold plan exactly.
  bool operator==(const PlanResult&) const = default;
};

}  // namespace adv::afc
