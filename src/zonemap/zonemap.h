// Zone map — the chunk index of the paper's indexing service (§2.3: "A
// spatial index is built so that chunks that intersect the query are
// searched for quickly"), generalized from the declared DATAINDEX
// dimensions to every stored attribute.
//
// One build pass scans each aligned file chunk set exactly once and records
// the [min, max] of the covered attributes (all stored schema attributes by
// default, or BuildOptions::attrs), so any interval predicate can prune
// chunks before extraction.
//
// In memory the map is flat: files sorted by path (a file id is the rank),
// each file owning a sorted run of chunk offsets, each offset pointing at a
// row of one contiguous bounds array.  All chunks of one AFC share a row.
//
// It persists as one sidecar file, <dataset>.zm, written to a temporary
// name and renamed into place (the rename is the commit point); the layout
// is documented in docs/INDEXING.md §2.  Staleness is per data file: on
// load, a file whose size or nanosecond mtime no longer matches the sidecar
// has its entries dropped, so its chunks are full-scanned (conservative
// may_match = true) — stale metadata can cost I/O, never correctness.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "afc/types.h"

namespace adv {
class ThreadPool;
}
namespace adv::codegen {
class DataServicePlan;
}

namespace adv::zonemap {

class ZoneMap : public afc::ChunkFilter, public afc::ChunkBoundsSource {
 public:
  struct BuildOptions {
    // Schema attribute indices to cover; empty = every stored attribute.
    std::vector<int> attrs;
  };

  // row_of() result for a chunk the map holds no bounds for.
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  ZoneMap() = default;

  // Schema attribute indices that appear as stored fields in any region of
  // the dataset's layout (sorted, deduplicated).
  static std::vector<int> stored_attrs(const codegen::DataServicePlan& plan);
  // Schema attribute indices of the dataset's DATAINDEX declaration (the
  // paper's spatial index dimensions), in declaration order.
  static std::vector<int> dataindex_attrs(const codegen::DataServicePlan& plan);

  // Scans every chunk of `plan` once — one planner run per virtual node,
  // AFC scans fanned out across `pool` when given (each worker owns its
  // Extractor; file handles come from the shared FileCache/mmap path) —
  // and records per-chunk min/max of the covered attributes.
  static ZoneMap build(const codegen::DataServicePlan& plan,
                       ThreadPool* pool, const BuildOptions& opts);
  static ZoneMap build(const codegen::DataServicePlan& plan,
                       ThreadPool* pool = nullptr) {
    return build(plan, pool, BuildOptions());
  }

  // Writes the sidecar under `dir` (created if missing), fingerprinting
  // each indexed data file as it is now.
  void save(const std::string& dir,
            const codegen::DataServicePlan& plan) const;

  // Loads the sidecar for `plan`'s dataset.  Returns nullopt when the
  // sidecar is absent, fails its checksum or any structural check, or was
  // built for another dataset or schema.  Entries of data files whose
  // size/mtime changed since the save are dropped (num_stale_files()).
  static std::optional<ZoneMap> load(const std::string& dir,
                                     const codegen::DataServicePlan& plan);

  static std::string sidecar_path(const std::string& dir,
                                  const std::string& dataset);

  const std::vector<int>& attrs() const { return attrs_; }
  std::size_t num_chunks() const { return num_chunks_; }
  // Distinct bounds rows (at most one per AFC of the build).
  std::size_t num_rows() const {
    return attrs_.empty() ? 0 : bounds_.size() / (2 * attrs_.size());
  }
  uint64_t num_files() const { return files_total_; }
  uint64_t num_stale_files() const { return files_stale_; }
  double build_seconds() const { return build_seconds_; }

  // Bounds row of the chunk at `offset` in resolved `file`, or kNoRow.
  std::size_t row_of(uint32_t file, uint64_t offset) const;
  // Row `row` as attrs().size() interleaved (min, max) pairs.
  const double* row_bounds(std::size_t row) const {
    return bounds_.data() + row * 2 * attrs_.size();
  }
  // row_bounds() of the chunk at (file_path, offset), or nullptr.
  const double* find(const std::string& file_path, uint64_t offset) const;
  // Visits every live chunk in (path, offset) order.
  void for_each_chunk(
      const std::function<void(const std::string& file, uint64_t offset,
                               const double* bounds)>& fn) const;

  // ChunkFilter: conservative membership test.  Unindexed chunks pass.
  bool constrains(const expr::QueryIntervals& qi) const override;
  uint32_t resolve(const std::string& file_path) const override;
  bool may_match(uint32_t file, uint64_t offset,
                 const expr::QueryIntervals& qi) const override;

  // ChunkBoundsSource (for the code emitter).
  const std::vector<int>& bounds_attrs() const override { return attrs_; }
  bool chunk_bounds(const std::string& file_path, uint64_t offset,
                    std::vector<std::pair<double, double>>& out)
      const override;

 private:
  struct File {
    std::string path;
    std::size_t begin = 0, end = 0;  // chunk range in offsets_/rows_
  };

  std::vector<int> attrs_;
  std::vector<File> files_;        // sorted by path; index = file id
  std::vector<uint64_t> offsets_;  // per chunk, ascending within a file
  std::vector<uint64_t> rows_;     // per chunk, row of bounds_
  std::vector<double> bounds_;     // per row: (min, max) per attribute
  std::size_t num_chunks_ = 0;
  uint64_t files_total_ = 0;
  uint64_t files_stale_ = 0;
  double build_seconds_ = 0;
};

}  // namespace adv::zonemap
