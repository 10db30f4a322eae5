// The extraction function: turns aligned file chunk sets into rows.
//
// For each AFC, the extractor walks num_rows * bytes_per_row bytes of
// every chunk — decoding directly out of the file's shared memory mapping
// when available, otherwise preading bounded batches into per-extractor
// buffers — and runs one of two kernel loops over each batch (see
// docs/KERNELS.md):
//
//   vector  the production tier.  Columnar: decode predicate columns into
//           arena batch buffers, evaluate the predicate as branch-free mask
//           passes, gather the survivors, materialize output rows
//           batch-at-a-time.
//   interp  the reference loop.  Row-at-a-time: decode the needed fields
//           into a dense double buffer, evaluate the compiled predicate per
//           row.  The oracle the vector tier is checked against.
//
// Both produce bit-identical rows in the same scan order and hand
// them to a RowSink (zero-copy: the sink sees extractor-owned buffers).
// A Table convenience overload appends to a result table.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "afc/types.h"
#include "common/cancel.h"
#include "common/io.h"
#include "common/kernel_mode.h"
#include "expr/predicate.h"
#include "expr/table.h"
#include "kernels/batch.h"

namespace adv::codegen {

struct ExtractStats {
  uint64_t bytes_read = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  // Work the planner's chunk filter (zone map) removed
  // before extraction started: AFCs dropped, rows never scanned, bytes
  // never read.  Filled from PlanStats by whoever ran the index function.
  uint64_t afcs_pruned = 0;
  uint64_t rows_pruned = 0;
  uint64_t bytes_skipped = 0;
  // Which kernel loop actually ran, one count per extracted AFC.  Lets
  // callers (and tests) assert which loop served a query.
  uint64_t afcs_interp = 0;
  uint64_t afcs_vector = 0;

  ExtractStats& operator+=(const ExtractStats& o) {
    bytes_read += o.bytes_read;
    rows_scanned += o.rows_scanned;
    rows_matched += o.rows_matched;
    afcs_pruned += o.afcs_pruned;
    rows_pruned += o.rows_pruned;
    bytes_skipped += o.bytes_skipped;
    afcs_interp += o.afcs_interp;
    afcs_vector += o.afcs_vector;
    return *this;
  }
};

// Where each needed slot of a query comes from within one group.
struct SlotSource {
  enum class Kind : uint8_t { kField, kConst, kLoop, kRow };
  Kind kind = Kind::kConst;
  int chunk = -1;            // kField
  uint32_t intra_offset = 0; // kField
  DataType type = DataType::kFloat64;  // kField
  int loop_index = -1;       // kLoop: index into GroupPlan::loops
  double const_value = 0;    // kConst
};

// Per-(group, query) binding of needed slots to sources, with the per-row
// work pre-analyzed: constant/loop fills happen once per AFC, stored-field
// fetches compile to a flat list, and the (at most one) row-varying slot is
// tracked separately.
struct GroupBinding {
  std::vector<SlotSource> slots;

  struct FieldFetch {
    std::size_t chunk;
    uint32_t bpr;
    uint32_t intra;
    DataType type;
    std::size_t slot;
  };
  // Fields the predicate reads (materialized for every row) and fields only
  // the SELECT list needs (materialized lazily for matching rows).
  std::vector<FieldFetch> pred_fetches;
  std::vector<FieldFetch> post_fetches;
  std::vector<std::pair<std::size_t, double>> const_fills;  // (slot, value)
  std::vector<std::pair<std::size_t, int>> loop_fills;  // (slot, loop index)
  int row_slot = -1;
};

// Builds the binding; throws InternalError when a needed attribute has no
// source in the group (the planner guarantees one exists).
GroupBinding bind_group(const afc::GroupPlan& gp, const expr::BoundQuery& q,
                        const meta::Schema& schema);

// Receives matched rows as they are decoded.  `vals` points at the
// extractor's decode buffer — q.select_slots().size() doubles in SELECT
// order, valid only for the duration of the call.  `scan_index` is the
// row's 0-based scan position within the AFC being extracted; combined
// with a per-AFC base it yields a threading-invariant global row sequence
// (see storm's ordering contract in docs/PIPELINE.md).
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual void on_row(const double* vals, uint64_t scan_index) = 0;

  // Batch delivery: `rows` holds nrows * ncols doubles row-major,
  // scan_index[i] is row i's scan position.  The vector tier calls this
  // once per batch; sinks that can ingest in bulk override it, the
  // default preserves per-row semantics exactly.
  virtual void on_rows(const double* rows, std::size_t ncols,
                       std::size_t nrows, const uint64_t* scan_index) {
    for (std::size_t i = 0; i < nrows; ++i)
      on_row(rows + i * ncols, scan_index[i]);
  }
};

struct ExtractorOptions {
  // Bounds memory on the pread path: at most ~batch_bytes are buffered per
  // chunk while streaming one AFC.  The mmap path needs no buffering.
  std::size_t batch_bytes = 1 << 20;
  // Cooperative cancellation: polled once per decode batch (batches are
  // capped when a token is present so even a fully-mapped AFC polls every
  // ~64Ki rows); a fired token aborts with CancelledError.
  const CancelToken* cancel = nullptr;
  // Kernel loop: vector in production, interp for the reference path.
  KernelMode kernel_mode = KernelMode::kVector;
};

// Streaming extractor.  File handles come from the process-wide FileCache
// (opened/mapped once, shared across threads); the per-extractor scratch
// state makes an Extractor instance itself not thread-safe — STORM gives
// each worker its own.
class Extractor {
 public:
  explicit Extractor(const ExtractorOptions& opts = {})
      : batch_bytes_(opts.batch_bytes),
        cancel_(opts.cancel),
        kernel_mode_(opts.kernel_mode) {}

  // Extracts one AFC.  `binding` must come from bind_group() of the AFC's
  // group.  Hands each matching row to `sink`.
  ExtractStats extract(const afc::GroupPlan& gp, const afc::Afc& a,
                       const GroupBinding& binding,
                       const expr::BoundQuery& q, RowSink& sink);

  // Convenience overload: appends matching rows to `out`.
  ExtractStats extract(const afc::GroupPlan& gp, const afc::Afc& a,
                       const GroupBinding& binding,
                       const expr::BoundQuery& q, expr::Table& out);

  // Drops this extractor's handle references and per-group state, and
  // invalidates the process-wide handle cache.  Call when switching to a
  // different PlanResult or after files were rewritten.
  void clear_cache() {
    handles_.clear();
    group_handles_.clear();
    FileCache::instance().clear();
  }

 private:
  const FileHandle& handle(const std::string& path);
  const std::vector<const FileHandle*>& group_handles(
      const afc::GroupPlan& gp);

  // One kernel loop per batch; both share the chunk-cursor setup in
  // extract().  `srcs` point at the batch base of every chunk, `done` is
  // the batch's first in-AFC row index, `n` its row count.
  void run_interp(const afc::GroupPlan& gp, const afc::Afc& a,
                  const GroupBinding& binding, const expr::BoundQuery& q,
                  RowSink& sink, const unsigned char** srcs, uint64_t done,
                  uint64_t n, ExtractStats& stats);
  void run_vector(const afc::GroupPlan& gp, const afc::Afc& a,
                  const GroupBinding& binding, const expr::BoundQuery& q,
                  RowSink& sink, const unsigned char** srcs, uint64_t done,
                  uint64_t n, ExtractStats& stats);

  std::size_t batch_bytes_;
  const CancelToken* cancel_ = nullptr;
  KernelMode kernel_mode_ = KernelMode::kVector;
  // Shared handles pinned for this extractor's lifetime.
  std::map<std::string, std::shared_ptr<const FileHandle>> handles_;
  // Resolved handles per group (keyed by GroupPlan address; valid while the
  // PlanResult the groups live in is alive).
  std::map<const afc::GroupPlan*, std::vector<const FileHandle*>>
      group_handles_;
  // Scratch reused across AFCs: pread chunk buffers, per-chunk source
  // cursors, the slot row, the projected output row.
  std::vector<std::vector<unsigned char>> bufs_;
  std::vector<const unsigned char*> srcs_;
  std::vector<double> row_;
  std::vector<double> out_row_;
  // Columnar scratch for the vector tier, grow-only across batches.
  kernels::BatchArena arena_;
  std::vector<const double*> colptrs_;
  std::vector<uint8_t> slot_from_pred_col_;
};

}  // namespace adv::codegen
