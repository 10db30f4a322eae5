#include "codegen/extractor.h"

#include <algorithm>

#include "common/error.h"

namespace adv::codegen {

namespace {

// Vector batch cap in rows: the columnar working set (a few decoded
// columns plus the row-major output block) stays inside L2 while still
// amortizing the per-batch setup.
constexpr uint64_t kKernelBatchRows = 4096;

}  // namespace

GroupBinding bind_group(const afc::GroupPlan& gp, const expr::BoundQuery& q,
                        const meta::Schema& schema) {
  GroupBinding b;
  b.slots.resize(q.needed_attrs().size());
  for (std::size_t s = 0; s < q.needed_attrs().size(); ++s) {
    int attr = q.needed_attrs()[s];
    SlotSource src;
    bool found = false;
    // Stored field, first chunk wins.
    for (std::size_t c = 0; !found && c < gp.chunks.size(); ++c) {
      for (const auto& f : gp.chunks[c].fields) {
        if (f.attr == attr) {
          src.kind = SlotSource::Kind::kField;
          src.chunk = static_cast<int>(c);
          src.intra_offset = f.intra_offset;
          src.type = f.type;
          found = true;
          break;
        }
      }
    }
    // Constant implicit (file-name binding).
    if (!found) {
      for (const auto& [a, v] : gp.const_implicits) {
        if (a == attr) {
          src.kind = SlotSource::Kind::kConst;
          src.const_value = v;
          found = true;
          break;
        }
      }
    }
    // Enumerated loop value.
    if (!found) {
      for (std::size_t k = 0; k < gp.loops.size(); ++k) {
        if (gp.loops[k].attr == attr) {
          src.kind = SlotSource::Kind::kLoop;
          src.loop_index = static_cast<int>(k);
          found = true;
          break;
        }
      }
    }
    // Record-loop (row-varying) value.
    if (!found && gp.row_attr == attr) {
      src.kind = SlotSource::Kind::kRow;
      found = true;
    }
    if (!found)
      throw InternalError("no source for attribute '" +
                          schema.at(static_cast<std::size_t>(attr)).name +
                          "' in group");
    b.slots[s] = src;
  }

  // Pre-analyze the per-row work.
  for (std::size_t s = 0; s < b.slots.size(); ++s) {
    const SlotSource& src = b.slots[s];
    switch (src.kind) {
      case SlotSource::Kind::kConst:
        b.const_fills.emplace_back(s, src.const_value);
        break;
      case SlotSource::Kind::kLoop:
        b.loop_fills.emplace_back(s, src.loop_index);
        break;
      case SlotSource::Kind::kRow:
        b.row_slot = static_cast<int>(s);
        break;
      case SlotSource::Kind::kField: {
        const afc::ChunkPlan& cp =
            gp.chunks[static_cast<std::size_t>(src.chunk)];
        bool in_pred = false;
        for (int ps : q.predicate_slots())
          if (ps == static_cast<int>(s)) in_pred = true;
        auto& list = in_pred ? b.pred_fetches : b.post_fetches;
        list.push_back({static_cast<std::size_t>(src.chunk),
                        cp.bytes_per_row, src.intra_offset, src.type, s});
        break;
      }
    }
  }
  return b;
}

const FileHandle& Extractor::handle(const std::string& path) {
  auto it = handles_.find(path);
  if (it == handles_.end())
    it = handles_.emplace(path, FileCache::instance().open(path))
             .first;
  return *it->second;
}

const std::vector<const FileHandle*>& Extractor::group_handles(
    const afc::GroupPlan& gp) {
  auto& hv = group_handles_[&gp];
  if (hv.size() != gp.files.size()) {
    hv.clear();
    hv.reserve(gp.files.size());
    for (const auto& f : gp.files) hv.push_back(&handle(f));
  }
  return hv;
}

namespace {

// Adapter: a sink that appends every matched row to a result table.
class TableSink final : public RowSink {
 public:
  explicit TableSink(expr::Table& t) : t_(t) {}
  void on_row(const double* vals, uint64_t) override { t_.append_row(vals); }
  void on_rows(const double* rows, std::size_t, std::size_t nrows,
               const uint64_t*) override {
    t_.append_rows(rows, nrows);
  }

 private:
  expr::Table& t_;
};

}  // namespace

ExtractStats Extractor::extract(const afc::GroupPlan& gp, const afc::Afc& a,
                                const GroupBinding& binding,
                                const expr::BoundQuery& q, expr::Table& out) {
  TableSink sink(out);
  return extract(gp, a, binding, q, sink);
}

ExtractStats Extractor::extract(const afc::GroupPlan& gp, const afc::Afc& a,
                                const GroupBinding& binding,
                                const expr::BoundQuery& q, RowSink& sink) {
  ExtractStats stats;
  const std::size_t num_chunks = gp.chunks.size();
  if (bufs_.size() < num_chunks) bufs_.resize(num_chunks);
  if (srcs_.size() < num_chunks) srcs_.resize(num_chunks);

  const std::vector<const FileHandle*>& handles = group_handles(gp);

  const bool interp = kernel_mode_ == KernelMode::kInterp;
  if (interp)
    ++stats.afcs_interp;
  else
    ++stats.afcs_vector;

  // Mapped chunks decode in place; only unmapped ones need buffered
  // batching.  When every chunk is mapped the whole AFC is one batch.
  bool all_mapped = true;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const afc::ChunkPlan& cp = gp.chunks[c];
    if (cp.bytes_per_row == 0) continue;
    if (!handles[static_cast<std::size_t>(cp.file)]->mapped_data())
      all_mapped = false;
  }

  // Batch size in rows, bounded by batch_bytes_ per chunk on the pread
  // path.
  uint32_t max_bpr = 1;
  for (const auto& c : gp.chunks) max_bpr = std::max(max_bpr, c.bytes_per_row);
  uint64_t batch_rows =
      all_mapped ? std::max<uint64_t>(1, a.num_rows)
                 : std::max<uint64_t>(1, batch_bytes_ / max_bpr);
  // With a cancel token, cap the batch so the poll below runs at a
  // bounded row granularity even when a fully-mapped AFC would otherwise
  // decode in one pass.
  if (cancel_) batch_rows = std::min<uint64_t>(batch_rows, 1 << 16);
  // The vector tier works in cache-sized batches regardless of mapping.
  if (!interp)
    batch_rows = std::min(batch_rows, kKernelBatchRows);

  if (interp) {
    // Row buffer: one double per needed slot (scratch reused across AFCs;
    // every slot has exactly one source, so no zero-fill is needed).
    row_.resize(binding.slots.size());
    double* row = row_.data();
    // Constant and per-AFC loop-implicit slots fill once.
    for (const auto& [s, v] : binding.const_fills) row[s] = v;
    for (const auto& [s, k] : binding.loop_fills)
      row[s] = static_cast<double>(
          a.loop_values[static_cast<std::size_t>(k)]);
    out_row_.resize(q.select_slots().size());
  } else {
    // Which slots the vector tier will have as decoded predicate columns.
    slot_from_pred_col_.assign(binding.slots.size(), 0);
    for (const auto& f : binding.pred_fetches) slot_from_pred_col_[f.slot] = 1;
    colptrs_.assign(binding.slots.size(), nullptr);
  }

  const unsigned char** srcs = srcs_.data();
  for (uint64_t done = 0; done < a.num_rows; done += batch_rows) {
    if (cancel_) cancel_->check();
    uint64_t n = std::min(batch_rows, a.num_rows - done);
    // Point each chunk cursor at this batch: straight into the mapping
    // when the file is mapped, through a pread buffer otherwise.
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const afc::ChunkPlan& cp = gp.chunks[c];
      if (cp.bytes_per_row == 0) continue;
      std::size_t bytes = static_cast<std::size_t>(n) * cp.bytes_per_row;
      uint64_t offset = a.offsets[c] + done * cp.bytes_per_row;
      srcs[c] = handles[static_cast<std::size_t>(cp.file)]->read_at(
          bytes, offset, bufs_[c]);
      stats.bytes_read += bytes;
    }
    if (interp)
      run_interp(gp, a, binding, q, sink, srcs, done, n, stats);
    else
      run_vector(gp, a, binding, q, sink, srcs, done, n, stats);
  }
  return stats;
}

void Extractor::run_interp(const afc::GroupPlan& gp, const afc::Afc& a,
                           const GroupBinding& binding,
                           const expr::BoundQuery& q, RowSink& sink,
                           const unsigned char** srcs, uint64_t done,
                           uint64_t n, ExtractStats& stats) {
  double* row = row_.data();
  double* out_row = out_row_.data();
  const int row_slot = binding.row_slot;
  const auto& select_slots = q.select_slots();
  // Fast path: SELECT list is exactly the slot buffer in order (true for
  // SELECT * and any projection whose needed set equals its select set).
  bool identity_select = select_slots.size() == binding.slots.size();
  for (std::size_t i = 0; identity_select && i < select_slots.size(); ++i)
    identity_select = select_slots[i] == static_cast<int>(i);
  const bool has_predicate = q.has_predicate();

  // Zip rows: predicate inputs are materialized eagerly, the remaining
  // fields only once a row passes the filter.
  for (uint64_t r = 0; r < n; ++r) {
    for (const GroupBinding::FieldFetch& f : binding.pred_fetches)
      row[f.slot] = decode_double(f.type, srcs[f.chunk] + f.intra + r * f.bpr);
    if (row_slot >= 0) {
      row[static_cast<std::size_t>(row_slot)] = static_cast<double>(
          a.row_first + static_cast<int64_t>(done + r) * gp.row_range.step);
    }
    stats.rows_scanned++;
    if (!has_predicate || q.matches(row)) {
      stats.rows_matched++;
      for (const GroupBinding::FieldFetch& f : binding.post_fetches)
        row[f.slot] =
            decode_double(f.type, srcs[f.chunk] + f.intra + r * f.bpr);
      if (identity_select) {
        sink.on_row(row, done + r);
      } else {
        for (std::size_t i = 0; i < select_slots.size(); ++i)
          out_row[i] = row[static_cast<std::size_t>(select_slots[i])];
        sink.on_row(out_row, done + r);
      }
    }
  }
}

void Extractor::run_vector(const afc::GroupPlan& gp, const afc::Afc& a,
                           const GroupBinding& binding,
                           const expr::BoundQuery& q, RowSink& sink,
                           const unsigned char** srcs, uint64_t done,
                           uint64_t n, ExtractStats& stats) {
  const auto& select_slots = q.select_slots();
  const std::size_t ncols = select_slots.size();
  const int64_t step = gp.row_range.step;
  stats.rows_scanned += n;
  arena_.reset_scratch();

  if (!q.has_predicate()) {
    // No filter: decode every selected field column straight into the
    // row-major output block (out_stride = ncols), fill implicits, done.
    double* out = arena_.out(n * ncols);
    for (std::size_t i = 0; i < ncols; ++i) {
      const SlotSource& src =
          binding.slots[static_cast<std::size_t>(select_slots[i])];
      switch (src.kind) {
        case SlotSource::Kind::kField: {
          const afc::ChunkPlan& cp =
              gp.chunks[static_cast<std::size_t>(src.chunk)];
          kernels::decode_column(
              src.type, srcs[src.chunk] + src.intra_offset, cp.bytes_per_row,
              n, out + i, ncols);
          break;
        }
        case SlotSource::Kind::kConst:
          for (uint64_t r = 0; r < n; ++r) out[r * ncols + i] = src.const_value;
          break;
        case SlotSource::Kind::kLoop: {
          double v = static_cast<double>(
              a.loop_values[static_cast<std::size_t>(src.loop_index)]);
          for (uint64_t r = 0; r < n; ++r) out[r * ncols + i] = v;
          break;
        }
        case SlotSource::Kind::kRow:
          for (uint64_t r = 0; r < n; ++r)
            out[r * ncols + i] = static_cast<double>(
                a.row_first + static_cast<int64_t>(done + r) * step);
          break;
      }
    }
    uint64_t* seq = arena_.seq(n);
    for (uint64_t r = 0; r < n; ++r) seq[r] = done + r;
    stats.rows_matched += n;
    sink.on_rows(out, ncols, n, seq);
    return;
  }

  // 1. Decode every predicate-read column into the arena.
  for (const GroupBinding::FieldFetch& f : binding.pred_fetches) {
    double* col = arena_.col(f.slot, n);
    kernels::decode_column(f.type, srcs[f.chunk] + f.intra, f.bpr, n, col);
    colptrs_[f.slot] = col;
  }
  for (int ps : q.predicate_slots()) {
    const std::size_t s = static_cast<std::size_t>(ps);
    const SlotSource& src = binding.slots[s];
    switch (src.kind) {
      case SlotSource::Kind::kField:
        break;  // decoded above
      case SlotSource::Kind::kConst: {
        double* col = arena_.col(s, n);
        for (uint64_t r = 0; r < n; ++r) col[r] = src.const_value;
        colptrs_[s] = col;
        break;
      }
      case SlotSource::Kind::kLoop: {
        double* col = arena_.col(s, n);
        double v = static_cast<double>(
            a.loop_values[static_cast<std::size_t>(src.loop_index)]);
        for (uint64_t r = 0; r < n; ++r) col[r] = v;
        colptrs_[s] = col;
        break;
      }
      case SlotSource::Kind::kRow: {
        double* col = arena_.col(s, n);
        for (uint64_t r = 0; r < n; ++r)
          col[r] = static_cast<double>(
              a.row_first + static_cast<int64_t>(done + r) * step);
        colptrs_[s] = col;
        break;
      }
    }
  }

  // 2. Predicate as mask passes, 3. compact survivors.
  uint8_t* mask = arena_.mask(n);
  kernels::eval_mask(q.predicate(), colptrs_.data(), n, mask, arena_);
  uint32_t* sel = arena_.sel(n);
  std::size_t nsel = kernels::gather_selected(mask, n, sel);
  stats.rows_matched += nsel;
  if (nsel == 0) return;

  // 4. Materialize surviving rows: predicate columns gather from the arena,
  // SELECT-only fields decode-gather straight from the chunk, implicits
  // fill or compute.
  double* out = arena_.out(nsel * ncols);
  for (std::size_t i = 0; i < ncols; ++i) {
    const std::size_t s = static_cast<std::size_t>(select_slots[i]);
    const SlotSource& src = binding.slots[s];
    if (colptrs_[s] != nullptr) {
      const double* col = colptrs_[s];
      for (std::size_t j = 0; j < nsel; ++j) out[j * ncols + i] = col[sel[j]];
      continue;
    }
    switch (src.kind) {
      case SlotSource::Kind::kField: {
        const afc::ChunkPlan& cp =
            gp.chunks[static_cast<std::size_t>(src.chunk)];
        kernels::decode_gather(src.type, srcs[src.chunk] + src.intra_offset,
                               cp.bytes_per_row, sel, nsel, out + i, ncols);
        break;
      }
      case SlotSource::Kind::kConst:
        for (std::size_t j = 0; j < nsel; ++j)
          out[j * ncols + i] = src.const_value;
        break;
      case SlotSource::Kind::kLoop: {
        double v = static_cast<double>(
            a.loop_values[static_cast<std::size_t>(src.loop_index)]);
        for (std::size_t j = 0; j < nsel; ++j) out[j * ncols + i] = v;
        break;
      }
      case SlotSource::Kind::kRow:
        for (std::size_t j = 0; j < nsel; ++j)
          out[j * ncols + i] = static_cast<double>(
              a.row_first + static_cast<int64_t>(done + sel[j]) * step);
        break;
    }
  }
  uint64_t* seq = arena_.seq(nsel);
  for (std::size_t j = 0; j < nsel; ++j) seq[j] = done + sel[j];
  sink.on_rows(out, ncols, nsel, seq);
}

}  // namespace adv::codegen
