#include "codegen/emit.h"

#include <sstream>

#include "afc/planner.h"
#include "common/error.h"
#include "common/string_util.h"
#include "sql/ast.h"

namespace adv::codegen {

namespace {

// Field loaders of the emitted scanner.
constexpr const char* kLoadHelpers = R"(
inline double adv_ld_i8(const unsigned char* p) {
  signed char v; std::memcpy(&v, p, 1); return (double)v;
}
inline double adv_ld_i16(const unsigned char* p) {
  short v; std::memcpy(&v, p, 2); return (double)v;
}
inline double adv_ld_i32(const unsigned char* p) {
  int v; std::memcpy(&v, p, 4); return (double)v;
}
inline double adv_ld_i64(const unsigned char* p) {
  long long v; std::memcpy(&v, p, 8); return (double)v;
}
inline double adv_ld_f32(const unsigned char* p) {
  float v; std::memcpy(&v, p, 4); return (double)v;
}
inline double adv_ld_f64(const unsigned char* p) {
  double v; std::memcpy(&v, p, 8); return v;
}
)";

const char* load_fn(DataType t) {
  switch (t) {
    case DataType::kInt8: return "adv_ld_i8";
    case DataType::kInt16: return "adv_ld_i16";
    case DataType::kInt32: return "adv_ld_i32";
    case DataType::kInt64: return "adv_ld_i64";
    case DataType::kFloat32: return "adv_ld_f32";
    case DataType::kFloat64: return "adv_ld_f64";
  }
  return "adv_ld_f64";
}

void emit_preamble(std::ostringstream& os, const meta::Schema& schema) {
  os << R"(// Generated by advirt (codegen/emit.cpp). Do not edit.
//
// Standalone index + extraction functions for one dataset descriptor.
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {
)";
  os << kLoadHelpers;
  os << R"(
// Reads exactly n bytes at offset; returns 0 or -errno.
int adv_pread_exact(int fd, unsigned char* buf, unsigned long long n,
                    unsigned long long off) {
  unsigned long long got = 0;
  while (got < n) {
    ssize_t r = pread(fd, buf + got, n - got, (off_t)(off + got));
    if (r < 0) { if (errno == EINTR) continue; return -errno; }
    if (r == 0) return -EIO;
    got += (unsigned long long)r;
  }
  return 0;
}

}  // namespace

)";
  os << "extern \"C\" int advgen_num_attrs(void) { return "
     << schema.size() << "; }\n\n";
  os << "extern \"C\" const char* advgen_attr_name(int i) {\n"
     << "  static const char* names[] = {";
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (i) os << ", ";
    os << '"' << schema.at(i).name << '"';
  }
  os << "};\n  if (i < 0 || i >= " << schema.size()
     << ") return \"\";\n  return names[i];\n}\n\n";
}

// Emits the function handling one group.  `lookup_gp` / `group_afcs` carry
// the rooted-path twin of `gp` from a match-all plan in enumeration order,
// used to embed the chunk-bounds table when `bounds` is given.
void emit_group(std::ostringstream& os, const afc::GroupPlan& gp,
                const afc::GroupPlan* lookup_gp,
                const std::vector<const afc::Afc*>& group_afcs,
                const meta::Schema& schema, std::size_t gid,
                const afc::ChunkBoundsSource* bounds) {
  const std::size_t nattrs = schema.size();

  // Per-chunk bounds table: one row of [min,max] pairs per enumerated AFC.
  std::vector<int> idx_attrs;
  std::vector<double> bounds_table;
  if (bounds && lookup_gp && !gp.loops.empty()) {
    idx_attrs = bounds->bounds_attrs();
    int data_chunk = -1;
    for (std::size_t c = 0; c < lookup_gp->chunks.size(); ++c)
      if (!lookup_gp->chunks[c].fields.empty()) {
        data_chunk = static_cast<int>(c);
        break;
      }
    bool all_found = data_chunk >= 0 && !idx_attrs.empty();
    std::vector<std::pair<double, double>> row;
    for (const afc::Afc* a : group_afcs) {
      if (!all_found) break;
      all_found = bounds->chunk_bounds(
          lookup_gp->files[static_cast<std::size_t>(
              lookup_gp->chunks[static_cast<std::size_t>(data_chunk)].file)],
          a->offsets[static_cast<std::size_t>(data_chunk)], row);
      if (all_found)
        for (const auto& [blo, bhi] : row) {
          bounds_table.push_back(blo);
          bounds_table.push_back(bhi);
        }
    }
    if (!all_found) {
      idx_attrs.clear();
      bounds_table.clear();
    }
  }
  os << "// ---- group " << gid << " (" << gp.files.size() << " files, "
     << gp.chunks.size() << " chunks, node " << gp.node_id << ")\n";
  os << "namespace {\n"
     << "long long scan_group_" << gid
     << "(const char* root, const double* lo, const double* hi,\n"
     << "                 void (*row_cb)(void*, const double*), void* ctx) "
     << "{\n"
     << "  long long delivered = 0;\n";
  if (!bounds_table.empty()) {
    os << "  // Embedded chunk index: [min,max] per indexed attribute per "
       << "aligned chunk set.\n";
    os << "  static const int kIdxAttrs[] = {";
    for (std::size_t i = 0; i < idx_attrs.size(); ++i) {
      if (i) os << ", ";
      os << idx_attrs[i];
    }
    os << "};\n";
    os << "  static const double kChunkBounds[] = {";
    for (std::size_t i = 0; i < bounds_table.size(); ++i) {
      if (i) os << ", ";
      if (i % 8 == 0) os << "\n    ";
      os << bounds_table[i];
    }
    os << "};\n";
  }
  os << "  do {\n";

  // Group-level pruning on constant implicit attributes.
  for (const auto& [attr, v] : gp.const_implicits) {
    os << "    if (" << v << " < lo[" << attr << "] || " << v << " > hi["
       << attr << "]) break;  // implicit "
       << schema.at(static_cast<std::size_t>(attr)).name << "\n";
  }
  // Row-ident range pruning.
  if (gp.row_attr >= 0) {
    os << "    if ((double)" << gp.row_range.hi << " < lo[" << gp.row_attr
       << "] || (double)" << gp.row_range.lo << " > hi[" << gp.row_attr
       << "]) break;  // record-loop range vs query\n";
  }

  // Open the group's files.
  os << "    int fds[" << gp.files.size() << "];\n";
  os << "    for (unsigned i = 0; i < " << gp.files.size()
     << "; ++i) fds[i] = -1;\n";
  os << "    static const char* files[] = {";
  for (std::size_t i = 0; i < gp.files.size(); ++i) {
    if (i) os << ", ";
    os << '"' << gp.files[i] << '"';
  }
  os << "};\n";
  os << "    int err = 0;\n";
  os << "    for (unsigned i = 0; i < " << gp.files.size()
     << " && !err; ++i) {\n"
     << "      std::string p = std::string(root) + \"/\" + files[i];\n"
     << "      fds[i] = open(p.c_str(), O_RDONLY);\n"
     << "      if (fds[i] < 0) err = -errno;\n"
     << "    }\n";

  // Chunk batch buffers.
  os << "    enum { kBatch = 4096 };\n";
  for (std::size_t c = 0; c < gp.chunks.size(); ++c) {
    if (gp.chunks[c].bytes_per_row == 0) continue;
    os << "    unsigned char* buf" << c << " = (unsigned char*)malloc("
       << "(size_t)kBatch * " << gp.chunks[c].bytes_per_row << ");\n";
  }

  os << "    if (!err) {\n";
  os << "      double row[" << nattrs << "];\n";
  // Constant implicit values, set once.
  for (const auto& [attr, v] : gp.const_implicits)
    os << "      row[" << attr << "] = " << v << ";\n";

  // Enumerated loops.
  std::string pad = "      ";
  for (std::size_t k = 0; k < gp.loops.size(); ++k) {
    const afc::EnumLoop& L = gp.loops[k];
    os << pad << "for (long long v" << k << " = " << L.range.lo << "; v" << k
       << " <= " << L.range.hi << "; v" << k << " += " << L.range.step
       << ") {  // LOOP " << L.ident << "\n";
    pad += "  ";
    if (L.attr >= 0) {
      os << pad << "if ((double)v" << k << " < lo[" << L.attr
         << "] || (double)v" << k << " > hi[" << L.attr << "]) continue;\n";
      os << pad << "row[" << L.attr << "] = (double)v" << k << ";\n";
    }
    os << pad << "unsigned long long i" << k << " = (unsigned long long)((v"
       << k << " - " << L.range.lo << ") / " << L.range.step << ");\n";
  }

  // Chunk-index pruning for this loop assignment.
  if (!bounds_table.empty()) {
    // Flattened enumeration ordinal (row of the bounds table).
    std::vector<int64_t> spans(gp.loops.size());
    for (std::size_t k = 0; k < gp.loops.size(); ++k)
      spans[k] = gp.loops[k].range.count();
    os << pad << "unsigned long long afc_ord = 0";
    for (std::size_t k = 0; k < gp.loops.size(); ++k) {
      int64_t suffix = 1;
      for (std::size_t j = k + 1; j < gp.loops.size(); ++j)
        suffix *= spans[j];
      os << " + i" << k << " * " << suffix << "ULL";
    }
    os << ";\n";
    os << pad << "{\n";
    os << pad << "  const double* cb = kChunkBounds + afc_ord * "
       << 2 * idx_attrs.size() << ";\n";
    os << pad << "  bool cb_skip = false;\n";
    os << pad << "  for (unsigned k = 0; k < " << idx_attrs.size()
       << "; ++k) {\n";
    os << pad << "    int a = kIdxAttrs[k];\n";
    os << pad << "    if (cb[2*k+1] < lo[a] || cb[2*k] > hi[a]) { cb_skip = "
       << "true; break; }\n";
    os << pad << "  }\n";
    os << pad << "  if (cb_skip) continue;\n";
    os << pad << "}\n";
  }

  // Chunk offsets for this loop assignment.
  for (std::size_t c = 0; c < gp.chunks.size(); ++c) {
    const afc::ChunkPlan& cp = gp.chunks[c];
    if (cp.bytes_per_row == 0) continue;
    os << pad << "unsigned long long off" << c << " = "
       << cp.base_offset << "ULL";
    for (std::size_t k = 0; k < gp.loops.size(); ++k)
      if (cp.loop_strides[k] != 0)
        os << " + i" << k << " * " << cp.loop_strides[k] << "ULL";
    os << ";\n";
  }

  // Row loop, batched.
  uint64_t total_rows = static_cast<uint64_t>(gp.row_range.count());
  os << pad << "unsigned long long rows = " << total_rows << "ULL;\n";
  os << pad << "for (unsigned long long done = 0; done < rows && !err; "
     << "done += kBatch) {\n";
  pad += "  ";
  os << pad << "unsigned long long nb = rows - done < kBatch ? rows - done "
     << ": kBatch;\n";
  for (std::size_t c = 0; c < gp.chunks.size(); ++c) {
    const afc::ChunkPlan& cp = gp.chunks[c];
    if (cp.bytes_per_row == 0) continue;
    os << pad << "err = adv_pread_exact(fds[" << cp.file << "], buf" << c
       << ", nb * " << cp.bytes_per_row << ", off" << c << " + done * "
       << cp.bytes_per_row << ");\n";
    os << pad << "if (err) break;\n";
  }
  os << pad << "for (unsigned long long r = 0; r < nb; ++r) {\n";
  pad += "  ";
  // Row-varying implicit.
  if (gp.row_attr >= 0) {
    os << pad << "row[" << gp.row_attr << "] = (double)(" << gp.row_range.lo
       << " + (long long)(done + r) * " << gp.row_range.step << ");\n";
  }
  // Stored fields (first source wins, matching bind_group()).
  std::vector<bool> have(nattrs, false);
  for (const auto& [attr, v] : gp.const_implicits)
    have[static_cast<std::size_t>(attr)] = true;
  for (const auto& L : gp.loops)
    if (L.attr >= 0) have[static_cast<std::size_t>(L.attr)] = true;
  if (gp.row_attr >= 0) have[static_cast<std::size_t>(gp.row_attr)] = true;
  for (std::size_t c = 0; c < gp.chunks.size(); ++c) {
    const afc::ChunkPlan& cp = gp.chunks[c];
    for (const auto& f : cp.fields) {
      if (f.attr < 0 || have[static_cast<std::size_t>(f.attr)]) continue;
      have[static_cast<std::size_t>(f.attr)] = true;
      os << pad << "row[" << f.attr << "] = " << load_fn(f.type) << "(buf"
         << c << " + r * " << cp.bytes_per_row << " + " << f.intra_offset
         << ");\n";
    }
  }
  for (std::size_t a = 0; a < nattrs; ++a) {
    if (!have[a])
      throw InternalError("emit_cpp: no source for attribute " +
                          schema.at(a).name);
  }
  // Residual interval filter over every attribute, then deliver.
  os << pad << "bool ok = true;\n";
  os << pad << "for (int a = 0; a < " << nattrs
     << "; ++a) if (row[a] < lo[a] || row[a] > hi[a]) { ok = false; break; "
     << "}\n";
  os << pad << "if (ok) { row_cb(ctx, row); ++delivered; }\n";
  pad.resize(pad.size() - 2);
  os << pad << "}\n";  // row loop
  pad.resize(pad.size() - 2);
  os << pad << "}\n";  // batch loop

  for (std::size_t k = gp.loops.size(); k > 0; --k) {
    pad.resize(pad.size() - 2);
    os << pad << "}\n";
  }
  os << "    }\n";  // if (!err)

  // Cleanup.
  for (std::size_t c = 0; c < gp.chunks.size(); ++c)
    if (gp.chunks[c].bytes_per_row != 0) os << "    free(buf" << c << ");\n";
  os << "    for (unsigned i = 0; i < " << gp.files.size()
     << "; ++i) if (fds[i] >= 0) close(fds[i]);\n";
  os << "    if (err) return (long long)err;\n";
  os << "  } while (0);\n";
  os << "  return delivered;\n}\n}  // namespace\n\n";
}

}  // namespace

std::string emit_cpp(const afc::DatasetModel& model,
                     const afc::ChunkBoundsSource* bounds) {
  // Re-plan against a root-less model so emitted file paths are relative to
  // the `root` argument of advgen_scan.
  afc::DatasetModel rel(model.descriptor(), model.dataset_name(), "");
  const meta::Schema& schema = rel.schema();

  // Unroll the group structure with a match-all query.
  expr::BoundQuery all(
      sql::parse_select("SELECT * FROM " + rel.dataset_name()), schema);
  afc::PlanResult pr = afc::plan_afcs(rel, all);
  if (pr.groups.empty())
    throw ValidationError("emit_cpp: dataset '" + model.dataset_name() +
                          "' yields no file groups");

  // A chunk-bounds source is keyed by the caller's rooted file paths, so
  // plan once more against the rooted model for the lookups.  Both plans
  // enumerate identically apart from the path prefix.
  afc::PlanResult pr_rooted;
  if (bounds) {
    expr::BoundQuery all_rooted(
        sql::parse_select("SELECT * FROM " + model.dataset_name()),
        model.schema());
    pr_rooted = afc::plan_afcs(model, all_rooted);
    check_internal(pr_rooted.groups.size() == pr.groups.size() &&
                       pr_rooted.afcs.size() == pr.afcs.size(),
                   "rooted/rootless plans diverged in emit_cpp");
  }
  std::vector<std::vector<const afc::Afc*>> per_group(pr.groups.size());
  if (bounds)
    for (const afc::Afc& a : pr_rooted.afcs)
      per_group[static_cast<std::size_t>(a.group)].push_back(&a);

  std::ostringstream os;
  os.precision(17);
  os << "// Dataset: " << model.dataset_name() << " (schema "
     << schema.name << ", " << model.files().size() << " files, "
     << pr.groups.size() << " groups";
  if (bounds) os << ", embedded chunk index";
  os << ")\n";
  emit_preamble(os, schema);

  for (std::size_t g = 0; g < pr.groups.size(); ++g)
    emit_group(os, pr.groups[g],
               bounds ? &pr_rooted.groups[g] : nullptr, per_group[g],
               schema, g, bounds);

  os << "extern \"C\" int advgen_num_groups(void) { return "
     << pr.groups.size() << "; }\n\n";
  os << "extern \"C\" int advgen_group_node(int g) {\n"
     << "  static const int nodes[] = {";
  for (std::size_t g = 0; g < pr.groups.size(); ++g) {
    if (g) os << ", ";
    os << pr.groups[g].node_id;
  }
  os << "};\n  if (g < 0 || g >= " << pr.groups.size()
     << ") return -1;\n  return nodes[g];\n}\n\n";

  os << "extern \"C\" long long advgen_scan_group(int g, const char* root, "
     << "const double* lo, const double* hi,\n"
     << "    void (*row_cb)(void*, const double*), void* ctx) {\n"
     << "  switch (g) {\n";
  for (std::size_t g = 0; g < pr.groups.size(); ++g)
    os << "    case " << g << ": return scan_group_" << g
       << "(root, lo, hi, row_cb, ctx);\n";
  os << "  }\n  return -1;\n}\n\n";

  os << "extern \"C\" long long advgen_scan(const char* root, "
     << "const double* lo, const double* hi,\n"
     << "    void (*row_cb)(void*, const double*), void* ctx) {\n"
     << "  long long delivered = 0;\n"
     << "  for (int g = 0; g < " << pr.groups.size() << "; ++g) {\n"
     << "    long long r = advgen_scan_group(g, root, lo, hi, row_cb, ctx);\n"
     << "    if (r < 0) return r;\n"
     << "    delivered += r;\n"
     << "  }\n  return delivered;\n}\n";
  return os.str();
}

}  // namespace adv::codegen
