#include "zonemap/zonemap.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string_view>

#include "codegen/plan.h"
#include "common/error.h"
#include "common/io.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "faultz/faultz.h"

namespace adv::zonemap {

namespace {

// Sidecar framing.  ADVZM3 is the single-file successor of the ADVZM2
// heap/B+tree/manifest triplet; a leftover triplet has no <dataset>.zm and
// therefore loads as absent.
constexpr char kMagic[8] = {'A', 'D', 'V', 'Z', 'M', '3', '\0', '\0'};
constexpr char kEndMarker[8] = {'A', 'D', 'V', 'Z', 'M', 'E', 'N', 'D'};
constexpr std::size_t kHeaderWords = 5;  // nattrs nfiles nrows nchunks dslen

// FNV-1a over 8-byte words (the tail zero-padded).  Not cryptographic: it
// guards against truncation and bit rot, the failure modes of a torn or
// damaged sidecar.  Each step is a bijection of the running hash, so
// changing any single word always changes the result.
uint64_t checksum(const char* p, std::size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, std::min<std::size_t>(8, n - i));
    h = (h ^ w) * 1099511628211ULL;
  }
  return h;
}

void put(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

// Word `i` of a table of 8-byte words.
uint64_t word(const char* table, std::size_t i) {
  uint64_t v;
  std::memcpy(&v, table + 8 * i, sizeof v);
  return v;
}

// Bounds-checked cursor over the sidecar bytes.  Every table is claimed
// with take() before it is read, which checks its record count against the
// bytes left, so a corrupt count fails the load instead of sizing an
// allocation.
class Cursor {
 public:
  Cursor(const char* p, std::size_t n) : p_(p), left_(n) {}

  // `n` records of `width` bytes, or nullptr when they do not fit.
  const char* take(uint64_t n, std::size_t width) {
    if (width == 0 || n > left_ / width) return nullptr;
    const char* at = p_;
    p_ += n * width;
    left_ -= n * width;
    return at;
  }
  // The next `n` bytes as a string, or false when they do not fit.
  bool str(uint64_t n, std::string_view& out) {
    const char* at = take(n, 1);
    if (at) out = std::string_view(at, n);
    return at != nullptr;
  }
  std::size_t left() const { return left_; }

 private:
  const char* p_;
  std::size_t left_;
};

// RowSink that folds every decoded row into running per-column bounds,
// written as interleaved (min, max) pairs into `out`.
class BoundsSink final : public codegen::RowSink {
 public:
  BoundsSink(double* out, std::size_t ncols) : out_(out), ncols_(ncols) {
    for (std::size_t c = 0; c < ncols; ++c) {
      out_[2 * c] = std::numeric_limits<double>::infinity();
      out_[2 * c + 1] = -std::numeric_limits<double>::infinity();
    }
  }

  void on_row(const double* vals, uint64_t) override {
    for (std::size_t c = 0; c < ncols_; ++c) {
      out_[2 * c] = std::min(out_[2 * c], vals[c]);
      out_[2 * c + 1] = std::max(out_[2 * c + 1], vals[c]);
    }
  }

 private:
  double* out_;
  std::size_t ncols_;
};

}  // namespace

std::string ZoneMap::sidecar_path(const std::string& dir,
                                  const std::string& dataset) {
  return dir + "/" + dataset + ".zm";
}

std::vector<int> ZoneMap::stored_attrs(const codegen::DataServicePlan& plan) {
  const meta::Schema& schema = plan.schema();
  std::set<int> found;
  for (const auto& leaf : plan.model().leaves())
    for (const auto& region : leaf.skeleton)
      for (const auto& field : region.fields) {
        int a = schema.find(field.attr);
        if (a >= 0) found.insert(a);
      }
  return {found.begin(), found.end()};
}

std::vector<int> ZoneMap::dataindex_attrs(
    const codegen::DataServicePlan& plan) {
  std::vector<int> attrs;
  const meta::DatasetDecl* decl =
      plan.model().descriptor().find_dataset(plan.model().dataset_name());
  if (decl)
    for (const auto& name : decl->dataindex) {
      int a = plan.schema().find(name);
      if (a >= 0) attrs.push_back(a);
    }
  return attrs;
}

ZoneMap ZoneMap::build(const codegen::DataServicePlan& plan, ThreadPool* pool,
                       const BuildOptions& opts) {
  Stopwatch sw;
  ZoneMap zm;
  zm.attrs_ = opts.attrs.empty() ? stored_attrs(plan) : opts.attrs;
  const std::vector<int>& attrs = zm.attrs_;
  if (attrs.empty())
    throw QueryError("ZoneMap::build: dataset '" +
                     plan.model().dataset_name() +
                     "' stores no schema attributes");
  const meta::Schema& schema = plan.schema();
  const std::size_t width = 2 * attrs.size();

  // One scan query covering the indexed attributes; no predicate, so every
  // chunk is visited with its unclipped offsets — the same offsets the
  // planner later presents to may_match().
  std::string sql = "SELECT ";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i) sql += ", ";
    sql += schema.at(static_cast<std::size_t>(attrs[i])).name;
  }
  sql += " FROM " + plan.model().dataset_name();
  expr::BoundQuery q = plan.bind(sql);

  // Plan per virtual node — the same per-node index-function runs the
  // cluster performs — then fan the AFC scans out across the pool.
  const int nodes = plan.model().num_nodes();
  std::vector<afc::PlanResult> prs;
  prs.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    afc::PlannerOptions popts;
    popts.only_node = n;
    prs.push_back(plan.index_fn(q, popts));
  }

  std::vector<std::vector<codegen::GroupBinding>> bindings(prs.size());
  struct Task {
    std::size_t pr;
    std::size_t afc;
  };
  std::vector<Task> tasks;
  for (std::size_t p = 0; p < prs.size(); ++p) {
    for (const auto& g : prs[p].groups)
      bindings[p].push_back(codegen::bind_group(g, q, schema));
    for (std::size_t i = 0; i < prs[p].afcs.size(); ++i)
      tasks.push_back({p, i});
  }

  // One bounds row per AFC (task order).
  std::vector<double> scanned(tasks.size() * width);
  auto scan_one = [&](std::size_t t, codegen::Extractor& ex) {
    const afc::PlanResult& pr = prs[tasks[t].pr];
    const afc::Afc& a = pr.afcs[tasks[t].afc];
    const std::size_t g = static_cast<std::size_t>(a.group);
    BoundsSink sink(scanned.data() + t * width, attrs.size());
    ex.extract(pr.groups[g], a, bindings[tasks[t].pr][g], q, sink);
  };
  // Contiguous task ranges (about four per pool thread, as the cluster's
  // node loop cuts them), each scanned by one Extractor, so an AFC's files
  // are resolved once per range rather than once per AFC.
  const std::size_t nranges =
      pool && pool->size() > 1
          ? std::clamp<std::size_t>(tasks.size(), 1, pool->size() * 4)
          : 1;
  auto scan_range = [&](std::size_t k) {
    codegen::Extractor ex;
    for (std::size_t t = tasks.size() * k / nranges;
         t < tasks.size() * (k + 1) / nranges; ++t)
      scan_one(t, ex);
  };
  if (nranges > 1)
    pool->parallel_for(nranges, scan_range);
  else
    scan_range(0);

  // File ids in path order, resolved once per group.
  std::map<std::string, uint32_t> ids;
  for (const auto& pr : prs)
    for (const auto& g : pr.groups)
      for (const auto& f : g.files) ids.emplace(f, 0);
  std::vector<const std::string*> paths;
  for (auto& [path, id] : ids) {
    id = static_cast<uint32_t>(paths.size());
    paths.push_back(&path);
  }
  std::vector<std::vector<std::vector<uint32_t>>> group_ids(prs.size());
  for (std::size_t p = 0; p < prs.size(); ++p)
    for (const auto& g : prs[p].groups) {
      group_ids[p].emplace_back();
      for (const auto& f : g.files) group_ids[p].back().push_back(ids.at(f));
    }

  // One (file, offset, row) reference per data-bearing chunk of every AFC,
  // sorted file-major.
  struct Ref {
    uint32_t file;
    uint64_t offset;
    uint64_t row;
    auto operator<=>(const Ref&) const = default;
  };
  std::vector<Ref> refs;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const afc::PlanResult& pr = prs[tasks[t].pr];
    const afc::Afc& a = pr.afcs[tasks[t].afc];
    const std::size_t g = static_cast<std::size_t>(a.group);
    const afc::GroupPlan& gp = pr.groups[g];
    for (std::size_t c = 0; c < gp.chunks.size(); ++c) {
      if (gp.chunks[c].fields.empty()) continue;
      refs.push_back(
          {group_ids[tasks[t].pr][g][static_cast<std::size_t>(
               gp.chunks[c].file)],
           a.offsets[c], t});
    }
  }
  std::sort(refs.begin(), refs.end());

  // A chunk reached from one AFC shares that AFC's row; a chunk reached
  // from several (overlapping groups) gets a row of its own holding the
  // hull.  Rows no chunk points at are not kept.
  std::vector<std::size_t> kept(tasks.size(), kNoRow);
  for (std::size_t i = 0; i < refs.size();) {
    std::size_t j = i + 1;
    bool shared = false;
    while (j < refs.size() && refs[j].file == refs[i].file &&
           refs[j].offset == refs[i].offset) {
      shared = shared || refs[j].row != refs[i].row;
      ++j;
    }
    const double* first = scanned.data() + refs[i].row * width;
    std::size_t row;
    if (!shared && kept[refs[i].row] != kNoRow) {
      row = kept[refs[i].row];
    } else {
      row = zm.num_rows();
      zm.bounds_.insert(zm.bounds_.end(), first, first + width);
      double* hull = zm.bounds_.data() + row * width;
      for (std::size_t k = i + 1; k < j; ++k) {
        const double* b = scanned.data() + refs[k].row * width;
        for (std::size_t c = 0; c < width; c += 2) {
          hull[c] = std::min(hull[c], b[c]);
          hull[c + 1] = std::max(hull[c + 1], b[c + 1]);
        }
      }
      if (!shared) kept[refs[i].row] = row;
    }
    if (zm.files_.empty() || zm.files_.back().path != *paths[refs[i].file])
      zm.files_.push_back({*paths[refs[i].file], zm.offsets_.size(),
                           zm.offsets_.size()});
    zm.offsets_.push_back(refs[i].offset);
    zm.rows_.push_back(row);
    zm.files_.back().end = zm.offsets_.size();
    i = j;
  }
  zm.num_chunks_ = zm.offsets_.size();
  zm.files_total_ = plan.model().files().size();
  zm.build_seconds_ = sw.elapsed_seconds();
  return zm;
}

// Sidecar layout (8-byte words in host byte order: u64 / i64 / f64):
//
//   "ADVZM3\0\0"
//   nattrs nfiles nrows nchunks dataset_len
//   nattrs  x {attr index, name length}
//   nfiles  x {size, mtime_ns, chunk count, path length}   (path order)
//   nrows   x nattrs x {min, max}
//   nchunks x {offset, row}          (file-major, ascending offsets)
//   dataset name, attribute names, file paths
//   checksum of everything above
//   "ADVZMEND"
void ZoneMap::save(const std::string& dir,
                   const codegen::DataServicePlan& plan) const {
  const meta::Schema& schema = plan.schema();
  const std::string& dataset = plan.model().dataset_name();
  std::string out(kMagic, sizeof kMagic);
  std::string strings = dataset;
  for (uint64_t v : {attrs_.size(), files_.size(), num_rows(), num_chunks_,
                     dataset.size()})
    put(out, v);
  for (int a : attrs_) {
    const std::string& name = schema.at(static_cast<std::size_t>(a)).name;
    put(out, static_cast<uint64_t>(a));
    put(out, name.size());
    strings += name;
  }
  for (const File& f : files_) {
    const FileHandle::FileId id = FileHandle::stat_id(f.path);
    put(out, id.size);
    put(out, static_cast<uint64_t>(id.mtime_ns));
    put(out, f.end - f.begin);
    put(out, f.path.size());
    strings += f.path;
  }
  for (double b : bounds_) put(out, std::bit_cast<uint64_t>(b));
  for (const File& f : files_)
    for (std::size_t c = f.begin; c < f.end; ++c) {
      put(out, offsets_[c]);
      put(out, rows_[c]);
    }
  out += strings;
  put(out, checksum(out.data(), out.size()));
  out.append(kEndMarker, sizeof kEndMarker);

  // Write under a temporary name, then rename: a crash mid-save leaves the
  // previous sidecar (or none), never a half-written one under the real
  // name.
  std::filesystem::create_directories(dir);
  const std::string path = sidecar_path(dir, dataset);
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  BufferedWriter w(tmp);
  w.write(out.data(), out.size());
  w.close();
  std::filesystem::rename(tmp, path);
}

std::optional<ZoneMap> ZoneMap::load(const std::string& dir,
                                     const codegen::DataServicePlan& plan) {
  const meta::Schema& schema = plan.schema();
  const std::string path = sidecar_path(dir, plan.model().dataset_name());
  if (!file_exists(path)) return std::nullopt;
  std::string bytes;
  try {
    // Injected sidecar-load failure: mapped to nullopt below, i.e. the same
    // conservative "no zone map, full scan" a real corrupt sidecar
    // produces.  Wrong rows are never an option.
    faultz::maybe_throw_io(faultz::Site::kZonemapLoad,
                           "zone-map sidecar load failed");
    bytes = read_text_file(path);
  } catch (const Error&) {
    return std::nullopt;
  }

  // Framing and checksum before anything is decoded: a flipped byte would
  // otherwise parse into plausible but wrong bounds and prune chunks that
  // actually match.  A truncated file loses its end marker.
  constexpr std::size_t kTrailer = 8 + sizeof kEndMarker;
  if (bytes.size() < sizeof kMagic + kTrailer ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0 ||
      std::memcmp(bytes.data() + bytes.size() - sizeof kEndMarker,
                  kEndMarker, sizeof kEndMarker) != 0)
    return std::nullopt;
  const std::size_t body = bytes.size() - kTrailer;
  if (word(bytes.data() + body, 0) != checksum(bytes.data(), body))
    return std::nullopt;

  Cursor in(bytes.data() + sizeof kMagic, body - sizeof kMagic);
  const char* header = in.take(kHeaderWords, 8);
  if (!header) return std::nullopt;
  const uint64_t nattrs = word(header, 0), nfiles = word(header, 1),
                 nrows = word(header, 2), nchunks = word(header, 3);
  const char* attr_table = in.take(nattrs, 16);
  const char* file_table = in.take(nfiles, 32);
  const char* bounds = nattrs ? in.take(nrows, nattrs * 16) : nullptr;
  const char* chunk_table = in.take(nchunks, 16);
  std::string_view name;
  if (!attr_table || !file_table || !bounds || !chunk_table ||
      !in.str(word(header, 4), name) || name != plan.model().dataset_name())
    return std::nullopt;

  ZoneMap zm;
  for (uint64_t i = 0; i < nattrs; ++i) {
    // A rename or reorder of the schema invalidates the whole sidecar.
    const uint64_t a = word(attr_table, 2 * i);
    if (!in.str(word(attr_table, 2 * i + 1), name) || a >= schema.size() ||
        schema.at(a).name != name)
      return std::nullopt;
    zm.attrs_.push_back(static_cast<int>(a));
  }
  zm.bounds_.resize(nrows * nattrs * 2);
  std::memcpy(zm.bounds_.data(), bounds, zm.bounds_.size() * sizeof(double));
  zm.offsets_.resize(nchunks);
  zm.rows_.resize(nchunks);
  for (uint64_t c = 0; c < nchunks; ++c) {
    zm.offsets_[c] = word(chunk_table, 2 * c);
    zm.rows_[c] = word(chunk_table, 2 * c + 1);
    if (zm.rows_[c] >= nrows) return std::nullopt;
  }

  std::size_t next_chunk = 0;
  std::string_view prev;
  for (uint64_t f = 0; f < nfiles; ++f) {
    const uint64_t count = word(file_table, 4 * f + 2);
    std::string_view p;
    if (!in.str(word(file_table, 4 * f + 3), p) || (f > 0 && p <= prev) ||
        count > nchunks - next_chunk)
      return std::nullopt;
    prev = p;
    File file{std::string(p), next_chunk, next_chunk + count};
    next_chunk = file.end;
    for (std::size_t c = file.begin + 1; c < file.end; ++c)
      if (zm.offsets_[c] <= zm.offsets_[c - 1]) return std::nullopt;

    // Rewritten or deleted since the save: drop its entries so the planner
    // full-scans this file instead of trusting stale bounds.
    zm.files_total_++;
    bool fresh = false;
    try {
      const FileHandle::FileId id = FileHandle::stat_id(file.path);
      fresh = id.size == word(file_table, 4 * f) &&
              static_cast<uint64_t>(id.mtime_ns) == word(file_table, 4 * f + 1);
    } catch (const IoError&) {
    }
    if (!fresh) {
      zm.files_stale_++;
      continue;
    }
    zm.num_chunks_ += count;
    zm.files_.push_back(std::move(file));
  }
  if (next_chunk != nchunks || in.left() != 0) return std::nullopt;
  return zm;
}

bool ZoneMap::constrains(const expr::QueryIntervals& qi) const {
  for (int a : attrs_)
    if (qi.bounds(static_cast<std::size_t>(a))) return true;
  return false;
}

uint32_t ZoneMap::resolve(const std::string& file_path) const {
  auto it = std::lower_bound(
      files_.begin(), files_.end(), file_path,
      [](const File& f, const std::string& p) { return f.path < p; });
  if (it == files_.end() || it->path != file_path) return kNoFile;
  return static_cast<uint32_t>(it - files_.begin());
}

std::size_t ZoneMap::row_of(uint32_t file, uint64_t offset) const {
  if (file >= files_.size()) return kNoRow;
  const File& f = files_[file];
  auto first = offsets_.begin() + static_cast<std::ptrdiff_t>(f.begin);
  auto last = offsets_.begin() + static_cast<std::ptrdiff_t>(f.end);
  auto it = std::lower_bound(first, last, offset);
  if (it == last || *it != offset) return kNoRow;
  return rows_[static_cast<std::size_t>(it - offsets_.begin())];
}

const double* ZoneMap::find(const std::string& file_path,
                            uint64_t offset) const {
  const std::size_t row = row_of(resolve(file_path), offset);
  return row == kNoRow ? nullptr : row_bounds(row);
}

void ZoneMap::for_each_chunk(
    const std::function<void(const std::string&, uint64_t, const double*)>&
        fn) const {
  for (const File& f : files_)
    for (std::size_t c = f.begin; c < f.end; ++c)
      fn(f.path, offsets_[c], row_bounds(rows_[c]));
}

bool ZoneMap::may_match(uint32_t file, uint64_t offset,
                        const expr::QueryIntervals& qi) const {
  const std::size_t row = row_of(file, offset);
  if (row == kNoRow) return true;  // unindexed (or stale) chunk
  const double* b = row_bounds(row);
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    if (!qi.chunk_may_match(static_cast<std::size_t>(attrs_[i]), b[2 * i],
                            b[2 * i + 1]))
      return false;
  }
  return true;
}

bool ZoneMap::chunk_bounds(const std::string& file_path, uint64_t offset,
                           std::vector<std::pair<double, double>>& out)
    const {
  const double* b = find(file_path, offset);
  if (!b) return false;
  out.resize(attrs_.size());
  for (std::size_t i = 0; i < attrs_.size(); ++i)
    out[i] = {b[2 * i], b[2 * i + 1]};
  return true;
}

}  // namespace adv::zonemap
