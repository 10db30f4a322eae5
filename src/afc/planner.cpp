#include "afc/planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <unordered_set>

#include "common/error.h"

namespace adv::afc {

namespace {

// Where one needed attribute comes from.
struct AttrSource {
  enum class Kind : uint8_t { kStored, kBinding, kLoop };
  Kind kind = Kind::kStored;
  int leaf = -1;
  int region = -1;  // kStored only
};

// Chooses a source for every needed attribute and derives the participating
// (leaf, region) set.  Deterministic: first leaf / region / field wins.
struct SourcePlan {
  std::map<int, AttrSource> sources;                 // attr -> source
  std::vector<int> leaves;                           // participating leaves
  std::vector<std::vector<int>> regions_per_leaf;    // parallel to leaves
};

SourcePlan choose_sources(const DatasetModel& model,
                          const expr::BoundQuery& q) {
  SourcePlan sp;
  const auto& leaves = model.leaves();

  // A query that references no attribute (SELECT COUNT(*)) counts the rows
  // of SELECT *, so it is planned from the sources SELECT * would use.
  std::vector<int> attrs = q.needed_attrs();
  if (attrs.empty())
    for (std::size_t a = 0; a < model.schema().size(); ++a)
      attrs.push_back(static_cast<int>(a));
  for (int attr : attrs) {
    const std::string& name =
        model.schema().at(static_cast<std::size_t>(attr)).name;
    AttrSource src;
    bool found = false;
    // Stored fields first.
    for (std::size_t l = 0; !found && l < leaves.size(); ++l) {
      for (std::size_t r = 0; !found && r < leaves[l].skeleton.size(); ++r) {
        if (leaves[l].skeleton[r].find_field(name)) {
          src = {AttrSource::Kind::kStored, static_cast<int>(l),
                 static_cast<int>(r)};
          found = true;
        }
      }
    }
    // File-name bindings.
    for (std::size_t l = 0; !found && l < leaves.size(); ++l) {
      const auto& b = leaves[l].binding_attrs;
      if (std::find(b.begin(), b.end(), attr) != b.end()) {
        src = {AttrSource::Kind::kBinding, static_cast<int>(l), -1};
        found = true;
      }
    }
    // Loop identifiers (structure or record loops).
    for (std::size_t l = 0; !found && l < leaves.size(); ++l) {
      for (const auto& reg : leaves[l].skeleton) {
        if (reg.record_ident == name) {
          src = {AttrSource::Kind::kLoop, static_cast<int>(l), -1};
          found = true;
          break;
        }
        for (const auto& pl : reg.path) {
          if (pl.ident == name) {
            src = {AttrSource::Kind::kLoop, static_cast<int>(l), -1};
            found = true;
            break;
          }
        }
        if (found) break;
      }
    }
    if (!found)
      throw QueryError("attribute '" + name +
                       "' is neither stored in any file nor derivable from "
                       "the layout of dataset '" + model.dataset_name() + "'");
    sp.sources[attr] = src;
  }

  // Participating leaves in ascending order, with their chosen regions.
  std::map<int, std::set<int>> leaf_regions;
  for (const auto& [attr, src] : sp.sources) {
    auto& regs = leaf_regions[src.leaf];  // creates the leaf entry
    if (src.kind == AttrSource::Kind::kStored) regs.insert(src.region);
  }
  for (auto& [leaf, regs] : leaf_regions) {
    if (regs.empty()) regs.insert(0);  // implicit-only leaf: representative
    sp.leaves.push_back(leaf);
    sp.regions_per_leaf.emplace_back(regs.begin(), regs.end());
  }
  return sp;
}

// File-level implicit-attribute match (Find_File_Groups step 1).
bool file_matches(const ConcreteFile& f, const expr::QueryIntervals& qi) {
  for (const auto& [attr, v] : f.implicit_points)
    if (!qi.value_may_match(static_cast<std::size_t>(attr), v)) return false;
  for (const auto& sp : f.implicit_spans)
    if (!qi.chunk_may_match(static_cast<std::size_t>(sp.attr), sp.lo, sp.hi))
      return false;
  return true;
}

class GroupBuilder {
 public:
  GroupBuilder(const DatasetModel& model, const expr::BoundQuery& q,
               const PlannerOptions& opts, const SourcePlan& sp,
               PlanResult& out)
      : model_(model), q_(q), opts_(opts), sp_(sp), out_(out),
        filter_(opts.filter && opts.filter->constrains(q.intervals())
                    ? opts.filter
                    : nullptr) {}

  // Builds the GroupPlan for a combination that already passed the
  // incremental consistency checks (implicit points and record alignment),
  // then enumerates its AFCs.  Can still reject when shared enumerated
  // loops have incompatible phases.
  void try_group(const std::vector<const ConcreteFile*>& combo,
                 const std::map<int, double>& const_implicits) {
    struct PickedRegion {
      const ConcreteFile* file;
      const layout::Region* region;
    };
    std::vector<PickedRegion> regions;
    for (std::size_t i = 0; i < combo.size(); ++i) {
      for (int rid : sp_.regions_per_leaf[i]) {
        if (static_cast<std::size_t>(rid) >= combo[i]->regions.size())
          throw InternalError("region ordinal out of range");
        regions.push_back({combo[i], &combo[i]->regions[rid]});
      }
    }
    const layout::Region* first = regions.front().region;

    // (c) Merge enumerated loops by identifier.
    GroupPlan gp;
    gp.row_ident = first->record_ident;
    gp.row_range = first->record_range;
    gp.row_attr = model_.schema().find(gp.row_ident);
    for (const auto& pr : regions) {
      for (const auto& pl : pr.region->path) {
        auto it = std::find_if(gp.loops.begin(), gp.loops.end(),
                               [&](const EnumLoop& e) {
                                 return e.ident == pl.ident;
                               });
        if (it == gp.loops.end()) {
          EnumLoop e;
          e.ident = pl.ident;
          e.attr = model_.schema().find(pl.ident);
          e.range = pl.range;
          gp.loops.push_back(std::move(e));
        } else {
          // Shared loop: same phase required; span is the intersection.
          if (it->range.lo != pl.range.lo || it->range.step != pl.range.step)
            return;
          it->range.hi = std::min(it->range.hi, pl.range.hi);
        }
      }
    }

    // (d) Chunk plans.
    for (const auto& pr : regions) {
      ChunkPlan cp;
      auto fit = std::find(gp.files.begin(), gp.files.end(),
                           pr.file->full_path);
      if (fit == gp.files.end()) {
        cp.file = static_cast<int>(gp.files.size());
        gp.files.push_back(pr.file->full_path);
      } else {
        cp.file = static_cast<int>(fit - gp.files.begin());
      }
      cp.base_offset = pr.region->base_offset;
      cp.bytes_per_row = pr.region->record_bytes;
      cp.loop_strides.assign(gp.loops.size(), 0);
      for (std::size_t k = 0; k < gp.loops.size(); ++k) {
        for (const auto& pl : pr.region->path)
          if (pl.ident == gp.loops[k].ident) cp.loop_strides[k] = pl.stride;
      }
      for (const auto& f : pr.region->fields) {
        int attr = model_.schema().find(f.attr);
        if (attr < 0) continue;  // local (non-schema) attribute
        cp.fields.push_back({attr, f.type, f.intra_offset});
      }
      gp.chunks.push_back(std::move(cp));
    }

    gp.node_id = combo.front()->node_id;
    for (const auto& [attr, v] : const_implicits)
      gp.const_implicits.emplace_back(attr, v);

    // The chunk filter's handle per group file, resolved once per group.
    file_ids_.clear();
    if (filter_)
      for (const std::string& path : gp.files)
        file_ids_.push_back(filter_->resolve(path));

    out_.stats.groups_formed++;
    int group_id = static_cast<int>(out_.groups.size());
    out_.groups.push_back(std::move(gp));
    enumerate_afcs(group_id);
  }

 private:
  // Iterates the enumerated loops of `group_id`, pruning by query
  // intervals, and emits AFCs.  Whatever interval clipping and IN-hole
  // checks exclude never reaches emit(); the difference against the full
  // enumeration is charged to rows_pruned/bytes_skipped so plan-time
  // implicit-dimension pruning is visible even without a zone map.
  void enumerate_afcs(int group_id) {
    const GroupPlan& gp = out_.groups[group_id];
    uint64_t full_rows =
        static_cast<uint64_t>(std::max<int64_t>(gp.row_range.count(), 0));
    for (const EnumLoop& l : gp.loops)
      full_rows *= static_cast<uint64_t>(std::max<int64_t>(l.range.count(), 0));
    visited_rows_ = 0;
    enumerate_clipped(group_id);
    if (full_rows > visited_rows_) {
      const uint64_t pruned = full_rows - visited_rows_;
      out_.stats.rows_pruned += pruned;
      out_.stats.bytes_skipped += pruned * gp.bytes_per_full_row();
    }
  }

  void enumerate_clipped(int group_id) {
    const GroupPlan& gp = out_.groups[group_id];
    const expr::QueryIntervals& qi = q_.intervals();

    // Row clipping: when the record ident names a constrained attribute,
    // restrict the record index window once per group.
    int64_t row_first_idx = 0;
    int64_t row_last_idx = gp.row_range.count() - 1;
    if (row_last_idx < 0) return;
    int64_t row_first_value = gp.row_range.lo;
    if (gp.row_attr >= 0 && opts_.prune_loops) {
      const expr::Interval& iv =
          qi.interval(static_cast<std::size_t>(gp.row_attr));
      if (!iv.is_all()) {
        // First index with value >= iv.lo, last with value <= iv.hi.
        if (std::isfinite(iv.lo) &&
            iv.lo > static_cast<double>(gp.row_range.lo)) {
          row_first_idx = static_cast<int64_t>(
              std::ceil((iv.lo - static_cast<double>(gp.row_range.lo)) /
                        static_cast<double>(gp.row_range.step)));
        }
        if (std::isfinite(iv.hi) &&
            iv.hi < static_cast<double>(gp.row_range.hi)) {
          row_last_idx = static_cast<int64_t>(
              std::floor((iv.hi - static_cast<double>(gp.row_range.lo)) /
                         static_cast<double>(gp.row_range.step)));
        }
        if (row_first_idx > row_last_idx) return;  // empty row window
        row_first_value = gp.row_range.lo + row_first_idx * gp.row_range.step;
      }
    }
    uint64_t num_rows =
        static_cast<uint64_t>(row_last_idx - row_first_idx + 1);

    std::vector<int64_t> values(gp.loops.size());
    std::vector<uint64_t> idx(gp.loops.size());
    recurse(group_id, 0, values, idx, num_rows,
            static_cast<uint64_t>(row_first_idx), row_first_value);
  }

  void recurse(int group_id, std::size_t k, std::vector<int64_t>& values,
               std::vector<uint64_t>& idx, uint64_t num_rows,
               uint64_t row_first_idx, int64_t row_first_value) {
    const GroupPlan& gp = out_.groups[group_id];
    if (k == gp.loops.size()) {
      emit(group_id, values, idx, num_rows, row_first_idx, row_first_value);
      return;
    }
    const EnumLoop& loop = gp.loops[k];
    const expr::QueryIntervals& qi = q_.intervals();

    int64_t lo = loop.range.lo, hi = loop.range.hi, step = loop.range.step;
    if (loop.attr >= 0 && opts_.prune_loops) {
      const expr::Interval& iv =
          qi.interval(static_cast<std::size_t>(loop.attr));
      if (std::isfinite(iv.lo) && iv.lo > static_cast<double>(lo)) {
        int64_t skip = static_cast<int64_t>(
            std::ceil((iv.lo - static_cast<double>(lo)) /
                      static_cast<double>(step)));
        lo += skip * step;
      }
      if (std::isfinite(iv.hi) && iv.hi < static_cast<double>(hi)) {
        hi = loop.range.lo +
             static_cast<int64_t>(
                 std::floor((iv.hi - static_cast<double>(loop.range.lo)) /
                            static_cast<double>(step))) *
                 step;
      }
    }
    for (int64_t v = lo; v <= hi; v += step) {
      if (loop.attr >= 0 && opts_.prune_loops &&
          !qi.value_may_match(static_cast<std::size_t>(loop.attr),
                              static_cast<double>(v)))
        continue;  // e.g. an IN-set with holes
      values[k] = v;
      idx[k] = static_cast<uint64_t>((v - loop.range.lo) / step);
      recurse(group_id, k + 1, values, idx, num_rows, row_first_idx,
              row_first_value);
    }
  }

  void emit(int group_id, const std::vector<int64_t>& values,
            const std::vector<uint64_t>& idx, uint64_t num_rows,
            uint64_t row_first_idx, int64_t row_first_value) {
    // Per considered AFC: the finest-grained planning poll, so a
    // cancelled query leaves the index function within one emission even
    // on plans enumerating millions of chunk sets.
    if (opts_.cancel) opts_.cancel->check();
    const GroupPlan& gp = out_.groups[group_id];
    out_.stats.afcs_considered++;
    visited_rows_ += num_rows;

    Afc a;
    a.group = group_id;
    a.num_rows = num_rows;
    a.loop_values = values;
    a.row_first = row_first_value;
    a.offsets.reserve(gp.chunks.size());
    for (const auto& c : gp.chunks) {
      uint64_t off = c.base_offset;
      for (std::size_t k = 0; k < idx.size(); ++k)
        off += idx[k] * c.loop_strides[k];
      off += row_first_idx * c.bytes_per_row;
      a.offsets.push_back(off);
    }

    if (filter_) {
      for (std::size_t ci = 0; ci < gp.chunks.size(); ++ci) {
        if (gp.chunks[ci].fields.empty()) continue;
        const uint32_t file =
            file_ids_[static_cast<std::size_t>(gp.chunks[ci].file)];
        if (file == ChunkFilter::kNoFile) continue;
        if (!filter_->may_match(file, a.offsets[ci], q_.intervals())) {
          out_.stats.afcs_filtered_by_index++;
          out_.stats.rows_pruned += num_rows;
          out_.stats.bytes_skipped += num_rows * gp.bytes_per_full_row();
          return;
        }
      }
    }

    out_.stats.afcs_emitted++;
    out_.afcs.push_back(std::move(a));
  }

  const DatasetModel& model_;
  const expr::BoundQuery& q_;
  const PlannerOptions& opts_;
  const SourcePlan& sp_;
  PlanResult& out_;
  // opts_.filter when the query bounds an attribute it covers, else null.
  const ChunkFilter* filter_;
  std::vector<uint32_t> file_ids_;  // per file of the current group
  // Rows reaching emit() for the group currently being enumerated
  // (scheduled or index-filtered); the remainder was plan-pruned.
  uint64_t visited_rows_ = 0;
};

}  // namespace

uint64_t PlanResult::bytes_to_read() const {
  uint64_t total = 0;
  for (const auto& a : afcs)
    total += a.num_rows * groups[static_cast<std::size_t>(a.group)]
                              .bytes_per_full_row();
  return total;
}

uint64_t PlanResult::candidate_rows() const {
  uint64_t total = 0;
  for (const auto& a : afcs) total += a.num_rows;
  return total;
}

PlanResult plan_afcs(const DatasetModel& model, const expr::BoundQuery& q,
                     const PlannerOptions& opts) {
  PlanResult out;
  if (q.intervals().contradictory()) return out;

  SourcePlan sp = choose_sources(model, q);

  // Find_File_Groups step 1: files matching the query per participating
  // leaf.
  std::vector<std::vector<const ConcreteFile*>> matching(sp.leaves.size());
  for (std::size_t i = 0; i < sp.leaves.size(); ++i) {
    for (int fid : model.files_of_leaf(sp.leaves[i])) {
      const ConcreteFile& f = model.files()[static_cast<std::size_t>(fid)];
      out.stats.files_total++;
      if (opts.only_node >= 0 && f.node_id != opts.only_node) continue;
      if (opts.prune_files && !file_matches(f, q.intervals())) continue;
      out.stats.files_matched++;
      matching[i].push_back(&f);
    }
    if (matching[i].empty()) return out;  // no data for this leaf
  }

  // Cartesian product over participating leaves with incremental pruning:
  // a branch dies as soon as a file's implicit point attributes contradict
  // the partial combination or its participating regions cannot align with
  // the established record loop.  This keeps the walk linear in practice
  // even for layouts with many vertically-partitioned leaves (the paper's
  // L0 has 18).
  struct Partial {
    std::map<int, double> implicits;
    bool have_record = false;
    std::string record_ident;
    layout::EvalRange record_range;
  };

  GroupBuilder gb(model, q, opts, sp, out);
  std::vector<const ConcreteFile*> combo(sp.leaves.size());

  // Extends `p` with file `f` at leaf position `i`; false on conflict.
  auto extend = [&](Partial& p, std::size_t i, const ConcreteFile* f) {
    for (const auto& [attr, v] : f->implicit_points) {
      auto it = p.implicits.find(attr);
      if (it == p.implicits.end()) {
        p.implicits[attr] = v;
      } else if (it->second != v) {
        return false;
      }
    }
    for (int rid : sp.regions_per_leaf[i]) {
      const layout::Region& reg =
          f->regions[static_cast<std::size_t>(rid)];
      if (!p.have_record) {
        p.have_record = true;
        p.record_ident = reg.record_ident;
        p.record_range = reg.record_range;
      } else if (reg.record_ident != p.record_ident ||
                 !(reg.record_range == p.record_range)) {
        return false;
      }
    }
    return true;
  };

  std::function<void(std::size_t, const Partial&)> rec =
      [&](std::size_t i, const Partial& partial) {
        const bool last = (i == sp.leaves.size() - 1);
        for (const ConcreteFile* f : matching[i]) {
          if (opts.cancel) opts.cancel->check();
          if (last) out.stats.groups_considered++;
          Partial p = partial;
          if (!extend(p, i, f)) continue;
          combo[i] = f;
          if (last) {
            gb.try_group(combo, p.implicits);
          } else {
            rec(i + 1, p);
          }
        }
      };
  rec(0, Partial{});
  return out;
}

std::vector<uint32_t> plan_footprint(const DatasetModel& model,
                                     const std::vector<PlanResult>& plans) {
  std::unordered_set<std::string_view> named;
  for (const PlanResult& p : plans)
    for (const GroupPlan& g : p.groups)
      named.insert(g.files.begin(), g.files.end());
  std::vector<uint32_t> out;
  const std::vector<ConcreteFile>& files = model.files();
  for (std::size_t i = 0; i < files.size(); ++i)
    if (named.count(files[i].full_path) != 0)
      out.push_back(static_cast<uint32_t>(i));
  return out;
}

}  // namespace adv::afc
