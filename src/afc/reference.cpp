#include "afc/reference.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "common/error.h"

namespace adv::afc::reference {

namespace {

// First-wins attribute sourcing (the system's semantics; shared with the
// optimized planner by specification, not by code).
struct Participation {
  std::vector<int> leaves;                         // ascending
  std::map<int, std::set<int>> regions_per_leaf;   // leaf -> region ordinals
};

Participation choose_participation(const DatasetModel& model,
                                   const expr::BoundQuery& q) {
  Participation out;
  std::map<int, std::set<int>> regions;
  for (int attr : q.needed_attrs()) {
    const std::string& name =
        model.schema().at(static_cast<std::size_t>(attr)).name;
    bool found = false;
    // Stored fields.
    for (std::size_t l = 0; !found && l < model.leaves().size(); ++l) {
      const auto& skel = model.leaves()[l].skeleton;
      for (std::size_t r = 0; !found && r < skel.size(); ++r) {
        if (skel[r].find_field(name)) {
          regions[static_cast<int>(l)].insert(static_cast<int>(r));
          found = true;
        }
      }
    }
    // File-name bindings.
    for (std::size_t l = 0; !found && l < model.leaves().size(); ++l) {
      const auto& b = model.leaves()[l].binding_attrs;
      if (std::find(b.begin(), b.end(), attr) != b.end()) {
        regions[static_cast<int>(l)];  // participates, no stored region
        found = true;
      }
    }
    // Loop identifiers.
    for (std::size_t l = 0; !found && l < model.leaves().size(); ++l) {
      for (const auto& reg : model.leaves()[l].skeleton) {
        bool here = reg.record_ident == name;
        for (const auto& pl : reg.path) here = here || pl.ident == name;
        if (here) {
          regions[static_cast<int>(l)];
          found = true;
          break;
        }
      }
    }
    if (!found)
      throw QueryError("reference planner: attribute '" + name +
                       "' has no source");
  }
  for (auto& [leaf, regs] : regions) {
    if (regs.empty()) regs.insert(0);
    out.leaves.push_back(leaf);
  }
  out.regions_per_leaf = std::move(regions);
  return out;
}

bool file_matches_query(const ConcreteFile& f,
                        const expr::QueryIntervals& qi) {
  for (const auto& [attr, v] : f.implicit_points)
    if (!qi.value_may_match(static_cast<std::size_t>(attr), v)) return false;
  for (const auto& sp : f.implicit_spans)
    if (!qi.chunk_may_match(static_cast<std::size_t>(sp.attr), sp.lo, sp.hi))
      return false;
  return true;
}

}  // namespace

std::vector<FlatAfc> plan_reference(const DatasetModel& model,
                                    const expr::BoundQuery& q,
                                    const ChunkFilter* filter) {
  std::vector<FlatAfc> out;
  const expr::QueryIntervals& qi = q.intervals();
  if (qi.contradictory()) return out;
  // A query bounding none of the indexed attributes cannot be pruned.
  if (filter && !filter->constrains(qi)) filter = nullptr;

  Participation part = choose_participation(model, q);

  // --- Find_File_Groups ----------------------------------------------------
  // "Let S be the set of files that match against the query."
  // "Classify files in S by the set of attributes they have": files of one
  // leaf store one attribute set, so the classes are the leaves.
  std::vector<std::vector<const ConcreteFile*>> classes;
  for (int leaf : part.leaves) {
    std::vector<const ConcreteFile*> cls;
    for (int fid : model.files_of_leaf(leaf)) {
      const ConcreteFile& f = model.files()[static_cast<std::size_t>(fid)];
      if (file_matches_query(f, qi)) cls.push_back(&f);
    }
    if (cls.empty()) return out;
    classes.push_back(std::move(cls));
  }

  // "foreach {s_1,...,s_m} — cartesian product between S_1,...,S_m."
  std::vector<const ConcreteFile*> combo(classes.size());
  std::vector<std::vector<const ConcreteFile*>> T;
  std::function<void(std::size_t)> product = [&](std::size_t i) {
    if (i == classes.size()) {
      // "If the values of implicit attributes are not inconsistent."
      std::map<int, double> implied;
      for (const ConcreteFile* f : combo)
        for (const auto& [attr, v] : f->implicit_points) {
          auto it = implied.find(attr);
          if (it != implied.end() && it->second != v) return;
          implied[attr] = v;
        }
      // Aligned layouts require one shared record loop across the
      // participating regions.
      const layout::Region* first = nullptr;
      for (std::size_t k = 0; k < combo.size(); ++k) {
        for (int rid : part.regions_per_leaf.at(part.leaves[k])) {
          const layout::Region& r =
              combo[k]->regions[static_cast<std::size_t>(rid)];
          if (!first) first = &r;
          else if (r.record_ident != first->record_ident ||
                   !(r.record_range == first->record_range))
            return;
        }
      }
      T.push_back(combo);
      return;
    }
    for (const ConcreteFile* f : classes[i]) {
      combo[i] = f;
      product(i + 1);
    }
  };
  product(0);

  // --- Process_File_Groups -------------------------------------------------
  for (const auto& group : T) {
    struct Picked {
      const ConcreteFile* file;
      const layout::Region* region;
    };
    std::vector<Picked> regions;
    for (std::size_t k = 0; k < group.size(); ++k)
      for (int rid : part.regions_per_leaf.at(part.leaves[k]))
        regions.push_back(
            {group[k], &group[k]->regions[static_cast<std::size_t>(rid)]});

    // Merge the outer (structure) loops by identifier.
    struct OuterLoop {
      std::string ident;
      int attr;
      layout::EvalRange range;
    };
    std::vector<OuterLoop> loops;
    bool alignable = true;
    for (const auto& pk : regions) {
      for (const auto& pl : pk.region->path) {
        auto it = std::find_if(loops.begin(), loops.end(),
                               [&](const OuterLoop& o) {
                                 return o.ident == pl.ident;
                               });
        if (it == loops.end()) {
          loops.push_back({pl.ident, model.schema().find(pl.ident),
                           pl.range});
        } else if (it->range.lo != pl.range.lo ||
                   it->range.step != pl.range.step) {
          alignable = false;
        } else {
          it->range.hi = std::min(it->range.hi, pl.range.hi);
        }
      }
    }
    if (!alignable) continue;

    // The index's handle per region file, resolved once per group.
    std::vector<uint32_t> file_ids(regions.size(), ChunkFilter::kNoFile);
    for (std::size_t k = 0; filter && k < regions.size(); ++k) {
      std::size_t same = 0;
      while (regions[same].file != regions[k].file) ++same;
      file_ids[k] = same < k ? file_ids[same]
                             : filter->resolve(regions[k].file->full_path);
    }

    // Record-loop window: first/last record value admitted by the query
    // interval of the record attribute (scan every value, the naive way).
    const layout::Region& rep = *regions.front().region;
    int record_attr = model.schema().find(rep.record_ident);
    int64_t first_idx = -1, last_idx = -1;
    int64_t count = rep.record_range.count();
    for (int64_t i = 0; i < count; ++i) {
      int64_t v = rep.record_range.lo + i * rep.record_range.step;
      bool ok = record_attr < 0 ||
                qi.interval(static_cast<std::size_t>(record_attr))
                    .contains(static_cast<double>(v));
      if (ok) {
        if (first_idx < 0) first_idx = i;
        last_idx = i;
      }
    }
    // The optimized planner clips to the convex interval only; a hole-free
    // window is guaranteed because intervals are convex.
    if (first_idx < 0) continue;
    uint64_t num_rows = static_cast<uint64_t>(last_idx - first_idx + 1);
    int64_t row_first =
        rep.record_range.lo + first_idx * rep.record_range.step;

    // Enumerate every combination of outer loop values, testing each value
    // against the query individually.
    std::vector<int64_t> values(loops.size());
    std::function<void(std::size_t)> enumerate = [&](std::size_t k) {
      if (k == loops.size()) {
        FlatAfc afc;
        afc.num_rows = num_rows;
        afc.row_first = row_first;
        for (const auto& pk : regions) {
          FlatChunk c;
          c.file = pk.file->full_path;
          c.bytes_per_row = pk.region->record_bytes;
          uint64_t off = pk.region->base_offset;
          for (std::size_t j = 0; j < loops.size(); ++j) {
            for (const auto& pl : pk.region->path) {
              if (pl.ident != loops[j].ident) continue;
              off += static_cast<uint64_t>(
                         (values[j] - loops[j].range.lo) /
                         loops[j].range.step) *
                     pl.stride;
            }
          }
          off += static_cast<uint64_t>(first_idx) * c.bytes_per_row;
          c.offset = off;
          afc.chunks.push_back(std::move(c));
        }
        // "Check against index."
        if (filter) {
          for (std::size_t ci = 0; ci < afc.chunks.size(); ++ci) {
            if (regions[ci].region->fields.empty() ||
                file_ids[ci] == ChunkFilter::kNoFile)
              continue;
            if (!filter->may_match(file_ids[ci], afc.chunks[ci].offset, qi))
              return;
          }
        }
        std::sort(afc.chunks.begin(), afc.chunks.end());
        out.push_back(std::move(afc));
        return;
      }
      const OuterLoop& L = loops[k];
      for (int64_t v = L.range.lo; v <= L.range.hi; v += L.range.step) {
        if (L.attr >= 0 &&
            !qi.value_may_match(static_cast<std::size_t>(L.attr),
                                static_cast<double>(v)))
          continue;
        values[k] = v;
        enumerate(k + 1);
      }
    };
    enumerate(0);
  }

  std::sort(out.begin(), out.end());
  return out;
}

std::vector<FlatAfc> flatten(const PlanResult& pr) {
  std::vector<FlatAfc> out;
  for (const Afc& a : pr.afcs) {
    const GroupPlan& gp = pr.groups[static_cast<std::size_t>(a.group)];
    FlatAfc f;
    f.num_rows = a.num_rows;
    f.row_first = a.row_first;
    for (std::size_t c = 0; c < gp.chunks.size(); ++c) {
      FlatChunk ch;
      ch.file = gp.files[static_cast<std::size_t>(gp.chunks[c].file)];
      ch.offset = a.offsets[c];
      ch.bytes_per_row = gp.chunks[c].bytes_per_row;
      f.chunks.push_back(std::move(ch));
    }
    std::sort(f.chunks.begin(), f.chunks.end());
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace adv::afc::reference
