#include "layout/region.h"

#include "common/error.h"

namespace adv::layout {

namespace {

DataType type_of(const std::string& attr, const meta::Schema& schema,
                 const std::vector<meta::Attribute>& local_attrs) {
  int idx = schema.find(attr);
  if (idx >= 0) return schema.at(static_cast<std::size_t>(idx)).type;
  for (const auto& a : local_attrs)
    if (a.name == attr) return a.type;
  throw ValidationError("layout references unknown attribute '" + attr + "'");
}

EvalRange eval_range(const meta::LoopRange& r, const meta::VarEnv& env) {
  EvalRange out;
  out.lo = r.lo->eval(env);
  out.hi = r.hi->eval(env);
  out.step = r.step ? r.step->eval(env) : 1;
  if (out.step <= 0)
    throw ValidationError("loop step must be positive (got " +
                          std::to_string(out.step) + ")");
  return out;
}

struct Walker {
  const meta::Schema& schema;
  const std::vector<meta::Attribute>& local_attrs;
  const meta::VarEnv& env;
  std::vector<Region> regions;

  // Returns the byte size of `node` and appends regions found inside it.
  // `path` carries enclosing structure loops; `base` the running offset.
  uint64_t walk(const meta::LayoutNode& node, std::vector<PathLoop>& path,
                uint64_t base) {
    if (node.kind == meta::LayoutNode::Kind::kFields) {
      // A field run at structure level: per-chunk header/padding bytes
      // (validated to be file-local attributes).  Contributes size only.
      uint64_t bytes = 0;
      for (const auto& name : node.fields)
        bytes += size_of(type_of(name, schema, local_attrs));
      return bytes;
    }

    EvalRange range = eval_range(node.range, env);

    // Classify the loop body: a record loop holds fields only; any loop in
    // the body makes this a structure loop (whose naked field runs are
    // headers).
    bool has_fields = false, has_loops = false;
    for (const auto& item : node.body) {
      if (item.kind == meta::LayoutNode::Kind::kFields) has_fields = true;
      else has_loops = true;
    }
    if (has_loops) {
      if (node.colmajor)
        throw ValidationError("COLMAJOR loop '" + node.loop_ident +
                              "' contains nested loops");
      has_fields = false;
    }

    if (has_fields && node.colmajor) {
      // Column-major record loop: each field is stored as its own
      // contiguous array over the record span.  Lower to one region per
      // field — a single-field record of size_of(type) bytes whose base is
      // offset past the preceding arrays — so the planner, zone map, and
      // both kernel loops see ordinary aligned chunks (that happen to share
      // the record loop) and unread columns cost zero I/O.
      uint64_t span = static_cast<uint64_t>(range.count());
      uint64_t off = 0;
      for (const auto& item : node.body) {
        if (item.kind != meta::LayoutNode::Kind::kFields)
          throw ValidationError("loop '" + node.loop_ident +
                                "' mixes fields and loops");
        for (const auto& name : item.fields) {
          Region r;
          r.path = path;
          r.record_ident = node.loop_ident;
          r.record_range = range;
          r.base_offset = base + off;
          Field f;
          f.attr = name;
          f.type = type_of(name, schema, local_attrs);
          f.intra_offset = 0;
          r.record_bytes = static_cast<uint32_t>(size_of(f.type));
          off += span * size_of(f.type);
          r.fields.push_back(std::move(f));
          regions.push_back(std::move(r));
        }
      }
      return off;
    }

    if (has_fields) {
      // Record loop: body is field runs only.
      Region r;
      r.path = path;
      r.record_ident = node.loop_ident;
      r.record_range = range;
      r.base_offset = base;
      uint32_t off = 0;
      for (const auto& item : node.body) {
        if (item.kind != meta::LayoutNode::Kind::kFields)
          throw ValidationError("loop '" + node.loop_ident +
                                "' mixes fields and loops");
        for (const auto& name : item.fields) {
          Field f;
          f.attr = name;
          f.type = type_of(name, schema, local_attrs);
          f.intra_offset = off;
          off += static_cast<uint32_t>(size_of(f.type));
          r.fields.push_back(std::move(f));
        }
      }
      r.record_bytes = off;
      uint64_t total = r.chunk_bytes();
      regions.push_back(std::move(r));
      return total;
    }

    // Structure loop: first compute the body size (one iteration), then
    // record the regions inside with this loop on their path.
    // Walk children once, accumulating intra-iteration offsets.
    PathLoop pl;
    pl.ident = node.loop_ident;
    pl.range = range;
    pl.stride = 0;  // patched below once the body size is known

    path.push_back(pl);
    std::size_t first_region = regions.size();
    uint64_t body_bytes = 0;
    for (const auto& item : node.body)
      body_bytes += walk(item, path, base + body_bytes);
    path.pop_back();

    // Patch the stride of this loop in every region discovered inside it.
    std::size_t depth = path.size();
    for (std::size_t i = first_region; i < regions.size(); ++i)
      regions[i].path[depth].stride = body_bytes;

    return body_bytes * static_cast<uint64_t>(range.count());
  }
};

}  // namespace

const Field* Region::find_field(const std::string& attr) const {
  for (const auto& f : fields)
    if (f.attr == attr) return &f;
  return nullptr;
}

std::vector<Region> analyze_regions(
    const std::vector<meta::LayoutNode>& dataspace,
    const meta::Schema& schema,
    const std::vector<meta::Attribute>& local_attrs,
    const meta::VarEnv& env) {
  Walker w{schema, local_attrs, env, {}};
  std::vector<PathLoop> path;
  uint64_t base = 0;
  for (const auto& node : dataspace) base += w.walk(node, path, base);
  return std::move(w.regions);
}

uint64_t dataspace_bytes(const std::vector<meta::LayoutNode>& dataspace,
                         const meta::Schema& schema,
                         const std::vector<meta::Attribute>& local_attrs,
                         const meta::VarEnv& env) {
  Walker w{schema, local_attrs, env, {}};
  std::vector<PathLoop> path;
  uint64_t total = 0;
  for (const auto& node : dataspace) total += w.walk(node, path, total);
  return total;
}

}  // namespace adv::layout
