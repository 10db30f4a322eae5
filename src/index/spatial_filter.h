// ChunkFilter backed by an R-tree over a zone map's bounds rows.
//
// Semantically identical to filtering with the ZoneMap directly, but the
// intersecting-row set is computed once per query with a tree walk instead
// of a bounds test per chunk.  Create one filter per query execution; the
// hit set is cached against the QueryIntervals instance it first sees.
#pragma once

#include <vector>

#include "index/rtree.h"
#include "zonemap/zonemap.h"

namespace adv::index {

class RTreeFilter : public afc::ChunkFilter {
 public:
  explicit RTreeFilter(const zonemap::ZoneMap& zm, std::size_t fanout = 16);

  bool constrains(const expr::QueryIntervals& qi) const override {
    return zm_.constrains(qi);
  }
  uint32_t resolve(const std::string& file_path) const override {
    return zm_.resolve(file_path);
  }
  bool may_match(uint32_t file, uint64_t offset,
                 const expr::QueryIntervals& qi) const override;

  const RTree& rtree() const { return tree_; }

  // The query box an interval set induces over the indexed attributes.
  Box query_box(const expr::QueryIntervals& qi) const;

 private:
  const zonemap::ZoneMap& zm_;
  RTree tree_;
  mutable const expr::QueryIntervals* cached_qi_ = nullptr;
  mutable std::vector<bool> hits_;  // per zone-map row
};

}  // namespace adv::index
