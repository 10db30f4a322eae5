#include "index/spatial_filter.h"

#include <limits>

namespace adv::index {

RTreeFilter::RTreeFilter(const zonemap::ZoneMap& zm, std::size_t fanout)
    : zm_(zm) {
  const std::size_t dims = zm.attrs().size();
  std::vector<RTree::Entry> entries(zm.num_rows());
  for (std::size_t row = 0; row < entries.size(); ++row) {
    const double* b = zm.row_bounds(row);
    Box& box = entries[row].box;
    for (std::size_t d = 0; d < dims; ++d) {
      box.lo.push_back(b[2 * d]);
      box.hi.push_back(b[2 * d + 1]);
    }
    entries[row].payload = row;
  }
  tree_ = RTree::build(std::move(entries), dims, fanout);
}

Box RTreeFilter::query_box(const expr::QueryIntervals& qi) const {
  std::vector<double> lo, hi;
  for (int attr : zm_.attrs()) {
    const expr::Interval& iv = qi.interval(static_cast<std::size_t>(attr));
    lo.push_back(std::isfinite(iv.lo) ? iv.lo
                                      : -std::numeric_limits<double>::max());
    hi.push_back(std::isfinite(iv.hi) ? iv.hi
                                      : std::numeric_limits<double>::max());
  }
  return Box(std::move(lo), std::move(hi));
}

bool RTreeFilter::may_match(uint32_t file, uint64_t offset,
                            const expr::QueryIntervals& qi) const {
  const std::size_t row = zm_.row_of(file, offset);
  if (row == zonemap::ZoneMap::kNoRow) return true;  // unindexed chunk
  if (cached_qi_ != &qi) {
    cached_qi_ = &qi;
    hits_.assign(zm_.num_rows(), false);
    std::vector<uint64_t> found;
    tree_.query(query_box(qi), found);
    for (uint64_t f : found) hits_[f] = true;
  }
  return hits_[row];
}

}  // namespace adv::index
