// Packed (STR bulk-loaded) R-tree over axis-aligned boxes.
//
// The indexing service uses it to answer "which chunks intersect this query
// box" in sublinear time when a dataset has many chunks; the ablation
// benchmark bench_ablation_index compares it against the zone map's
// per-chunk lookup.
#pragma once

#include <cstdint>
#include <vector>

namespace adv::index {

struct Box {
  std::vector<double> lo, hi;

  Box() = default;
  Box(std::vector<double> l, std::vector<double> h)
      : lo(std::move(l)), hi(std::move(h)) {}

  std::size_t dims() const { return lo.size(); }

  bool intersects(const Box& o) const {
    for (std::size_t d = 0; d < lo.size(); ++d)
      if (o.hi[d] < lo[d] || o.lo[d] > hi[d]) return false;
    return true;
  }

  // Grows to cover `o`.
  void extend(const Box& o);
};

class RTree {
 public:
  struct Entry {
    Box box;
    uint64_t payload = 0;
  };

  // Sort-Tile-Recursive bulk load.  `dims` must match every entry.
  static RTree build(std::vector<Entry> entries, std::size_t dims,
                     std::size_t fanout = 16);

  std::size_t size() const { return num_entries_; }
  int height() const { return height_; }

  // Payloads of all entries intersecting `q` (order unspecified).
  void query(const Box& q, std::vector<uint64_t>& out) const;

  // Number of nodes visited by the last query (diagnostics for the
  // ablation benchmark).  Not thread-safe across concurrent queries.
  std::size_t last_nodes_visited() const { return last_visited_; }

 private:
  struct Node {
    Box box;
    bool leaf = false;
    std::vector<uint32_t> children;  // node indices, or entry indices (leaf)
  };

  std::vector<Node> nodes_;
  std::vector<Entry> entries_;
  uint32_t root_ = 0;
  std::size_t num_entries_ = 0;
  int height_ = 0;
  mutable std::size_t last_visited_ = 0;
};

}  // namespace adv::index
