// Per-attribute interval analysis of WHERE clauses.
//
// The index function prunes aligned file chunks by intersecting each chunk's
// attribute ranges (implicit attributes from the layout, or min/max metadata
// from the chunk index) with the intervals implied by the query predicate.
// Intervals here are conservative over-approximations with closed bounds:
// pruning with them never drops a matching row because the full predicate is
// re-evaluated per row during extraction.
#pragma once

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace adv::expr {

struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  static Interval all() { return {}; }
  static Interval at_most(double v) { return {-std::numeric_limits<double>::infinity(), v}; }
  static Interval at_least(double v) { return {v, std::numeric_limits<double>::infinity()}; }
  static Interval point(double v) { return {v, v}; }
  static Interval closed(double lo, double hi) { return {lo, hi}; }

  bool is_empty() const { return lo > hi; }
  bool is_all() const { return std::isinf(lo) && lo < 0 && std::isinf(hi) && hi > 0; }
  bool contains(double v) const { return v >= lo && v <= hi; }
  bool overlaps(double other_lo, double other_hi) const {
    return !(other_hi < lo || other_lo > hi);
  }

  // Conjunction: tightest interval containing the intersection.
  Interval intersect(const Interval& o) const {
    return {lo > o.lo ? lo : o.lo, hi < o.hi ? hi : o.hi};
  }

  // Disjunction: convex hull (conservative).
  Interval hull(const Interval& o) const {
    if (is_empty()) return o;
    if (o.is_empty()) return *this;
    return {lo < o.lo ? lo : o.lo, hi > o.hi ? hi : o.hi};
  }

  std::string to_string() const;
};

// The intervals (and optional discrete IN-sets) a query implies for each
// attribute of a schema, indexed by schema attribute position.
class QueryIntervals {
 public:
  explicit QueryIntervals(std::size_t num_attrs)
      : intervals_(num_attrs), in_sets_(num_attrs) {}

  std::size_t size() const { return intervals_.size(); }

  const Interval& interval(std::size_t attr) const { return intervals_[attr]; }
  Interval& interval(std::size_t attr) { return intervals_[attr]; }

  // Sorted discrete membership set (from `attr IN (...)`), when known.
  const std::optional<std::vector<double>>& in_set(std::size_t attr) const {
    return in_sets_[attr];
  }
  void set_in_set(std::size_t attr, std::vector<double> sorted_values);

  // True when the query restricts `attr` at all (an interval narrower than
  // everything, or an IN-set).  When false, chunk_may_match(attr, ...) is
  // true for every chunk.
  bool bounds(std::size_t attr) const {
    return !intervals_[attr].is_all() || in_sets_[attr].has_value();
  }

  // True when a chunk whose `attr` spans [lo, hi] can contain matching rows.
  bool chunk_may_match(std::size_t attr, double lo, double hi) const;

  // True when a chunk with constant `attr == v` can contain matching rows.
  bool value_may_match(std::size_t attr, double v) const;

  // True when any attribute has an empty interval (the query matches
  // nothing).
  bool contradictory() const;

 private:
  std::vector<Interval> intervals_;
  std::vector<std::optional<std::vector<double>>> in_sets_;
};

}  // namespace adv::expr
