// Aggregation pushdown: GROUP BY / COUNT / SUM / MIN / MAX / AVG and
// ORDER BY ... LIMIT top-k evaluated inside the extraction workers.
//
// Instead of shipping matched rows, each worker folds rows into a local
// aggregation table (or a bounded top-k heap) as the kernels produce them;
// only the aggregate *state* leaves the worker.  States merge in two
// phases — per-node across workers, then across nodes at the client or
// DistCoordinator — and merging is exact (see exact_sum.h), so the final
// rows are byte-identical for every thread count, kernel tier, merge
// grouping, and replica failover.  docs/AGGREGATION.md has the full
// contract, including the strategy selection and wire format below.
//
// Strategy selection is adaptive, seeded by planner metadata: a single
// integer group key whose value hull (enum-loop ranges, const implicits,
// row ranges, zone-map chunk bounds, WHERE intervals) spans a small domain
// gets a flat dense array; unknown or midsize cardinality gets an open-
// addressing hash table that upgrades itself to 16 radix partitions past
// kRadixUpgradeGroups groups; a known-large hull starts radix-partitioned.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "afc/types.h"
#include "agg/exact_sum.h"
#include "codegen/extractor.h"
#include "expr/predicate.h"
#include "sql/ast.h"

namespace adv::agg {

// Canonicalizes a double for use as a group key or MIN/MAX candidate:
// -0.0 becomes +0.0 and every NaN becomes the canonical quiet NaN, so
// bitwise key equality and bitwise result comparison are well defined.
double canon(double v);

// Maps a double to a uint64 whose unsigned order is the IEEE total order
// (-NaN < -inf < ... < -0 < +0 < ... < +inf < +NaN).  Basis of every
// deterministic sort in this module.
uint64_t order_bits(double v);

// -------------------------------------------------------------------------
// Aggregate state

// The shape of a grouped aggregation: number of group-key columns and the
// aggregate function of each item, select-list order.  Two states merge
// only when their shapes match exactly.
struct AggShape {
  uint16_t nkeys = 0;
  std::vector<sql::AggFn> fns;

  std::size_t nitems() const { return fns.size(); }
  bool operator==(const AggShape& o) const {
    return nkeys == o.nkeys && fns == o.fns;
  }
};

// Mergeable state of one aggregate item for every group of a table,
// indexed by group id.  Each function keeps only the arrays it reads:
//
//   COUNT    count                 8 bytes per group
//   MIN/MAX  mm (canonical), seen  9 bytes per group
//   SUM      sum                   sizeof(ExactSum) per group
//   AVG      count, sum
//
// The other arrays stay empty.
struct ItemColumn {
  sql::AggFn fn;
  std::vector<uint64_t> count;
  std::vector<ExactSum> sum;
  std::vector<double> mm;
  std::vector<uint8_t> seen;

  explicit ItemColumn(sql::AggFn f) : fn(f) {}

  // Grows (new groups start empty) or shrinks to `ngroups`.
  void resize(std::size_t ngroups);
  // Empties group g.
  void clear(std::size_t g);
  // Merges group og of `o` into group g.
  void merge(std::size_t g, const ItemColumn& o, std::size_t og);
  // Merges a MIN/MAX state (seen, v) into group g.
  void merge_extreme(std::size_t g, bool o_seen, double v);
  // Throws QueryError when a COUNT/AVG count exceeds 2^53 (no longer
  // exactly representable in the double result column).
  double finalize(std::size_t g) const;
};

// -------------------------------------------------------------------------
// Strategy selection

enum class Strategy : uint8_t { kDense, kHash, kRadix };

const char* to_string(Strategy s);

// Dense array: at most this many (group, item) cells.
inline constexpr int64_t kDenseCellBudget = 4096;
// Hash tables repartition into kRadixParts once they pass this many groups.
inline constexpr uint64_t kRadixUpgradeGroups = 4096;
inline constexpr int kRadixParts = 16;

struct StrategyChoice {
  Strategy strategy = Strategy::kHash;
  // Valid when strategy == kDense: inclusive integer key domain.
  int64_t dense_lo = 0;
  int64_t dense_hi = -1;
  // Cardinality estimate that drove the choice; negative when unknown.
  double est_groups = -1;
};

// Estimates the group-key cardinality from planner metadata and picks the
// aggregation strategy.  `bounds` (the zone map) may be null.
StrategyChoice choose_strategy(const expr::BoundQuery& q,
                               const afc::PlanResult& plan,
                               const afc::ChunkBoundsSource* bounds);

// -------------------------------------------------------------------------
// Tables

// One logical aggregation table with a pluggable physical strategy.  Holds
// a worker's (or a merge target's) entire grouped-aggregate state.
//
// Every group has an id, and each item keeps its state in an ItemColumn
// indexed by that id.  kDense gives the key domain ids 0..width-1 (key -
// dense_lo); every other group is a hashed group, with id base + its
// insertion rank, where base is the dense width (0 for kHash/kRadix).
class AggTable {
 public:
  AggTable(AggShape shape, StrategyChoice choice);

  // Maps `n` canonical key tuples (tuple i at keys[i * nkeys]) to group
  // ids, inserting absent groups.  A kHash table that a lookup found at
  // kRadixUpgradeGroups or more groups upgrades to kRadix after the batch.
  void map_groups(const double* keys, std::size_t n, uint32_t* ids);
  ItemColumn& item(std::size_t j) { return items_[j]; }
  const ItemColumn& item(std::size_t j) const { return items_[j]; }

  // Empties the table in time proportional to its groups, keeping its
  // storage, its hash capacity and its physical strategy.
  void clear();

  void merge(const AggTable& o);
  uint64_t ngroups() const;
  const AggShape& shape() const { return shape_; }
  // Physical strategy currently in effect (reflects runtime upgrades).
  Strategy strategy() const { return active_; }

  // Appends every group's keys (nkeys each) and id: dense keys in key
  // order, then hashed groups in insertion order.
  void list_groups(std::vector<double>& keys,
                   std::vector<uint32_t>& ids) const;

  // Self-describing byte-string codec (docs/AGGREGATION.md "Wire format").
  // merge_encoded folds an encoded state into this table; throws
  // QueryError on malformed bytes or shape mismatch.
  void encode(std::string& out) const;
  void merge_encoded(const uint8_t* data, std::size_t size);

 private:
  // Open-addressing index over hashed groups: a slot holds the group's
  // insertion rank + 1, or 0 when empty.  Load stays under 0.7.
  struct KeyIndex {
    std::vector<uint32_t> slots = std::vector<uint32_t>(16, 0);
    std::size_t used = 0;
  };

  uint32_t find_or_insert_hashed(const double* keys);
  KeyIndex& index_of(uint64_t hash);
  void insert_rank(KeyIndex& ix, uint64_t hash, uint32_t rank);
  // Doubles ix when one more group would load it past 0.7.
  void make_room(KeyIndex& ix);
  void upgrade_to_radix();
  const double* hashed_key(uint32_t rank) const {
    return keys_.data() + static_cast<std::size_t>(rank) * shape_.nkeys;
  }

  AggShape shape_;
  StrategyChoice choice_;
  Strategy active_;
  std::vector<ItemColumn> items_;

  // kDense: occupancy of the key domain, and the slots occupied since the
  // last clear(), in first-use order.
  std::vector<uint8_t> present_;
  std::vector<uint32_t> touched_;

  // Hashed groups (kDense spill, kHash, kRadix): their ids start at base_.
  // Keys are stored nkeys per group in insertion order.  parts_ holds one
  // index, or kRadixParts routed by the top bits of the key hash.
  uint32_t base_ = 0;
  uint32_t nhashed_ = 0;
  std::vector<double> keys_;
  std::vector<KeyIndex> parts_;

  // merge() scratch, kept to spare an allocation per AFC commit.
  std::vector<double> merge_keys_;
  std::vector<uint32_t> merge_from_, merge_to_;
};

// Top-k row state for plain (non-aggregate) SELECT ... ORDER BY/LIMIT
// pushdown: a bounded worst-at-root heap of the k first rows under the
// deterministic ordering (order keys, then whole-row lexicographic on
// total-order bits).  With no LIMIT it degrades to collect-all.
class TopK {
 public:
  TopK(int ncols, std::vector<expr::OrderKeyRef> order, int64_t limit);

  void add(const double* row);
  void merge(const TopK& o);
  void clear() { rows_.clear(); }
  uint64_t nrows() const { return ncols_ ? rows_.size() / ncols_ : 0; }
  int ncols() const { return ncols_; }

  // Rows under the deterministic ordering with the limit applied.
  std::vector<double> sorted_rows() const;

  void encode(std::string& out) const;
  void merge_encoded(const uint8_t* data, std::size_t size);

 private:
  bool before(const double* a, const double* b) const;
  void swap_rows(std::size_t a, std::size_t b);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i, std::size_t n);

  int ncols_;
  std::vector<expr::OrderKeyRef> order_;
  int64_t limit_;
  std::vector<double> rows_;  // heap-ordered when bounded
};

// -------------------------------------------------------------------------
// Finalization

// Everything needed to turn merged aggregate state into final output rows.
// Derivable from a BoundQuery in-process, or — schema-free — from the
// parsed query plus result-column names at the dist coordinator.
struct FinalizeSpec {
  bool grouped = false;
  AggShape shape;                        // grouped only
  std::vector<expr::OutputColRef> out;   // grouped only, select-list order
  std::vector<expr::OrderKeyRef> order;
  int64_t limit = -1;
  int ncols = 0;                         // final output width
};

FinalizeSpec finalize_spec(const expr::BoundQuery& q);
// `col_names` are the output column names in order, used to resolve ORDER
// BY for plain queries (pass the schema attribute names for SELECT *).
// Throws QueryError when the query's ORDER BY / select list is unresolvable.
FinalizeSpec finalize_spec(const sql::SelectQuery& q,
                           const std::vector<std::string>& col_names);

// Sorts `flat` (row-major, ncols wide) by the order keys then whole-row
// lexicographic total-order bits, and truncates to `limit` when >= 0.
void sort_limit_rows(std::vector<double>& flat, int ncols,
                     const std::vector<expr::OrderKeyRef>& order,
                     int64_t limit);

// Accumulates encoded partial states (any order, any grouping — merging is
// exact) and materializes the final, deterministically-ordered rows.
class MergeAcc {
 public:
  explicit MergeAcc(FinalizeSpec spec);

  void merge_encoded(const uint8_t* data, std::size_t size);
  void merge_encoded(const std::string& bytes);

  // Groups (or buffered top-k rows) currently held.
  uint64_t ngroups() const;
  // Final output rows, row-major spec().ncols wide, sorted and limited.
  std::vector<double> finalize_rows() const;
  const FinalizeSpec& spec() const { return spec_; }

 private:
  FinalizeSpec spec_;
  std::unique_ptr<AggTable> tab_;
  std::unique_ptr<TopK> topk_;
};

// -------------------------------------------------------------------------
// Worker-side sink

// RowSink that folds matched rows into local aggregate state instead of
// shipping them.  Follows the node loop's per-AFC sink protocol
// (storm/node_runner.h): folds go into a delta that begin_afc() merges
// into the committed state and rollback_afc() discards, so an AFC retried
// after a transient IoError never double-counts (rollback always succeeds
// — nothing has left the worker).  Either way the delta is cleared, not
// rebuilt, so its cost follows the groups the AFC touched.
//
// on_rows folds a batch in two passes: every row to a group id, then one
// loop per aggregate item over those ids.  on_row is a one-row batch.
class PushdownSink : public codegen::RowSink {
 public:
  PushdownSink(const expr::BoundQuery& q, const StrategyChoice& choice);
  ~PushdownSink() override;

  void begin_afc();
  bool rollback_afc();
  void finish();

  void on_row(const double* vals, uint64_t scan_index) override;
  void on_rows(const double* rows, std::size_t ncols, std::size_t nrows,
               const uint64_t* scan_index) override;

  uint64_t rows_folded() const { return rows_folded_; }
  // Committed state; meaningful after finish().  Exactly one is non-null.
  AggTable* table() { return main_tab_.get(); }
  TopK* topk() { return main_topk_.get(); }

  // Folds this sink's committed state into `dst` (worker -> node merge).
  void merge_into(PushdownSink& dst) const;
  // Serializes the committed state (what crosses the node boundary).
  void encode(std::string& out) const;

 private:
  const expr::BoundQuery* q_;
  bool grouped_;
  std::vector<double> keybuf_;  // canonical keys of the batch, row-major
  std::vector<uint32_t> ids_;   // group id of each row of the batch
  uint64_t rows_folded_ = 0;
  std::unique_ptr<AggTable> main_tab_, delta_tab_;
  std::unique_ptr<TopK> main_topk_, delta_topk_;
};

}  // namespace adv::agg
