// Binding a parsed query to a schema and compiling its WHERE clause.
//
// The extraction hot loop materializes only the attributes a query needs
// (select list ∪ predicate attributes) into a dense per-row double buffer.
// The compiled predicate evaluates against that buffer by slot index; the
// interval analysis feeding the index function is produced at bind time.
#pragma once

#include <vector>

#include "expr/interval.h"
#include "expr/table.h"
#include "expr/udf.h"
#include "metadata/model.h"
#include "sql/ast.h"

namespace adv::expr {

// Compiled scalar expression with attribute references resolved to slots in
// the materialized row buffer.
struct CompiledScalar {
  enum class Kind : uint8_t { kConst, kSlot, kCall, kArith };

  Kind kind = Kind::kConst;
  double cval = 0;
  int slot = -1;
  const Udf* udf = nullptr;
  char op = '+';
  std::vector<CompiledScalar> args;  // call args, or {lhs, rhs} for kArith

  double eval(const double* row) const;
};

// Compiled boolean predicate.
struct CompiledBool {
  enum class Kind : uint8_t { kTrue, kCmp, kIn, kAnd, kOr, kNot };

  Kind kind = Kind::kTrue;
  sql::CmpOp cmp = sql::CmpOp::kLt;
  CompiledScalar lhs, rhs;       // kCmp
  int slot = -1;                 // kIn
  std::vector<double> in_set;    // kIn, sorted
  std::vector<CompiledBool> kids;

  bool eval(const double* row) const;
};

// One aggregate select item bound against the scan row.  `input` evaluates
// the aggregate argument against the row the extraction kernels materialize
// (select_slots order), not the wider needed-attr buffer.
struct BoundAggItem {
  sql::AggFn fn = sql::AggFn::kCount;
  bool star = false;       // COUNT(*)
  CompiledScalar input;    // unused when star
};

// Output column of an aggregate query: a group key or an aggregate value.
struct OutputColRef {
  bool is_agg = false;
  int index = 0;  // into group keys (is_agg false) or agg items (true)
};

// One resolved ORDER BY key: an output-column position plus direction.
struct OrderKeyRef {
  int col = 0;
  bool desc = false;
};

// A SELECT query bound against a schema.  Immutable after construction.
// Owns a copy of the schema, so it outlives the object it was bound from.
//
// Aggregation pushdown (docs/AGGREGATION.md): for queries with aggregates
// the *scan* columns (group keys ∪ aggregate-input attributes, first-use
// order) take the place of the select list everywhere the extraction
// pipeline looks — select_attrs() / select_slots() describe what the
// kernels materialize per row, so the vector and interp loops work
// unchanged.  result_columns() describes the final (post-merge) output.
class BoundQuery {
 public:
  // Throws QueryError on unknown attributes / functions or arity mismatch.
  BoundQuery(sql::SelectQuery query, const meta::Schema& schema);

  const sql::SelectQuery& query() const { return query_; }
  const meta::Schema& schema() const { return schema_; }

  // Schema attribute indices the row pipeline must materialize, ascending.
  const std::vector<int>& needed_attrs() const { return needed_attrs_; }

  // Slot in the materialized buffer for schema attribute `attr`, or -1.
  int slot_of_attr(int attr) const { return attr_slot_[attr]; }

  // Selected schema attribute indices in output order (* expands to all).
  const std::vector<int>& select_attrs() const { return select_attrs_; }

  // Slots of the selected attributes in the materialized buffer.
  const std::vector<int>& select_slots() const { return select_slots_; }

  // Full predicate over the materialized buffer.
  bool matches(const double* row) const { return predicate_.eval(row); }
  const CompiledBool& predicate() const { return predicate_; }

  // Slots (into the materialized buffer) the predicate reads — extraction
  // materializes these eagerly and defers the rest until a row matches.
  const std::vector<int>& predicate_slots() const { return predicate_slots_; }

  // Whether the query has any WHERE clause at all.
  bool has_predicate() const { return predicate_.kind != CompiledBool::Kind::kTrue; }

  // Conservative per-attribute intervals implied by the WHERE clause.
  const QueryIntervals& intervals() const { return intervals_; }

  // Column descriptors of the result table.  For aggregate queries these
  // are the final output columns (select-list order), not the scan columns.
  std::vector<Table::Column> result_columns() const;

  // --- Aggregation / top-k pushdown plan -----------------------------------

  // True when the query aggregates (any aggregate item or GROUP BY).
  bool has_aggregates() const { return has_agg_; }
  // True when results are produced by the pushdown merge path instead of
  // row shipping: aggregates, ORDER BY, or LIMIT.
  bool is_pushdown() const {
    return has_agg_ || !order_keys_.empty() || limit_ >= 0;
  }

  // Positions of the group keys in the scan row (GROUP BY order).
  const std::vector<int>& group_key_cols() const { return group_key_cols_; }
  // Schema attribute indices of the group keys (GROUP BY order).
  const std::vector<int>& group_key_attrs() const { return group_key_attrs_; }
  // Aggregate select items (select-list order).
  const std::vector<BoundAggItem>& agg_items() const { return agg_items_; }
  // Output columns of an aggregate query (select-list order).
  const std::vector<OutputColRef>& output_cols() const { return output_cols_; }
  // Resolved ORDER BY keys (output-column positions) and the LIMIT.
  const std::vector<OrderKeyRef>& order_keys() const { return order_keys_; }
  int64_t limit() const { return limit_; }

 private:
  sql::SelectQuery query_;
  meta::Schema schema_;
  std::vector<int> needed_attrs_;
  std::vector<int> attr_slot_;
  std::vector<int> select_attrs_;
  std::vector<int> select_slots_;
  CompiledBool predicate_;
  std::vector<int> predicate_slots_;
  QueryIntervals intervals_{0};
  bool has_agg_ = false;
  std::vector<int> group_key_cols_;
  std::vector<int> group_key_attrs_;
  std::vector<BoundAggItem> agg_items_;
  std::vector<OutputColRef> output_cols_;
  std::vector<OrderKeyRef> order_keys_;
  int64_t limit_ = -1;
};

}  // namespace adv::expr
