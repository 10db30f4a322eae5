// In-memory result table.
//
// Query results are numeric (every descriptor attribute is a fixed-width
// numeric type), so the table stores column-major doubles — exact for every
// supported integer type up to 2^53 — and keeps the declared DataType per
// column for printing and for loading into minidb.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace adv::expr {

// Copies `nrows` row-major rows of width `ncols` into columns:
// dst[c][r] = rows[r * ncols + c].  Cache-blocked: a block of rows stays in
// L1 while every column takes its slice, so each source line is read once
// instead of once per column.
void transpose_rows(const double* rows, std::size_t nrows, std::size_t ncols,
                    double* const* dst);

class Table {
 public:
  struct Column {
    std::string name;
    DataType type = DataType::kFloat64;
  };

  Table() = default;
  explicit Table(std::vector<Column> cols);
  // Adopts column-major data by move; every column must hold `rows`
  // values.
  Table(std::vector<Column> cols, std::vector<std::vector<double>> data,
        std::size_t rows);

  const std::vector<Column>& columns() const { return cols_; }
  std::size_t num_cols() const { return cols_.size(); }
  std::size_t num_rows() const { return rows_; }

  // Appends one row; `vals` must hold num_cols() values.
  void append_row(const double* vals);

  // Appends `nrows` row-major rows in one pass (transpose_rows) instead of
  // nrows * num_cols() scattered push_backs.
  void append_rows(const double* rows, std::size_t nrows);

  double at(std::size_t row, std::size_t col) const {
    return data_[col][row];
  }
  const std::vector<double>& column(std::size_t col) const {
    return data_[col];
  }

  // Appends all rows of `other` (column schemas must match in count).
  void append_table(const Table& other);

  // Concatenation of `parts` in order (an empty list gives an empty
  // table).  The rvalue overload moves parts[0] instead of copying it, so
  // a single-part result is handed over without a copy.
  static Table concat(const std::vector<Table>& parts);
  static Table concat(std::vector<Table>&& parts);

  // Sorts rows lexicographically (column 0 first).  Used to compare results
  // produced in different orders by different layouts / engines.
  void sort_rows();

  // Row-set equality after independent sorting, with per-value tolerance
  // `tol` (floats go through a float32 round-trip in some layouts).
  bool same_rows(const Table& other, double tol = 1e-6) const;

  // First `max_rows` rows as CSV with a header line.
  std::string to_csv(std::size_t max_rows = 20) const;

  // Nominal payload size: sum of column on-disk widths times rows.
  uint64_t payload_bytes() const;

 private:
  std::vector<Column> cols_;
  std::vector<std::vector<double>> data_;  // column-major
  std::size_t rows_ = 0;
};

}  // namespace adv::expr
